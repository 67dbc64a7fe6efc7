// Shared ILU(0) factor with level-scheduled triangular sweeps (ilu0.hpp).
#include "sparse/ilu0.hpp"

#include <algorithm>

namespace lisi::sparse {
namespace {

std::size_t at(int i) { return static_cast<std::size_t>(i); }

/// Position of each row's diagonal entry in `blk`, -1 where it is absent.
std::vector<int> findDiagonal(const CsrMatrix& blk) {
  std::vector<int> diagPos(at(blk.rows), -1);
  for (int i = 0; i < blk.rows; ++i) {
    for (int k = blk.rowPtr[at(i)]; k < blk.rowPtr[at(i) + 1]; ++k) {
      if (blk.colIdx[at(k)] == i) diagPos[at(i)] = k;
    }
  }
  return diagPos;
}

/// IKJ-variant ILU(0) (Saad, Alg. 10.4) in place on the canonical `lu`,
/// restricted to its existing pattern.
void factorIkj(CsrMatrix& lu, const std::vector<int>& diagPos) {
  const int n = lu.rows;
  std::vector<int> posInRow(at(n), -1);
  for (int i = 0; i < n; ++i) {
    const int rb = lu.rowPtr[at(i)];
    const int re = lu.rowPtr[at(i) + 1];
    for (int k = rb; k < re; ++k) posInRow[at(lu.colIdx[at(k)])] = k;
    for (int k = rb; k < re; ++k) {
      const int j = lu.colIdx[at(k)];
      if (j >= i) break;  // only strictly-lower entries eliminate
      const double pivot = lu.values[at(diagPos[at(j)])];
      LISI_CHECK(pivot != 0.0, "ILU(0): zero pivot during factorization");
      const double lij = lu.values[at(k)] / pivot;
      lu.values[at(k)] = lij;
      for (int kk = diagPos[at(j)] + 1; kk < lu.rowPtr[at(j) + 1]; ++kk) {
        const int pos = posInRow[at(lu.colIdx[at(kk)])];
        if (pos >= 0) lu.values[at(pos)] -= lij * lu.values[at(kk)];
      }
    }
    for (int k = rb; k < re; ++k) posInRow[at(lu.colIdx[at(k)])] = -1;
    LISI_CHECK(lu.values[at(diagPos[at(i)])] != 0.0, "ILU(0): zero pivot");
  }
}

/// Off-diagonal entry range of row i in one triangle of canonical `lu`.
struct Triangle {
  const CsrMatrix& lu;
  const std::vector<int>& diagPos;
  bool lower;
  [[nodiscard]] int begin(int i) const {
    return lower ? lu.rowPtr[at(i)] : diagPos[at(i)] + 1;
  }
  [[nodiscard]] int end(int i) const {
    return lower ? diagPos[at(i)] : lu.rowPtr[at(i) + 1];
  }
};

/// Level-schedule one triangle: lev(i) = 1 + max lev(j) over the row's
/// off-diagonal columns j (rows above i for L, below i for U), then a
/// counting sort by level that keeps row order within a level.  O(n + nnz).
template <class Sweep>
void schedule(const Triangle& t, Sweep& s) {
  const int n = t.lu.rows;
  std::vector<int> level(at(n), 0);
  int levels = 0;
  for (int step = 0; step < n; ++step) {
    const int i = t.lower ? step : n - 1 - step;
    int lev = 0;
    for (int k = t.begin(i); k < t.end(i); ++k) {
      lev = std::max(lev, level[at(t.lu.colIdx[at(k)])] + 1);
    }
    level[at(i)] = lev;
    levels = std::max(levels, lev + 1);
  }
  std::vector<int> next(at(levels) + 1, 0);
  for (int i = 0; i < n; ++i) ++next[at(level[at(i)]) + 1];
  for (int l = 0; l < levels; ++l) next[at(l) + 1] += next[at(l)];
  s.row.resize(at(n));
  for (int i = 0; i < n; ++i) s.row[at(next[at(level[at(i)])]++)] = i;

  s.ptr.resize(at(n) + 1);
  s.ptr[0] = 0;
  for (int p = 0; p < n; ++p) {
    const int i = s.row[at(p)];
    s.ptr[at(p) + 1] = s.ptr[at(p)] + t.end(i) - t.begin(i);
  }
  s.col.resize(at(s.ptr[at(n)]));
  for (int p = 0; p < n; ++p) {
    const int i = s.row[at(p)];
    std::copy(t.lu.colIdx.begin() + t.begin(i), t.lu.colIdx.begin() + t.end(i),
              s.col.begin() + s.ptr[at(p)]);
  }
  s.levels = levels;
}

}  // namespace

CsrMatrix localDiagonalBlock(const CsrMatrix& rowBlock, int startRow) {
  const int end = startRow + rowBlock.rows;
  CsrMatrix blk;
  blk.rows = rowBlock.rows;
  blk.cols = rowBlock.rows;
  blk.rowPtr.assign(at(blk.rows) + 1, 0);
  for (int i = 0; i < rowBlock.rows; ++i) {
    for (int k = rowBlock.rowPtr[at(i)]; k < rowBlock.rowPtr[at(i) + 1]; ++k) {
      const int c = rowBlock.colIdx[at(k)];
      if (c >= startRow && c < end) {
        blk.colIdx.push_back(c - startRow);
        blk.values.push_back(rowBlock.values[at(k)]);
      }
    }
    blk.rowPtr[at(i) + 1] = static_cast<int>(blk.values.size());
  }
  return blk;
}

CsrMatrix localDiagonalBlock(const DistCsrMatrix& a) {
  return localDiagonalBlock(a.localBlock(), a.startRow());
}

Ilu0Factor::Ilu0Factor(const DistCsrMatrix& a)
    : Ilu0Factor(localDiagonalBlock(a)) {}

Ilu0Factor::Ilu0Factor(CsrMatrix block) {
  LISI_CHECK(block.rows == block.cols, "ILU(0): block must be square");
  block.canonicalize();
  const std::vector<int> diagPos = findDiagonal(block);
  for (const int p : diagPos) {
    LISI_CHECK(p >= 0, "ILU(0): structurally zero diagonal");
  }
  schedule(Triangle{block, diagPos, true}, lower_);
  schedule(Triangle{block, diagPos, false}, upper_);
  factorIkj(block, diagPos);
  store(block, diagPos);
}

bool Ilu0Factor::refresh(const DistCsrMatrix& a) {
  return refresh(localDiagonalBlock(a));
}

bool Ilu0Factor::refresh(CsrMatrix block) {
  if (block.rows != rows() || block.cols != rows()) return false;
  block.canonicalize();
  const std::vector<int> diagPos = findDiagonal(block);
  if (!samePattern(block, diagPos)) return false;
  factorIkj(block, diagPos);
  store(block, diagPos);
  return true;
}

bool Ilu0Factor::samePattern(const CsrMatrix& blk,
                             const std::vector<int>& diagPos) const {
  if (std::find(diagPos.begin(), diagPos.end(), -1) != diagPos.end()) {
    return false;
  }
  // Every row appears once in each sweep, so matching both triangles row by
  // row matches the whole pattern.
  auto matches = [&](const Sweep& s, bool lower) {
    const Triangle t{blk, diagPos, lower};
    for (int p = 0; p < rows(); ++p) {
      const int i = s.row[at(p)];
      if (t.end(i) - t.begin(i) != s.ptr[at(p) + 1] - s.ptr[at(p)] ||
          !std::equal(blk.colIdx.begin() + t.begin(i),
                      blk.colIdx.begin() + t.end(i),
                      s.col.begin() + s.ptr[at(p)])) {
        return false;
      }
    }
    return true;
  };
  return matches(lower_, true) && matches(upper_, false);
}

void Ilu0Factor::store(const CsrMatrix& lu, const std::vector<int>& diagPos) {
  const int n = rows();
  vals_.lower.resize(lower_.col.size());
  vals_.upper.resize(upper_.col.size());
  vals_.diag.resize(at(n));
  for (int p = 0; p < n; ++p) {
    const int i = lower_.row[at(p)];
    std::copy(lu.values.begin() + lu.rowPtr[at(i)],
              lu.values.begin() + diagPos[at(i)],
              vals_.lower.begin() + lower_.ptr[at(p)]);
  }
  for (int p = 0; p < n; ++p) {
    const int i = upper_.row[at(p)];
    vals_.diag[at(p)] = lu.values[at(diagPos[at(i)])];
    std::copy(lu.values.begin() + diagPos[at(i)] + 1,
              lu.values.begin() + lu.rowPtr[at(i) + 1],
              vals_.upper.begin() + upper_.ptr[at(p)]);
  }
  if (mirror_) mirrorToFloat();
}

void Ilu0Factor::setFloatMirror(bool enable) {
  mirror_ = enable;
  if (enable) {
    mirrorToFloat();
  } else {
    valsF_ = {};
  }
}

void Ilu0Factor::mirrorToFloat() {
  valsF_.lower.assign(vals_.lower.begin(), vals_.lower.end());
  valsF_.upper.assign(vals_.upper.begin(), vals_.upper.end());
  valsF_.diag.assign(vals_.diag.begin(), vals_.diag.end());
}

template <class V>
void Ilu0Factor::sweep(const Values<V>& v, std::span<const V> r,
                       std::span<V> z) const {
  const int n = rows();
  LISI_CHECK(r.size() == at(n) && z.size() == at(n),
             "ILU(0): vector length does not match the factor");
  // lisi-lint: zero-alloc-begin(ILU0 triangular sweeps, every apply)
  // Forward solve L y = r (unit lower triangular), level by level.  Rows of
  // one level are independent, so the loop carries no row-to-row chain.
  const int* row = lower_.row.data();
  const int* ptr = lower_.ptr.data();
  const int* col = lower_.col.data();
  const V* val = v.lower.data();
  for (int p = 0; p < n; ++p) {
    const int i = row[p];
    V acc = r[at(i)];
    for (int k = ptr[p]; k < ptr[p + 1]; ++k) acc -= val[k] * z[at(col[k])];
    z[at(i)] = acc;
  }
  // Backward solve U z = y, levels counted from the bottom row.
  row = upper_.row.data();
  ptr = upper_.ptr.data();
  col = upper_.col.data();
  val = v.upper.data();
  const V* diag = v.diag.data();
  for (int p = 0; p < n; ++p) {
    const int i = row[p];
    V acc = z[at(i)];
    for (int k = ptr[p]; k < ptr[p + 1]; ++k) acc -= val[k] * z[at(col[k])];
    z[at(i)] = acc / diag[p];
  }
  // lisi-lint: zero-alloc-end
}

void Ilu0Factor::apply(std::span<const double> r, std::span<double> z) const {
  sweep(vals_, r, z);
}

void Ilu0Factor::apply(std::span<const float> r, std::span<float> z) const {
  LISI_CHECK(mirror_, "ILU(0): float apply needs setFloatMirror(true)");
  sweep(valsF_, r, z);
}

}  // namespace lisi::sparse
