// Tests for the shared ILU(0) factor (src/sparse/ilu0.hpp): the
// level-scheduled sweeps must give bitwise the z of a natural-order
// sweep over the same factor, in double and float, on every matrix shape
// the preconditioners see.  The natural-order reference (factor and both
// sweeps) lives only here.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mesh/pde5pt.hpp"
#include "sparse/generate.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/matrix_market.hpp"
#include "support/rng.hpp"

namespace lisi::sparse {
namespace {

std::size_t at(int i) { return static_cast<std::size_t>(i); }

/// ILU(0) with natural-order (row 0..n-1, then n-1..0) triangular solves.
struct NaturalIlu0 {
  CsrMatrix lu;
  std::vector<int> diagPos;
  std::vector<float> valsF;

  explicit NaturalIlu0(CsrMatrix a) : lu(std::move(a)) {
    lu.canonicalize();
    const int n = lu.rows;
    diagPos.assign(at(n), -1);
    for (int i = 0; i < n; ++i) {
      for (int k = lu.rowPtr[at(i)]; k < lu.rowPtr[at(i) + 1]; ++k) {
        if (lu.colIdx[at(k)] == i) diagPos[at(i)] = k;
      }
    }
    std::vector<int> pos(at(n), -1);
    for (int i = 0; i < n; ++i) {
      const int rb = lu.rowPtr[at(i)];
      const int re = lu.rowPtr[at(i) + 1];
      for (int k = rb; k < re; ++k) pos[at(lu.colIdx[at(k)])] = k;
      for (int k = rb; k < re; ++k) {
        const int j = lu.colIdx[at(k)];
        if (j >= i) break;
        const double lij = lu.values[at(k)] / lu.values[at(diagPos[at(j)])];
        lu.values[at(k)] = lij;
        for (int kk = diagPos[at(j)] + 1; kk < lu.rowPtr[at(j) + 1]; ++kk) {
          const int p = pos[at(lu.colIdx[at(kk)])];
          if (p >= 0) lu.values[at(p)] -= lij * lu.values[at(kk)];
        }
      }
      for (int k = rb; k < re; ++k) pos[at(lu.colIdx[at(k)])] = -1;
    }
    valsF.assign(lu.values.begin(), lu.values.end());
  }

  template <class V>
  void apply(const std::vector<V>& vals, const std::vector<V>& r,
             std::vector<V>& z) const {
    const int n = lu.rows;
    for (int i = 0; i < n; ++i) {
      V acc = r[at(i)];
      for (int k = lu.rowPtr[at(i)]; k < diagPos[at(i)]; ++k) {
        acc -= vals[at(k)] * z[at(lu.colIdx[at(k)])];
      }
      z[at(i)] = acc;
    }
    for (int i = n - 1; i >= 0; --i) {
      V acc = z[at(i)];
      for (int k = diagPos[at(i)] + 1; k < lu.rowPtr[at(i) + 1]; ++k) {
        acc -= vals[at(k)] * z[at(lu.colIdx[at(k)])];
      }
      z[at(i)] = acc / vals[at(diagPos[at(i)])];
    }
  }
};

template <class V>
bool bitwiseEqual(const std::vector<V>& a, const std::vector<V>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0;
}

std::vector<double> randomVector(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(at(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Rank `rank`'s diagonal block of the Figure 5 operator (200x200 grid,
/// the krylov_p4 problem) under the p-rank block-row partition.
CsrMatrix figure5Block(int rank, int p) {
  mesh::Pde5ptSpec spec;
  spec.gridN = 200;
  const mesh::Pde5ptLocalSystem sys = mesh::assembleLocal(spec, rank, p);
  return localDiagonalBlock(sys.localA, sys.startRow);
}

CsrMatrix diagonalOnly(int n) {
  CsrMatrix a;
  a.rows = a.cols = n;
  for (int i = 0; i <= n; ++i) a.rowPtr.push_back(i);
  for (int i = 0; i < n; ++i) {
    a.colIdx.push_back(i);
    a.values.push_back(2.0 + 0.25 * i);
  }
  return a;
}

/// Lower bidiagonal chain: every row depends on the one before it, so
/// each row is its own level.
CsrMatrix bidiagonalChain(int n) {
  CsrMatrix a;
  a.rows = a.cols = n;
  a.rowPtr.push_back(0);
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      a.colIdx.push_back(i - 1);
      a.values.push_back(-1.0 + 0.01 * i);
    }
    a.colIdx.push_back(i);
    a.values.push_back(3.0);
    a.rowPtr.push_back(static_cast<int>(a.colIdx.size()));
  }
  return a;
}

struct SweepCase {
  std::string name;
  std::function<CsrMatrix()> make;
};

// Print the name only: the default byte dump of a case would embed heap
// addresses and make the ctest names differ from build to build.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> cases;
  // First and last rank's block at p = 1, 2, 4.
  const std::pair<int, int> blocks[] = {{1, 0}, {2, 0}, {2, 1}, {4, 0}, {4, 3}};
  for (const auto& [p, rank] : blocks) {
    cases.push_back({"figure5_p" + std::to_string(p) + "_rank" +
                         std::to_string(rank),
                     [p, rank] { return figure5Block(rank, p); }});
  }
  cases.push_back({"laplacian2d9", [] { return laplacian2d9(20, 20); }});
  cases.push_back({"permuted_laplacian2d9", [] {
                     Rng prng(7);
                     return permuteSymmetric(laplacian2d9(20, 20), prng);
                   }});
  cases.push_back({"perm9pt16_mtx", [] {
                     return readMatrixMarket(std::string(LISI_TEST_DATA_DIR) +
                                             "/perm9pt16.mtx");
                   }});
  cases.push_back({"blockLaplacian2d", [] { return blockLaplacian2d(8, 8, 3); }});
  cases.push_back({"random_diag_dominant", [] {
                     Rng rng(11);
                     return randomDiagDominant(300, 7, 1.0, rng);
                   }});
  cases.push_back({"diagonal_only", [] { return diagonalOnly(50); }});
  cases.push_back({"one_by_one", [] { return diagonalOnly(1); }});
  cases.push_back({"bidiagonal_chain", [] { return bidiagonalChain(64); }});
  return cases;
}

class Ilu0SweepP : public ::testing::TestWithParam<SweepCase> {};

TEST_P(Ilu0SweepP, DoubleMatchesNaturalOrderBitwise) {
  const CsrMatrix a = GetParam().make();
  const NaturalIlu0 ref(a);
  const Ilu0Factor ilu(a);
  ASSERT_EQ(ilu.rows(), a.rows);
  EXPECT_EQ(ilu.nnz(), ref.lu.nnz());
  const std::vector<double> r = randomVector(a.rows, 42);
  std::vector<double> want(r.size()), got(r.size());
  ref.apply(ref.lu.values, r, want);
  ilu.apply(r, got);
  EXPECT_TRUE(bitwiseEqual(want, got));
  // In place: z may alias r.
  std::vector<double> inPlace = r;
  ilu.apply(inPlace, inPlace);
  EXPECT_TRUE(bitwiseEqual(want, inPlace));
}

TEST_P(Ilu0SweepP, FloatMatchesNaturalOrderBitwise) {
  const CsrMatrix a = GetParam().make();
  const NaturalIlu0 ref(a);
  Ilu0Factor ilu(a);
  ilu.setFloatMirror(true);
  const std::vector<double> rd = randomVector(a.rows, 43);
  const std::vector<float> r(rd.begin(), rd.end());
  std::vector<float> want(r.size()), got(r.size());
  ref.apply(ref.valsF, r, want);
  ilu.apply(r, got);
  EXPECT_TRUE(bitwiseEqual(want, got));
}

TEST_P(Ilu0SweepP, RefreshEqualsFreshBuildBitwise) {
  const CsrMatrix a = GetParam().make();
  CsrMatrix scaled = a;
  for (std::size_t k = 0; k < scaled.values.size(); ++k) {
    scaled.values[k] *= 1.0 + 0.125 * static_cast<double>(k % 5);
  }
  Ilu0Factor refreshed(a);
  refreshed.setFloatMirror(true);
  ASSERT_TRUE(refreshed.refresh(scaled));
  Ilu0Factor fresh(scaled);
  fresh.setFloatMirror(true);
  const std::vector<double> r = randomVector(a.rows, 44);
  std::vector<double> zr(r.size()), zf(r.size());
  refreshed.apply(r, zr);
  fresh.apply(r, zf);
  EXPECT_TRUE(bitwiseEqual(zr, zf));
  const std::vector<float> rF(r.begin(), r.end());
  std::vector<float> zrF(r.size()), zfF(r.size());
  refreshed.apply(rF, zrF);
  fresh.apply(rF, zfF);
  EXPECT_TRUE(bitwiseEqual(zrF, zfF));
}

INSTANTIATE_TEST_SUITE_P(Matrices, Ilu0SweepP, ::testing::ValuesIn(sweepCases()),
                         [](const auto& info) { return info.param.name; });

TEST(Ilu0Levels, Figure5P4BlockHas249LowerLevels) {
  // 50 grid lines x 200 points: row (y, x) depends on (y, x-1) and
  // (y-1, x), so its level is x + y and the levels run 0..248.
  const Ilu0Factor ilu(figure5Block(0, 4));
  EXPECT_EQ(ilu.rows(), 10000);
  EXPECT_EQ(ilu.lowerLevels(), 249);
  EXPECT_EQ(ilu.upperLevels(), 249);
}

TEST(Ilu0Levels, ChainHasOneRowPerLevelAndDiagonalOneLevel) {
  const Ilu0Factor chain(bidiagonalChain(64));
  EXPECT_EQ(chain.lowerLevels(), 64);
  EXPECT_EQ(chain.upperLevels(), 1);
  const Ilu0Factor diag(diagonalOnly(50));
  EXPECT_EQ(diag.lowerLevels(), 1);
  EXPECT_EQ(diag.upperLevels(), 1);
}

TEST(Ilu0Refresh, DifferentPatternIsRejected) {
  const CsrMatrix a = laplacian2d(6, 6);
  Ilu0Factor ilu(a);
  EXPECT_FALSE(ilu.refresh(laplacian2d9(6, 6)));
  EXPECT_FALSE(ilu.refresh(laplacian2d(6, 5)));
  // A rejected refresh leaves the factor as it was.
  const NaturalIlu0 ref(a);
  const std::vector<double> r = randomVector(a.rows, 45);
  std::vector<double> want(r.size()), got(r.size());
  ref.apply(ref.lu.values, r, want);
  ilu.apply(r, got);
  EXPECT_TRUE(bitwiseEqual(want, got));
}

CsrMatrix dense2x2(double a00, double a01, double a10, double a11) {
  CsrMatrix a;
  a.rows = a.cols = 2;
  a.rowPtr = {0, 2, 4};
  a.colIdx = {0, 1, 0, 1};
  a.values = {a00, a01, a10, a11};
  return a;
}

TEST(Ilu0Errors, ZeroPivotThrows) {
  EXPECT_THROW(Ilu0Factor(dense2x2(0.0, 1.0, 1.0, 1.0)), Error);
  // Eliminating row 1 cancels its pivot: 1 - (1/1)*1 = 0.
  EXPECT_THROW(Ilu0Factor(dense2x2(1.0, 1.0, 1.0, 1.0)), Error);
  Ilu0Factor ilu(dense2x2(2.0, 1.0, 1.0, 2.0));
  EXPECT_THROW((void)ilu.refresh(dense2x2(1.0, 1.0, 1.0, 1.0)), Error);
}

TEST(Ilu0Errors, StructurallyZeroDiagonalThrows) {
  CsrMatrix a;
  a.rows = a.cols = 2;
  a.rowPtr = {0, 2, 3};
  a.colIdx = {0, 1, 0};
  a.values = {1.0, 1.0, 1.0};
  EXPECT_THROW(Ilu0Factor{a}, Error);
}

TEST(Ilu0Errors, FloatApplyNeedsMirror) {
  const Ilu0Factor ilu(diagonalOnly(3));
  std::vector<float> r(3, 1.0f), z(3);
  EXPECT_THROW(ilu.apply(r, z), Error);
}

TEST(LocalDiagonalBlock, KeepsOwnedColumnsInRowOrder) {
  // Rows 2..3 of a 5-column operator; owned columns are 2 and 3.
  CsrMatrix rows;
  rows.rows = 2;
  rows.cols = 5;
  rows.rowPtr = {0, 3, 6};
  rows.colIdx = {3, 0, 2, 4, 2, 3};
  rows.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const CsrMatrix blk = localDiagonalBlock(rows, 2);
  EXPECT_EQ(blk.rows, 2);
  EXPECT_EQ(blk.cols, 2);
  EXPECT_EQ(blk.rowPtr, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(blk.colIdx, (std::vector<int>{1, 0, 0, 1}));
  EXPECT_EQ(blk.values, (std::vector<double>{1.0, 3.0, 5.0, 6.0}));
}

}  // namespace
}  // namespace lisi::sparse
