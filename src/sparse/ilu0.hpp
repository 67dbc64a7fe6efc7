// Process-local ILU(0): the shared incomplete factorization behind pksp's
// block-Jacobi ILU(0) (PCILU) and aztec's AZ_dom_decomp preconditioner.
//
// The factor is the classic zero-fill IKJ elimination (Saad, Alg. 10.4) of
// the square local diagonal block.  It is stored as two level-scheduled
// triangular sweeps (Anderson & Saad 1989): every row gets a level, one more
// than the deepest row it depends on, and the sweep visits rows level by
// level.  Rows of one level never read each other's results, so consecutive
// rows in the sweep are independent dependency chains the CPU overlaps,
// instead of each row waiting on the previous one as in a natural-order
// sweep.  Each row keeps its operands and their order, so the result is
// bitwise the natural-order result.
#pragma once

#include <span>
#include <vector>

#include "sparse/dist_csr.hpp"
#include "sparse/formats.hpp"

namespace lisi::sparse {

/// The square diagonal block of a block-row piece: the rows of `rowBlock`
/// (global column indices, first row `startRow`) restricted to the columns
/// [startRow, startRow + rowBlock.rows), renumbered from 0.  Entry order
/// within each row is kept; the block is not canonicalized.
[[nodiscard]] CsrMatrix localDiagonalBlock(const CsrMatrix& rowBlock,
                                           int startRow);
[[nodiscard]] CsrMatrix localDiagonalBlock(const DistCsrMatrix& a);

/// ILU(0) of a square block, stored as level-scheduled L and U sweeps.
/// Throws lisi::Error on a structurally zero diagonal or a zero pivot.
class Ilu0Factor {
 public:
  /// Factor the local diagonal block of `a` (block-Jacobi ILU(0)).
  explicit Ilu0Factor(const DistCsrMatrix& a);
  /// Factor a square matrix; any entry order, duplicates are summed.
  explicit Ilu0Factor(CsrMatrix block);

  /// Same-pattern refresh: refactor from the new values when the block has
  /// the pattern this factor was built on; return false (factor unchanged)
  /// otherwise, so the caller rebuilds.  Throws on a zero pivot.
  [[nodiscard]] bool refresh(const DistCsrMatrix& a);
  [[nodiscard]] bool refresh(CsrMatrix block);

  /// z = U^{-1} L^{-1} r.  z may alias r.  The float overload runs the same
  /// sweeps over a float32 copy of the factor; it needs setFloatMirror(true).
  void apply(std::span<const double> r, std::span<double> z) const;
  void apply(std::span<const float> r, std::span<float> z) const;

  /// Keep (or drop) the float32 copy of the factor values; refresh() keeps
  /// an enabled copy current.
  void setFloatMirror(bool enable);

  [[nodiscard]] int rows() const { return static_cast<int>(upper_.row.size()); }
  /// Stored factor entries (strictly lower + diagonal + strictly upper).
  [[nodiscard]] int nnz() const {
    return rows() + static_cast<int>(lower_.col.size() + upper_.col.size());
  }
  [[nodiscard]] int lowerLevels() const { return lower_.levels; }
  [[nodiscard]] int upperLevels() const { return upper_.levels; }

 private:
  /// One triangular sweep: sweep position p solves row `row[p]` with the
  /// off-diagonal entries [ptr[p], ptr[p+1]) of `col` (original CSR order).
  struct Sweep {
    std::vector<int> row, ptr, col;
    int levels = 0;
  };
  /// Factor values laid out in sweep order; `diag` follows upper_.row.
  template <class V>
  struct Values {
    std::vector<V> lower, upper, diag;
  };

  template <class V>
  void sweep(const Values<V>& v, std::span<const V> r, std::span<V> z) const;
  void store(const CsrMatrix& lu, const std::vector<int>& diagPos);
  [[nodiscard]] bool samePattern(const CsrMatrix& blk,
                                 const std::vector<int>& diagPos) const;
  void mirrorToFloat();

  Sweep lower_, upper_;
  Values<double> vals_;
  Values<float> valsF_;
  bool mirror_ = false;
};

}  // namespace lisi::sparse
