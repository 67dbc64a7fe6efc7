// Process-local preconditioners for PKSP: Jacobi, local SOR, and ILU(0) on
// the local diagonal block (one block per process, i.e. block Jacobi).
#include <algorithm>
#include <cmath>

#include "pksp/pksp_internal.hpp"
#include "sparse/ilu0.hpp"
#include "support/prec.hpp"

namespace pksp::detail {
namespace {

using lisi::sparse::CsrMatrix;
using lisi::sparse::DistCsrMatrix;
using lisi::sparse::localDiagonalBlock;

class JacobiPc final : public Preconditioner {
 public:
  explicit JacobiPc(const DistCsrMatrix& a) : invDiag_(a.localDiagonal()) {
    invert();
  }
  void apply(std::span<const double> r, std::span<double> z) const override {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = invDiag_[i] * r[i];
  }
  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    std::vector<double> d = a.localDiagonal();
    if (d.size() != invDiag_.size()) return false;
    invDiag_ = std::move(d);
    invert();
    return true;
  }

 private:
  void invert() {
    for (double& d : invDiag_) {
      LISI_CHECK(d != 0.0, "Jacobi preconditioner: zero diagonal entry");
      d = 1.0 / d;
    }
  }
  std::vector<double> invDiag_;
};

/// Local SOR: `sweeps` forward Gauss-Seidel-with-relaxation passes on the
/// local diagonal block, starting from z = 0 (standard SOR preconditioning).
class LocalSorPc final : public Preconditioner {
 public:
  LocalSorPc(const DistCsrMatrix& a, double omega, int sweeps)
      : blk_(localDiagonalBlock(a)), omega_(omega), sweeps_(sweeps) {
    LISI_CHECK(omega > 0.0 && omega < 2.0,
               "SOR preconditioner: omega must be in (0, 2)");
    LISI_CHECK(sweeps >= 1, "SOR preconditioner: need at least one sweep");
    diag_.resize(static_cast<std::size_t>(blk_.rows));
    for (int i = 0; i < blk_.rows; ++i) {
      double d = 0.0;
      for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
           k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        if (blk_.colIdx[static_cast<std::size_t>(k)] == i) {
          d += blk_.values[static_cast<std::size_t>(k)];
        }
      }
      LISI_CHECK(d != 0.0, "SOR preconditioner: zero diagonal entry");
      diag_[static_cast<std::size_t>(i)] = d;
    }
  }

  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    // Same-pattern contract: the extracted diagonal block keeps its layout,
    // so only the values (and the cached row diagonals) need rewriting.
    CsrMatrix blk = localDiagonalBlock(a);
    if (blk.rowPtr != blk_.rowPtr || blk.colIdx != blk_.colIdx) return false;
    blk_.values = std::move(blk.values);
    for (int i = 0; i < blk_.rows; ++i) {
      double d = 0.0;
      for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
           k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        if (blk_.colIdx[static_cast<std::size_t>(k)] == i) {
          d += blk_.values[static_cast<std::size_t>(k)];
        }
      }
      LISI_CHECK(d != 0.0, "SOR preconditioner: zero diagonal entry");
      diag_[static_cast<std::size_t>(i)] = d;
    }
    if (low_) mirrorToFloat();
    return true;
  }

  void setLowPrecision(bool enable) override {
    low_ = enable;
    if (enable) {
      mirrorToFloat();
    } else {
      valsF_.clear();
      diagF_.clear();
      zF_.clear();
    }
  }

  void apply(std::span<const double> r, std::span<double> z) const override {
    if (low_) {
      applyLow(r, z);
      return;
    }
    std::fill(z.begin(), z.end(), 0.0);
    for (int sweep = 0; sweep < sweeps_; ++sweep) {
      for (int i = 0; i < blk_.rows; ++i) {
        double sigma = 0.0;
        for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
             k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
          const int j = blk_.colIdx[static_cast<std::size_t>(k)];
          if (j != i) {
            sigma += blk_.values[static_cast<std::size_t>(k)] *
                     z[static_cast<std::size_t>(j)];
          }
        }
        const double gs =
            (r[static_cast<std::size_t>(i)] - sigma) /
            diag_[static_cast<std::size_t>(i)];
        z[static_cast<std::size_t>(i)] =
            (1.0 - omega_) * z[static_cast<std::size_t>(i)] + omega_ * gs;
      }
    }
    lisi::prec::noteBytesHigh(8LL * static_cast<long long>(blk_.values.size()) *
                              sweeps_);
  }

 private:
  void mirrorToFloat() {
    valsF_.assign(blk_.values.begin(), blk_.values.end());
    diagF_.assign(diag_.begin(), diag_.end());
    zF_.resize(static_cast<std::size_t>(blk_.rows));
  }

  /// Float32 sweeps over the float32 block mirror.  The residual is cast on
  /// read and the result on write; z is only an M^{-1} direction, so its
  /// float32 rounding perturbs the preconditioner, not the Krylov recurrence.
  void applyLow(std::span<const double> r, std::span<double> z) const {
    std::fill(zF_.begin(), zF_.end(), 0.0f);
    const float omega = static_cast<float>(omega_);
    for (int sweep = 0; sweep < sweeps_; ++sweep) {
      for (int i = 0; i < blk_.rows; ++i) {
        float sigma = 0.0f;
        for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
             k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
          const int j = blk_.colIdx[static_cast<std::size_t>(k)];
          if (j != i) {
            sigma += valsF_[static_cast<std::size_t>(k)] *
                     zF_[static_cast<std::size_t>(j)];
          }
        }
        const float gs =
            (static_cast<float>(r[static_cast<std::size_t>(i)]) - sigma) /
            diagF_[static_cast<std::size_t>(i)];
        zF_[static_cast<std::size_t>(i)] =
            (1.0f - omega) * zF_[static_cast<std::size_t>(i)] + omega * gs;
      }
    }
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = static_cast<double>(zF_[i]);
    }
    lisi::prec::noteLowApply();
    lisi::prec::noteBytesLow(4LL * static_cast<long long>(valsF_.size()) *
                             sweeps_);
  }

  CsrMatrix blk_;
  std::vector<double> diag_;
  double omega_;
  int sweeps_;
  bool low_ = false;
  std::vector<float> valsF_, diagF_;
  mutable std::vector<float> zF_;
};

/// ILU(0) of the local diagonal block: incomplete LU with zero fill,
/// i.e. L and U inherit exactly the sparsity of the block.  apply() performs
/// the two level-scheduled triangular sweeps of the shared factor.  One block
/// per process = block-Jacobi ILU(0), PETSc's default parallel
/// preconditioner configuration.
class LocalIlu0Pc final : public Preconditioner {
 public:
  explicit LocalIlu0Pc(const DistCsrMatrix& a) : ilu_(a) {}

  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    return ilu_.refresh(a);
  }

  void setLowPrecision(bool enable) override {
    low_ = enable;
    ilu_.setFloatMirror(enable);
    zF_.assign(enable ? static_cast<std::size_t>(ilu_.rows()) : 0, 0.0f);
  }

  /// The float32 path (see LocalSorPc::applyLow for the precision
  /// rationale) casts r on read, sweeps in place over the float32 factor
  /// copy and casts the result on write.
  void apply(std::span<const double> r, std::span<double> z) const override {
    if (!low_) {
      ilu_.apply(r, z);
      lisi::prec::noteBytesHigh(8LL * ilu_.nnz());
      return;
    }
    std::copy(r.begin(), r.end(), zF_.begin());
    ilu_.apply(std::span<const float>(zF_), std::span<float>(zF_));
    std::copy(zF_.begin(), zF_.end(), z.begin());
    lisi::prec::noteLowApply();
    lisi::prec::noteBytesLow(4LL * ilu_.nnz());
  }

 private:
  lisi::sparse::Ilu0Factor ilu_;
  bool low_ = false;
  mutable std::vector<float> zF_;  ///< float32 work vector, mixed mode only
};

}  // namespace

std::unique_ptr<Preconditioner> makeJacobi(const DistCsrMatrix& a) {
  return std::make_unique<JacobiPc>(a);
}

std::unique_ptr<Preconditioner> makeLocalSor(const DistCsrMatrix& a,
                                             double omega, int sweeps) {
  return std::make_unique<LocalSorPc>(a, omega, sweeps);
}

std::unique_ptr<Preconditioner> makeLocalIlu0(const DistCsrMatrix& a) {
  return std::make_unique<LocalIlu0Pc>(a);
}

}  // namespace pksp::detail
