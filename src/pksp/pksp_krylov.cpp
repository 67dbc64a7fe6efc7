// Distributed Krylov kernels for PKSP.  All methods use left
// preconditioning and track the preconditioned residual norm; convergence
// is declared when  ||z_k|| <= max(rtol * ||z_0||, atol)  where
// z_k = M^{-1}(b - A x_k).
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"

namespace pksp::detail {
namespace {

using lisi::comm::Comm;
using lisi::sparse::ArnoldiLane;
using lisi::sparse::ArnoldiWorkspace;
using lisi::sparse::arnoldiExpand;
using lisi::sparse::arnoldiProject;
using lisi::sparse::distDot;
using lisi::sparse::distDot2;
using lisi::sparse::distNorm2;
using lisi::sparse::GmresLeastSquares;

using Vec = std::vector<double>;

bool isBad(double v) { return std::isnan(v) || std::isinf(v); }

/// Shared convergence bookkeeping.
struct Monitor {
  double target = 0.0;
  double atol = 0.0;

  /// Initialize from the initial preconditioned residual norm.
  void start(double z0, const Tolerances& tol) {
    target = tol.rtol * z0;
    atol = tol.atol;
  }
  [[nodiscard]] PkspConvergedReason test(double znorm) const {
    if (isBad(znorm)) return PKSP_DIVERGED_NAN;
    if (znorm <= atol) return PKSP_CONVERGED_ATOL;
    if (znorm <= target) return PKSP_CONVERGED_RTOL;
    return PKSP_ITERATING;
  }
};

void applyResidual(const LinearOperator& a, std::span<const double> b,
                   std::span<const double> x, Vec& r) {
  a.apply(x, std::span<double>(r));
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
}

}  // namespace

SolveReport runCg(const Comm& comm, const LinearOperator& a,
                  const Preconditioner& m, std::span<const double> b,
                  std::span<double> x, const Tolerances& tol) {
  const std::size_t n = x.size();
  Vec r(n), z(n), p(n), ap(n);
  applyResidual(a, b, x, r);
  m.apply(std::span<const double>(r), std::span<double>(z));
  // <z,z> and <r,z> share one two-element allreduce; each lane is bitwise
  // identical to the standalone dot, so the iterates are unchanged.
  std::array<double, 2> zzrz =
      distDot2(comm, std::span<const double>(z), std::span<const double>(z),
               std::span<const double>(r), std::span<const double>(z));
  double znorm = std::sqrt(zzrz[0]);
  Monitor mon;
  mon.start(znorm, tol);
  if (tol.monitor) tol.monitor(0, znorm);

  SolveReport rep;
  rep.residualNorm = znorm;
  rep.reason = mon.test(znorm);
  if (rep.reason != PKSP_ITERATING) {
    if (rep.reason == PKSP_DIVERGED_NAN) return rep;
    rep.reason = znorm == 0.0 ? PKSP_CONVERGED_ATOL : rep.reason;
    return rep;
  }

  std::copy(z.begin(), z.end(), p.begin());
  double rz = zzrz[1];
  for (int it = 1; it <= tol.maxits; ++it) {
    a.apply(std::span<const double>(p), std::span<double>(ap));
    const double pap =
        distDot(comm, std::span<const double>(p), std::span<const double>(ap));
    if (pap == 0.0 || isBad(pap)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    m.apply(std::span<const double>(r), std::span<double>(z));
    zzrz = distDot2(comm, std::span<const double>(z),
                    std::span<const double>(z), std::span<const double>(r),
                    std::span<const double>(z));
    znorm = std::sqrt(zzrz[0]);
    if (tol.monitor) tol.monitor(it, znorm);
    rep.iterations = it;
    rep.residualNorm = znorm;
    rep.reason = mon.test(znorm);
    if (rep.reason != PKSP_ITERATING) return rep;
    const double rzNew = zzrz[1];
    if (rz == 0.0) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      return rep;
    }
    const double beta = rzNew / rz;
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

SolveReport runGmres(const Comm& comm, const LinearOperator& a,
                     const Preconditioner& m, std::span<const double> b,
                     std::span<double> x, const Tolerances& tol, int restart) {
  const std::size_t n = x.size();
  const int mr = std::max(1, restart);
  const auto mru = static_cast<std::size_t>(mr);
  SolveReport rep;
  Vec r(n), w(n), wz(n);
  // Krylov basis (mr+1 local vectors): v[j] holds the unnormalized v~_j
  // until step j normalizes it in place (DESIGN.md §6).
  std::vector<Vec> v(mru + 1, Vec(n));
  std::vector<double*> vp(mru + 1);
  for (std::size_t i = 0; i <= mru; ++i) vp[i] = v[i].data();
  GmresLeastSquares lsq(mru);
  ArnoldiWorkspace ws(1, mru + 1);

  Monitor mon;
  bool first = true;
  int totalIts = 0;

  while (true) {
    applyResidual(a, b, x, r);
    m.apply(std::span<const double>(r), std::span<double>(v[0]));
    const double beta = distNorm2(comm, std::span<const double>(v[0]));
    if (first) {
      mon.start(beta, tol);
      first = false;
      rep.residualNorm = beta;
      if (tol.monitor) tol.monitor(0, beta);
      const PkspConvergedReason early = mon.test(beta);
      if (early != PKSP_ITERATING) {
        rep.reason = early;
        return rep;
      }
    }
    if (isBad(beta)) {
      rep.reason = PKSP_DIVERGED_NAN;
      return rep;
    }
    if (beta == 0.0) {
      rep.reason = PKSP_CONVERGED_ATOL;
      return rep;
    }
    lsq.reset(beta);

    // Step j opens column j; its reduction also yields ||v~_j||, which
    // closes column j-1.  A cycle that ends by restart or maxits closes its
    // last column with a reduction of its own.
    std::size_t cols = 0;
    PkspConvergedReason innerReason = PKSP_ITERATING;
    for (std::size_t j = 0;; ++j) {
      const bool steps = j < mru && totalIts < tol.maxits;
      if (!steps && j == 0) break;
      ArnoldiLane lane;
      lane.n = n;
      lane.basis = std::span<double* const>(vp).first(steps ? j + 2 : j + 1);
      if (steps) {
        a.apply(std::span<const double>(v[j]), std::span<double>(w));
        m.apply(std::span<const double>(w), std::span<double>(wz));
        lane.w = wz;
        lane.h = lsq.column(j);
      }
      arnoldiProject(comm, std::span<ArnoldiLane>(&lane, 1), ws);
      if (j > 0) {
        if (isBad(lane.nu)) {
          rep.reason = PKSP_DIVERGED_NAN;
          rep.iterations = totalIts;
          return rep;
        }
        const std::optional<double> resid = lsq.close(j - 1, lane.nu);
        if (!resid) {
          rep.reason = PKSP_DIVERGED_BREAKDOWN;
          rep.iterations = totalIts;
          return rep;
        }
        if (tol.monitor) tol.monitor(totalIts, *resid);
        rep.residualNorm = *resid;
        cols = j;
        innerReason = mon.test(*resid);
        const bool luckyBreakdown = lane.nu <= 1e-300;
        if (innerReason != PKSP_ITERATING || luckyBreakdown) break;
      }
      if (!steps) break;
      arnoldiExpand(lane);
      ++totalIts;
    }

    if (!lsq.update(cols, vp, x)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = totalIts;
      return rep;
    }
    rep.iterations = totalIts;
    if (innerReason != PKSP_ITERATING) {
      rep.reason = innerReason;
      return rep;
    }
    if (totalIts >= tol.maxits) {
      rep.reason = PKSP_DIVERGED_ITS;
      return rep;
    }
    // else: restart.
  }
}

SolveReport runBiCgStab(const Comm& comm, const LinearOperator& a,
                        const Preconditioner& m, std::span<const double> b,
                        std::span<double> x, const Tolerances& tol) {
  const std::size_t n = x.size();
  Vec r(n), rhat(n), p(n), ph(n), v(n), s(n), t(n), z(n);
  applyResidual(a, b, x, r);
  m.apply(std::span<const double>(r), std::span<double>(z));
  double znorm = distNorm2(comm, std::span<const double>(z));
  Monitor mon;
  mon.start(znorm, tol);
  if (tol.monitor) tol.monitor(0, znorm);
  SolveReport rep;
  rep.residualNorm = znorm;
  rep.reason = mon.test(znorm);
  if (rep.reason != PKSP_ITERATING) return rep;

  std::copy(r.begin(), r.end(), rhat.begin());
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  std::fill(p.begin(), p.end(), 0.0);
  std::fill(v.begin(), v.end(), 0.0);

  for (int it = 1; it <= tol.maxits; ++it) {
    const double rhoNew =
        distDot(comm, std::span<const double>(rhat), std::span<const double>(r));
    if (rhoNew == 0.0 || isBad(rhoNew) || omega == 0.0) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    const double beta = (rhoNew / rho) * (alpha / omega);
    rho = rhoNew;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    m.apply(std::span<const double>(p), std::span<double>(ph));
    a.apply(std::span<const double>(ph), std::span<double>(v));
    const double rhatV =
        distDot(comm, std::span<const double>(rhat), std::span<const double>(v));
    if (rhatV == 0.0 || isBad(rhatV)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    alpha = rho / rhatV;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    // Early exit on half-step convergence.  z = M^{-1} s is also the
    // s-hat of the second half step, so s is preconditioned once.
    m.apply(std::span<const double>(s), std::span<double>(z));
    znorm = distNorm2(comm, std::span<const double>(z));
    if (mon.test(znorm) != PKSP_ITERATING) {
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * ph[i];
      if (tol.monitor) tol.monitor(it, znorm);
      rep.iterations = it;
      rep.residualNorm = znorm;
      rep.reason = mon.test(znorm);
      return rep;
    }
    a.apply(std::span<const double>(z), std::span<double>(t));
    const double tt =
        distDot(comm, std::span<const double>(t), std::span<const double>(t));
    if (tt == 0.0 || isBad(tt)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it;
      return rep;
    }
    omega = distDot(comm, std::span<const double>(t),
                    std::span<const double>(s)) /
            tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * ph[i] + omega * z[i];
      r[i] = s[i] - omega * t[i];
    }
    m.apply(std::span<const double>(r), std::span<double>(z));
    znorm = distNorm2(comm, std::span<const double>(z));
    if (tol.monitor) tol.monitor(it, znorm);
    rep.iterations = it;
    rep.residualNorm = znorm;
    rep.reason = mon.test(znorm);
    if (rep.reason != PKSP_ITERATING) return rep;
  }
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

SolveReport runRichardson(const Comm& comm, const LinearOperator& a,
                          const Preconditioner& m, std::span<const double> b,
                          std::span<double> x, const Tolerances& tol) {
  const std::size_t n = x.size();
  Vec r(n), z(n);
  applyResidual(a, b, x, r);
  m.apply(std::span<const double>(r), std::span<double>(z));
  double znorm = distNorm2(comm, std::span<const double>(z));
  Monitor mon;
  mon.start(znorm, tol);
  if (tol.monitor) tol.monitor(0, znorm);
  SolveReport rep;
  rep.residualNorm = znorm;
  rep.reason = mon.test(znorm);
  if (rep.reason != PKSP_ITERATING) return rep;

  for (int it = 1; it <= tol.maxits; ++it) {
    for (std::size_t i = 0; i < n; ++i) x[i] += z[i];
    applyResidual(a, b, x, r);
    m.apply(std::span<const double>(r), std::span<double>(z));
    znorm = distNorm2(comm, std::span<const double>(z));
    if (tol.monitor) tol.monitor(it, znorm);
    rep.iterations = it;
    rep.residualNorm = znorm;
    rep.reason = mon.test(znorm);
    if (rep.reason != PKSP_ITERATING) return rep;
  }
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

}  // namespace pksp::detail
