// Distributed Krylov kernels for PKSP.  All methods use left
// preconditioning and track the preconditioned residual norm; convergence
// is declared when  ||z_k|| <= max(rtol * ||z_0||, atol)  where
// z_k = M^{-1}(b - A x_k).
#include <array>
#include <cmath>
#include <limits>

#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"

namespace pksp::detail {
namespace {

using lisi::comm::Comm;
using lisi::sparse::CgsLane;
using lisi::sparse::cgsOrthogonalize;
using lisi::sparse::distDot;
using lisi::sparse::distDot2;
using lisi::sparse::distNorm2;

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
  Vec r(n), z(n), w(n), wz(n);
  // Krylov basis (mr+1 local vectors) and Hessenberg factors; h[j] is
  // column j (rows 0..j+1).
  std::vector<Vec> v(mru + 1, Vec(n));
  std::vector<const double*> vp(mru + 1);
  for (std::size_t i = 0; i <= mru; ++i) vp[i] = v[i].data();
  std::vector<Vec> h(mru, Vec(mru + 1, 0.0));
  Vec cs(mru, 0.0);
  Vec sn(mru, 0.0);
  Vec g(mru + 1, 0.0);

  Monitor mon;
  bool first = true;
  int totalIts = 0;

  while (true) {
    applyResidual(a, b, x, r);
    m.apply(std::span<const double>(r), std::span<double>(z));
    double beta = distNorm2(comm, std::span<const double>(z));
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
    for (std::size_t i = 0; i < n; ++i) {
      v[0][i] = z[i] / beta;
    }
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    PkspConvergedReason innerReason = PKSP_ITERATING;
    for (; j < mr && totalIts < tol.maxits; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      ++totalIts;
      a.apply(std::span<const double>(v[ju]), std::span<double>(w));
      m.apply(std::span<const double>(w), std::span<double>(wz));
      Vec& hj = h[ju];
      const CgsLane lane{std::span<double>(wz),
                         std::span<const double* const>(vp).first(ju + 1),
                         std::span<double>(hj).first(ju + 2)};
      cgsOrthogonalize(comm, std::span<const CgsLane>(&lane, 1));
      const double hnext = hj[ju + 1];
      if (isBad(hnext)) {
        rep.reason = PKSP_DIVERGED_NAN;
        rep.iterations = totalIts;
        return rep;
      }
      const bool luckyBreakdown = hnext <= 1e-300;
      if (!luckyBreakdown) {
        for (std::size_t k = 0; k < n; ++k) v[ju + 1][k] = wz[k] / hnext;
      }
      // Apply existing Givens rotations to the new column.
      for (std::size_t i = 0; i < ju; ++i) {
        const double t = cs[i] * hj[i] + sn[i] * hj[i + 1];
        hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
        hj[i] = t;
      }
      // New rotation to annihilate h[j+1][j].
      const double hjj = hj[ju];
      const double denom = std::sqrt(hjj * hjj + hnext * hnext);
      if (denom == 0.0) {
        rep.reason = PKSP_DIVERGED_BREAKDOWN;
        rep.iterations = totalIts;
        return rep;
      }
      cs[ju] = hjj / denom;
      sn[ju] = hnext / denom;
      hj[ju] = denom;
      hj[ju + 1] = 0.0;
      g[ju + 1] = -sn[ju] * g[ju];
      g[ju] = cs[ju] * g[ju];

      const double resid = std::abs(g[ju + 1]);
      if (tol.monitor) tol.monitor(totalIts, resid);
      rep.residualNorm = resid;
      innerReason = mon.test(resid);
      if (innerReason != PKSP_ITERATING || luckyBreakdown) {
        ++j;  // include this column in the update
        break;
      }
    }

    // Solve the j-by-j triangular system and update x.
    const auto ju = static_cast<std::size_t>(j);
    Vec y(ju, 0.0);
    for (std::size_t i = ju; i-- > 0;) {
      double acc = g[i];
      for (std::size_t k = i + 1; k < ju; ++k) acc -= h[k][i] * y[k];
      if (h[i][i] == 0.0) {
        rep.reason = PKSP_DIVERGED_BREAKDOWN;
        rep.iterations = totalIts;
        return rep;
      }
      y[i] = acc / h[i][i];
    }
    for (std::size_t i = 0; i < ju; ++i) {
      for (std::size_t k = 0; k < n; ++k) x[k] += y[i] * v[i][k];
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
  Vec r(n), rhat(n), p(n), ph(n), v(n), s(n), sh(n), t(n), z(n);
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
    // Early exit on half-step convergence.
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
    m.apply(std::span<const double>(s), std::span<double>(sh));
    a.apply(std::span<const double>(sh), std::span<double>(t));
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
      x[i] += alpha * ph[i] + omega * sh[i];
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
