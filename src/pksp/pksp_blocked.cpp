// Blocked (multi-RHS) Krylov kernels: CG and GMRES(m) over a block of
// right-hand sides advanced in lockstep.
//
// Why a dedicated path: solving k systems with the same operator one after
// another pays k halo exchanges per "iteration column" and k latency-bound
// allreduces per reduction point.  Advancing all k lanes together turns
// that into ONE DistCsrMatrix::spmvMulti exchange (k values per ghost
// index, same message count as a single spmv) and ONE fused allreduce per
// reduction point (k lanes in a single distDotsBegin batch).  On small
// systems, where the per-solve cost is dominated by synchronization, this
// is where the service layer's batching win comes from.
//
// Numerics: every lane runs its own textbook recurrence on its own data —
// lanes share only the *timing* of communication, never values.  Each
// spmvMulti lane and each fused-dot lane is bitwise identical to its
// single-vector counterpart, so a lane's iterates are bitwise identical to
// the same solve run alone through runCg/runGmres (tests assert this).
// Lanes finish independently (converge, break down, hit maxits): a
// finished lane freezes — it drops out of the dot batches and contributes
// zero columns to the block matvec — while the survivors continue.  All
// freeze decisions derive from globally reduced values, so every rank
// freezes the same lanes at the same step and the collective sequence
// stays consistent without padding.
#include <algorithm>
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
using lisi::sparse::DistCsrMatrix;
using lisi::sparse::DotArgs;
using lisi::sparse::distDotsBegin;
using lisi::sparse::distDotsEnd;
using lisi::sparse::PendingDots;

using Vec = std::vector<double>;

bool isBad(double v) { return std::isnan(v) || std::isinf(v); }

/// Convergence bookkeeping per lane (same criterion as pksp_krylov.cpp).
struct Monitor {
  double target = 0.0;
  double atol = 0.0;
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

/// Lane `v` of a vector-major block over `n` local rows.
std::span<double> lane(Vec& a, std::size_t v, std::size_t n) {
  return std::span<double>(a).subspan(v * n, n);
}
std::span<double> lane(std::span<double> a, std::size_t v, std::size_t n) {
  return a.subspan(v * n, n);
}

}  // namespace

std::vector<SolveReport> runBlockedCg(const Comm& comm, const DistCsrMatrix& a,
                                      const Preconditioner& m,
                                      std::span<const double> b,
                                      std::span<double> x, int nRhs,
                                      const Tolerances& tol) {
  const auto n = static_cast<std::size_t>(a.localRows());
  const auto nv = static_cast<std::size_t>(nRhs);
  Vec r(n * nv), z(n * nv), p(n * nv, 0.0), ap(n * nv);
  std::vector<SolveReport> reps(nv);
  std::vector<Monitor> mons(nv);
  std::vector<double> rz(nv, 0.0);
  std::vector<char> active(nv, 0);

  // R = B - A X: one halo exchange seeds every lane's residual.
  a.spmvMulti(x, std::span<double>(r), nRhs);
  for (std::size_t i = 0; i < n * nv; ++i) r[i] = b[i] - r[i];
  for (std::size_t v = 0; v < nv; ++v) {
    m.apply(lane(r, v, n), lane(z, v, n));
  }
  // <z,z> and <r,z> for every lane share one fused allreduce.
  std::vector<DotArgs> dots;
  dots.reserve(2 * nv);
  for (std::size_t v = 0; v < nv; ++v) {
    dots.push_back({lane(z, v, n), lane(z, v, n)});
    dots.push_back({lane(r, v, n), lane(z, v, n)});
  }
  PendingDots pending = distDotsBegin(comm, dots);
  const std::span<const double> init = distDotsEnd(pending);
  double maxZ = 0.0;
  for (std::size_t v = 0; v < nv; ++v) {
    const double znorm = std::sqrt(init[2 * v]);
    rz[v] = init[2 * v + 1];
    mons[v].start(znorm, tol);
    maxZ = std::max(maxZ, znorm);
    reps[v].residualNorm = znorm;
    reps[v].reason = mons[v].test(znorm);
    if (reps[v].reason != PKSP_ITERATING) {
      if (reps[v].reason != PKSP_DIVERGED_NAN && znorm == 0.0) {
        reps[v].reason = PKSP_CONVERGED_ATOL;
      }
      continue;  // lane done before iterating; its p lane stays zero
    }
    active[v] = 1;
    std::copy(lane(z, v, n).begin(), lane(z, v, n).end(),
              lane(p, v, n).begin());
  }
  if (tol.monitor) tol.monitor(0, maxZ);

  const auto freeze = [&](std::size_t v) {
    active[v] = 0;
    std::fill(lane(p, v, n).begin(), lane(p, v, n).end(), 0.0);
  };

  for (int it = 1; it <= tol.maxits; ++it) {
    std::vector<std::size_t> lanes;
    for (std::size_t v = 0; v < nv; ++v) {
      if (active[v]) lanes.push_back(v);
    }
    if (lanes.empty()) return reps;

    // Frozen lanes hold zero search directions, so the full-block matvec
    // stays one exchange without perturbing anyone.
    a.spmvMulti(std::span<const double>(p), std::span<double>(ap), nRhs);
    dots.clear();
    for (const std::size_t v : lanes) {
      dots.push_back({lane(p, v, n), lane(ap, v, n)});
    }
    pending = distDotsBegin(comm, dots);
    const std::span<const double> paps = distDotsEnd(pending);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::size_t v = lanes[k];
      const double pap = paps[k];
      if (pap == 0.0 || isBad(pap)) {
        reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
        reps[v].iterations = it - 1;
        freeze(v);
        continue;
      }
      const double alpha = rz[v] / pap;
      std::span<double> xv = lane(x, v, n);
      std::span<double> rv = lane(r, v, n);
      const std::span<const double> pv = lane(p, v, n);
      const std::span<const double> apv = lane(ap, v, n);
      for (std::size_t i = 0; i < n; ++i) {
        xv[i] += alpha * pv[i];
        rv[i] -= alpha * apv[i];
      }
    }
    lanes.erase(std::remove_if(lanes.begin(), lanes.end(),
                               [&](std::size_t v) { return !active[v]; }),
                lanes.end());
    if (lanes.empty()) return reps;

    for (const std::size_t v : lanes) {
      m.apply(lane(r, v, n), lane(z, v, n));
    }
    dots.clear();
    for (const std::size_t v : lanes) {
      dots.push_back({lane(z, v, n), lane(z, v, n)});
      dots.push_back({lane(r, v, n), lane(z, v, n)});
    }
    pending = distDotsBegin(comm, dots);
    const std::span<const double> zzrz = distDotsEnd(pending);
    maxZ = 0.0;
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::size_t v = lanes[k];
      const double znorm = std::sqrt(zzrz[2 * k]);
      maxZ = std::max(maxZ, znorm);
      reps[v].iterations = it;
      reps[v].residualNorm = znorm;
      reps[v].reason = mons[v].test(znorm);
      if (reps[v].reason != PKSP_ITERATING) {
        freeze(v);
        continue;
      }
      const double rzNew = zzrz[2 * k + 1];
      if (rz[v] == 0.0) {
        reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
        freeze(v);
        continue;
      }
      const double beta = rzNew / rz[v];
      rz[v] = rzNew;
      std::span<double> pv = lane(p, v, n);
      const std::span<const double> zv = lane(z, v, n);
      for (std::size_t i = 0; i < n; ++i) pv[i] = zv[i] + beta * pv[i];
    }
    if (tol.monitor) tol.monitor(it, maxZ);
  }
  for (std::size_t v = 0; v < nv; ++v) {
    if (active[v]) reps[v].reason = PKSP_DIVERGED_ITS;
  }
  return reps;
}

std::vector<SolveReport> runBlockedGmres(const Comm& comm,
                                         const DistCsrMatrix& aMat,
                                         const Preconditioner& m,
                                         std::span<const double> b,
                                         std::span<double> x, int nRhs,
                                         const Tolerances& tol, int restart) {
  const auto n = static_cast<std::size_t>(aMat.localRows());
  const auto nv = static_cast<std::size_t>(nRhs);
  const int mr = std::max(1, restart);
  const auto mru = static_cast<std::size_t>(mr);

  std::vector<SolveReport> reps(nv);
  std::vector<Monitor> mons(nv);
  std::vector<int> its(nv, 0);         // per-lane iteration count (maxits cap)
  std::vector<char> done(nv, 0);       // lane fully finished (any reason)

  Vec r(n * nv), blockIn(n * nv), w(n * nv), wz(n * nv);
  // Per-lane Krylov basis and Hessenberg columns (identical shapes to the
  // single-RHS runGmres so the per-lane arithmetic matches it exactly).
  std::vector<std::vector<Vec>> basis(
      nv, std::vector<Vec>(mru + 1, Vec(n)));
  std::vector<std::vector<const double*>> basisPtr(
      nv, std::vector<const double*>(mru + 1));
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t i = 0; i <= mru; ++i) basisPtr[v][i] = basis[v][i].data();
  }
  std::vector<std::vector<Vec>> h(nv, std::vector<Vec>(mru, Vec(mru + 1, 0.0)));
  std::vector<Vec> cs(nv, Vec(mru, 0.0));
  std::vector<Vec> sn(nv, Vec(mru, 0.0));
  std::vector<Vec> g(nv, Vec(mru + 1, 0.0));

  std::vector<DotArgs> dots;
  std::vector<CgsLane> cgs;
  bool first = true;

  while (true) {
    std::vector<std::size_t> running;
    for (std::size_t v = 0; v < nv; ++v) {
      if (!done[v]) running.push_back(v);
    }
    if (running.empty()) return reps;

    // ---- cycle start: preconditioned residual of every running lane ----
    aMat.spmvMulti(std::span<const double>(x), std::span<double>(r), nRhs);
    for (std::size_t i = 0; i < n * nv; ++i) r[i] = b[i] - r[i];
    for (const std::size_t v : running) {
      m.apply(lane(r, v, n), lane(wz, v, n));
    }
    dots.clear();
    for (const std::size_t v : running) {
      dots.push_back({lane(wz, v, n), lane(wz, v, n)});
    }
    PendingDots pending = distDotsBegin(comm, dots);
    const std::span<const double> zz = distDotsEnd(pending);
    std::vector<double> beta(nv, 0.0);
    double maxBeta = 0.0;
    for (std::size_t k = 0; k < running.size(); ++k) {
      const std::size_t v = running[k];
      beta[v] = std::sqrt(zz[k]);
      maxBeta = std::max(maxBeta, beta[v]);
      if (first) {
        mons[v].start(beta[v], tol);
        reps[v].residualNorm = beta[v];
        const PkspConvergedReason early = mons[v].test(beta[v]);
        if (early != PKSP_ITERATING) {
          reps[v].reason = early;
          done[v] = 1;
          continue;
        }
      }
      if (isBad(beta[v])) {
        reps[v].reason = PKSP_DIVERGED_NAN;
        done[v] = 1;
      } else if (beta[v] == 0.0) {
        reps[v].reason = PKSP_CONVERGED_ATOL;
        done[v] = 1;
      }
    }
    if (first && tol.monitor) tol.monitor(0, maxBeta);
    first = false;
    running.erase(std::remove_if(running.begin(), running.end(),
                                 [&](std::size_t v) { return done[v] != 0; }),
                  running.end());
    if (running.empty()) return reps;

    // Seed each running lane's cycle; lanes freeze out of the cycle as they
    // converge, hit a lucky breakdown, or exhaust their iteration budget.
    std::vector<char> inCycle(nv, 0);
    std::vector<int> jTaken(nv, 0);
    std::vector<PkspConvergedReason> cycleReason(nv, PKSP_ITERATING);
    std::vector<char> noUpdate(nv, 0);
    for (const std::size_t v : running) {
      inCycle[v] = 1;
      const std::span<const double> zv = lane(wz, v, n);
      for (std::size_t i = 0; i < n; ++i) basis[v][0][i] = zv[i] / beta[v];
      std::fill(g[v].begin(), g[v].end(), 0.0);
      g[v][0] = beta[v];
    }

    for (int j = 0; j < mr; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      std::vector<std::size_t> stepLanes;
      for (const std::size_t v : running) {
        if (inCycle[v] && its[v] < tol.maxits) stepLanes.push_back(v);
      }
      if (stepLanes.empty()) break;

      // Block matvec over the j-th basis vectors; lanes not stepping
      // contribute zero columns so the exchange count stays one.
      std::fill(blockIn.begin(), blockIn.end(), 0.0);
      for (const std::size_t v : stepLanes) {
        ++its[v];
        ++jTaken[v];
        std::copy(basis[v][ju].begin(), basis[v][ju].end(),
                  lane(blockIn, v, n).begin());
      }
      aMat.spmvMulti(std::span<const double>(blockIn), std::span<double>(w),
                     nRhs);
      for (const std::size_t v : stepLanes) {
        m.apply(lane(w, v, n), lane(wz, v, n));
      }
      // Classical Gram-Schmidt over every stepping lane at once: the
      // projections of all lanes share one allreduce, the norms another.
      cgs.clear();
      for (const std::size_t v : stepLanes) {
        const std::span<const double* const> vs(basisPtr[v]);
        cgs.push_back({lane(wz, v, n), vs.first(ju + 1),
                       std::span<double>(h[v][ju]).first(ju + 2)});
      }
      cgsOrthogonalize(comm, cgs);

      int maxIts = 0;
      double maxResid = 0.0;
      for (const std::size_t v : stepLanes) {
        Vec& hj = h[v][ju];
        const double hnext = hj[ju + 1];
        if (isBad(hnext)) {
          reps[v].reason = PKSP_DIVERGED_NAN;
          reps[v].iterations = its[v];
          done[v] = 1;
          inCycle[v] = 0;
          noUpdate[v] = 1;
          continue;
        }
        const bool luckyBreakdown = hnext <= 1e-300;
        if (!luckyBreakdown) {
          const std::span<const double> wzv = lane(wz, v, n);
          for (std::size_t t = 0; t < n; ++t) {
            basis[v][ju + 1][t] = wzv[t] / hnext;
          }
        }
        for (std::size_t i = 0; i < ju; ++i) {
          const double t = cs[v][i] * hj[i] + sn[v][i] * hj[i + 1];
          hj[i + 1] = -sn[v][i] * hj[i] + cs[v][i] * hj[i + 1];
          hj[i] = t;
        }
        const double hjj = hj[ju];
        const double denom = std::sqrt(hjj * hjj + hnext * hnext);
        if (denom == 0.0) {
          reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
          reps[v].iterations = its[v];
          done[v] = 1;
          inCycle[v] = 0;
          noUpdate[v] = 1;
          continue;
        }
        cs[v][ju] = hjj / denom;
        sn[v][ju] = hnext / denom;
        hj[ju] = denom;
        hj[ju + 1] = 0.0;
        g[v][ju + 1] = -sn[v][ju] * g[v][ju];
        g[v][ju] = cs[v][ju] * g[v][ju];

        const double resid = std::abs(g[v][ju + 1]);
        reps[v].residualNorm = resid;
        maxResid = std::max(maxResid, resid);
        maxIts = std::max(maxIts, its[v]);
        cycleReason[v] = mons[v].test(resid);
        if (cycleReason[v] != PKSP_ITERATING || luckyBreakdown) {
          inCycle[v] = 0;  // lane's cycle ends; x update happens below
        }
      }
      if (tol.monitor && maxIts > 0) tol.monitor(maxIts, maxResid);
    }

    // ---- per-lane triangular solve + solution update -------------------
    for (const std::size_t v : running) {
      if (done[v] || noUpdate[v] || jTaken[v] == 0) continue;
      const auto jv = static_cast<std::size_t>(jTaken[v]);
      Vec y(jv, 0.0);
      bool broke = false;
      for (std::size_t i = jv; i-- > 0;) {
        double acc = g[v][i];
        for (std::size_t k = i + 1; k < jv; ++k) acc -= h[v][k][i] * y[k];
        const double hii = h[v][i][i];
        if (hii == 0.0) {
          reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
          reps[v].iterations = its[v];
          done[v] = 1;
          broke = true;
          break;
        }
        y[i] = acc / hii;
      }
      if (broke) continue;
      std::span<double> xv = lane(x, v, n);
      for (std::size_t i = 0; i < jv; ++i) {
        for (std::size_t t = 0; t < n; ++t) xv[t] += y[i] * basis[v][i][t];
      }
      reps[v].iterations = its[v];
      if (cycleReason[v] != PKSP_ITERATING) {
        reps[v].reason = cycleReason[v];
        done[v] = 1;
      } else if (its[v] >= tol.maxits) {
        reps[v].reason = PKSP_DIVERGED_ITS;
        done[v] = 1;
      }
      // else: lane restarts next cycle (including lucky breakdowns, whose
      // recomputed residual then converges through the ATOL test).
    }
  }
}

}  // namespace pksp::detail
