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
using lisi::sparse::DistCsrMatrix;
using lisi::sparse::DotArgs;
using lisi::sparse::GmresLeastSquares;
using lisi::sparse::distDots;
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
  // Iteration scratch, sized once: the active lanes, their dot lanes and
  // the fused reductions' buffer.
  std::vector<std::size_t> lanes(nv);
  std::vector<DotArgs> dots(2 * nv);
  PendingDots dotBuf;

  // R = B - A X: one halo exchange seeds every lane's residual.
  a.spmvMulti(x, std::span<double>(r), nRhs);
  for (std::size_t i = 0; i < n * nv; ++i) r[i] = b[i] - r[i];
  for (std::size_t v = 0; v < nv; ++v) {
    m.apply(lane(r, v, n), lane(z, v, n));
  }
  // <z,z> and <r,z> for every lane share one fused allreduce.
  for (std::size_t v = 0; v < nv; ++v) {
    dots[2 * v] = {lane(z, v, n), lane(z, v, n)};
    dots[2 * v + 1] = {lane(r, v, n), lane(z, v, n)};
  }
  const std::span<const double> init =
      distDots(comm, std::span<const DotArgs>(dots), dotBuf);
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
  /// Keep only the still-active lanes among lanes[0..count).
  const auto compact = [&](std::size_t count) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < count; ++k) {
      if (active[lanes[k]]) lanes[kept++] = lanes[k];
    }
    return kept;
  };

  // lisi-lint: zero-alloc-begin(blocked CG iteration: solve-owned scratch only)
  for (int it = 1; it <= tol.maxits; ++it) {
    std::size_t nl = 0;
    for (std::size_t v = 0; v < nv; ++v) {
      if (active[v]) lanes[nl++] = v;
    }
    if (nl == 0) return reps;

    // Frozen lanes hold zero search directions, so the full-block matvec
    // stays one exchange without perturbing anyone.
    a.spmvMulti(std::span<const double>(p), std::span<double>(ap), nRhs);
    for (std::size_t k = 0; k < nl; ++k) {
      dots[k] = {lane(p, lanes[k], n), lane(ap, lanes[k], n)};
    }
    const std::span<const double> paps = distDots(
        comm, std::span<const DotArgs>(dots).first(nl), dotBuf);
    for (std::size_t k = 0; k < nl; ++k) {
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
    nl = compact(nl);
    if (nl == 0) return reps;

    for (std::size_t k = 0; k < nl; ++k) {
      m.apply(lane(r, lanes[k], n), lane(z, lanes[k], n));
      dots[2 * k] = {lane(z, lanes[k], n), lane(z, lanes[k], n)};
      dots[2 * k + 1] = {lane(r, lanes[k], n), lane(z, lanes[k], n)};
    }
    const std::span<const double> zzrz = distDots(
        comm, std::span<const DotArgs>(dots).first(2 * nl), dotBuf);
    maxZ = 0.0;
    for (std::size_t k = 0; k < nl; ++k) {
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
  // lisi-lint: zero-alloc-end
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
  // Per-lane Krylov basis and least-squares state (identical shapes to the
  // single-RHS runGmres so the per-lane arithmetic matches it exactly).
  std::vector<std::vector<Vec>> basis(
      nv, std::vector<Vec>(mru + 1, Vec(n)));
  std::vector<std::vector<double*>> basisPtr(nv,
                                             std::vector<double*>(mru + 1));
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t i = 0; i <= mru; ++i) basisPtr[v][i] = basis[v][i].data();
  }
  std::vector<GmresLeastSquares> lsq(nv, GmresLeastSquares(mru));

  // Cycle and step scratch, sized once: the running lanes, the per-cycle
  // lane state, the cycle-start dot lanes and the Arnoldi step entries.
  std::vector<std::size_t> running(nv);
  std::vector<char> inCycle(nv, 0);
  std::vector<std::size_t> cols(nv, 0);
  std::vector<PkspConvergedReason> cycleReason(nv, PKSP_ITERATING);
  std::vector<DotArgs> dots(nv);
  PendingDots dotBuf;
  std::vector<ArnoldiLane> step(nv);
  std::vector<std::size_t> stepLane(nv);  // lane index of each step entry
  ArnoldiWorkspace ws(nv, mru + 1);
  bool first = true;

  // lisi-lint: zero-alloc-begin(blocked GMRES cycle: solve-owned scratch only)
  while (true) {
    std::size_t nr = 0;
    for (std::size_t v = 0; v < nv; ++v) {
      if (!done[v]) running[nr++] = v;
    }
    if (nr == 0) return reps;

    // ---- cycle start: preconditioned residual of every running lane ----
    // M^{-1} r lands in basis slot 0 as the unnormalized v~_0.
    aMat.spmvMulti(std::span<const double>(x), std::span<double>(r), nRhs);
    for (std::size_t i = 0; i < n * nv; ++i) r[i] = b[i] - r[i];
    for (std::size_t k = 0; k < nr; ++k) {
      const std::size_t v = running[k];
      m.apply(lane(r, v, n), std::span<double>(basis[v][0]));
      dots[k] = {basis[v][0], basis[v][0]};
    }
    const std::span<const double> zz =
        distDots(comm, std::span<const DotArgs>(dots).first(nr), dotBuf);
    double maxBeta = 0.0;
    for (std::size_t k = 0; k < nr; ++k) {
      const std::size_t v = running[k];
      const double beta = std::sqrt(zz[k]);
      maxBeta = std::max(maxBeta, beta);
      if (first) {
        mons[v].start(beta, tol);
        reps[v].residualNorm = beta;
        const PkspConvergedReason early = mons[v].test(beta);
        if (early != PKSP_ITERATING) {
          reps[v].reason = early;
          done[v] = 1;
          continue;
        }
      }
      if (isBad(beta)) {
        reps[v].reason = PKSP_DIVERGED_NAN;
        done[v] = 1;
      } else if (beta == 0.0) {
        reps[v].reason = PKSP_CONVERGED_ATOL;
        done[v] = 1;
      }
      lsq[v].reset(beta);
    }
    if (first && tol.monitor) tol.monitor(0, maxBeta);
    first = false;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < nr; ++k) {
      if (!done[running[k]]) running[kept++] = running[k];
    }
    nr = kept;
    if (nr == 0) return reps;
    const std::span<const std::size_t> cycleLanes =
        std::span<const std::size_t>(running).first(nr);

    // Each running lane's cycle; lanes leave it as they converge, hit a
    // lucky breakdown, or exhaust their iteration budget.  Step j opens
    // column j of every lane that still steps; its one reduction also
    // closes column j-1 of every lane in the cycle (DESIGN.md §6).
    std::fill(inCycle.begin(), inCycle.end(), 0);
    std::fill(cols.begin(), cols.end(), 0);
    std::fill(cycleReason.begin(), cycleReason.end(), PKSP_ITERATING);
    for (const std::size_t v : cycleLanes) inCycle[v] = 1;

    for (std::size_t j = 0;; ++j) {
      std::size_t ns = 0;
      std::fill(blockIn.begin(), blockIn.end(), 0.0);
      for (const std::size_t v : cycleLanes) {
        if (!inCycle[v]) continue;
        const bool steps = j < mru && its[v] < tol.maxits;
        if (!steps && j == 0) {
          inCycle[v] = 0;  // no column to open or close
          continue;
        }
        ArnoldiLane ln;
        ln.n = n;
        ln.basis =
            std::span<double* const>(basisPtr[v]).first(steps ? j + 2 : j + 1);
        if (steps) {
          ln.w = lane(wz, v, n);
          ln.h = lsq[v].column(j);
          std::copy(basis[v][j].begin(), basis[v][j].end(),
                    lane(blockIn, v, n).begin());
        }
        step[ns] = ln;
        stepLane[ns] = v;
        ++ns;
      }
      if (ns == 0) break;

      // Block matvec over the j-th basis vectors; lanes not stepping
      // contribute zero columns so the exchange count stays one.
      aMat.spmvMulti(std::span<const double>(blockIn), std::span<double>(w),
                     nRhs);
      for (std::size_t k = 0; k < ns; ++k) {
        const std::size_t v = stepLane[k];
        if (!step[k].w.empty()) m.apply(lane(w, v, n), lane(wz, v, n));
      }
      arnoldiProject(comm, std::span<ArnoldiLane>(step).first(ns), ws);

      int maxIts = 0;
      double maxResid = 0.0;
      bool closed = false;
      for (std::size_t k = 0; k < ns; ++k) {
        const ArnoldiLane& ln = step[k];
        const std::size_t v = stepLane[k];
        if (j > 0) {
          const auto fail = [&](PkspConvergedReason why) {
            reps[v].reason = why;
            reps[v].iterations = its[v];
            done[v] = 1;
            inCycle[v] = 0;
          };
          if (isBad(ln.nu)) {
            fail(PKSP_DIVERGED_NAN);
            continue;
          }
          const std::optional<double> resid = lsq[v].close(j - 1, ln.nu);
          if (!resid) {
            fail(PKSP_DIVERGED_BREAKDOWN);
            continue;
          }
          reps[v].residualNorm = *resid;
          maxResid = std::max(maxResid, *resid);
          maxIts = std::max(maxIts, its[v]);
          closed = true;
          cols[v] = j;
          cycleReason[v] = mons[v].test(*resid);
          const bool luckyBreakdown = ln.nu <= 1e-300;
          if (cycleReason[v] != PKSP_ITERATING || luckyBreakdown) {
            inCycle[v] = 0;  // lane's cycle ends; x update happens below
            continue;
          }
        }
        if (ln.w.empty()) {
          inCycle[v] = 0;  // closed its last column: restart or maxits
          continue;
        }
        arnoldiExpand(ln);
        ++its[v];
      }
      if (tol.monitor && closed) tol.monitor(maxIts, maxResid);
    }

    // ---- per-lane triangular solve + solution update -------------------
    for (const std::size_t v : cycleLanes) {
      if (done[v]) continue;
      if (!lsq[v].update(cols[v], basisPtr[v], lane(x, v, n))) {
        reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
        reps[v].iterations = its[v];
        done[v] = 1;
        continue;
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
  // lisi-lint: zero-alloc-end
}

}  // namespace pksp::detail
