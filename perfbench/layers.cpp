// The traced run (--trace 1): per-layer metrics (README.md "Per-layer
// metrics").
//
// Every span is taken in this file, around calls into a layer's public
// functions; nothing under src/ is instrumented.  Each layer is measured on
// the inputs of the workload its metric is mapped to — krylov_p4's and
// timestep_slu's operators at p = 4, service_mix's at p = 2 — so a traced
// run of any workload emits the whole set, and all of it comes from the
// run's seed.  --workload selects whose interleaved traced and untraced
// steps give trace.overhead_pct.
//
// Sections run in a fixed order (krylov_p4, timestep_slu, service_mix) in a
// fresh process, so the tuner cache is cold at the two port set-ups whose
// tune::stats deltas are reported.
#include "aztec/aztecoo.hpp"
#include "hymg/hymg.hpp"
#include "pksp/pksp.hpp"
#include "slu/slu.hpp"
#include "sparse/convert.hpp"
#include "support/error.hpp"
#include "support/prec.hpp"
#include "tune/tune.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lisi::comm::Comm;
using lisi::comm::World;
using lisi::sparse::CsrMatrix;
using lisi::sparse::DistCsrMatrix;

/// Steady-state port windows: fixed step counts so the counter deltas
/// (sparse.halo_plan_builds, sparse.value_updates) repeat exactly.
constexpr int kKrylovWindow = 8;
constexpr int kSluWindow = 16;
/// Interleaved port-vs-native pairs after one warm-up pair.
constexpr int kPairs = 6;

/// Window steps come in pairs on the same inputs, one traced and one not,
/// alternating which goes first, so trace.overhead_pct compares like with
/// like (a krylov_p4 step's iteration count depends on its right-hand side).
std::uint64_t windowStepIndex(int k) { return 1 + static_cast<std::uint64_t>(k / 2); }
bool windowStepTraced(int k) { return (k % 2 == 0) != ((k / 2) % 2 == 1); }

/// Application-side MatrixFree provider, the other end of cca.connect_us.
class IdentityOperator final : public lisi::MatrixFree {
 public:
  int matMult(lisi::OperatorId, lisi::RArray<const double> x,
              lisi::RArray<double> y, int length) override {
    for (int i = 0; i < length; ++i) y[i] = x[i];
    return 0;
  }
};

class OperatorComponent final : public cca::Component {
 public:
  void setServices(cca::Services& services) override {
    services.addProvidesPort(std::make_shared<IdentityOperator>(),
                             lisi::kMatrixFreePortName,
                             lisi::kMatrixFreePortType);
  }
};

const cca::ClassRegistrar kOperatorClass(
    "perfbench.Operator", [] { return std::make_shared<OperatorComponent>(); });

/// Median per-call seconds of `calls` back-to-back fn() calls, over
/// `batches` barrier-aligned batches (each rank's own clock).
template <class Fn>
double perCall(const Comm& comm, int batches, int calls, Fn&& fn) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    comm.barrier();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    v.push_back(secondsSince(t0) / calls);
  }
  return median(v);
}

/// Seconds of one barrier-aligned call of fn().
template <class Fn>
double timeOnce(const Comm& comm, Fn&& fn) {
  comm.barrier();
  const Clock::time_point t0 = Clock::now();
  fn();
  return secondsSince(t0);
}

/// bench_common's directPksp configuration on a persistent KSP: GMRES(30)
/// + ILU(0) to kRtol, preconditioner built on the first solve and kept.
class NativeKsp {
 public:
  NativeKsp(const Comm& comm, const DistCsrMatrix* a) {
    pksp::KSPCreate(comm, &ksp_);
    pksp::KSPSetOperator(ksp_, a);
    pksp::KSPSetType(ksp_, pksp::PKSP_GMRES);
    pksp::KSPSetPCType(ksp_, pksp::PKSP_PC_ILU0);
    pksp::KSPSetTolerances(ksp_, kRtol, 1e-50, kMaxIts);
    pksp::KSPSetRestart(ksp_, kRestart);
  }
  ~NativeKsp() { pksp::KSPDestroy(&ksp_); }
  NativeKsp(const NativeKsp&) = delete;
  NativeKsp& operator=(const NativeKsp&) = delete;

  /// Solve from a zero guess; true if converged.
  bool solve(std::span<const double> b, std::span<double> x) {
    std::fill(x.begin(), x.end(), 0.0);
    const int rc = pksp::KSPSolve(ksp_, b, x);
    pksp::PkspConvergedReason reason = pksp::PKSP_ITERATING;
    pksp::KSPGetConvergedReason(ksp_, &reason);
    return rc == pksp::PKSP_SUCCESS && reason > 0;
  }
  [[nodiscard]] int iterations() const {
    int n = 0;
    pksp::KSPGetIterationNumber(ksp_, &n);
    return n;
  }

 private:
  pksp::KSP ksp_ = nullptr;
};

/// Port-minus-native differences of interleaved pairs.
struct Pairs {
  std::vector<double> port, native, diff;
  void add(double portSec, double nativeSec) {
    port.push_back(portSec);
    native.push_back(nativeSec);
    diff.push_back(portSec - nativeSec);
  }
};

/// kPairs port-vs-native pairs on inputs first .. first+kPairs-1 after a
/// warm-up pair on first-1, alternating which arm goes first.  Both arms are
/// collective callables returning their seconds for one input index.
template <class PortFn, class NativeFn>
Pairs interleave(std::uint64_t first, PortFn&& port, NativeFn&& native) {
  (void)native(first - 1);
  (void)port(first - 1);
  Pairs pairs;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t index = first + static_cast<std::uint64_t>(i);
    double portSec = 0.0;
    double nativeSec = 0.0;
    if (i % 2 == 0) {
      portSec = port(index);
      nativeSec = native(index);
    } else {
      nativeSec = native(index);
      portSec = port(index);
    }
    pairs.add(portSec, nativeSec);
  }
  return pairs;
}

/// The median difference with its interquartile interval, in ms.
void reportOverhead(Report& report, const std::string& name, const Pairs& p) {
  report.metric(name, quantile(p.diff, 0.5) * 1e3, "ms");
  report.metric(name + ".lo", quantile(p.diff, 0.25) * 1e3, "ms");
  report.metric(name + ".hi", quantile(p.diff, 0.75) * 1e3, "ms");
}

/// 100 * (traced - untraced) / untraced over the medians of the two sets.
double overheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  const double u = median(untraced);
  return 100.0 * (median(traced) - u) / u;
}

/// Counter snapshot for the steady-state windows.
struct Counters {
  long long planBuilds = 0;
  long long valueUpdates = 0;
  static Counters now() {
    return {lisi::sparse::haloPlanBuilds(), lisi::sparse::valueUpdates()};
  }
};

/// Rank 0 reads process-wide counters between two barriers, so no rank is
/// inside a solve while they are read.
template <class Fn>
void quiescent(const Comm& comm, Fn&& fn) {
  comm.barrier();
  if (comm.rank() == 0) fn();
  comm.barrier();
}

/// State carried across sections.
struct Suite {
  const RunArgs& args;
  Report& report;
  lisi::tune::Stats tuneSetup;  ///< summed deltas over the two cold set-ups
  long long windowPlanBuilds = 0;
  long long windowValueUpdates = 0;
  std::vector<double> nativeP4Sec;  ///< native krylov steps, pair order
  std::vector<double> tracedSpan, untracedSpan;  ///< W's interleaved steps

  void addTune(const lisi::tune::Stats& a, const lisi::tune::Stats& b) {
    tuneSetup.cacheHits += b.cacheHits - a.cacheHits;
    tuneSetup.cacheMisses += b.cacheMisses - a.cacheMisses;
    tuneSetup.probeMeasurements += b.probeMeasurements - a.probeMeasurements;
    tuneSetup.autoSkips += b.autoSkips - a.autoSkips;
  }
};

// ---- krylov_p4 operator, p = 4 --------------------------------------------

void krylovSection(Suite& s) {
  Report& report = s.report;
  const bool overheadHere = s.args.workload == "krylov_p4";
  World::run(kKrylovRanks, [&](Comm& comm) {
    const bool root = comm.rank() == 0;
    const lisi::tune::Stats tune0 = lisi::tune::stats();
    PortRank pr(PortKind::kKrylov, comm, s.args.seed);
    const StepRecord cold = pr.setup();
    quiescent(comm, [&] {
      s.addTune(tune0, lisi::tune::stats());
      report.metric("lisi.cold_solve_ms", cold.solveCallSec * 1e3, "ms");
      report.metric("mesh.assemble_ms", pr.assembleSec * 1e3, "ms");
    });
    const StepRecord checked = pr.checkSetupSolve();
    if (root) report.countSolve(checked.ok);

    // Steady-state window: kSameOperator steps, alternately traced.
    Counters c0;
    lisi::prec::Stats prec0;
    quiescent(comm, [&] {
      c0 = Counters::now();
      prec0 = lisi::prec::stats();
    });
    std::vector<double> rhsMs, backendMs, iterMs;
    for (int k = 0; k < kKrylovWindow; ++k) {
      const bool traced = windowStepTraced(k);
      const StepRecord r = pr.step(windowStepIndex(k), traced);
      if (!root) continue;
      report.countSolve(r.ok);
      if (overheadHere) {
        (traced ? s.tracedSpan : s.untracedSpan).push_back(r.spanSec);
      }
      if (!traced) continue;
      rhsMs.push_back(r.setupRhsSec * 1e3);
      backendMs.push_back(r.status[lisi::kStatusSolveSeconds] * 1e3);
      iterMs.push_back(r.status[lisi::kStatusSolveSeconds] * 1e3 /
                       r.status[lisi::kStatusIterations]);
    }
    quiescent(comm, [&] {
      const Counters c1 = Counters::now();
      s.windowPlanBuilds += c1.planBuilds - c0.planBuilds;
      s.windowValueUpdates += c1.valueUpdates - c0.valueUpdates;
      const lisi::prec::Stats prec1 = lisi::prec::stats();
      report.metric("lisi.setup_rhs_ms", median(rhsMs), "ms");
      report.metric("lisi.backend_ms", median(backendMs), "ms");
      report.metric("pksp.iter_ms", median(iterMs), "ms");
      report.metric("prec.bytes_high",
                    static_cast<double>(prec1.bytesHigh - prec0.bytesHigh) /
                        kKrylovWindow,
                    "bytes");
      report.metric("prec.bytes_low",
                    static_cast<double>(prec1.bytesLow - prec0.bytesLow) /
                        kKrylovWindow,
                    "bytes");
    });

    // Port vs native pairs.  The port arm runs tune=off, precision=double
    // so both arms execute the same kernels.
    PortRank off(PortKind::kKrylov, comm, s.args.seed,
                 {{"tune", "off"}, {"precision", "double"}});
    off.setup();
    const StepRecord offCold = off.checkSetupSolve();
    if (root) report.countSolve(offCold.ok);
    const auto& sys = pr.system();
    const DistCsrMatrix a(comm, sys.globalN, sys.globalN, sys.startRow,
                          sys.localA);
    NativeKsp native(comm, &a);
    std::vector<double> x(static_cast<std::size_t>(sys.localA.rows));
    const auto nativeStep = [&](std::uint64_t index) {
      const std::vector<double> b = pr.rhs(index);
      comm.barrier();
      const Clock::time_point t0 = Clock::now();
      const bool converged = native.solve(b, x);
      const double sec = secondsSince(t0);
      const double relres = distRelResidual(a, b, x);
      const bool ok = converged && relres <= residualTolerance("pksp");
      if (root) report.countSolve(ok);
      return sec;
    };
    const auto portStep = [&](std::uint64_t index) {
      const StepRecord r = off.step(index);
      if (root) report.countSolve(r.ok);
      return r.spanSec;
    };
    const Pairs pairs = interleave(101, portStep, nativeStep);
    if (root) {
      reportOverhead(report, "lisi.port_overhead_ms", pairs);
      report.metric("pksp.native_step_ms", median(pairs.native) * 1e3, "ms");
      s.nativeP4Sec = pairs.native;
    }

    // Iteration count on the paper's fixed right-hand side: bitwise
    // deterministic at a fixed rank count, so it repeats across seeds.
    {
      const bool converged = native.solve(sys.localB, x);
      const double relres = distRelResidual(a, sys.localB, x);
      const bool ok = converged && relres <= residualTolerance("pksp");
      if (root) {
        report.countSolve(ok);
        report.metric("pksp.iterations", native.iterations(), "count");
      }
    }

    // sparse: SpMV and operator build on the krylov_p4 operator.
    const std::vector<double> ones(x.size(), 1.0);
    std::vector<double> y(x.size());
    const double spmvSec =
        perCall(comm, 5, 50, [&] { a.spmv(ones, std::span<double>(y)); });
    std::vector<double> buildSec;
    for (int r = 0; r < 3; ++r) {
      CsrMatrix copy = sys.localA;
      buildSec.push_back(timeOnce(comm, [&] {
        const DistCsrMatrix built(comm, sys.globalN, sys.globalN,
                                  sys.startRow, std::move(copy));
      }));
    }
    const auto nnz = static_cast<double>(a.globalNnz());  // collective
    if (root) {
      const double n = sys.globalN;
      // Compulsory traffic: values + column indices per nonzero, row
      // pointers + one read of x + one write of y per row.
      const double bytes = 12.0 * nnz + 20.0 * n + 4.0 * comm.size();
      report.metric("sparse.spmv_ms", spmvSec * 1e3, "ms");
      report.metric("sparse.spmv_gbs", bytes / spmvSec / 1e9, "GB/s");
      report.metric("sparse.dist_build_ms", median(buildSec) * 1e3, "ms");
    }

    // comm: the collectives the Krylov loop runs, on the same context.
    const std::vector<double> in31(31, 1.0);
    std::vector<double> out31(31);
    const double allreduce =
        perCall(comm, 5, 400, [&] { (void)comm.allreduceValue(1.0, lisi::comm::ReduceOp::kSum); });
    const double allreduce31 = perCall(comm, 5, 400, [&] {
      comm.allreduce(std::span<const double>(in31), std::span<double>(out31),
                     lisi::comm::ReduceOp::kSum);
    });
    const double iallreduce = perCall(comm, 5, 400, [&] {
      const double v = 1.0;
      double out = 0.0;
      comm.iallreduce(std::span<const double>(&v, 1), std::span<double>(&out, 1),
                      lisi::comm::ReduceOp::kSum)
          .wait();
    });
    const double barrier = perCall(comm, 5, 400, [&] { comm.barrier(); });
    const double bcast =
        perCall(comm, 5, 400, [&] { (void)comm.bcastValue(1.0, 0); });
    if (root) {
      report.metric("comm.allreduce_us.p4", allreduce * 1e6, "us");
      report.metric("comm.allreduce31_us.p4", allreduce31 * 1e6, "us");
      report.metric("comm.iallreduce_us.p4", iallreduce * 1e6, "us");
      report.metric("comm.barrier_us.p4", barrier * 1e6, "us");
      report.metric("comm.bcast_us.p4", bcast * 1e6, "us");
    }
  });
}

/// pksp.native_p1_ms and pksp.scaling_eff_p4: the first three pair
/// right-hand sides solved natively on one rank.
void krylovP1(Suite& s) {
  std::vector<double> secs;
  World::run(1, [&](Comm& comm) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = kKrylovGrid;
    const lisi::mesh::Pde5ptLocalSystem sys =
        lisi::mesh::assembleLocal(spec, 0, 1);
    const DistCsrMatrix a(comm, sys.globalN, sys.globalN, 0, sys.localA);
    NativeKsp native(comm, &a);
    std::vector<double> x(static_cast<std::size_t>(sys.globalN));
    for (int i = -1; i < 3; ++i) {  // i = -1: warm-up, builds the PC
      const auto index = static_cast<std::uint64_t>(101 + std::max(i, 0));
      const std::vector<double> b =
          seededSlice(s.args.seed, kStreamKrylovRhs, index, 0, sys.globalN);
      const Clock::time_point t0 = Clock::now();
      const bool converged = native.solve(b, x);
      const double sec = secondsSince(t0);
      const double relres = distRelResidual(a, b, x);
      s.report.countSolve(converged && relres <= residualTolerance("pksp"));
      if (i >= 0) secs.push_back(sec);
    }
  });
  const std::vector<double> p4(s.nativeP4Sec.begin(),
                               s.nativeP4Sec.begin() + 3);
  s.report.metric("pksp.native_p1_ms", median(secs) * 1e3, "ms");
  s.report.metric("pksp.scaling_eff_p4",
                  median(secs) / (kKrylovRanks * median(p4)), "ratio");
}

// ---- timestep_slu operators, p = 4 ---------------------------------------

void timestepSection(Suite& s) {
  Report& report = s.report;
  const bool overheadHere = s.args.workload == "timestep_slu";
  World::run(kSluRanks, [&](Comm& comm) {
    const bool root = comm.rank() == 0;
    const lisi::tune::Stats tune0 = lisi::tune::stats();
    PortRank ps(PortKind::kTimestep, comm, s.args.seed);
    ps.setup();
    quiescent(comm, [&] { s.addTune(tune0, lisi::tune::stats()); });
    const StepRecord checked = ps.checkSetupSolve();
    if (root) report.countSolve(checked.ok);

    // Steady-state window: kSameStructure steps, alternately traced.
    Counters c0;
    quiescent(comm, [&] { c0 = Counters::now(); });
    std::vector<double> matrixMs, opSetupMs;
    for (int k = 0; k < kSluWindow; ++k) {
      const bool traced = windowStepTraced(k);
      const StepRecord r = ps.step(windowStepIndex(k), traced);
      if (!root) continue;
      report.countSolve(r.ok);
      if (overheadHere) {
        (traced ? s.tracedSpan : s.untracedSpan).push_back(r.spanSec);
      }
      if (!traced) continue;
      matrixMs.push_back(r.setupMatrixSec * 1e3);
      opSetupMs.push_back(r.status[lisi::kStatusSetupSeconds] * 1e3);
    }
    quiescent(comm, [&] {
      const Counters c1 = Counters::now();
      s.windowPlanBuilds += c1.planBuilds - c0.planBuilds;
      s.windowValueUpdates += c1.valueUpdates - c0.valueUpdates;
      report.metric("lisi.setup_matrix_ms", median(matrixMs), "ms");
      report.metric("lisi.operator_setup_ms", median(opSetupMs), "ms");
    });

    // Native arm: bench_common's directSlu topology (gather to rank 0,
    // factor and solve there, scatter back) with the same-pattern
    // refactorization the slu component uses after its first solve.
    const auto& sys = ps.system();
    DistCsrMatrix nat(comm, sys.globalN, sys.globalN, sys.startRow,
                      sys.localA);
    std::optional<slu::Factorization> factor;
    std::vector<double> factorSec;
    for (int r = 0; r < 3; ++r) {
      nat.updateValues(ps.localOperator(300));
      const CsrMatrix g = nat.gatherToRoot(0);
      if (root) {
        const lisi::sparse::CscMatrix csc = lisi::sparse::csrToCsc(g);
        const Clock::time_point t0 = Clock::now();
        factor = slu::Factorization::factorize(csc, slu::Options{});
        factorSec.push_back(secondsSince(t0));
      }
    }
    if (root) {
      report.metric("slu.factorize_ms", median(factorSec) * 1e3, "ms");
      report.metric("slu.fill_ratio", factor->stats().fillRatio, "ratio");
    }
    std::vector<double> updateMs, gatherMs, refactorMs, solveMs;
    const auto nativeStep = [&](std::uint64_t index) {
      const CsrMatrix ak = ps.localOperator(index);
      const std::vector<double> b = ps.rhs(index);
      comm.barrier();
      const Clock::time_point t0 = Clock::now();
      nat.updateValues(ak);
      const Clock::time_point t1 = Clock::now();
      const CsrMatrix g = nat.gatherToRoot(0);
      lisi::sparse::CscMatrix csc;
      if (root) csc = lisi::sparse::csrToCsc(g);
      const Clock::time_point t2 = Clock::now();
      if (root) factor->refactorize(csc);
      const Clock::time_point t3 = Clock::now();
      const std::vector<double> bg = nat.gatherVectorToRoot(b, 0);
      std::vector<double> xg(bg.size());
      double solveSec = 0.0;
      if (root) {
        const Clock::time_point ts = Clock::now();
        factor->solve(bg, xg);
        solveSec = secondsSince(ts);
      }
      const std::vector<double> x = nat.scatterVectorFromRoot(xg, 0);
      const double sec = secondsSince(t0);
      const bool ok = distRelResidual(nat, b, x) <= residualTolerance("slu");
      if (root) {
        report.countSolve(ok);
        const auto ms = [](Clock::time_point a, Clock::time_point b) {
          return std::chrono::duration<double, std::milli>(b - a).count();
        };
        updateMs.push_back(ms(t0, t1));
        gatherMs.push_back(ms(t1, t2));
        refactorMs.push_back(ms(t2, t3));
        solveMs.push_back(solveSec * 1e3);
      }
      return sec;
    };
    const auto portStep = [&](std::uint64_t index) {
      const StepRecord r = ps.step(index);
      if (root) report.countSolve(r.ok);
      return r.spanSec;
    };
    const Pairs pairs = interleave(401, portStep, nativeStep);
    if (root) {
      reportOverhead(report, "lisi.port_overhead_slu_ms", pairs);
      report.metric("sparse.update_values_ms", median(updateMs), "ms");
      report.metric("sparse.gather_root_ms", median(gatherMs), "ms");
      report.metric("slu.refactorize_ms", median(refactorMs), "ms");
      report.metric("slu.solve_ms", median(solveMs), "ms");
    }
  });
}

// ---- service_mix operators, p = 2 ----------------------------------------

void serviceLayers(Suite& s, const std::vector<MixOperator>& ops) {
  Report& report = s.report;
  const MixOperator& lap = ops[3];  // lap9_24, the largest 9-point operator
  const MixOperator& cd = ops[1];   // cd5_31, the largest hymg grid
  World::run(kServiceRanksPerSession, [&](Comm& comm) {
    const bool root = comm.rank() == 0;

    // aztec: GMRES(30) + domain-decomposition ILU, AZ_rhs convergence.
    const DistCsrMatrix al = DistCsrMatrix::scatterFromRoot(comm, *lap.a);
    const aztec::Map map(al.globalRows(), al.localRows(), comm);
    const aztec::CrsMatrix az(map, al.localBlock());
    std::vector<double> azMs, azIts;
    for (int r = 0; r < 5; ++r) {
      const std::vector<double> b =
          seededSlice(s.args.seed, kStreamServiceRhs, 10000 + r, al.startRow(),
                      al.localRows());
      aztec::Vector x(map);
      const aztec::Vector bv(map, b);
      aztec::AztecOO solver(az, x, bv);
      solver.setOption(aztec::AZ_solver, aztec::AZ_gmres)
          .setOption(aztec::AZ_precond, aztec::AZ_dom_decomp)
          .setOption(aztec::AZ_kspace, kRestart)
          .setOption(aztec::AZ_conv, aztec::AZ_rhs);
      int rc = 0;
      const double sec =
          timeOnce(comm, [&] { rc = solver.iterate(kMaxIts, kRtol); });
      const double relres = distRelResidual(al, b, x.localView());
      const bool ok = rc == 0 && relres <= residualTolerance("aztec");
      if (root) {
        report.countSolve(ok);
        azMs.push_back(sec * 1e3);
        azIts.push_back(solver.numIters());
      }
    }

    // hymg: hierarchy set-up and V-cycles on the 31 x 31 convection grid.
    std::vector<double> mgSetupMs, mgSolveMs, mgCycles;
    for (int r = 0; r < 5; ++r) {
      std::optional<hymg::Solver> mg;
      const double setupSec = timeOnce(comm, [&] {
        mg.emplace(comm, cd.gridN, hymg::convectionDiffusionStencil(3.0, 0.0),
                   hymg::Options{});
      });
      const DistCsrMatrix& fine = mg->fineMatrix();
      const std::vector<double> b =
          seededSlice(s.args.seed, kStreamServiceRhs, 20000 + r,
                      fine.startRow(), fine.localRows());
      std::vector<double> x(b.size(), 0.0);
      hymg::SolveInfo info;
      const double solveSec =
          timeOnce(comm, [&] { info = mg->solve(b, x, kRtol, 100); });
      const double relres = distRelResidual(fine, b, x);
      const bool ok = info.converged && relres <= residualTolerance("hymg");
      if (root) {
        report.countSolve(ok);
        mgSetupMs.push_back(setupSec * 1e3);
        mgSolveMs.push_back(solveSec * 1e3);
        mgCycles.push_back(info.cycles);
      }
    }

    // sparse: the blocked SpMV of a 4-lane batch; comm at p = 2.
    const DistCsrMatrix ac = DistCsrMatrix::scatterFromRoot(comm, *cd.a);
    const auto m = static_cast<std::size_t>(ac.localRows());
    const std::vector<double> xs(4 * m, 1.0);
    std::vector<double> ys(4 * m);
    const double multi = perCall(comm, 5, 200, [&] {
      ac.spmvMulti(xs, std::span<double>(ys), 4);
    });
    const double allreduce = perCall(comm, 5, 400, [&] {
      (void)comm.allreduceValue(1.0, lisi::comm::ReduceOp::kSum);
    });

    // lisi adapter cost on a service-sized system: solve-call wall time
    // minus the two phases the port reports, over kSameOperator solves.
    cca::Framework fw;
    const auto port = instantiatePort(fw, "solver", lisi::kPkspComponentClass);
    const long handle = lisi::comm::registerHandle(comm);
    int rc = describeRows(*port, handle, ac.startRow(), ac.localRows(),
                          ac.localBlock().nnz(), ac.globalRows());
    if (rc == 0) rc = setKrylovParams(*port);
    if (rc == 0) rc = setupCsr(*port, ac.localBlock());
    LISI_CHECK(rc == 0, "adapter probe set-up failed");
    std::vector<double> adapterMs;
    std::vector<double> x(m);
    std::array<double, lisi::kStatusLength> st{};
    for (int r = 0; r < 21; ++r) {
      const std::vector<double> b =
          seededSlice(s.args.seed, kStreamServiceRhs, 30000 + r, ac.startRow(),
                      ac.localRows());
      rc = setupRhs(*port, b);
      const double sec =
          timeOnce(comm, [&] { rc = rc == 0 ? solvePort(*port, x, st) : rc; });
      const double relres = distRelResidual(ac, b, x);
      const bool ok = rc == 0 && relres <= residualTolerance("pksp");
      if (root) {
        report.countSolve(ok);
        if (r > 0) {  // r = 0 builds the preconditioner
          adapterMs.push_back((sec - st[lisi::kStatusSetupSeconds] -
                               st[lisi::kStatusSolveSeconds]) *
                              1e3);
        }
      }
    }
    lisi::comm::releaseHandle(handle);

    if (root) {
      report.metric("aztec.iterate_ms", median(azMs), "ms");
      report.metric("aztec.iterations", median(azIts), "count");
      report.metric("hymg.setup_ms", median(mgSetupMs), "ms");
      report.metric("hymg.solve_ms", median(mgSolveMs), "ms");
      report.metric("hymg.cycles", median(mgCycles), "count");
      report.metric("sparse.spmv_multi4_ms", multi * 1e3, "ms");
      report.metric("comm.allreduce_us.p2", allreduce * 1e6, "us");
      report.metric("lisi.adapter_ms", median(adapterMs), "ms");
    }
  });
}

/// The service itself: one warm start, then closed-loop phases.  For
/// service_mix, untraced and traced phases alternate for trace.overhead_pct.
void serviceSection(Suite& s, const std::vector<MixOperator>& ops) {
  Report& report = s.report;
  const bool overheadHere = s.args.workload == "service_mix";
  const int phases = overheadHere ? 4 : 1;
  const double phaseSec = std::clamp(s.args.seconds / 10.0, 0.5, 3.0);
  lisi::service::SolverService svc(mixServiceConfig());
  svc.start();
  const std::uint64_t first = warmService(svc, ops, s.args.seed, report);
  const long long batches0 = svc.batchesServed();
  std::vector<double> queueMs, serveMs, latencyMs;
  std::uint64_t index = first;
  for (int p = 0; p < phases; ++p) {
    const bool traced = !overheadHere || p % 2 == 1;
    const LoopStats ls = runClosedLoop(svc, ops, s.args.seed, index, phaseSec,
                                       report, &index);
    if (overheadHere) {
      for (const double v : ls.latencySec) {
        (traced ? s.tracedSpan : s.untracedSpan).push_back(v);
      }
    }
    if (!traced) continue;
    for (const double v : ls.queueSec) queueMs.push_back(v * 1e3);
    for (const double v : ls.serveSec) serveMs.push_back(v * 1e3);
    for (const double v : ls.latencySec) latencyMs.push_back(v * 1e3);
  }
  svc.stop();
  const double batches = static_cast<double>(svc.batchesServed() - batches0);
  const double lanesMean = static_cast<double>(index - first) / batches;
  report.metric("service.latency_ms.p99", quantile(latencyMs, 0.99), "ms");
  report.metric("service.queue_ms.p50", quantile(queueMs, 0.5), "ms");
  report.metric("service.serve_ms.p50", quantile(serveMs, 0.5), "ms");
  report.metric("service.batch_lanes_mean", lanesMean, "count");
  report.metric("service.batch_fill", lanesMean / kServiceBatchWindow, "ratio");
  report.metric("service.rejected", static_cast<double>(svc.rejected()),
                "count");
  report.metric("service.batches", batches, "count");
}

}  // namespace

void runLayerSuite(const RunArgs& args, Report& report) {
  Suite s{args, report, {}, 0, 0, {}, {}, {}};

  krylovSection(s);
  krylovP1(s);
  timestepSection(s);
  const std::vector<MixOperator> ops = buildMixOperators();
  serviceLayers(s, ops);
  serviceSection(s, ops);

  std::vector<double> worldMs;
  for (int r = 0; r < 10; ++r) {
    const Clock::time_point t0 = Clock::now();
    World::run(kKrylovRanks, [](Comm&) {});
    worldMs.push_back(secondsSince(t0) * 1e3);
  }
  report.metric("comm.world_run_ms.p4", median(worldMs), "ms");

  // instantiate and connect: rank-local framework calls, timed directly.
  std::vector<double> instMs, connectUs;
  {
    cca::Framework fw;
    fw.instantiate("operator", "perfbench.Operator");
    for (int r = 0; r < 20; ++r) {
      const std::string name = "solver" + std::to_string(r);
      const Clock::time_point t0 = Clock::now();
      fw.instantiate(name, lisi::kPkspComponentClass);
      instMs.push_back(secondsSince(t0) * 1e3);
      const Clock::time_point t1 = Clock::now();
      fw.connect(name, lisi::kMatrixFreePortName, "operator",
                 lisi::kMatrixFreePortName);
      connectUs.push_back(secondsSince(t1) * 1e6);
    }
  }
  report.metric("cca.instantiate_ms", median(instMs), "ms");
  report.metric("cca.connect_us", median(connectUs), "us");

  report.metric("tune.probe_measurements",
                static_cast<double>(s.tuneSetup.probeMeasurements), "count");
  report.metric("tune.cache_hits", static_cast<double>(s.tuneSetup.cacheHits),
                "count");
  report.metric("tune.cache_misses",
                static_cast<double>(s.tuneSetup.cacheMisses), "count");
  report.metric("tune.auto_skips", static_cast<double>(s.tuneSetup.autoSkips),
                "count");
  report.metric("sparse.halo_plan_builds",
                static_cast<double>(s.windowPlanBuilds), "count");
  report.metric("sparse.value_updates",
                static_cast<double>(s.windowValueUpdates), "count");
  report.metric("trace.overhead_pct", overheadPct(s.tracedSpan, s.untracedSpan),
                "%");
}

}  // namespace perfbench
