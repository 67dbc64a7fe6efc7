// End-to-end runs of the three workloads (README.md "Workloads").
//
// krylov_p4 and timestep_slu are timed through the lisi::SparseSolver port:
// one span per step, from the step's first port call to the return of
// solve.  service_mix is timed through SolverService::submit: one span per
// request, from submit to the future becoming ready.  Inputs are generated
// and every solution is checked outside the spans.
#include "workloads.hpp"

#include <sys/prctl.h>

#include "sparse/generate.hpp"
#include "support/error.hpp"
#include "support/prec.hpp"
#include "tune/tune.hpp"

namespace perfbench {

using lisi::comm::Comm;
using lisi::comm::World;

// ---- port workloads --------------------------------------------------------

PortRank::PortRank(PortKind kind, const Comm& comm, std::uint64_t seed,
                   std::vector<std::pair<std::string, std::string>> params)
    : kind_(kind), comm_(comm), seed_(seed), params_(std::move(params)) {}

PortRank::~PortRank() {
  if (handle_ != 0) lisi::comm::releaseHandle(handle_);
}

const char* PortRank::backend() const {
  return kind_ == PortKind::kKrylov ? "pksp" : "slu";
}

std::vector<double> PortRank::rhs(std::uint64_t index) const {
  return seededSlice(seed_,
                     kind_ == PortKind::kKrylov ? kStreamKrylovRhs
                                                : kStreamSluRhs,
                     index, sys_.startRow, sys_.localA.rows);
}

double PortRank::shift(std::uint64_t index) const {
  if (kind_ == PortKind::kKrylov) return 0.0;
  lisi::Rng rng = streamRng(seed_, kStreamSluDt, index);
  return 1.0 / rng.uniform(kDtMin, kDtMax);
}

lisi::sparse::CsrMatrix PortRank::localOperator(std::uint64_t index) const {
  lisi::sparse::CsrMatrix a = sys_.localA;
  const double s = shift(index);
  for (const int p : diagPos_) a.values[static_cast<std::size_t>(p)] += s;
  return a;
}

StepRecord PortRank::setup() {
  const Clock::time_point ta = Clock::now();
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = kind_ == PortKind::kKrylov ? kKrylovGrid : kSluGrid;
  sys_ = lisi::mesh::assembleLocal(spec, comm_.rank(), comm_.size());
  assembleSec = secondsSince(ta);

  const lisi::sparse::CsrMatrix& a = sys_.localA;
  for (int i = 0; i < a.rows; ++i) {
    for (int p = a.rowPtr[static_cast<std::size_t>(i)];
         p < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++p) {
      const int col = a.colIdx[static_cast<std::size_t>(p)];
      cooRows_.push_back(sys_.startRow + i);
      cooCols_.push_back(col);
      if (col == sys_.startRow + i) diagPos_.push_back(p);
    }
  }

  port_ = instantiatePort(fw_, "solver",
                          kind_ == PortKind::kKrylov ? lisi::kPkspComponentClass
                                                     : lisi::kSluComponentClass);
  handle_ = lisi::comm::registerHandle(comm_);
  int rc = describeRows(*port_, handle_, sys_.startRow, a.rows, a.nnz(),
                        sys_.globalN);
  if (rc == 0) {
    rc = kind_ == PortKind::kKrylov ? setKrylovParams(*port_)
                                    : port_->set("ordering", "rcm");
  }
  for (const auto& [k, v] : params_) {
    if (rc == 0) rc = port_->set(k, v);
  }
  LISI_CHECK(rc == 0, "port set-up failed with rc " + std::to_string(rc));
  setupRec_ = runStep(0, true);
  return setupRec_;
}

StepRecord PortRank::checkSetupSolve() {
  checker_.emplace(comm_, sys_.globalN, sys_.globalN, sys_.startRow,
                   sys_.localA);
  check(setupRec_, 0);
  return setupRec_;
}

StepRecord PortRank::step(std::uint64_t index, bool traced) {
  StepRecord rec = runStep(index, traced);
  check(rec, index);
  return rec;
}

StepRecord PortRank::runStep(std::uint64_t index, bool traced) {
  const bool withMatrix = kind_ == PortKind::kTimestep || index == 0;
  b_ = rhs(index);
  x_.assign(b_.size(), 0.0);
  if (kind_ == PortKind::kTimestep) {
    values_ = sys_.localA.values;
    const double s = shift(index);
    for (const int p : diagPos_) values_[static_cast<std::size_t>(p)] += s;
  }
  const auto sec = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  StepRecord rec;
  comm_.barrier();
  const Clock::time_point t0 = Clock::now();
  int rc = 0;
  if (withMatrix) {
    rc = kind_ == PortKind::kKrylov
             ? setupCsr(*port_, sys_.localA)
             : setupCoo(*port_, values_, cooRows_, cooCols_);
    if (traced) rec.setupMatrixSec = secondsSince(t0);
  }
  const Clock::time_point t1 = traced ? Clock::now() : t0;
  if (rc == 0) rc = setupRhs(*port_, b_);
  const Clock::time_point t2 = traced ? Clock::now() : t0;
  if (rc == 0) rc = solvePort(*port_, x_, rec.status);
  const Clock::time_point t3 = Clock::now();
  rec.spanSec = sec(t0, t3);
  if (traced) {
    rec.setupRhsSec = sec(t1, t2);
    rec.solveCallSec = sec(t2, t3);
  }
  rec.rc = rc;
  return rec;
}

void PortRank::check(StepRecord& rec, std::uint64_t index) {
  rec.relResidual = distRelResidual(*checker_, b_, x_, shift(index));
  rec.ok = rec.rc == 0 && rec.status[lisi::kStatusConverged] == 1.0 &&
           rec.relResidual <= residualTolerance(backend());
}

namespace {

const char* scheduleName(lisi::comm::CollectiveSchedule s) {
  switch (s) {
    case lisi::comm::CollectiveSchedule::kTree: return "tree";
    case lisi::comm::CollectiveSchedule::kStar: return "star";
    case lisi::comm::CollectiveSchedule::kAuto: break;
  }
  return "unpinned";
}

void recordTuneDelta(Report& report, const std::string& prefix,
                     const lisi::tune::Stats& a, const lisi::tune::Stats& b) {
  report.info(prefix + "tune_cache_hits",
              static_cast<double>(b.cacheHits - a.cacheHits));
  report.info(prefix + "tune_cache_misses",
              static_cast<double>(b.cacheMisses - a.cacheMisses));
  report.info(prefix + "tune_probe_measurements",
              static_cast<double>(b.probeMeasurements - a.probeMeasurements));
  report.info(prefix + "tune_auto_skips",
              static_cast<double>(b.autoSkips - a.autoSkips));
}

void recordPrecDelta(Report& report, const std::string& prefix,
                     const lisi::prec::Stats& a, const lisi::prec::Stats& b) {
  report.info(prefix + "prec_bytes_high",
              static_cast<double>(b.bytesHigh - a.bytesHigh));
  report.info(prefix + "prec_bytes_low",
              static_cast<double>(b.bytesLow - a.bytesLow));
  report.info(prefix + "prec_mixed_solves",
              static_cast<double>(b.mixedSolves - a.mixedSolves));
}

void runPortWorkload(PortKind kind, const RunArgs& args, Report& report) {
  const int ranks = kind == PortKind::kKrylov ? kKrylovRanks : kSluRanks;
  const lisi::tune::Stats tune0 = lisi::tune::stats();
  const lisi::prec::Stats prec0 = lisi::prec::stats();
  lisi::tune::Stats tune1;
  lisi::prec::Stats prec1;
  double setupSec = 0.0;
  double phaseSec = 0.0;
  std::string schedule;
  StepRecord cold;
  std::vector<StepRecord> warmup, steps;
  std::vector<double> stepSteal;  ///< steal share during each timed step

  const HostTicks ticks0 = hostTicks();
  HostTicks ticks1;
  const Clock::time_point t0 = Clock::now();
  World::run(ranks, [&](Comm& comm) {
    PortRank pr(kind, comm, args.seed);
    pr.setup();
    comm.barrier();
    if (comm.rank() == 0) {
      setupSec = secondsSince(t0);
      ticks1 = hostTicks();
      tune1 = lisi::tune::stats();
      prec1 = lisi::prec::stats();
      schedule = scheduleName(comm.pinnedCollectiveSchedule());
    }
    const StepRecord c = pr.checkSetupSolve();
    if (comm.rank() == 0) cold = c;
    if (args.setupOnly) return;

    std::uint64_t k = 1;
    for (; k <= kWarmupSteps; ++k) {
      const StepRecord rec = pr.step(k);
      if (comm.rank() == 0) warmup.push_back(rec);
    }
    const Clock::time_point start = Clock::now();
    int undisturbed = 0;
    for (;; ++k) {
      const double elapsed = secondsSince(start);
      int go = comm.rank() == 0 && elapsed < kMaxPhaseSeconds &&
                       (elapsed < args.seconds || undisturbed < kMinPortSteps)
                   ? 1
                   : 0;
      go = comm.bcastValue(go, 0);
      if (go == 0) break;
      const HostTicks before = comm.rank() == 0 ? hostTicks() : HostTicks{};
      const StepRecord rec = pr.step(k);
      if (comm.rank() == 0) {
        steps.push_back(rec);
        stepSteal.push_back(stealShare(before, hostTicks()));
        if (stepSteal.back() <= kMaxStealShare) ++undisturbed;
      }
    }
    if (comm.rank() == 0) phaseSec = secondsSince(start);
  });

  report.countSolve(cold.ok);
  report.metric("setup_s", setupSec, "s");
  report.info("setup_steal", stealShare(ticks0, ticks1));
  report.info("setup_relres", cold.relResidual);
  report.infoString("collective_schedule", schedule);
  recordTuneDelta(report, "setup_", tune0, tune1);
  recordPrecDelta(report, "setup_", prec0, prec1);
  if (args.setupOnly) return;

  for (const StepRecord& s : warmup) report.countSolve(s.ok);
  const std::vector<bool> use = selectUndisturbed(
      stepSteal, std::vector<long long>(steps.size(), 1), kMinUsedSteps);
  std::vector<double> spanMs, allSpanMs;
  std::vector<double> iters;
  double maxRes = 0.0;
  double usedSec = 0.0;
  long long correct = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepRecord& s = steps[i];
    report.countSolve(s.ok);
    allSpanMs.push_back(s.spanSec * 1e3);
    iters.push_back(s.status[lisi::kStatusIterations]);
    maxRes = std::max(maxRes, s.relResidual);
    if (!use[i]) continue;
    spanMs.push_back(s.spanSec * 1e3);
    usedSec += s.spanSec;
    if (s.ok) ++correct;
  }
  report.metric("step_ms.p50", quantile(spanMs, 0.5), "ms");
  report.metric("step_ms.p90", quantile(spanMs, 0.9), "ms");
  // A port step is synchronous: the application waits exactly the span.
  report.metric("latency_ms.p50", quantile(spanMs, 0.5), "ms");
  report.metric("latency_ms.p90", quantile(spanMs, 0.9), "ms");
  report.metric("solves_per_s", static_cast<double>(correct) / usedSec, "1/s");
  report.info("steps", static_cast<double>(steps.size()));
  report.info("steps_used", static_cast<double>(spanMs.size()));
  report.info("steps_undisturbed",
              static_cast<double>(std::count_if(
                  stepSteal.begin(), stepSteal.end(),
                  [](double v) { return v <= kMaxStealShare; })));
  report.info("all_steps_ms_p50", quantile(allSpanMs, 0.5));
  report.info("all_steps_ms_p90", quantile(allSpanMs, 0.9));
  report.info("phase_s", phaseSec);
  report.info("iterations_p50", quantile(iters, 0.5));
  report.info("iterations_max", quantile(iters, 1.0));
  report.info("max_relres", maxRes);
  const lisi::tune::Stats tune2 = lisi::tune::stats();
  const lisi::prec::Stats prec2 = lisi::prec::stats();
  recordTuneDelta(report, "phase_", tune1, tune2);
  recordPrecDelta(report, "phase_", prec1, prec2);
}

}  // namespace

void runKrylov(const RunArgs& args, Report& report) {
  runPortWorkload(PortKind::kKrylov, args, report);
}

void runTimestep(const RunArgs& args, Report& report) {
  runPortWorkload(PortKind::kTimestep, args, report);
}

// ---- service_mix -----------------------------------------------------------

std::vector<MixOperator> buildMixOperators() {
  std::vector<MixOperator> ops;
  for (const int n : {15, 31}) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = n;
    ops.push_back({"cd5_" + std::to_string(n),
                   std::make_shared<const lisi::sparse::CsrMatrix>(
                       lisi::mesh::assembleGlobal(spec).localA),
                   n, 0});
  }
  for (const int n : {16, 24}) {
    ops.push_back({"lap9_" + std::to_string(n),
                   std::make_shared<const lisi::sparse::CsrMatrix>(
                       lisi::sparse::laplacian2d9(n, n)),
                   0, 0});
  }
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].id = i + 1;
  return ops;
}

MixDraw drawRequest(std::uint64_t seed, std::uint64_t index,
                    const std::vector<MixOperator>& ops) {
  lisi::Rng rng = streamRng(seed, kStreamServiceDraw, index);
  const double u = rng.uniform();
  MixDraw d;
  d.backend = u < 0.4 ? "pksp" : u < 0.6 ? "aztec" : u < 0.8 ? "slu" : "hymg";
  if (d.backend == "hymg") {
    std::vector<int> grids;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].gridN > 0) grids.push_back(static_cast<int>(i));
    }
    d.op = grids[rng.below(grids.size())];
  } else {
    d.op = static_cast<int>(rng.below(ops.size()));
  }
  return d;
}

lisi::service::SolveRequest makeRequest(const MixOperator& op,
                                        const std::string& backend,
                                        std::vector<double> rhs) {
  lisi::service::SolveRequest req;
  req.matrix = op.a;
  req.rhs = std::move(rhs);
  req.backend = backend;
  req.operatorId = op.id;
  if (backend == "pksp" && op.gridN == 0) {
    req.stringParams = {{"solver", "cg"}, {"preconditioner", "jacobi"}};
    req.doubleParams = {{"tol", kRtol}};
  } else if (backend == "pksp" || backend == "aztec") {
    req.stringParams = {{"solver", "gmres"}, {"preconditioner", "ilu"}};
    req.intParams = {{"restart", kRestart}, {"maxits", kMaxIts}};
    req.doubleParams = {{"tol", kRtol}};
  } else if (backend == "slu") {
    req.stringParams = {{"ordering", "rcm"}};
  } else {  // hymg rediscretizes -lap(u) + 3 u_x on the gridN^2 grid
    req.intParams = {{"mg_grid_n", op.gridN}, {"maxits", 100}};
    req.doubleParams = {{"mg_bx", 3.0}, {"tol", kRtol}};
  }
  return req;
}

lisi::service::ServiceConfig mixServiceConfig() {
  lisi::service::ServiceConfig cfg;
  cfg.sessions = kServiceSessions;
  cfg.ranksPerSession = kServiceRanksPerSession;
  cfg.queueDepth = kServiceQueueDepth;
  cfg.batchWindow = kServiceBatchWindow;
  return cfg;
}

namespace {

struct InFlight {
  std::future<lisi::service::SolveResult> future;
  Clock::time_point submitted;
  int op = 0;
  std::string backend;
  std::vector<double> b;
};

/// Check one resolved request; returns whether it is correct.
bool checkResult(const lisi::service::SolveResult& res, const MixOperator& op,
                 const InFlight& f, double* relres) {
  *relres = res.ok ? relResidual(*op.a, f.b, res.x) : INFINITY;
  return res.ok && res.converged && *relres <= residualTolerance(f.backend);
}

}  // namespace

std::uint64_t warmService(lisi::service::SolverService& svc,
                          const std::vector<MixOperator>& ops,
                          std::uint64_t seed, Report& report) {
  std::vector<InFlight> warm;
  std::uint64_t index = 0;
  for (std::size_t op = 0; op < ops.size(); ++op) {
    for (const char* backend : {"pksp", "aztec", "slu", "hymg"}) {
      if (std::string(backend) == "hymg" && ops[op].gridN == 0) continue;
      InFlight f;
      f.op = static_cast<int>(op);
      f.backend = backend;
      f.b = seededSlice(seed, kStreamServiceRhs, index++, 0, ops[op].a->rows);
      auto fut = svc.submit(makeRequest(ops[op], f.backend, f.b));
      LISI_CHECK(fut.has_value(), "service rejected a warm-up request");
      f.future = std::move(*fut);
      warm.push_back(std::move(f));
    }
  }
  for (InFlight& f : warm) {
    const lisi::service::SolveResult res = f.future.get();
    double relres = 0.0;
    report.countSolve(
        checkResult(res, ops[static_cast<std::size_t>(f.op)], f, &relres));
  }
  return index;
}

LoopStats runClosedLoop(lisi::service::SolverService& svc,
                        const std::vector<MixOperator>& ops,
                        std::uint64_t seed, std::uint64_t firstIndex,
                        double seconds, Report& report,
                        std::uint64_t* nextIndex, int minRequests,
                        int minUndisturbed) {
  // The oldest request is waited on directly (woken when its promise is
  // set); the others are swept every kPoll.  1 us timer slack keeps the
  // sweep period close to kPoll.
  constexpr auto kPoll = std::chrono::microseconds(25);
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  LoopStats ls;
  std::vector<InFlight> inflight;
  std::uint64_t index = firstIndex;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point hardDeadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kMaxPhaseSeconds));
  Clock::time_point windowStart = start;
  HostTicks windowTicks = hostTicks();
  bool phaseOpen = true;
  long long readyInWindow = 0;
  long long undisturbed = 0;  // requests ready in undisturbed windows
  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool inPhase =
        now < hardDeadline &&
        (now < deadline ||
         index - firstIndex < static_cast<std::uint64_t>(minRequests) ||
         undisturbed < minUndisturbed);
    if (phaseOpen &&
        (!inPhase || now - windowStart >= std::chrono::duration<double>(
                                               kStealWindowSeconds))) {
      const HostTicks t = hostTicks();
      ls.windowSteal.push_back(stealShare(windowTicks, t));
      ls.windowSec.push_back(
          std::chrono::duration<double>(now - windowStart).count());
      if (ls.windowSteal.back() <= kMaxStealShare) undisturbed += readyInWindow;
      readyInWindow = 0;
      windowStart = now;
      windowTicks = t;
      phaseOpen = inPhase;
    }
    while (inPhase && inflight.size() < static_cast<std::size_t>(kInFlight)) {
      const MixDraw d = drawRequest(seed, index, ops);
      const MixOperator& op = ops[static_cast<std::size_t>(d.op)];
      InFlight f;
      f.op = d.op;
      f.backend = d.backend;
      f.b = seededSlice(seed, kStreamServiceRhs, index, 0, op.a->rows);
      ++index;
      lisi::service::SolveRequest req = makeRequest(op, d.backend, f.b);
      f.submitted = Clock::now();
      auto fut = svc.submit(std::move(req));
      if (!fut) {  // admission reject: counts as a failed request
        report.countSolve(false);
        break;
      }
      f.future = std::move(*fut);
      inflight.push_back(std::move(f));
    }
    if (inflight.empty()) break;
    (void)inflight.front().future.wait_for(kPoll);
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& f = inflight[i];
      if (f.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point readyAt = Clock::now();
      const lisi::service::SolveResult res = f.future.get();
      const MixOperator& op = ops[static_cast<std::size_t>(f.op)];
      double relres = 0.0;
      const bool ok = checkResult(res, op, f, &relres);
      report.countSolve(ok);
      ls.latencySec.push_back(
          std::chrono::duration<double>(readyAt - f.submitted).count());
      ls.queueSec.push_back(res.queueSeconds);
      ls.serveSec.push_back(res.solveSeconds);
      ls.ok.push_back(ok);
      ls.readyWindow.push_back(
          phaseOpen ? static_cast<int>(ls.windowSteal.size()) : -1);
      if (phaseOpen) ++readyInWindow;
      if (ok) ++ls.completed;
      ls.phaseSec = std::chrono::duration<double>(readyAt - start).count();
      if (std::isfinite(relres)) {
        double& worst = ls.maxRelResidual[f.backend];
        worst = std::max(worst, relres);
      }
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  if (phaseOpen) {  // ended in the phase: an admission reject, none in flight
    ls.windowSteal.push_back(stealShare(windowTicks, hostTicks()));
    ls.windowSec.push_back(secondsSince(windowStart));
  }
  if (nextIndex != nullptr) *nextIndex = index;
  return ls;
}

void runServiceMix(const RunArgs& args, Report& report) {
  const HostTicks ticks0 = hostTicks();
  const Clock::time_point t0 = Clock::now();
  lisi::service::SolverService svc(mixServiceConfig());
  svc.start();
  const std::vector<MixOperator> ops = buildMixOperators();
  const std::uint64_t first = warmService(svc, ops, args.seed, report);
  const double setupSec = secondsSince(t0);
  report.metric("setup_s", setupSec, "s");
  report.info("setup_steal", stealShare(ticks0, hostTicks()));
  const lisi::service::ServiceConfig& cfg = svc.config();
  report.info("service_config",
              "{\"sessions\": " + std::to_string(cfg.sessions) +
                  ", \"ranks_per_session\": " +
                  std::to_string(cfg.ranksPerSession) +
                  ", \"queue_depth\": " + std::to_string(cfg.queueDepth) +
                  ", \"batch_window\": " + std::to_string(cfg.batchWindow) +
                  ", \"in_flight\": " + std::to_string(kInFlight) + "}");
  if (args.setupOnly) {
    svc.stop();
    return;
  }
  std::uint64_t next = first;
  (void)runClosedLoop(svc, ops, args.seed, first, kServiceWarmupSeconds,
                      report, &next, 0);
  const long long batches0 = svc.batchesServed();
  const LoopStats ls = runClosedLoop(svc, ops, args.seed, next, args.seconds,
                                     report, nullptr, kMinRequests,
                                     kMinRequests);
  svc.stop();

  // The requests that became ready inside the windows the metrics use.
  std::vector<long long> perWindow(ls.windowSteal.size(), 0);
  for (const int w : ls.readyWindow) {
    if (w >= 0) ++perWindow[static_cast<std::size_t>(w)];
  }
  const std::vector<bool> use =
      selectUndisturbed(ls.windowSteal, perWindow, kMinRequests);
  double usedSec = 0.0;
  int undisturbed = 0;
  for (std::size_t w = 0; w < use.size(); ++w) {
    if (use[w]) usedSec += ls.windowSec[w];
    if (ls.windowSteal[w] <= kMaxStealShare) ++undisturbed;
  }
  std::vector<double> latMs, serveMs, allLatMs;
  long long correct = 0;
  for (std::size_t i = 0; i < ls.latencySec.size(); ++i) {
    allLatMs.push_back(ls.latencySec[i] * 1e3);
    const int w = ls.readyWindow[i];
    if (w < 0 || !use[static_cast<std::size_t>(w)]) continue;
    latMs.push_back(ls.latencySec[i] * 1e3);
    serveMs.push_back(ls.serveSec[i] * 1e3);
    if (ls.ok[i]) ++correct;
  }
  report.metric("step_ms.p50", quantile(serveMs, 0.5), "ms");
  report.metric("step_ms.p90", quantile(serveMs, 0.9), "ms");
  report.metric("latency_ms.p50", quantile(latMs, 0.5), "ms");
  report.metric("latency_ms.p90", quantile(latMs, 0.9), "ms");
  report.info("latency_ms_p99", quantile(latMs, 0.99));
  report.metric("solves_per_s", static_cast<double>(correct) / usedSec, "1/s");
  report.info("requests", static_cast<double>(ls.latencySec.size()));
  report.info("requests_used", static_cast<double>(latMs.size()));
  report.info("windows", static_cast<double>(use.size()));
  report.info("windows_undisturbed", static_cast<double>(undisturbed));
  report.info("all_requests_latency_ms_p50", quantile(allLatMs, 0.5));
  report.info("phase_s", ls.phaseSec);
  report.info("batches", static_cast<double>(svc.batchesServed() - batches0));
  report.info("rejected", static_cast<double>(svc.rejected()));
  for (const auto& [backend, worst] : ls.maxRelResidual) {
    report.info("max_relres_" + backend, worst);
  }
}

void recordModes(Report& report) {
  report.infoString("tune_mode", lisi::tune::modeName(lisi::tune::modeFromEnv()));
  report.infoString("precision_mode",
                    lisi::prec::modeName(lisi::prec::modeFromEnv()));
}

}  // namespace perfbench
