// Tests for the session-scoped solver service: admission control,
// same-operator batching into blocked multi-RHS solves, the per-session
// component cache (hits, LRU eviction, failure drops), cross-backend
// session pools, per-session observability attribution, and a concurrent
// stress shape meant to run under TSan (scripts/verify.sh service stage).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "mesh/pde5pt.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generate.hpp"

namespace lisi::service {
namespace {

/// Shared global operator for requests: an SPD 2-D Laplacian (CG-friendly;
/// every session rank re-slices its own block rows).
struct Problem {
  std::shared_ptr<sparse::CsrMatrix> a;
  std::vector<double> b;
  int n = 0;
};

Problem makeProblem(int gridN) {
  Problem p;
  p.a = std::make_shared<sparse::CsrMatrix>(
      sparse::laplacian2d(gridN, gridN));
  p.n = p.a->rows;
  p.b.resize(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    p.b[static_cast<std::size_t>(i)] = 1.0 + 0.25 * (i % 5);
  }
  return p;
}

/// Max-norm of A x - b, computed serially against the global operator.
double residualInf(const sparse::CsrMatrix& a, const std::vector<double>& x,
                   const std::vector<double>& b) {
  double worst = 0.0;
  for (int i = 0; i < a.rows; ++i) {
    double yi = 0.0;
    for (int j = a.rowPtr[static_cast<std::size_t>(i)];
         j < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++j) {
      yi += a.values[static_cast<std::size_t>(j)] *
            x[static_cast<std::size_t>(a.colIdx[static_cast<std::size_t>(j)])];
    }
    worst = std::max(worst, std::abs(yi - b[static_cast<std::size_t>(i)]));
  }
  return worst;
}

SolveRequest cgRequest(const Problem& p, std::uint64_t operatorId) {
  SolveRequest req;
  req.matrix = p.a;
  req.rhs = p.b;
  req.backend = "pksp";
  req.operatorId = operatorId;
  req.stringParams = {{"solver", "cg"}, {"preconditioner", "jacobi"}};
  req.doubleParams = {{"tol", 1e-10}};
  return req;
}

TEST(ServiceConfig, EnvOverridesWithFallback) {
  ::setenv("LISI_SERVICE_SESSIONS", "3", 1);
  ::setenv("LISI_SERVICE_RANKS", "4", 1);
  ::setenv("LISI_SERVICE_QUEUE_DEPTH", "7", 1);
  ::setenv("LISI_SERVICE_BATCH_WINDOW", "not-a-number", 1);
  const ServiceConfig cfg = configFromEnv();
  EXPECT_EQ(cfg.sessions, 3);
  EXPECT_EQ(cfg.ranksPerSession, 4);
  EXPECT_EQ(cfg.queueDepth, 7);
  EXPECT_EQ(cfg.batchWindow, ServiceConfig{}.batchWindow);  // bad -> default
  ::unsetenv("LISI_SERVICE_SESSIONS");
  ::unsetenv("LISI_SERVICE_RANKS");
  ::unsetenv("LISI_SERVICE_QUEUE_DEPTH");
  ::unsetenv("LISI_SERVICE_BATCH_WINDOW");
  const ServiceConfig defaults = configFromEnv();
  EXPECT_EQ(defaults.sessions, ServiceConfig{}.sessions);
  EXPECT_EQ(defaults.ranksPerSession, ServiceConfig{}.ranksPerSession);
}

TEST(Service, ServesOneRequest) {
  const Problem p = makeProblem(12);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  SolverService svc(cfg);
  auto future = svc.submit(cgRequest(p, 1));
  ASSERT_TRUE(future.has_value());
  svc.start();
  SolveResult res = future->get();
  svc.stop();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.session, 0);
  ASSERT_EQ(res.x.size(), static_cast<std::size_t>(p.n));
  EXPECT_LT(residualInf(*p.a, res.x, p.b), 1e-6);
  EXPECT_EQ(svc.accepted(), 1);
  EXPECT_EQ(svc.rejected(), 0);
}

TEST(Service, BatchesSameOperatorRequests) {
  const Problem p = makeProblem(10);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  cfg.batchWindow = 4;
  SolverService svc(cfg);
  // Queue four batchable requests (same operator/backend/params, distinct
  // right-hand sides) BEFORE starting: the session leader must fuse all
  // four into one blocked multi-RHS solve.
  std::vector<std::future<SolveResult>> futures;
  for (int k = 0; k < 4; ++k) {
    SolveRequest req = cgRequest(p, 7);
    for (double& v : req.rhs) v *= static_cast<double>(k + 1);
    auto f = svc.submit(std::move(req));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  svc.start();
  for (int k = 0; k < 4; ++k) {
    SolveResult res = futures[static_cast<std::size_t>(k)].get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.batchLanes, 4);
    // Each lane got ITS solution, not a neighbor's: check against the
    // scaled right-hand side it submitted.
    std::vector<double> b = p.b;
    for (double& v : b) v *= static_cast<double>(k + 1);
    EXPECT_LT(residualInf(*p.a, res.x, b), 1e-5);
  }
  svc.stop();
  EXPECT_EQ(svc.batchesServed(), 1);
}

TEST(Service, AdmissionControlRejectsWhenFull) {
  const Problem p = makeProblem(8);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  cfg.queueDepth = 2;
  SolverService svc(cfg);  // never started: the queue cannot drain
  auto f1 = svc.submit(cgRequest(p, 1));
  auto f2 = svc.submit(cgRequest(p, 2));
  auto f3 = svc.submit(cgRequest(p, 3));
  EXPECT_TRUE(f1.has_value());
  EXPECT_TRUE(f2.has_value());
  EXPECT_FALSE(f3.has_value());  // rejected, not blocked
  EXPECT_EQ(svc.rejected(), 1);
  EXPECT_EQ(svc.queuedRequests(), 2u);
  svc.stop();  // pool never ran: queued requests resolve with an error
  SolveResult r1 = f1->get();
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());
  // After stop, submissions are rejected outright.
  EXPECT_FALSE(svc.submit(cgRequest(p, 4)).has_value());
}

TEST(Service, MalformedRequestsResolveWithDiagnostics) {
  const Problem p = makeProblem(8);
  SolverService svc;
  SolveRequest noMatrix;
  auto f1 = svc.submit(std::move(noMatrix));
  ASSERT_TRUE(f1.has_value());
  EXPECT_FALSE(f1->get().ok);

  SolveRequest badRhs = cgRequest(p, 1);
  badRhs.rhs.pop_back();
  auto f2 = svc.submit(std::move(badRhs));
  ASSERT_TRUE(f2.has_value());
  EXPECT_NE(f2->get().error.find("rhs length"), std::string::npos);

  SolveRequest badBackend = cgRequest(p, 1);
  badBackend.backend = "petsc";
  auto f3 = svc.submit(std::move(badBackend));
  ASSERT_TRUE(f3.has_value());
  EXPECT_NE(f3->get().error.find("unknown backend"), std::string::npos);
  svc.stop();
}

TEST(Service, CrossBackendSessionsShareOneWorld) {
  const Problem p = makeProblem(12);
  ServiceConfig cfg;
  cfg.sessions = 2;
  cfg.ranksPerSession = 2;  // 4 ranks total
  cfg.queueDepth = 32;
  SolverService svc(cfg);
  svc.start();
  std::vector<std::future<SolveResult>> futures;
  for (int k = 0; k < 4; ++k) {
    // Alternate backends; different operator ids keep them unbatchable, so
    // the two sessions pick up work independently.
    SolveRequest req;
    req.matrix = p.a;
    req.rhs = p.b;
    req.operatorId = static_cast<std::uint64_t>(k);
    if (k % 2 == 0) {
      req.backend = "pksp";
      req.stringParams = {{"solver", "gmres"}, {"preconditioner", "ilu"}};
      req.doubleParams = {{"tol", 1e-10}};
    } else {
      req.backend = "aztec";
      req.stringParams = {{"solver", "gmres"}, {"preconditioner", "ilu"}};
      req.doubleParams = {{"tol", 1e-10}};
    }
    auto f = svc.submit(std::move(req));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) {
    SolveResult res = f.get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GE(res.session, 0);
    EXPECT_LT(res.session, 2);
    EXPECT_LT(residualInf(*p.a, res.x, p.b), 1e-5);
  }
  svc.stop();
  EXPECT_EQ(svc.accepted(), 4);
}

TEST(Service, PerSessionObsAttribution) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "built without LISI_OBS=ON";
  }
  obs::reset();
  const Problem p = makeProblem(10);
  ServiceConfig cfg;
  cfg.sessions = 2;
  cfg.ranksPerSession = 2;
  cfg.queueDepth = 32;
  SolverService svc(cfg);
  // Two unbatchable requests per session's worth of load, queued up front
  // so both sessions have work waiting the moment they come up.
  std::vector<std::future<SolveResult>> futures;
  for (int k = 0; k < 4; ++k) {
    auto f = svc.submit(cgRequest(p, static_cast<std::uint64_t>(k)));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  svc.start();
  std::set<int> served;
  for (auto& f : futures) {
    const SolveResult res = f.get();
    ASSERT_TRUE(res.ok) << res.error;
    served.insert(res.session);
  }
  svc.stop();

  const obs::Report report = obs::collect();
  // Every service batch span carries a session label, and the labeled
  // sessions must be exactly the ones the results say did the serving
  // (which sessions grab which request is a scheduling race; the
  // attribution of whoever served is not).
  std::set<int> sessions;
  std::uint64_t serviceSpans = 0;
  for (const auto& s : report.sessionSpans) {
    if (s.name == "service.batch") {
      sessions.insert(s.session);
      serviceSpans += s.count;
    }
  }
  // Every session rank records the batch span: 4 batches x 2 ranks.
  EXPECT_EQ(serviceSpans, 8u);
  EXPECT_EQ(sessions, served);
  long long lanes = 0;
  for (const auto& c : report.sessionCounters) {
    if (c.name == "service.lanes") lanes += c.total;
  }
  EXPECT_EQ(lanes, 4);
}

// ---- component cache ------------------------------------------------------

/// Submit one request to a started service and wait for its result.
SolveResult solveNow(SolverService& svc, SolveRequest req) {
  auto f = svc.submit(std::move(req));
  EXPECT_TRUE(f.has_value());
  return f.has_value() ? f->get() : SolveResult{};
}

/// One operator class per backend, shaped like perfbench's service_mix:
/// GMRES+ILU(0) on the paper's convection-diffusion operator for pksp and
/// aztec, CG+Jacobi on a 9-point Laplacian for pksp, RCM LU for slu, and
/// the rediscretized hierarchy for hymg.
struct CacheCase {
  const char* label;
  const char* backend;
  bool laplacian;  ///< 9-point Laplacian instead of the paper's operator
};

SolveRequest cacheRequest(const CacheCase& cc, int gridN,
                          std::shared_ptr<const sparse::CsrMatrix> a,
                          std::uint64_t operatorId) {
  SolveRequest req;
  req.matrix = std::move(a);
  req.rhs.resize(static_cast<std::size_t>(req.matrix->rows));
  for (std::size_t i = 0; i < req.rhs.size(); ++i) {
    req.rhs[i] = 1.0 + 0.5 * std::sin(0.37 * static_cast<double>(i));
  }
  req.backend = cc.backend;
  req.operatorId = operatorId;
  const std::string backend = cc.backend;
  if (backend == "pksp" && cc.laplacian) {
    req.stringParams = {{"solver", "cg"}, {"preconditioner", "jacobi"}};
    req.doubleParams = {{"tol", 1e-10}};
  } else if (backend == "pksp" || backend == "aztec") {
    req.stringParams = {{"solver", "gmres"}, {"preconditioner", "ilu"}};
    req.intParams = {{"restart", 30}, {"maxits", 2000}};
    req.doubleParams = {{"tol", 1e-10}};
  } else if (backend == "slu") {
    req.stringParams = {{"ordering", "rcm"}};
  } else {
    req.intParams = {{"mg_grid_n", gridN}, {"maxits", 100}};
    req.doubleParams = {{"mg_bx", 3.0}, {"tol", 1e-10}};
  }
  return req;
}

std::shared_ptr<const sparse::CsrMatrix> cacheOperator(const CacheCase& cc,
                                                       int gridN) {
  if (cc.laplacian) {
    return std::make_shared<const sparse::CsrMatrix>(
        sparse::laplacian2d9(gridN, gridN));
  }
  mesh::Pde5ptSpec spec;
  spec.gridN = gridN;
  return std::make_shared<const sparse::CsrMatrix>(
      mesh::assembleGlobal(spec).localA);
}

void PrintTo(const CacheCase& cc, std::ostream* os) { *os << cc.label; }

class ServiceCacheHit : public ::testing::TestWithParam<CacheCase> {};

TEST_P(ServiceCacheHit, RepeatedOperatorMatchesFreshSetupBitwise) {
  // A, B, A on one 2-rank session: the second A is served by A's cached
  // component (no setupMatrix; the backend keeps its preconditioner,
  // factors or hierarchy) and must reproduce the first A exactly.
  const CacheCase cc = GetParam();
  const auto a = cacheOperator(cc, 15);
  const auto b = cacheOperator(cc, 7);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  SolverService svc(cfg);
  svc.start();
  const SolveResult first = solveNow(svc, cacheRequest(cc, 15, a, 1));
  const SolveResult other = solveNow(svc, cacheRequest(cc, 7, b, 2));
  const long long plans = sparse::haloPlanBuilds();
  const long long updates = sparse::valueUpdates();
  const SolveResult again = solveNow(svc, cacheRequest(cc, 15, a, 1));
  // The hit set up nothing: no distributed operator, not even a value-only
  // refresh of one.
  EXPECT_EQ(sparse::haloPlanBuilds(), plans);
  EXPECT_EQ(sparse::valueUpdates(), updates);
  svc.stop();
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(other.ok) << other.error;
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(svc.componentsBuilt(), 2);
  EXPECT_EQ(svc.componentHits(), 1);
  EXPECT_EQ(again.iterations, first.iterations);
  ASSERT_EQ(again.x.size(), first.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i) {
    ASSERT_EQ(again.x[i], first.x[i]) << cc.label << " entry " << i;
  }
  EXPECT_LT(residualInf(*a, again.x, cacheRequest(cc, 15, a, 1).rhs), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServiceCacheHit,
    ::testing::Values(CacheCase{"pksp_gmres", "pksp", false},
                      CacheCase{"pksp_cg", "pksp", true},
                      CacheCase{"aztec", "aztec", false},
                      CacheCase{"slu", "slu", false},
                      CacheCase{"hymg", "hymg", false}),
    [](const ::testing::TestParamInfo<CacheCase>& info) {
      return std::string(info.param.label);
    });

/// kSessionComponents + 1 distinct operators: scaled copies of p's matrix,
/// each under its own operator id.
struct OperatorSet {
  explicit OperatorSet(const Problem& problem) : p(problem) {
    for (int k = 0; k <= kSessionComponents; ++k) {
      auto a = std::make_shared<sparse::CsrMatrix>(*p.a);
      for (double& v : a->values) v *= 1.0 + 0.125 * k;
      ops.push_back(std::move(a));
    }
  }
  [[nodiscard]] SolveRequest request(int k) const {
    SolveRequest req = cgRequest(p, static_cast<std::uint64_t>(k + 1));
    req.matrix = ops[static_cast<std::size_t>(k)];
    return req;
  }
  const Problem& p;
  std::vector<std::shared_ptr<sparse::CsrMatrix>> ops;
};

TEST(ServiceCache, EvictsLeastRecentlyUsedBeyondTheBound) {
  const Problem p = makeProblem(6);
  const OperatorSet set(p);
  const auto request = [&](int k) { return set.request(k); };
  const auto& ops = set.ops;
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  SolverService svc(cfg);
  svc.start();
  const SolveResult first = solveNow(svc, request(0));
  ASSERT_TRUE(first.ok) << first.error;
  for (int k = 1; k < kSessionComponents; ++k) {
    ASSERT_TRUE(solveNow(svc, request(k)).ok);
  }
  // The cache is exactly full: operator 0 is still there.
  ASSERT_TRUE(solveNow(svc, request(0)).ok);
  EXPECT_EQ(svc.componentsBuilt(), kSessionComponents);
  EXPECT_EQ(svc.componentHits(), 1);

  // One more operator evicts the least recently used, operator 1, not the
  // just-used operator 0.
  ASSERT_TRUE(solveNow(svc, request(kSessionComponents)).ok);
  ASSERT_TRUE(solveNow(svc, request(0)).ok);
  EXPECT_EQ(svc.componentHits(), 2);
  const SolveResult rebuilt = solveNow(svc, request(1));
  ASSERT_TRUE(rebuilt.ok) << rebuilt.error;
  EXPECT_EQ(svc.componentsBuilt(), kSessionComponents + 2);
  EXPECT_EQ(svc.componentHits(), 2);
  EXPECT_LT(residualInf(*ops[1], rebuilt.x, p.b), 1e-6);
  svc.stop();
}

TEST(ServiceCache, SeventeenOperatorsThenTheFirstRebuildsIt) {
  const Problem p = makeProblem(6);
  const OperatorSet set(p);
  const auto request = [&](int k) { return set.request(k); };
  const auto& ops = set.ops;
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  SolverService svc(cfg);
  svc.start();
  const SolveResult first = solveNow(svc, request(0));
  ASSERT_TRUE(first.ok) << first.error;
  for (int k = 1; k <= kSessionComponents; ++k) {
    ASSERT_TRUE(solveNow(svc, request(k)).ok);
  }
  const SolveResult again = solveNow(svc, request(0));
  svc.stop();
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(svc.componentsBuilt(), kSessionComponents + 2);
  EXPECT_EQ(svc.componentHits(), 0);
  EXPECT_LT(residualInf(*ops[0], again.x, p.b), 1e-6);
  EXPECT_EQ(again.x, first.x);  // a fresh setup of the same operator
}

TEST(ServiceCache, NewMatrixUnderAnOldOperatorIdIsAMiss) {
  // The key is the matrix object, not only the declared id: a client that
  // frees its matrix and submits a new one under the same id gets a fresh
  // setup, never the old operator's component.
  const Problem p = makeProblem(8);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  SolverService svc(cfg);
  svc.start();
  ASSERT_TRUE(solveNow(svc, cgRequest(p, 5)).ok);
  auto scaled = std::make_shared<sparse::CsrMatrix>(*p.a);
  for (double& v : scaled->values) v *= 2.0;
  SolveRequest req = cgRequest(p, 5);
  req.matrix = scaled;
  const SolveResult res = solveNow(svc, std::move(req));
  svc.stop();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(svc.componentsBuilt(), 2);
  EXPECT_EQ(svc.componentHits(), 0);
  EXPECT_LT(residualInf(*scaled, res.x, p.b), 1e-6);
}

TEST(ServiceCache, FailedBatchDropsItsComponent) {
  // A singular operator (an all-zero row) fails slu's factorization.  The
  // failing component is not kept: resubmitting the class builds a new one.
  auto singular = std::make_shared<sparse::CsrMatrix>(*makeProblem(6).a);
  const int row = 7;
  for (int j = singular->rowPtr[row]; j < singular->rowPtr[row + 1]; ++j) {
    singular->values[static_cast<std::size_t>(j)] = 0.0;
  }
  SolveRequest req;
  req.matrix = singular;
  req.rhs.assign(static_cast<std::size_t>(singular->rows), 1.0);
  req.backend = "slu";
  req.operatorId = 9;
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  SolverService svc(cfg);
  svc.start();
  const SolveResult r1 = solveNow(svc, req);
  const SolveResult r2 = solveNow(svc, req);
  svc.stop();
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("slu"), std::string::npos) << r2.error;
  EXPECT_EQ(svc.componentsBuilt(), 2);
  EXPECT_EQ(svc.componentHits(), 0);
}

TEST(Service, ConcurrentSubmittersStress) {
  // TSan target: two client threads hammer a two-session pool while it is
  // serving; exercises the queue, the slot handoff, the shared tune cache,
  // and the process-global schedule fallback concurrently.
  const Problem p = makeProblem(8);
  ServiceConfig cfg;
  cfg.sessions = 2;
  cfg.ranksPerSession = 2;
  cfg.queueDepth = 8;  // small on purpose: the reject path must be hit-safe
  cfg.batchWindow = 3;
  SolverService svc(cfg);
  svc.start();
  std::atomic<int> solved{0};
  std::atomic<int> rejectedLocal{0};
  auto client = [&](int seed) {
    for (int k = 0; k < 12; ++k) {
      SolveRequest req = cgRequest(p, static_cast<std::uint64_t>(k % 3));
      for (double& v : req.rhs) v *= 1.0 + 0.1 * static_cast<double>(seed);
      auto f = svc.submit(std::move(req));
      if (!f.has_value()) {
        rejectedLocal.fetch_add(1);
        continue;
      }
      const SolveResult res = f->get();
      ASSERT_TRUE(res.ok) << res.error;
      solved.fetch_add(1);
    }
  };
  std::thread t1(client, 1);
  std::thread t2(client, 2);
  t1.join();
  t2.join();
  svc.stop();
  EXPECT_EQ(solved.load() + rejectedLocal.load(), 24);
  EXPECT_EQ(svc.accepted(), solved.load());
  EXPECT_EQ(svc.rejected(), rejectedLocal.load());
  EXPECT_GT(solved.load(), 0);
}

}  // namespace
}  // namespace lisi::service
