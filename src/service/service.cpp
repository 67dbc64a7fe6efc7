#include "service/service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>

#include "cca/cca.hpp"
#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace lisi::service {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int envInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v <= 0 || v > 1 << 20) return fallback;
  return static_cast<int>(v);
}

/// Component class for a backend name; empty when unknown.  Besides the
/// four built-in short names, any "plugin.<name>" class the dlopen registry
/// (src/plugin) has registered is a valid backend — per-session backend
/// selection reaches plugins exactly like built-ins.
std::string backendClass(const std::string& backend) {
  if (backend == "pksp") return kPkspComponentClass;
  if (backend == "aztec") return kAztecComponentClass;
  if (backend == "slu") return kSluComponentClass;
  if (backend == "hymg") return kHymgComponentClass;
  if (backend.rfind("plugin.", 0) == 0 &&
      cca::Framework::isClassRegistered(backend)) {
    return backend;
  }
  return {};
}

/// Two requests belong to one operator class — they may share one blocked
/// multi-RHS solve, and one set-up component — when they name the same
/// operator (declared id AND matrix pointer), backend and parameter lists.
/// Equal matrices imply equal rhs lengths (submit checks them).
bool sameSelection(const SolveRequest& a, const SolveRequest& b) {
  return a.operatorId == b.operatorId && a.backend == b.backend &&
         a.stringParams == b.stringParams && a.intParams == b.intParams &&
         a.doubleParams == b.doubleParams;
}

bool batchable(const SolveRequest& a, const SolveRequest& b) {
  return a.matrix == b.matrix && sameSelection(a, b);
}

/// This rank's block of the near-even block-row partition of n rows over
/// p ranks — the same partition mesh::assembleLocal uses.
struct RowRange {
  int start = 0;
  int count = 0;
};

RowRange rowRange(int n, int rank, int nranks) {
  const int base = n / nranks;
  const int rem = n % nranks;
  RowRange rr;
  rr.count = base + (rank < rem ? 1 : 0);
  rr.start = rank * base + std::min(rank, rem);
  return rr;
}

/// Copy rows [rr.start, rr.start + rr.count) of a global CSR operator into
/// a local block (column indices stay global, as setupMatrix expects).
sparse::CsrMatrix sliceRows(const sparse::CsrMatrix& g, RowRange rr) {
  sparse::CsrMatrix local;
  local.rows = rr.count;
  local.cols = g.cols;
  local.rowPtr.resize(static_cast<std::size_t>(rr.count) + 1);
  const int nzBegin = g.rowPtr[static_cast<std::size_t>(rr.start)];
  const int nzEnd = g.rowPtr[static_cast<std::size_t>(rr.start + rr.count)];
  for (int i = 0; i <= rr.count; ++i) {
    local.rowPtr[static_cast<std::size_t>(i)] =
        g.rowPtr[static_cast<std::size_t>(rr.start + i)] - nzBegin;
  }
  local.colIdx.assign(g.colIdx.begin() + nzBegin, g.colIdx.begin() + nzEnd);
  local.values.assign(g.values.begin() + nzBegin, g.values.begin() + nzEnd);
  return local;
}

}  // namespace

ServiceConfig configFromEnv() {
  ServiceConfig cfg;
  cfg.sessions = envInt("LISI_SERVICE_SESSIONS", cfg.sessions);
  cfg.ranksPerSession = envInt("LISI_SERVICE_RANKS", cfg.ranksPerSession);
  cfg.queueDepth = envInt("LISI_SERVICE_QUEUE_DEPTH", cfg.queueDepth);
  cfg.batchWindow = envInt("LISI_SERVICE_BATCH_WINDOW", cfg.batchWindow);
  return cfg;
}

/// One queued request: payload, its future's feeding end, submit time.
struct SolverService::Pending {
  SolveRequest req;
  std::promise<SolveResult> promise;
  Clock::time_point enqueued;
};

/// The leader's component-cache decision for one batch.  Every session
/// rank applies it to its own mirror of the cache, so the ranks agree on
/// hit or miss (and take the same collective path) even while a client
/// frees a matrix, which the ranks would otherwise observe at different
/// times.
struct CachePlan {
  int hit = -1;            ///< cache entry serving the batch; -1 on a miss
  std::uint32_t drop = 0;  ///< miss: bit i set destroys entry i first
};
static_assert(kSessionComponents >= 1 && kSessionComponents <= 32,
              "CachePlan::drop holds one bit per cache entry");

/// One unit of session work: the lanes of a blocked multi-RHS solve.
struct SolverService::Batch {
  std::vector<std::unique_ptr<Pending>> lanes;
  Clock::time_point dequeued;
  CachePlan plan;  ///< written by the leader before the batch is published
};

/// Per-rank, per-session solver state: up to kSessionComponents set-up
/// components, one per operator class, least recently used evicted first.
/// Every rank of a session holds the same entries in the same order,
/// because all of them apply the same plans and drops in batch order.
struct SolverService::SessionWorker {
  struct Entry {
    SolveRequest selection;  ///< backend, operatorId, params (no matrix, rhs)
    std::weak_ptr<const sparse::CsrMatrix> matrix;
    std::string instance;  ///< framework instance name
    std::shared_ptr<SparseSolver> solver;
    std::uint64_t lastUse = 0;
  };

  cca::Framework fw;
  long handle = 0;
  std::vector<Entry> entries;
  std::uint64_t uses = 0;       ///< LRU clock
  std::uint64_t instances = 0;  ///< instance-name serial

  /// Leader only: a hit if a live entry holds this very matrix and the same
  /// selection; otherwise drop the expired entries and, if the cache is
  /// still full, the least recently used one.
  [[nodiscard]] CachePlan plan(const SolveRequest& req) const {
    CachePlan p;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].matrix.lock() == req.matrix &&
          sameSelection(entries[i].selection, req)) {
        p.hit = static_cast<int>(i);
        return p;
      }
    }
    std::size_t live = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].matrix.expired()) {
        p.drop |= 1u << i;
      } else {
        ++live;
      }
    }
    if (live >= static_cast<std::size_t>(kSessionComponents)) {
      std::size_t lru = entries.size();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if ((p.drop >> i & 1u) == 0 &&
            (lru == entries.size() ||
             entries[i].lastUse < entries[lru].lastUse)) {
          lru = i;
        }
      }
      p.drop |= 1u << lru;
    }
    return p;
  }

  /// Apply `p`: the hit entry, or a freshly instantiated and initialized
  /// component appended after the drops.  Returns the entry's index, or -1
  /// if the component could not be initialized (nothing is cached then).
  int acquire(const CachePlan& p, const SolveRequest& req) {
    if (p.hit >= 0) {
      entries[static_cast<std::size_t>(p.hit)].lastUse = ++uses;
      return p.hit;
    }
    for (std::size_t i = entries.size(); i-- > 0;) {
      if ((p.drop >> i & 1u) != 0) drop(static_cast<int>(i));
    }
    Entry e;
    e.selection.backend = req.backend;
    e.selection.operatorId = req.operatorId;
    e.selection.stringParams = req.stringParams;
    e.selection.intParams = req.intParams;
    e.selection.doubleParams = req.doubleParams;
    e.matrix = req.matrix;
    e.instance = "svc_" + std::to_string(instances++);
    fw.instantiate(e.instance, backendClass(req.backend));
    e.solver =
        fw.getProvidesPortAs<SparseSolver>(e.instance, kSparseSolverPortName);
    if (e.solver->initialize(handle) != 0) {
      fw.destroy(e.instance);
      return -1;
    }
    e.lastUse = ++uses;
    entries.push_back(std::move(e));
    return static_cast<int>(entries.size()) - 1;
  }

  /// Destroy entry `i` and its component.
  void drop(int i) {
    const auto it = entries.begin() + i;
    fw.destroy(it->instance);
    entries.erase(it);
  }
};

SolverService::SolverService(ServiceConfig cfg) : cfg_(cfg) {
  LISI_CHECK(cfg_.sessions >= 1 && cfg_.ranksPerSession >= 1 &&
                 cfg_.queueDepth >= 1 && cfg_.batchWindow >= 1,
             "SolverService: every ServiceConfig field must be positive");
  registerSolverComponents();
  slots_.assign(static_cast<std::size_t>(cfg_.sessions), nullptr);
}

SolverService::~SolverService() { stop(); }

std::optional<std::future<SolveResult>> SolverService::submit(
    SolveRequest req) {
  // Structural validation happens here, on the client thread, so sessions
  // never see a request they cannot partition.
  std::string bad;
  if (req.matrix == nullptr) {
    bad = "request has no matrix";
  } else if (req.matrix->rows != req.matrix->cols) {
    bad = "matrix is not square";
  } else if (req.rhs.size() != static_cast<std::size_t>(req.matrix->rows)) {
    bad = "rhs length does not match matrix rows";
  } else if (backendClass(req.backend).empty()) {
    bad = "unknown backend \"" + req.backend + "\"";
  } else if (req.matrix->rows < cfg_.ranksPerSession) {
    bad = "matrix has fewer rows than ranks per session";
  }

  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  pending->enqueued = Clock::now();
  std::future<SolveResult> future = pending->promise.get_future();

  if (!bad.empty()) {
    // Malformed requests are "accepted" and resolve immediately: the
    // diagnostic arrives through the same channel as a backend failure.
    SolveResult res;
    res.error = std::move(bad);
    pending->promise.set_value(std::move(res));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return future;
  }

  {
    support::MutexLock lock(mutex_);
    if (!accepting_ ||
        queue_.size() >= static_cast<std::size_t>(cfg_.queueDepth)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;  // admission control: reject, never block
    }
    queue_.push_back(std::move(pending));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return future;
}

void SolverService::start() {
  support::MutexLock lock(mutex_);
  if (running_.load() || stopping_) return;
  running_.store(true);
  const int nranks = cfg_.sessions * cfg_.ranksPerSession;
  pool_ = std::thread([this, nranks] {
    comm::World::run(nranks, [this](comm::Comm& world) { rankBody(world); });
  });
}

void SolverService::stop() {
  {
    support::MutexLock lock(mutex_);
    if (stopping_ && !pool_.joinable()) return;
    accepting_ = false;
    stopping_ = true;
  }
  cv_.notify_all();
  if (pool_.joinable()) pool_.join();
  running_.store(false);
  // Leaders drain the queue before shutting down, so anything left here
  // means the pool never started.
  failAllQueued("service stopped before serving this request");
}

bool SolverService::running() const { return running_.load(); }

std::size_t SolverService::queuedRequests() const {
  support::MutexLock lock(mutex_);
  return queue_.size();
}

void SolverService::failAllQueued(const std::string& reason) {
  std::deque<std::unique_ptr<Pending>> orphans;
  {
    support::MutexLock lock(mutex_);
    orphans.swap(queue_);
  }
  for (auto& p : orphans) {
    SolveResult res;
    res.error = reason;
    p->promise.set_value(std::move(res));
  }
}

std::shared_ptr<SolverService::Batch> SolverService::popBatch() {
  support::CondLock lock(mutex_);
  // Manual wait loop rather than the predicate overload: the analysis
  // cannot see the capability inside a predicate lambda, and the loop body
  // reads guarded state directly under the held lock.
  while (!stopping_ && queue_.empty()) cv_.wait(lock.native());
  if (queue_.empty()) return nullptr;  // stopping and fully drained

  auto batch = std::make_shared<Batch>();
  batch->dequeued = Clock::now();
  batch->lanes.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Greedy same-operator batching: pull every still-queued request that
  // can share this solve, up to the batch window, preserving the relative
  // order of everything left behind.
  const SolveRequest& key = batch->lanes.front()->req;
  for (auto it = queue_.begin();
       it != queue_.end() &&
       batch->lanes.size() < static_cast<std::size_t>(cfg_.batchWindow);) {
    if (batchable(key, (*it)->req)) {
      batch->lanes.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

/// Everything the session does for one batch once all its ranks hold the
/// Batch pointer.  Collective over `sc`; the leader (session rank 0)
/// resolves the futures.
void SolverService::serveBatch(const comm::Comm& sc, int session,
                               SessionWorker& worker, Batch& batch) {
  const int nv = static_cast<int>(batch.lanes.size());
  obs::Span span("service.batch", static_cast<std::uint64_t>(nv));
  const SolveRequest& req0 = batch.lanes.front()->req;
  const int n = req0.matrix->rows;
  const RowRange rr = rowRange(n, sc.rank(), sc.size());
  const auto m = static_cast<std::size_t>(rr.count);

  const int slot = worker.acquire(batch.plan, req0);
  const bool hit = batch.plan.hit >= 0;
  if (sc.rank() == 0 && slot >= 0) {
    (hit ? componentHits_ : componentsBuilt_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  int rc = slot < 0 ? 1 : 0;
  SparseSolver* solver =
      slot < 0 ? nullptr
               : worker.entries[static_cast<std::size_t>(slot)].solver.get();

  // A hit's component already holds this operator class's distribution,
  // parameters and matrix: its solve classifies as kSameOperator and keeps
  // every preconditioner, factorization and hierarchy as it is.
  if (rc == 0 && !hit) {
    const sparse::CsrMatrix local = sliceRows(*req0.matrix, rr);
    rc = solver->setStartRow(rr.start);
    if (rc == 0) rc = solver->setLocalRows(rr.count);
    if (rc == 0) rc = solver->setGlobalCols(n);
    // The batched path is the point of the service; a request may still
    // override multi_rhs (e.g. "sequential" for A/B runs) via its params.
    if (rc == 0) rc = solver->set("multi_rhs", "blocked");
    for (const auto& [k, v] : req0.stringParams) {
      if (rc == 0) rc = solver->set(k, v);
    }
    for (const auto& [k, v] : req0.intParams) {
      if (rc == 0) rc = solver->setInt(k, v);
    }
    for (const auto& [k, v] : req0.doubleParams) {
      if (rc == 0) rc = solver->setDouble(k, v);
    }
    if (rc == 0) {
      rc = solver->setupMatrix(
          RArray<const double>(local.values.data(), local.nnz()),
          RArray<const int>(local.rowPtr.data(), local.rows + 1),
          RArray<const int>(local.colIdx.data(), local.nnz()),
          SparseStruct::kCsr, local.rows + 1, local.nnz());
    }
  }
  if (rc == 0) {
    std::vector<double> b(m * static_cast<std::size_t>(nv));
    for (int k = 0; k < nv; ++k) {
      const auto& rhs = batch.lanes[static_cast<std::size_t>(k)]->req.rhs;
      std::copy(rhs.begin() + rr.start, rhs.begin() + rr.start + rr.count,
                b.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(k) * m));
    }
    rc = solver->setupRHS(
        RArray<const double>(b.data(), static_cast<int>(b.size())), rr.count,
        nv);
  }
  // Agree on the outcome so every rank takes the same collective path even
  // if only one rank's setup failed.
  rc = sc.allreduceValue(rc, comm::ReduceOp::kMax);

  std::vector<double> x(m * static_cast<std::size_t>(nv), 0.0);
  std::array<double, kStatusLength> st{};
  if (rc == 0) {
    const int solveRc =
        solver->solve(RArray<double>(x.data(), static_cast<int>(x.size())),
                      RArray<double>(st.data(), kStatusLength), rr.count,
                      kStatusLength);
    rc = sc.allreduceValue(solveRc, comm::ReduceOp::kMax);
  }
  // A failed batch leaves no component behind: whatever state the failure
  // left in it, the class's next request sets up a fresh one.  rc is
  // agreed, so every rank drops the same entry.
  if (rc != 0 && slot >= 0) worker.drop(slot);

  // One gather of every rank's whole m x nv block: the leader receives the
  // rank-ordered concatenation, in which rank r's block starts at
  // start_r * nv and holds its lanes vector-major.
  std::vector<double> gathered;
  if (rc == 0) gathered = sc.gatherv(std::span<const double>(x), 0);

  if (sc.rank() != 0) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  obs::count("service.batches");
  obs::count("service.lanes", nv);
  const Clock::time_point done = Clock::now();
  for (int k = 0; k < nv; ++k) {
    Pending& lane = *batch.lanes[static_cast<std::size_t>(k)];
    SolveResult res;
    res.session = session;
    res.batchLanes = nv;
    res.queueSeconds = secondsSince(lane.enqueued, batch.dequeued);
    res.solveSeconds = secondsSince(batch.dequeued, done);
    if (rc == 0) {
      res.ok = true;
      res.x.resize(static_cast<std::size_t>(n));
      for (int r = 0; r < sc.size(); ++r) {
        const RowRange rb = rowRange(n, r, sc.size());
        const auto from = static_cast<std::ptrdiff_t>(
            (static_cast<std::size_t>(rb.start) * static_cast<std::size_t>(nv)) +
            (static_cast<std::size_t>(k) * static_cast<std::size_t>(rb.count)));
        std::copy(gathered.begin() + from, gathered.begin() + from + rb.count,
                  res.x.begin() + rb.start);
      }
      res.iterations = static_cast<int>(st[kStatusIterations]);
      res.residualNorm = st[kStatusResidualNorm];
      res.converged = st[kStatusConverged] != 0.0;
    } else {
      res.error = "backend \"" + req0.backend + "\" failed (rc=" +
                  std::to_string(rc) + ")";
    }
    lane.promise.set_value(std::move(res));
  }
}

void SolverService::rankBody(comm::Comm& world) {
  const int session = world.rank() / cfg_.ranksPerSession;
  comm::Comm sc = world.split(session, world.rank() % cfg_.ranksPerSession);
  sc.setLabel("service.session" + std::to_string(session));
  obs::setThreadSession(session);

  SessionWorker worker;
  worker.handle = comm::registerHandle(sc);
  for (;;) {
    std::shared_ptr<Batch> batch;
    int token = 0;
    if (sc.rank() == 0) {
      batch = popBatch();
      if (batch) batch->plan = worker.plan(batch->lanes.front()->req);
      {
        support::MutexLock lock(slotMutex_);
        slots_[static_cast<std::size_t>(session)] = batch;
      }
      // lisi-lint: allow(rank-branch) both arms issue the same bcastValue; signatures match and LISI_COMM_CHECK verifies it at runtime
      token = sc.bcastValue(batch ? 1 : 0, 0);
    } else {
      // lisi-lint: allow(rank-branch) leader/peer arms of one lockstep bcast (see above)
      token = sc.bcastValue(0, 0);
      support::MutexLock lock(slotMutex_);
      batch = slots_[static_cast<std::size_t>(session)];
    }
    if (token == 0 || batch == nullptr) break;  // shutdown token
    try {
      serveBatch(sc, session, worker, *batch);
    } catch (const std::exception& e) {
      // A thrown batch is fatal for its lanes but not for the session.
      // (Exceptions out of a *collective* would desynchronize the session;
      // the backends return codes instead of throwing on those paths.)
      if (sc.rank() == 0) {
        for (auto& lane : batch->lanes) {
          SolveResult res;
          res.session = session;
          res.error = std::string("batch threw: ") + e.what();
          try {
            lane->promise.set_value(std::move(res));
          } catch (const std::future_error&) {
            // already resolved before the throw
          }
        }
      }
    }
  }
  comm::releaseHandle(worker.handle);
  obs::setThreadSession(-1);
}

}  // namespace lisi::service
