// The three workloads as reusable pieces: the per-rank state of a port
// workload (krylov_p4, timestep_slu) and the request stream of service_mix.
// workloads.cpp times them end to end; layers.cpp reuses them for the
// traced per-layer run.
#pragma once

#include <array>
#include <map>

#include "common.hpp"
#include "service/service.hpp"

namespace perfbench {

enum class PortKind { kKrylov, kTimestep };

/// Rank 0's view of one port step.
struct StepRecord {
  double spanSec = 0.0;         ///< first port call -> solve returns
  // Traced steps only: the port calls inside the span.
  double setupMatrixSec = 0.0;  ///< setupMatrix call (0 when not called)
  double setupRhsSec = 0.0;     ///< setupRHS call
  double solveCallSec = 0.0;    ///< solve call
  std::array<double, lisi::kStatusLength> status{};
  int rc = 0;
  double relResidual = 0.0;  ///< recomputed by the benchmark
  bool ok = false;           ///< rc == 0, converged, residual in tolerance
};

/// One rank's state of a port workload.  Every method is collective over
/// the communicator given at construction.
class PortRank {
 public:
  /// `params` are extra port parameters set after the workload's own.
  PortRank(PortKind kind, const lisi::comm::Comm& comm, std::uint64_t seed,
           std::vector<std::pair<std::string, std::string>> params = {});
  ~PortRank();
  PortRank(const PortRank&) = delete;
  PortRank& operator=(const PortRank&) = delete;

  /// The set-up the workload pays once: assembly, component instantiation
  /// and wiring, parameters, the first setupMatrix, and the cold first
  /// solve (step 0).  Returns that solve's record (ok not yet checked).
  StepRecord setup();

  /// Build the benchmark's own operator for residual checks and check the
  /// cold solve of setup() with it.  Not part of any timed span.
  StepRecord checkSetupSolve();

  /// One timed step with seeded inputs `index` (>= 1), checked afterwards.
  /// `traced` also times each port call inside the span.
  StepRecord step(std::uint64_t index, bool traced = false);

  [[nodiscard]] const lisi::mesh::Pde5ptLocalSystem& system() const {
    return sys_;
  }
  [[nodiscard]] const char* backend() const;
  /// Right-hand side of step `index` (this rank's rows).
  [[nodiscard]] std::vector<double> rhs(std::uint64_t index) const;
  /// timestep_slu's M/dt_k coefficient (1/dt_k) for step `index`.
  [[nodiscard]] double shift(std::uint64_t index) const;
  /// This rank's rows of A_k in CSR form (timestep_slu; K for krylov_p4).
  [[nodiscard]] lisi::sparse::CsrMatrix localOperator(std::uint64_t index) const;

  /// Seconds spent in mesh::assembleLocal during setup() (this rank).
  double assembleSec = 0.0;

 private:
  StepRecord runStep(std::uint64_t index, bool traced);
  void check(StepRecord& rec, std::uint64_t index);

  PortKind kind_;
  lisi::comm::Comm comm_;
  std::uint64_t seed_;
  std::vector<std::pair<std::string, std::string>> params_;
  lisi::mesh::Pde5ptLocalSystem sys_;
  cca::Framework fw_;
  std::shared_ptr<lisi::SparseSolver> port_;
  long handle_ = 0;
  // timestep_slu: COO triplets with global rows; the diagonal positions
  // receive the M/dt_k term.
  std::vector<int> cooRows_, cooCols_, diagPos_;
  std::vector<double> values_;
  std::vector<double> b_, x_;
  std::optional<lisi::sparse::DistCsrMatrix> checker_;
  StepRecord setupRec_;
};

/// The four service_mix operators (global CSR, shared by every request).
struct MixOperator {
  std::string name;
  std::shared_ptr<const lisi::sparse::CsrMatrix> a;
  int gridN = 0;          ///< 2^k - 1 side for the hymg-capable grids, else 0
  std::uint64_t id = 0;   ///< SolveRequest::operatorId
};
std::vector<MixOperator> buildMixOperators();

/// Request `index` of the seeded service_mix stream.
struct MixDraw {
  int op = 0;
  std::string backend;
};
MixDraw drawRequest(std::uint64_t seed, std::uint64_t index,
                    const std::vector<MixOperator>& ops);

/// The request for (op, backend) with right-hand side `rhs`.
lisi::service::SolveRequest makeRequest(const MixOperator& op,
                                        const std::string& backend,
                                        std::vector<double> rhs);

/// The service_mix pool, configured in code.
lisi::service::ServiceConfig mixServiceConfig();

/// What a closed-loop phase observed.
struct LoopStats {
  std::vector<double> latencySec;  ///< submit -> future ready, per request
  std::vector<double> queueSec;    ///< SolveResult::queueSeconds
  std::vector<double> serveSec;    ///< SolveResult::solveSeconds
  std::vector<bool> ok;            ///< the result was correct
  /// The steal window each request became ready in; -1 once the phase had
  /// ended (the in-flight requests drained after the last submit).
  std::vector<int> readyWindow;
  std::vector<double> windowSteal;  ///< steal share of each window
  std::vector<double> windowSec;    ///< length of each window
  long long completed = 0;         ///< correct results
  double phaseSec = 0.0;           ///< first submit -> last result ready
  /// Largest recomputed ||b - A x|| / ||b|| per backend.
  std::map<std::string, double> maxRelResidual;
};

/// Closed loop with kInFlight requests outstanding for `seconds`, at least
/// `minRequests` submitted and at least `minUndisturbed` ready in
/// undisturbed windows (never past kMaxPhaseSeconds), drawing requests
/// firstIndex, firstIndex+1, ...  The phase is cut into kStealWindowSeconds
/// windows with their steal share.  Every result is checked and counted in
/// `report`.  Returns the next unused index in `nextIndex`.
LoopStats runClosedLoop(lisi::service::SolverService& svc,
                        const std::vector<MixOperator>& ops,
                        std::uint64_t seed, std::uint64_t firstIndex,
                        double seconds, Report& report,
                        std::uint64_t* nextIndex = nullptr,
                        int minRequests = kMinRequests,
                        int minUndisturbed = 0);

/// The service_mix cold start: one request for every (operator, backend)
/// pair the stream can draw, submitted together and waited for.  Checked
/// and counted.  Returns the first request index left for the stream.
std::uint64_t warmService(lisi::service::SolverService& svc,
                          const std::vector<MixOperator>& ops,
                          std::uint64_t seed, Report& report);

/// Provenance shared by every run: tune/precision modes and counters.
void recordModes(Report& report);

}  // namespace perfbench
