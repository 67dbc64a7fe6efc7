// Shared pieces of the repository benchmark binary: workload constants,
// seeded input generation, port call helpers, residual checks, statistics,
// and the JSON report.  README.md in this directory defines every workload
// and metric; the constants below are the ones it names.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cca/cca.hpp"
#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "mesh/pde5pt.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/formats.hpp"
#include "support/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workload constants ---------------------------------------------------

inline constexpr double kRtol = 1e-6;  ///< requested rtol, every iterative solve
inline constexpr int kMaxIts = 10000;
inline constexpr int kRestart = 30;

/// krylov_p4: the paper's Figure 5 problem (5-point -lap(u) + 3 u_x).
inline constexpr int kKrylovGrid = 200;  ///< 199 200 nnz
inline constexpr int kKrylovRanks = 4;

/// timestep_slu: A_k = M/dt_k + K with K the 5-point operator, M = I.
inline constexpr int kSluGrid = 100;  ///< 49 600 nnz
inline constexpr int kSluRanks = 4;
/// dt_k is drawn uniformly from [kDtMin, kDtMax] per step: 1/dt_k spans
/// 0.5x to 5x K's diagonal, so every step carries a distinct operator.
inline constexpr double kDtMin = 5e-6;
inline constexpr double kDtMax = 5e-5;

/// service_mix pool shape and load.
inline constexpr int kServiceSessions = 2;
inline constexpr int kServiceRanksPerSession = 2;
inline constexpr int kServiceQueueDepth = 16;
inline constexpr int kServiceBatchWindow = 4;
inline constexpr int kInFlight = 8;  ///< closed-loop requests outstanding

/// A timed phase lasts --seconds and holds at least kMinPortSteps
/// undisturbed port steps or kMinRequests service requests ready in
/// undisturbed windows, so p90 (p99 for the service) has ten samples beyond
/// it.  It never runs past
/// kMaxPhaseSeconds, so a run on a very slow host still ends in time;
/// `steps`/`requests` in the provenance show how many it held.
inline constexpr int kMinPortSteps = 100;
inline constexpr int kMinRequests = 1000;
inline constexpr double kMaxPhaseSeconds = 50.0;

/// Untimed (but checked) warm-up before a timed phase: port steps, and
/// seconds of the service's closed loop.
inline constexpr int kWarmupSteps = 3;
inline constexpr double kServiceWarmupSeconds = 2.0;

/// A sample (a port step, or a kStealWindowSeconds window of the service's
/// closed loop) is undisturbed when the hypervisor stole at most
/// kMaxStealShare of the VM's CPU time during it: none, since a single
/// stolen 10 ms tick already slows a krylov_p4 step by ~6 % (README "Host
/// noise").  The metrics use the undisturbed samples, and at least
/// kMinUsedSteps port steps or kMinRequests requests (the least disturbed)
/// when a phase held fewer.
inline constexpr double kMaxStealShare = 0.0;
inline constexpr double kStealWindowSeconds = 0.25;
inline constexpr int kMinUsedSteps = 30;

/// Seeded input streams; each (stream, index) pair draws independently.
enum Stream : std::uint64_t {
  kStreamKrylovRhs = 1,
  kStreamSluRhs = 2,
  kStreamSluDt = 3,
  kStreamServiceDraw = 4,
  kStreamServiceRhs = 5,
};

// ---- correctness -----------------------------------------------------------

/// Largest accepted ||b - A x|| / ||b|| per backend, derived from kRtol.
///  * pksp tests the *left-preconditioned* residual, so the true residual
///    may exceed rtol by the preconditioner's conditioning: 10 x rtol.
///  * aztec (AZ_conv = AZ_rhs) and hymg test the true residual itself:
///    2 x rtol leaves room for the recomputation's rounding.
///  * slu is direct: 1e-10, far above its ~1e-15 and far below any
///    iterative result.
inline double residualTolerance(const std::string& backend) {
  if (backend == "pksp") return 10.0 * kRtol;
  if (backend == "aztec" || backend == "hymg") return 2.0 * kRtol;
  return 1e-10;  // slu
}

/// ||b - A x|| / ||b|| through the benchmark's own distributed operator.
/// `shift` adds shift * x to A x (the M/dt_k term of timestep_slu, so the
/// checker never touches the matrix values).  Collective.
double distRelResidual(const lisi::sparse::DistCsrMatrix& a,
                       std::span<const double> b, std::span<const double> x,
                       double shift = 0.0);

/// ||b - A x|| / ||b|| for a global CSR operator (service_mix requests).
double relResidual(const lisi::sparse::CsrMatrix& a, std::span<const double> b,
                   std::span<const double> x);

// ---- seeded inputs -------------------------------------------------------

/// Independent generator for (seed, stream, index), from support/rng.hpp.
inline lisi::Rng streamRng(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t index) {
  lisi::Rng mixer(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                  (index * 0xd1b54a32d192ed03ULL));
  return lisi::Rng(mixer.next());
}

/// Rows [first, first + count) of a seeded global vector with entries
/// uniform in [-1, 1): every rank draws the same global vector, so the
/// input does not depend on the partition.
std::vector<double> seededSlice(std::uint64_t seed, std::uint64_t stream,
                                std::uint64_t index, int first, int count);

// ---- port helpers --------------------------------------------------------

/// Instantiate `cls` as `name` in `fw` and return its SparseSolver port.
std::shared_ptr<lisi::SparseSolver> instantiatePort(cca::Framework& fw,
                                                    const std::string& name,
                                                    const char* cls);

/// initialize + the four distribution calls; returns the first nonzero rc.
int describeRows(lisi::SparseSolver& port, long handle, int startRow,
                 int localRows, int localNnz, int globalN);

/// setupMatrix[media_args] with a CSR block (global column indices).
int setupCsr(lisi::SparseSolver& port, const lisi::sparse::CsrMatrix& a);

/// setupMatrix[few_args]: COO triplets with global row indices.
int setupCoo(lisi::SparseSolver& port, std::span<const double> values,
             std::span<const int> rows, std::span<const int> cols);

int setupRhs(lisi::SparseSolver& port, std::span<const double> b);

/// solve() into x, filling `status` (kStatusLength entries).
int solvePort(lisi::SparseSolver& port, std::span<double> x,
              std::span<double> status);

/// GMRES(30) + ILU(0) to kRtol: the krylov_p4 configuration.
int setKrylovParams(lisi::SparseSolver& port);

// ---- statistics and report -----------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Cumulative CPU time of every CPU of the machine, in clock ticks, and
/// the part of it the hypervisor stole, from /proc/stat.  Zero where
/// /proc/stat cannot be read.
struct HostTicks {
  long long steal = 0;
  long long total = 0;
};
HostTicks hostTicks();

/// Share of CPU time stolen between two readings (0 if no tick elapsed).
double stealShare(const HostTicks& before, const HostTicks& after);

/// Which samples the metrics use: every sample with a steal share of at
/// most kMaxStealShare; if those weigh less than `minWeight` (weight = the
/// solves a sample holds), then further samples in order of increasing
/// steal until they do.
std::vector<bool> selectUndisturbed(const std::vector<double>& steal,
                                    const std::vector<long long>& weight,
                                    long long minWeight);

/// Peak resident set of this process in MiB (getrusage).
double peakRssMb();

/// Host calibration for the provenance: the median time of a native
/// single-threaded SLU refactorization of a fixed 64x64-grid operator, in
/// ms.  The same work on every run, so a change in it between runs is a
/// change of the host (its memory system is shared with other machines),
/// not of the code under test.
double hostCalibrationMs();

/// One run's output: metrics with units, counts, and provenance entries
/// (raw JSON values).  print() writes one JSON object on one line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& rawJson);
  void info(const std::string& key, double value);
  void infoString(const std::string& key, const std::string& value);
  void countSolve(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void print(const std::string& workload, const std::string& mode) const;

  long long attempted = 0;
  long long failed = 0;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setupOnly = false;
};

// Workload entry points (workloads.cpp) and the traced layer suite
// (layers.cpp).  Each fills `report`; setup-only runs report setup_s only.
void runKrylov(const RunArgs& args, Report& report);
void runTimestep(const RunArgs& args, Report& report);
void runServiceMix(const RunArgs& args, Report& report);
void runLayerSuite(const RunArgs& args, Report& report);

}  // namespace perfbench
