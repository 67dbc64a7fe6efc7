// Block-row distributed sparse matrix with halo exchange.
//
// Every parallel solver package in this repository stores its operator this
// way: rank r owns a contiguous range of global rows (§5.4 block row
// partitioning) as a local CSR block whose column indices are *global*.
// For y = A*x with x partitioned conformally, the off-process x entries a
// rank's columns touch (its "ghosts") are fetched from their owners through
// a communication plan built once at construction.
//
// The plan owns all per-spmv scratch (pack buffer, extended x) and a
// one-time split of the local rows into *interior* rows (touch no ghost
// column) and *boundary* rows, so spmv() performs no heap allocation and
// overlaps the ghost exchange with the interior computation.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "sparse/formats.hpp"
#include "sparse/partition.hpp"

namespace lisi::sparse {

/// Local SpMV kernel family for the owned block — the autotuner's
/// per-structure decision (DESIGN.md "Structure-fingerprint-keyed
/// autotuner").  kCsr is byte-for-byte the original reference path.
enum class LocalKernel {
  kCsr,          ///< reference CSR row loop (the default)
  kCsrPrefetch,  ///< CSR with one-row-ahead software prefetch of x gathers
  kSellC,        ///< SELL-C-σ storage over the interior/boundary row lists
  kBlock,        ///< uniform dense blocks on the VBR substrate
};

/// Human-readable kernel name ("csr", "csr_prefetch", ...).
const char* localKernelName(LocalKernel k);

/// A complete tuned SpMV configuration: which local kernel runs the owned
/// block and whether the ghost exchange overlaps the interior computation
/// (true) or completes eagerly before one natural-order sweep (false).
struct SpmvConfig {
  LocalKernel kernel = LocalKernel::kCsr;
  bool overlapHalo = true;
  int blockSize = 0;  ///< kBlock only: uniform block edge (>= 2)
  friend bool operator==(const SpmvConfig&, const SpmvConfig&) = default;
};

/// Distributed CSR matrix (square operators distribute x like rows; spmv
/// requires globalRows == globalCols).
class DistCsrMatrix {
 public:
  /// Wrap this rank's block of rows [startRow, startRow + local.rows).
  /// `local.cols` must equal `globalCols` (column indices are global).
  /// Collective: all ranks of `comm` must construct together.
  ///
  /// For square operators the input vector of spmv() is partitioned like
  /// the rows.  Rectangular operators (multigrid transfer operators, for
  /// example) must pass `colStarts`: the ownership boundaries of the input
  /// vector (size comm.size()+1, covering [0, globalCols]).
  DistCsrMatrix(comm::Comm comm, int globalRows, int globalCols, int startRow,
                CsrMatrix local, std::vector<int> colStarts = {});

  /// Scatter a replicated global matrix by near-even block rows (rank 0's
  /// copy is authoritative).  Collective.
  static DistCsrMatrix scatterFromRoot(comm::Comm comm, const CsrMatrix& global,
                                       int root = 0);

  [[nodiscard]] int globalRows() const { return globalRows_; }
  [[nodiscard]] int globalCols() const { return globalCols_; }
  [[nodiscard]] int startRow() const;
  [[nodiscard]] int localRows() const { return local_.rows; }
  [[nodiscard]] long long globalNnz() const;
  /// This rank's rows with *global* column indices.
  [[nodiscard]] const CsrMatrix& localBlock() const { return local_; }
  [[nodiscard]] const comm::Comm& comm() const { return comm_; }
  /// Row-ownership boundaries across ranks (size comm.size()+1).
  [[nodiscard]] const std::vector<int>& rowStarts() const { return rowStarts_; }
  /// Input-vector ownership boundaries (== rowStarts() for square operators).
  [[nodiscard]] const std::vector<int>& colStarts() const { return colStarts_; }
  /// Number of input-vector entries owned by this rank.
  [[nodiscard]] int localCols() const;

  /// Refresh the numerical values in place, keeping the halo-exchange plan,
  /// ghost column map, and all scratch.  `local` must be canonical (sorted
  /// columns, merged duplicates) and carry exactly the sparsity structure of
  /// localBlock(); anything else throws.  Purely local: no communication and
  /// no allocation — this is the same-pattern fast path of the operator
  /// change contract (DESIGN.md "Operator change contract").  Any tuned
  /// kernel aux storage (SELL/block) is refreshed positionally in the same
  /// pass.
  void updateValues(const CsrMatrix& local);

  /// y = A*x; x is this rank's piece under colStarts(), y under rowStarts().
  /// Collective.
  void spmv(std::span<const double> xLocal, std::span<double> yLocal) const;

  /// y = A*x through the float32 value mirror: the same halo plan, tag
  /// rotation, and interior/boundary overlap as spmv(), but the matrix
  /// values, the packed halo payload, and the accumulation all run in
  /// float32 — half the value bandwidth.  The mirror (values + float
  /// scratch) is built lazily on first use and invalidated by updateValues;
  /// the index structure is shared with the double path.  Intended for the
  /// error-correction inner kernels of the mixed-precision backends, always
  /// wrapped in float64 refinement.  Collective: all ranks must call the
  /// same variant (spmv vs spmvFloat) together.
  void spmvFloat(std::span<const float> xLocal, std::span<float> yLocal) const;

  /// Y = A*X for `nVec` right-hand vectors stored contiguously
  /// vector-major: vector v occupies x[v*localCols(), (v+1)*localCols())
  /// and y[v*localRows(), (v+1)*localRows()).  ONE halo-exchange round
  /// moves every vector's ghost entries (nVec values per ghost index,
  /// index-major on the wire), so the per-spmv message count — the latency
  /// term that dominates small systems — is paid once instead of nVec
  /// times.  Each vector's rows accumulate in the reference kCsr order, so
  /// lane v is bitwise identical to spmv() on that vector.  Collective;
  /// all ranks must pass the same nVec.  nVec == 1 delegates to spmv().
  void spmvMulti(std::span<const double> xLocal, std::span<double> yLocal,
                 int nVec) const;

  /// Gather the whole matrix onto `root` (empty matrix elsewhere).
  /// Used by the direct-solver package.  Collective.
  [[nodiscard]] CsrMatrix gatherToRoot(int root = 0) const;

  /// Gather a conformally partitioned vector onto `root`.  Collective.
  [[nodiscard]] std::vector<double> gatherVectorToRoot(
      std::span<const double> xLocal, int root = 0) const;

  /// Scatter a global vector on `root` into conformal local pieces.
  /// Collective.
  [[nodiscard]] std::vector<double> scatterVectorFromRoot(
      std::span<const double> xGlobal, int root = 0) const;

  /// The diagonal part of this rank's rows (global diagonal restricted to
  /// the owned range).
  [[nodiscard]] std::vector<double> localDiagonal() const;

  /// Number of ghost entries this rank pulls per spmv (plan statistics).
  [[nodiscard]] int numGhosts() const { return static_cast<int>(ghostCols_.size()); }

  /// Rows whose columns are all locally owned (computed while ghosts are
  /// in flight).
  [[nodiscard]] int numInteriorRows() const {
    return static_cast<int>(interiorRows_.size());
  }
  /// Rows that touch at least one ghost column (computed after the recv).
  [[nodiscard]] int numBoundaryRows() const {
    return static_cast<int>(boundaryRows_.size());
  }

  // ---- Tuned local kernel (the autotuner's plug) -----------------------

  /// Select the local kernel + halo strategy for subsequent spmv() calls.
  /// Purely local, no communication; auxiliary storage (SELL-C-σ lanes,
  /// VBR blocks) is built on first selection and refreshed positionally by
  /// updateValues afterwards.  A kBlock request whose structure fails
  /// blockKernelEligible falls back to kCsr; the returned config is the one
  /// actually applied.  The default (kCsr, overlapped) is exactly the
  /// original spmv path and builds nothing.
  SpmvConfig setSpmvConfig(const SpmvConfig& config);

  /// The configuration spmv() currently runs.
  [[nodiscard]] const SpmvConfig& spmvConfig() const { return spmvConfig_; }

  /// True if the owned block stays within the fill budget when carved into
  /// uniform blockSize-sized dense blocks (kBlock eligibility).  Purely
  /// local — tuners agree across ranks with a min-reduction.
  [[nodiscard]] bool blockKernelEligible(int blockSize) const;

 private:
  void buildHaloPlan();
  void buildSellAux();
  void buildBlockAux(int blockSize);
  void refreshKernelAux();

  comm::Comm comm_;
  int globalRows_ = 0;
  int globalCols_ = 0;
  CsrMatrix local_;             ///< global column indices
  std::vector<int> rowStarts_;  ///< row ownership boundaries, size P+1
  std::vector<int> colStarts_;  ///< input-vector ownership boundaries

  // Halo plan (built once):
  std::vector<int> ghostCols_;              ///< sorted global cols we need
  CsrMatrix mapped_;                        ///< local_ with remapped columns:
                                            ///< owned -> [0,nlocal), ghost ->
                                            ///< nlocal + slot
  std::vector<int> recvFromRanks_;          ///< ranks we receive ghosts from
  std::vector<int> recvCounts_;             ///< ghosts per recv rank
  std::vector<int> recvOffsets_;            ///< slot offset per recv rank
  std::vector<int> sendToRanks_;            ///< ranks we send x entries to
  std::vector<int> sendIdx_;                ///< local x indices, flat
  std::vector<int> sendOffsets_;            ///< sendIdx_ range per send rank,
                                            ///< size sendToRanks_.size()+1
  std::vector<int> interiorRows_;           ///< rows with no ghost column
  std::vector<int> boundaryRows_;           ///< rows with >= 1 ghost column
  std::vector<int> spmvTags_;               ///< reserved tags, one per round

  // Per-spmv scratch, sized once by buildHaloPlan() so spmv() never
  // allocates.  Mutable: spmv() is logically const; each rank owns its
  // DistCsrMatrix instance, so there is no cross-thread aliasing.
  mutable std::vector<double> sendBuf_;     ///< packed outgoing x entries
  mutable std::vector<double> xGhost_;      ///< received ghost values, by slot
  mutable std::size_t spmvRound_ = 0;       ///< rotates through spmvTags_

  // spmvMulti scratch: nVec-wide halo payload and ghost store, grown on
  // demand (growth-only, so steady-state batched solves never reallocate).
  mutable std::vector<double> sendBufMulti_;
  mutable std::vector<double> xGhostMulti_;  ///< ghost slot-major × nVec

  // Float32 value mirror for spmvFloat(), built lazily from mapped_ on
  // first use (the index structure is shared); updateValues marks it stale.
  mutable std::vector<float> mappedValsF_;  ///< float copy of mapped_.values
  mutable std::vector<float> sendBufF_;     ///< float halo pack buffer
  mutable std::vector<float> xGhostF_;      ///< float ghost receive buffer
  mutable bool floatMirrorFresh_ = false;

  // Tuned-kernel state (setSpmvConfig).  Aux storage mirrors mapped_'s
  // values through the *Src_ index maps, so updateValues refreshes it
  // without rebuilding (-1 slots are padding/fill and stay 0.0).
  SpmvConfig spmvConfig_;
  SellCMatrix sellInterior_;                ///< kSellC lanes, interior rows
  SellCMatrix sellBoundary_;                ///< kSellC lanes, boundary rows
  std::vector<int> sellInteriorSrc_;
  std::vector<int> sellBoundarySrc_;
  bool sellBuilt_ = false;
  VbrMatrix vbr_;                           ///< kBlock substrate over mapped_
  std::vector<int> vbrSrc_;
  int vbrBlockSize_ = 0;
  mutable std::vector<double> xExt_;        ///< owned+ghost x, aux kernels only
};

// ---- Reuse observability (process-wide, across MiniMPI rank-threads) ----

/// Number of halo-plan constructions since process start.  Tests assert a
/// zero delta across a same-pattern re-setup to prove the plan was reused.
[[nodiscard]] long long haloPlanBuilds();

/// Number of in-place value refreshes (updateValues calls) since process
/// start.
[[nodiscard]] long long valueUpdates();

// ---- Distributed vector helpers (conformal block-row pieces) -----------

/// Global dot product of two partitioned vectors.  Collective.
[[nodiscard]] double distDot(const comm::Comm& comm, std::span<const double> x,
                             std::span<const double> y);

/// Two global dot products fused into one two-element allreduce (halves the
/// latency-bound collective count on the CG hot path).  The allreduce
/// schedule is elementwise, so each result is bitwise identical to the
/// corresponding standalone distDot.  Collective.
[[nodiscard]] std::array<double, 2> distDot2(const comm::Comm& comm,
                                             std::span<const double> x1,
                                             std::span<const double> y1,
                                             std::span<const double> x2,
                                             std::span<const double> y2);

/// Global Euclidean norm of a partitioned vector.  Collective.
[[nodiscard]] double distNorm2(const comm::Comm& comm,
                               std::span<const double> x);

/// Global infinity norm of a partitioned vector.  Collective.
[[nodiscard]] double distNormInf(const comm::Comm& comm,
                                 std::span<const double> x);

// ---- Split-phase (latency-hiding) dot products -------------------------
//
// distDotsBegin computes the local partial sums and starts ONE fused
// nonblocking allreduce over all lanes; the caller overlaps useful work
// (SpMV, preconditioner application) and collects the results with
// distDotsEnd.  Each lane is bitwise identical to the corresponding
// blocking distDot/distDot2 lane: the lane's local summation order and the
// elementwise reduction schedule are the same, only the waiting moves (the
// local sums sweep up to 8 lanes per pass, each with its own accumulator).
// Like every collective, all ranks must begin the same dot batches in the
// same order.

/// One dot-product lane: accumulates sum_i x[i]*y[i] across all ranks.
struct DotArgs {
  std::span<const double> x;
  std::span<const double> y;
};

/// In-flight fused dot batch.  Move-only; results land in an internally
/// owned buffer whose address is stable across moves, so a PendingDots can
/// be returned from helpers and stored freely while the reduction runs.
/// A caller that keeps one PendingDots across batches (the distDots and
/// three-argument distDotsBegin forms) reuses that buffer: once it has
/// held as many lanes, a batch allocates nothing for it.
class PendingDots {
 public:
  PendingDots() = default;
  PendingDots(PendingDots&&) noexcept = default;
  PendingDots& operator=(PendingDots&&) noexcept = default;

  /// Poke collective progress without blocking; true once results are in.
  /// Call this between overlapped work items to drive middle schedule
  /// rounds (MiniMPI has no progress thread).
  [[nodiscard]] bool test() { return handle_.test(); }

  /// True if this object holds a started (possibly finished) batch.
  [[nodiscard]] bool valid() const { return handle_.valid(); }

 private:
  friend void distDotsBegin(const comm::Comm&, std::span<const DotArgs>,
                            PendingDots&);
  friend std::span<const double> distDots(const comm::Comm&,
                                          std::span<const DotArgs>,
                                          PendingDots&);
  friend std::span<const double> distDotsEnd(PendingDots&);

  /// Local partial sums of `dots` into the (reused) buffer.
  void sumLocal(std::span<const DotArgs> dots);

  struct Buf {
    std::vector<double> local;
    std::vector<double> global;
  };
  std::unique_ptr<Buf> buf_;  ///< heap: the collective writes into global
  comm::CollHandle handle_;
};

/// Start a fused batch of global dot products (one lane per entry).
[[nodiscard]] PendingDots distDotsBegin(const comm::Comm& comm,
                                        std::span<const DotArgs> dots);

/// Start a fused batch in the caller-owned `pending`, reusing its buffer.
/// Its previous batch, if any, must be finished.
void distDotsBegin(const comm::Comm& comm, std::span<const DotArgs> dots,
                   PendingDots& pending);

/// Blocking fused batch in the caller-owned `buffer`: one allreduce, no
/// handle, lanes bitwise those of distDotsBegin + distDotsEnd.  Allocates
/// nothing once `buffer` has held as many lanes (in a build whose
/// collectives do not allocate).  The span stays valid until `buffer`'s
/// next batch.
std::span<const double> distDots(const comm::Comm& comm,
                                 std::span<const DotArgs> dots,
                                 PendingDots& buffer);

/// Finish a batch: wait for the reduction and return the per-lane results.
/// The span points into `pending` and stays valid until it is destroyed or
/// reused.
std::span<const double> distDotsEnd(PendingDots& pending);

/// Single-lane convenience: begin sum_i x[i]*y[i].
[[nodiscard]] PendingDots distDotBegin(const comm::Comm& comm,
                                       std::span<const double> x,
                                       std::span<const double> y);

/// Finish a single-lane begin.
[[nodiscard]] double distDotEnd(PendingDots& pending);

/// Fused two-lane variant, split-phase twin of distDot2.
[[nodiscard]] PendingDots distDot2Begin(const comm::Comm& comm,
                                        std::span<const double> x1,
                                        std::span<const double> y1,
                                        std::span<const double> x2,
                                        std::span<const double> y2);

/// Finish a two-lane begin.
[[nodiscard]] std::array<double, 2> distDot2End(PendingDots& pending);

// ---- Arnoldi step -------------------------------------------------------

/// One lane of a delayed-normalization Arnoldi step (DESIGN.md §6).  At step
/// j, basis[0..j-1] hold the orthonormal v_0..v_{j-1} and basis[j] holds the
/// unnormalized v~_j.  A stepping lane passes w = op(v~_j) and one more
/// basis slot, j+1, for v~_{j+1}.  A closing lane (empty `w`, basis of j+1
/// vectors) only measures ||v~_j||, which completes column j-1.  No vector
/// may overlap another.
struct ArnoldiLane {
  std::size_t n = 0;                ///< local length of every vector
  std::span<const double> w;        ///< op(v~_j); empty to only close
  std::span<double* const> basis;   ///< v_0..v_j (then slot j+1 if stepping)
  std::span<double> h;              ///< out (stepping): column j, h_0..h_j
  double nu = 0.0;                  ///< out: ||v~_j||
};

/// Scratch of arnoldiProject, sized once per solve so a step never
/// allocates.
class ArnoldiWorkspace {
 public:
  /// Room for `lanes` lanes whose basis spans hold up to `basisMax` vectors.
  ArnoldiWorkspace(std::size_t lanes, std::size_t basisMax);

 private:
  friend void arnoldiProject(const comm::Comm&, std::span<ArnoldiLane>,
                             ArnoldiWorkspace&);
  std::vector<DotArgs> dots_;
  std::vector<double> local_;
  std::vector<double> global_;
};

/// The reduction of an Arnoldi step: ONE fused allreduce carries, for every
/// lane, ||v~_j||^2 and, if it steps, a_i = <w, basis[i]> for i <= j.  Then
/// nu = sqrt(||v~_j||^2), h_i = a_i/nu for i < j and h_j = a_j/nu^2: the
/// column of op(v_j) with v_j = v~_j/nu.  Each value is bitwise its own
/// distDot, so a lane's results do not depend on which lanes share the
/// batch.  Collective: every rank passes the same lane shapes.
void arnoldiProject(const comm::Comm& comm, std::span<ArnoldiLane> lanes,
                    ArnoldiWorkspace& ws);

/// The local expansion of a stepping lane after arnoldiProject, one fused
/// sweep (normalizeAndSubtract): v_j = v~_j*(1/nu) in place and
/// v~_{j+1} = w*(1/nu) - sum_{i<=j} h_i v_i into basis[j+1].
void arnoldiExpand(const ArnoldiLane& lane);

/// The small dense half of GMRES(m) for one lane: the Hessenberg columns,
/// reduced to upper triangular R by Givens rotations as they close, and
/// the rotated right-hand side g.  Purely local.
class GmresLeastSquares {
 public:
  /// Room for up to `m` columns.
  explicit GmresLeastSquares(std::size_t m);

  /// Start a cycle: g = beta*e_1.
  void reset(double beta);

  /// Column c, rows 0..c: what arnoldiProject writes as ArnoldiLane::h.
  [[nodiscard]] std::span<double> column(std::size_t c) { return r_[c]; }

  /// Close column c with its subdiagonal `sub`: apply the earlier
  /// rotations, annihilate `sub` with a new one and return |g_{c+1}|, the
  /// residual norm of the cycle's least-squares solution.  Returns nullopt
  /// if the rotation is undefined (column and `sub` both zero).
  [[nodiscard]] std::optional<double> close(std::size_t c, double sub);

  /// x += sum_i y_i basis[i] for y = R^{-1} g over the first `cols`
  /// columns, in one subtractCombination sweep with the coefficients -y_i
  /// (bitwise the axpy loop x += y_i v_i, i = 0, 1, ...).  Returns false,
  /// leaving x untouched, if R has a zero diagonal entry.
  bool update(std::size_t cols, std::span<double* const> basis,
              std::span<double> x);

 private:
  std::vector<std::vector<double>> r_;  ///< r_[c]: rows 0..c of column c
  std::vector<double> cs_;
  std::vector<double> sn_;
  std::vector<double> g_;
  std::vector<double> y_;
};

}  // namespace lisi::sparse
