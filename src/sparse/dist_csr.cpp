#include "sparse/dist_csr.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "comm/tags.hpp"
#include "obs/obs.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "support/prec.hpp"

namespace lisi::sparse {

namespace {
// All fixed protocol tags live in the central registry (comm/tags.hpp);
// aliased locally to keep the call sites short.
constexpr int kScatterTag = comm::tags::kMatrixScatter;
constexpr int kPlanTag = comm::tags::kHaloPlan;
constexpr int kSpmvTagRounds = comm::tags::kSpmvTagRounds;

// SELL-C-σ build parameters: chunks of 8 lanes keep the padded storage
// small on CPU (SELL-C-σ targets SIMD widths, not GPU warps) and σ = 64
// localizes the length sort so y scatter stays cache-friendly.
constexpr int kSellChunk = 8;
constexpr int kSellSigma = 64;

// kBlock eligibility: padded block storage may exceed the true nonzeros by
// at most this factor.  Beyond it the dense-block sweep pays more bandwidth
// on fill zeros than it saves on index loads.
constexpr double kBlockMaxFill = 1.25;

// Reuse observability: MiniMPI ranks are threads of one process, so the
// counters are process-wide atomics (tests look at deltas, which is exactly
// what "no rank rebuilt its plan" means under threads-as-ranks).
// Memory order (audited): relaxed everywhere — monotonic counters with no
// publication duty; delta readers run between worlds, after thread joins.
std::atomic<long long> gHaloPlanBuilds{0};
std::atomic<long long> gValueUpdates{0};
}

long long haloPlanBuilds() {
  return gHaloPlanBuilds.load(std::memory_order_relaxed);
}

long long valueUpdates() {
  return gValueUpdates.load(std::memory_order_relaxed);
}

const char* localKernelName(LocalKernel k) {
  switch (k) {
    case LocalKernel::kCsr: return "csr";
    case LocalKernel::kCsrPrefetch: return "csr_prefetch";
    case LocalKernel::kSellC: return "sell_c";
    case LocalKernel::kBlock: return "block";
  }
  return "?";
}

void DistCsrMatrix::updateValues(const CsrMatrix& local) {
  LISI_CHECK(local.rows == local_.rows && local.cols == local_.cols,
             "updateValues: dimensions differ from the built operator");
  LISI_CHECK(local.rowPtr == local_.rowPtr && local.colIdx == local_.colIdx,
             "updateValues: sparsity structure differs from the built "
             "operator (callers must pass the canonical same-pattern block)");
  std::copy(local.values.begin(), local.values.end(), local_.values.begin());
  // mapped_ shares local_'s value layout (buildHaloPlan copies local_ and
  // remaps only the column indices), so the refresh is positional.
  if (mapped_.values.size() == local.values.size()) {
    std::copy(local.values.begin(), local.values.end(),
              mapped_.values.begin());
  }
  refreshKernelAux();
  floatMirrorFresh_ = false;  // spmvFloat re-mirrors on next use
  gValueUpdates.fetch_add(1, std::memory_order_relaxed);
  obs::count("sparse.value_updates");
}

void DistCsrMatrix::refreshKernelAux() {
  const auto replay = [this](std::vector<double>& vals,
                             const std::vector<int>& src) {
    for (std::size_t s = 0; s < src.size(); ++s) {
      if (src[s] >= 0) {
        vals[s] = mapped_.values[static_cast<std::size_t>(src[s])];
      }
    }
  };
  if (sellBuilt_) {
    replay(sellInterior_.values, sellInteriorSrc_);
    replay(sellBoundary_.values, sellBoundarySrc_);
  }
  if (vbrBlockSize_ > 0) replay(vbr_.val, vbrSrc_);
}

void DistCsrMatrix::buildSellAux() {
  sellInterior_ = csrRowsToSellC(mapped_, interiorRows_, kSellChunk,
                                 kSellSigma, &sellInteriorSrc_);
  sellBoundary_ = csrRowsToSellC(mapped_, boundaryRows_, kSellChunk,
                                 kSellSigma, &sellBoundarySrc_);
  sellBuilt_ = true;
}

bool DistCsrMatrix::blockKernelEligible(int blockSize) const {
  if (colStarts_.empty() || blockSize < 2 || mapped_.rows < blockSize) {
    return false;
  }
  // Padded size if every touched (rowBlock, colBlock) pair went dense.
  const auto blockOf = [blockSize](int i) { return i / blockSize; };
  long long padded = 0;
  std::vector<int> lastCol;  // last counted col block per row block lane
  for (int i = 0; i < mapped_.rows; i += blockSize) {
    const int rdim = std::min(blockSize, mapped_.rows - i);
    std::vector<int> touched;
    for (int r = i; r < std::min(i + blockSize, mapped_.rows); ++r) {
      for (int k = mapped_.rowPtr[static_cast<std::size_t>(r)];
           k < mapped_.rowPtr[static_cast<std::size_t>(r) + 1]; ++k) {
        touched.push_back(blockOf(mapped_.colIdx[static_cast<std::size_t>(k)]));
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const int bc : touched) {
      const int c0 = bc * blockSize;
      const int cdim = std::min(blockSize, mapped_.cols - c0);
      padded += static_cast<long long>(rdim) * cdim;
    }
  }
  const long long nnz = mapped_.nnz();
  return nnz > 0 &&
         static_cast<double>(padded) <= kBlockMaxFill * static_cast<double>(nnz);
}

void DistCsrMatrix::buildBlockAux(int blockSize) {
  vbr_ = csrToVbrUniform(mapped_, blockSize);
  vbrSrc_.assign(vbr_.val.size(), -1);
  // Map every CSR entry of mapped_ to its dense slot so value refreshes
  // replay positionally.  bindx is sorted ascending within each block row
  // (csrToVbr emits block columns in ascending order).
  for (int i = 0; i < mapped_.rows; ++i) {
    const int br = i / blockSize;
    const int r0 = vbr_.rpntr[static_cast<std::size_t>(br)];
    const int rdim = vbr_.rpntr[static_cast<std::size_t>(br) + 1] - r0;
    for (int k = mapped_.rowPtr[static_cast<std::size_t>(i)];
         k < mapped_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = mapped_.colIdx[static_cast<std::size_t>(k)];
      const int bc = c / blockSize;
      const auto first = vbr_.bindx.begin() + vbr_.bpntr[static_cast<std::size_t>(br)];
      const auto last = vbr_.bindx.begin() + vbr_.bpntr[static_cast<std::size_t>(br) + 1];
      const auto it = std::lower_bound(first, last, bc);
      LISI_ASSERT(it != last && *it == bc);
      const auto b = static_cast<std::size_t>(it - vbr_.bindx.begin());
      const int c0 = vbr_.cpntr[static_cast<std::size_t>(bc)];
      vbrSrc_[static_cast<std::size_t>(vbr_.indx[b] + (c - c0) * rdim +
                                       (i - r0))] = k;
    }
  }
  vbrBlockSize_ = blockSize;
}

SpmvConfig DistCsrMatrix::setSpmvConfig(const SpmvConfig& config) {
  LISI_CHECK(!colStarts_.empty(),
             "setSpmvConfig: rectangular operator constructed without "
             "colStarts has no spmv to tune");
  SpmvConfig applied = config;
  if (applied.kernel == LocalKernel::kBlock &&
      (vbrBlockSize_ != applied.blockSize &&
       !blockKernelEligible(applied.blockSize))) {
    applied.kernel = LocalKernel::kCsr;
    applied.blockSize = 0;
  }
  if (applied.kernel == LocalKernel::kSellC && !sellBuilt_) buildSellAux();
  if (applied.kernel == LocalKernel::kBlock &&
      vbrBlockSize_ != applied.blockSize) {
    buildBlockAux(applied.blockSize);
  }
  if (applied.kernel != LocalKernel::kCsr) {
    // Aux kernels read x through one contiguous owned+ghost vector.
    xExt_.resize(static_cast<std::size_t>(mapped_.cols));
  }
  spmvConfig_ = applied;
  return applied;
}

DistCsrMatrix::DistCsrMatrix(comm::Comm comm, int globalRows, int globalCols,
                             int startRow, CsrMatrix local,
                             std::vector<int> colStarts)
    : comm_(std::move(comm)),
      globalRows_(globalRows),
      globalCols_(globalCols),
      local_(std::move(local)),
      colStarts_(std::move(colStarts)) {
  LISI_CHECK(comm_.valid(), "DistCsrMatrix: invalid communicator");
  LISI_CHECK(globalRows_ >= 0 && globalCols_ >= 0,
             "DistCsrMatrix: negative dimensions");
  LISI_CHECK(local_.cols == globalCols_,
             "DistCsrMatrix: local block must carry global column indices");
  local_.check();
  local_.canonicalize();

  // Establish and validate the global row ownership map.
  struct Extent {
    int start;
    int count;
  };
  const Extent mine{startRow, local_.rows};
  std::vector<Extent> all =
      comm_.allgatherv(std::span<const Extent>(&mine, 1), nullptr);
  const int p = comm_.size();
  rowStarts_.resize(static_cast<std::size_t>(p) + 1);
  int pos = 0;
  for (int r = 0; r < p; ++r) {
    LISI_CHECK(all[static_cast<std::size_t>(r)].start == pos,
               "DistCsrMatrix: ranks do not tile the global rows contiguously");
    rowStarts_[static_cast<std::size_t>(r)] = pos;
    pos += all[static_cast<std::size_t>(r)].count;
  }
  rowStarts_[static_cast<std::size_t>(p)] = pos;
  LISI_CHECK(pos == globalRows_,
             "DistCsrMatrix: local row counts do not sum to globalRows");

  if (colStarts_.empty()) {
    // Square operators distribute x like the rows.
    if (globalRows_ == globalCols_) colStarts_ = rowStarts_;
  } else {
    LISI_CHECK(static_cast<int>(colStarts_.size()) == p + 1 &&
                   colStarts_.front() == 0 && colStarts_.back() == globalCols_,
               "DistCsrMatrix: bad colStarts boundaries");
    for (int r = 0; r < p; ++r) {
      LISI_CHECK(colStarts_[static_cast<std::size_t>(r)] <=
                     colStarts_[static_cast<std::size_t>(r) + 1],
                 "DistCsrMatrix: colStarts not monotone");
    }
  }
  if (!colStarts_.empty()) buildHaloPlan();
}

int DistCsrMatrix::localCols() const {
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix: no input-vector partition (rectangular matrix "
             "constructed without colStarts)");
  return colStarts_[static_cast<std::size_t>(comm_.rank()) + 1] -
         colStarts_[static_cast<std::size_t>(comm_.rank())];
}

int DistCsrMatrix::startRow() const {
  return rowStarts_[static_cast<std::size_t>(comm_.rank())];
}

long long DistCsrMatrix::globalNnz() const {
  return comm_.allreduceValue<long long>(local_.nnz(), comm::ReduceOp::kSum);
}

DistCsrMatrix DistCsrMatrix::scatterFromRoot(comm::Comm comm,
                                             const CsrMatrix& global,
                                             int root) {
  const int p = comm.size();
  int dims[2] = {global.rows, global.cols};
  comm.bcast(std::span<int>(dims), root);
  const BlockRowPartition part(dims[0], p);
  const int rank = comm.rank();

  // Root slices its copy; everyone receives their block.
  std::vector<int> rowLens;
  std::vector<int> cols;
  std::vector<double> vals;
  if (rank == root) {
    for (int r = 0; r < p; ++r) {
      const int s = part.startRow(r);
      const int c = part.localRows(r);
      std::vector<int> lens(static_cast<std::size_t>(c));
      std::vector<int> blockCols;
      std::vector<double> blockVals;
      for (int i = 0; i < c; ++i) {
        const int g = s + i;
        const int b = global.rowPtr[static_cast<std::size_t>(g)];
        const int e = global.rowPtr[static_cast<std::size_t>(g) + 1];
        lens[static_cast<std::size_t>(i)] = e - b;
        blockCols.insert(blockCols.end(), global.colIdx.begin() + b,
                         global.colIdx.begin() + e);
        blockVals.insert(blockVals.end(), global.values.begin() + b,
                         global.values.begin() + e);
      }
      if (r == root) {
        rowLens = std::move(lens);
        cols = std::move(blockCols);
        vals = std::move(blockVals);
      } else {
        comm.send(std::span<const int>(lens), r, kScatterTag);
        comm.send(std::span<const int>(blockCols), r, kScatterTag);
        comm.send(std::span<const double>(blockVals), r, kScatterTag);
      }
    }
  } else {
    rowLens = comm.recvVector<int>(root, kScatterTag);
    cols = comm.recvVector<int>(root, kScatterTag);
    vals = comm.recvVector<double>(root, kScatterTag);
  }

  CsrMatrix local;
  local.rows = part.localRows(rank);
  local.cols = dims[1];
  local.rowPtr.assign(static_cast<std::size_t>(local.rows) + 1, 0);
  for (int i = 0; i < local.rows; ++i) {
    local.rowPtr[static_cast<std::size_t>(i) + 1] =
        local.rowPtr[static_cast<std::size_t>(i)] +
        rowLens[static_cast<std::size_t>(i)];
  }
  local.colIdx = std::move(cols);
  local.values = std::move(vals);
  return DistCsrMatrix(std::move(comm), dims[0], dims[1], part.startRow(rank),
                       std::move(local));
}

void DistCsrMatrix::buildHaloPlan() {
  gHaloPlanBuilds.fetch_add(1, std::memory_order_relaxed);
  obs::count("sparse.halo_plan_builds");
  obs::Span span("sparse.halo_plan_build");
  const int p = comm_.size();
  const int rank = comm_.rank();
  const int myStart = colStarts_[static_cast<std::size_t>(rank)];
  const int myEnd = colStarts_[static_cast<std::size_t>(rank) + 1];
  const int nlocal = myEnd - myStart;

  // Ghost columns: referenced, not owned.
  ghostCols_.clear();
  for (int c : local_.colIdx) {
    if (c < myStart || c >= myEnd) ghostCols_.push_back(c);
  }
  std::sort(ghostCols_.begin(), ghostCols_.end());
  ghostCols_.erase(std::unique(ghostCols_.begin(), ghostCols_.end()),
                   ghostCols_.end());

  // Remap the local block's columns: owned -> [0, nlocal), ghost ->
  // nlocal + position in ghostCols_.
  mapped_ = local_;
  for (int& c : mapped_.colIdx) {
    if (c >= myStart && c < myEnd) {
      c -= myStart;
    } else {
      const auto it = std::lower_bound(ghostCols_.begin(), ghostCols_.end(), c);
      c = nlocal + static_cast<int>(it - ghostCols_.begin());
    }
  }
  mapped_.cols = nlocal + static_cast<int>(ghostCols_.size());

  // Group ghost columns by owner (ghostCols_ is sorted, so owners ascend).
  std::vector<std::vector<int>> needFrom(static_cast<std::size_t>(p));
  {
    // Owner lookup over the (possibly uneven) colStarts_ boundaries.  Empty
    // ranges make upper_bound ambiguous, so scan to the owning non-empty one.
    for (int c : ghostCols_) {
      const auto it =
          std::upper_bound(colStarts_.begin(), colStarts_.end(), c);
      int owner = static_cast<int>(it - colStarts_.begin()) - 1;
      while (owner + 1 < p && colStarts_[static_cast<std::size_t>(owner)] ==
                                  colStarts_[static_cast<std::size_t>(owner) + 1]) {
        ++owner;
      }
      LISI_ASSERT(owner >= 0 && owner < p && owner != rank);
      needFrom[static_cast<std::size_t>(owner)].push_back(c);
    }
  }
  recvFromRanks_.clear();
  recvCounts_.clear();
  recvOffsets_.clear();
  int offset = 0;
  for (int r = 0; r < p; ++r) {
    if (needFrom[static_cast<std::size_t>(r)].empty()) continue;
    recvFromRanks_.push_back(r);
    recvCounts_.push_back(
        static_cast<int>(needFrom[static_cast<std::size_t>(r)].size()));
    recvOffsets_.push_back(offset);
    offset += recvCounts_.back();
  }

  // Tell every rank how many of its entries we need, then exchange the
  // index lists so senders know what to ship each spmv.
  std::vector<int> requestCounts(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    requestCounts[static_cast<std::size_t>(r)] =
        static_cast<int>(needFrom[static_cast<std::size_t>(r)].size());
  }
  std::vector<int> allCounts =
      comm_.allgatherv(std::span<const int>(requestCounts), nullptr);
  // allCounts[q*p + r] = how many entries rank q needs from rank r.
  sendToRanks_.clear();
  sendIdx_.clear();
  sendOffsets_.assign(1, 0);
  for (const int r : recvFromRanks_) {
    comm_.send(std::span<const int>(needFrom[static_cast<std::size_t>(r)]), r,
               kPlanTag);
  }
  for (int q = 0; q < p; ++q) {
    if (q == rank) continue;
    const int needed =
        allCounts[static_cast<std::size_t>(q) * static_cast<std::size_t>(p) +
                  static_cast<std::size_t>(rank)];
    if (needed == 0) continue;
    std::vector<int> globalIdx = comm_.recvVector<int>(q, kPlanTag);
    LISI_ASSERT(static_cast<int>(globalIdx.size()) == needed);
    for (const int g : globalIdx) {
      LISI_ASSERT(g >= myStart && g < myEnd);
      sendIdx_.push_back(g - myStart);
    }
    sendToRanks_.push_back(q);
    sendOffsets_.push_back(static_cast<int>(sendIdx_.size()));
  }

  // One-time interior/boundary row split: interior rows read only owned x
  // entries, so they can run while ghost values are still in flight.
  interiorRows_.clear();
  boundaryRows_.clear();
  for (int i = 0; i < mapped_.rows; ++i) {
    bool interior = true;
    for (int k = mapped_.rowPtr[static_cast<std::size_t>(i)];
         k < mapped_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (mapped_.colIdx[static_cast<std::size_t>(k)] >= nlocal) {
        interior = false;
        break;
      }
    }
    (interior ? interiorRows_ : boundaryRows_).push_back(i);
  }

  // Persistent per-spmv scratch + reserved tag block: sized here so spmv()
  // itself never touches the heap.
  sendBuf_.assign(sendIdx_.size(), 0.0);
  xGhost_.assign(ghostCols_.size(), 0.0);
  spmvTags_ = comm_.reserveCollectiveTags(kSpmvTagRounds);
  spmvRound_ = 0;
}

// lisi-lint: zero-alloc-begin(spmv steady state: plan-owned scratch only)
// The halo-plan build (buildHaloPlan) sizes sendBuf_/xGhost_/xExt_ and
// reserves the spmv tag block precisely so this function never touches the
// heap; the markers make that promise a lint-enforced contract.
void DistCsrMatrix::spmv(std::span<const double> xLocal,
                         std::span<double> yLocal) const {
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix::spmv: rectangular operator constructed without "
             "colStarts");
  LISI_CHECK(static_cast<int>(xLocal.size()) == localCols(),
             "DistCsrMatrix::spmv: x size mismatch");
  LISI_CHECK(static_cast<int>(yLocal.size()) == localRows(),
             "DistCsrMatrix::spmv: y size mismatch");

  // Overlapped exchange on plan-owned scratch, one tag per round:
  //   1. pack + post all sends (buffered: they complete immediately),
  //   2. compute interior rows while ghost values are in flight,
  //   3. receive ghosts, then finish the boundary rows.
  const int tag = spmvTags_[spmvRound_ % spmvTags_.size()];
  ++spmvRound_;
  obs::Span spmvSpan("sparse.spmv");
  // Precision accounting: value bytes this product moves in float64 —
  // stored matrix values plus the packed/received halo payload.
  const long long bytesHigh =
      8LL * (static_cast<long long>(mapped_.nnz()) +
             static_cast<long long>(sendIdx_.size()) +
             static_cast<long long>(ghostCols_.size()));
  prec::noteBytesHigh(bytesHigh);
  obs::count("prec.bytes_high", bytesHigh);
  {
    obs::Span phase("sparse.spmv.halo_send");
    for (std::size_t s = 0; s < sendToRanks_.size(); ++s) {
      const auto b = static_cast<std::size_t>(sendOffsets_[s]);
      const auto e = static_cast<std::size_t>(sendOffsets_[s + 1]);
      for (std::size_t k = b; k < e; ++k) {
        sendBuf_[k] = xLocal[static_cast<std::size_t>(sendIdx_[k])];
      }
      comm_.send(std::span<const double>(sendBuf_.data() + b, e - b),
                 sendToRanks_[s], tag);
    }
  }
  // Owned columns read straight from the caller's x (no copy); ghost
  // columns read from the plan's receive buffer via their remapped index.
  const int nloc = static_cast<int>(xLocal.size());
  const auto rowProduct = [&](int i) {
    double acc = 0.0;
    for (int k = mapped_.rowPtr[static_cast<std::size_t>(i)];
         k < mapped_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = mapped_.colIdx[static_cast<std::size_t>(k)];
      acc += mapped_.values[static_cast<std::size_t>(k)] *
             (c < nloc ? xLocal[static_cast<std::size_t>(c)]
                       : xGhost_[static_cast<std::size_t>(c - nloc)]);
    }
    yLocal[static_cast<std::size_t>(i)] = acc;
  };
  const auto recvGhosts = [&] {
    obs::Span phase("sparse.spmv.halo_recv");
    for (std::size_t r = 0; r < recvFromRanks_.size(); ++r) {
      comm_.recv(
          std::span<double>(xGhost_.data() +
                                static_cast<std::size_t>(recvOffsets_[r]),
                            static_cast<std::size_t>(recvCounts_[r])),
          recvFromRanks_[r], tag);
    }
  };

  if (spmvConfig_.kernel == LocalKernel::kCsr) {
    if (spmvConfig_.overlapHalo) {
      // Reference path: interior rows hide the ghost exchange.
      {
        obs::Span phase("sparse.spmv.interior");
        for (const int i : interiorRows_) rowProduct(i);
      }
      recvGhosts();
      obs::Span phase("sparse.spmv.boundary");
      for (const int i : boundaryRows_) rowProduct(i);
    } else {
      // Eager: complete the exchange, then one natural-order row sweep
      // (bitwise identical per row to the overlapped path).
      recvGhosts();
      obs::Span phase("sparse.spmv.local");
      for (int i = 0; i < mapped_.rows; ++i) rowProduct(i);
    }
    return;
  }

  // Aux kernels read x through the contiguous owned+ghost vector; the
  // owned prefix is filled up front, the ghost tail after the receive.
  std::copy(xLocal.begin(), xLocal.end(), xExt_.begin());
  const auto fillGhostTail = [&] {
    std::copy(xGhost_.begin(), xGhost_.end(),
              xExt_.begin() + static_cast<std::ptrdiff_t>(nloc));
  };
  const std::span<const double> xExt(xExt_);

  switch (spmvConfig_.kernel) {
    case LocalKernel::kCsr:
      break;  // handled above
    case LocalKernel::kCsrPrefetch: {
      // Branch-free gather through xExt_ plus one-row-ahead software
      // prefetch of the next row's x targets.  Same accumulation order as
      // kCsr, so results stay bitwise identical.
      const auto rowProductExt = [&](int i) {
        double acc = 0.0;
        for (int k = mapped_.rowPtr[static_cast<std::size_t>(i)];
             k < mapped_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
          acc += mapped_.values[static_cast<std::size_t>(k)] *
                 xExt[static_cast<std::size_t>(
                     mapped_.colIdx[static_cast<std::size_t>(k)])];
        }
        yLocal[static_cast<std::size_t>(i)] = acc;
      };
      const auto prefetchRow = [&](int i) {
#if defined(__GNUC__) || defined(__clang__)
        for (int k = mapped_.rowPtr[static_cast<std::size_t>(i)];
             k < mapped_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
          __builtin_prefetch(
              &xExt_[static_cast<std::size_t>(
                  mapped_.colIdx[static_cast<std::size_t>(k)])],
              0, 1);
        }
#else
        (void)i;
#endif
      };
      const auto sweep = [&](const std::vector<int>& rowsList) {
        for (std::size_t n = 0; n < rowsList.size(); ++n) {
          if (n + 1 < rowsList.size()) prefetchRow(rowsList[n + 1]);
          rowProductExt(rowsList[n]);
        }
      };
      if (spmvConfig_.overlapHalo) {
        {
          obs::Span phase("sparse.spmv.interior");
          sweep(interiorRows_);
        }
        recvGhosts();
        fillGhostTail();
        obs::Span phase("sparse.spmv.boundary");
        sweep(boundaryRows_);
      } else {
        recvGhosts();
        fillGhostTail();
        obs::Span phase("sparse.spmv.local");
        sweep(interiorRows_);
        sweep(boundaryRows_);
      }
      break;
    }
    case LocalKernel::kSellC: {
      if (spmvConfig_.overlapHalo) {
        {
          obs::Span phase("sparse.spmv.interior");
          sparse::spmv(sellInterior_, xExt, yLocal);
        }
        recvGhosts();
        fillGhostTail();
        obs::Span phase("sparse.spmv.boundary");
        sparse::spmv(sellBoundary_, xExt, yLocal);
      } else {
        recvGhosts();
        fillGhostTail();
        obs::Span phase("sparse.spmv.local");
        sparse::spmv(sellInterior_, xExt, yLocal);
        sparse::spmv(sellBoundary_, xExt, yLocal);
      }
      break;
    }
    case LocalKernel::kBlock: {
      // The dense-block sweep has no interior/boundary split; the exchange
      // always completes first (overlapHalo is ignored).
      recvGhosts();
      fillGhostTail();
      obs::Span phase("sparse.spmv.local");
      sparse::spmv(vbr_, xExt, yLocal);
      break;
    }
  }
}
// lisi-lint: zero-alloc-end

void DistCsrMatrix::spmvFloat(std::span<const float> xLocal,
                              std::span<float> yLocal) const {
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix::spmvFloat: rectangular operator constructed "
             "without colStarts");
  LISI_CHECK(static_cast<int>(xLocal.size()) == localCols(),
             "DistCsrMatrix::spmvFloat: x size mismatch");
  LISI_CHECK(static_cast<int>(yLocal.size()) == localRows(),
             "DistCsrMatrix::spmvFloat: y size mismatch");

  if (!floatMirrorFresh_) {
    // Lazy mirror: cast the current values once; the halo plan, index
    // arrays, and interior/boundary split are shared with the double path.
    mappedValsF_.resize(mapped_.values.size());
    std::copy(mapped_.values.begin(), mapped_.values.end(),
              mappedValsF_.begin());
    sendBufF_.assign(sendIdx_.size(), 0.0F);
    xGhostF_.assign(ghostCols_.size(), 0.0F);
    floatMirrorFresh_ = true;
  }

  // Same overlapped exchange as spmv(), on the float scratch.  The tuned
  // aux kernels are double-only; this path always runs the reference CSR
  // loop — it is the error-correction inner product, where the bandwidth
  // halving, not the kernel shape, is the lever.
  const int tag = spmvTags_[spmvRound_ % spmvTags_.size()];
  ++spmvRound_;
  obs::Span spmvSpan("sparse.spmv_f32");
  const long long bytesLow =
      4LL * (static_cast<long long>(mapped_.nnz()) +
             static_cast<long long>(sendIdx_.size()) +
             static_cast<long long>(ghostCols_.size()));
  prec::noteBytesLow(bytesLow);
  obs::count("prec.bytes_low", bytesLow);
  {
    obs::Span phase("sparse.spmv.halo_send");
    for (std::size_t s = 0; s < sendToRanks_.size(); ++s) {
      const auto b = static_cast<std::size_t>(sendOffsets_[s]);
      const auto e = static_cast<std::size_t>(sendOffsets_[s + 1]);
      for (std::size_t k = b; k < e; ++k) {
        sendBufF_[k] = xLocal[static_cast<std::size_t>(sendIdx_[k])];
      }
      comm_.send(std::span<const float>(sendBufF_.data() + b, e - b),
                 sendToRanks_[s], tag);
    }
  }
  const int nloc = static_cast<int>(xLocal.size());
  const auto rowProduct = [&](int i) {
    float acc = 0.0F;
    for (int k = mapped_.rowPtr[static_cast<std::size_t>(i)];
         k < mapped_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = mapped_.colIdx[static_cast<std::size_t>(k)];
      acc += mappedValsF_[static_cast<std::size_t>(k)] *
             (c < nloc ? xLocal[static_cast<std::size_t>(c)]
                       : xGhostF_[static_cast<std::size_t>(c - nloc)]);
    }
    yLocal[static_cast<std::size_t>(i)] = acc;
  };
  {
    obs::Span phase("sparse.spmv.interior");
    for (const int i : interiorRows_) rowProduct(i);
  }
  {
    obs::Span phase("sparse.spmv.halo_recv");
    for (std::size_t r = 0; r < recvFromRanks_.size(); ++r) {
      comm_.recv(
          std::span<float>(xGhostF_.data() +
                               static_cast<std::size_t>(recvOffsets_[r]),
                           static_cast<std::size_t>(recvCounts_[r])),
          recvFromRanks_[r], tag);
    }
  }
  obs::Span phase("sparse.spmv.boundary");
  for (const int i : boundaryRows_) rowProduct(i);
}

void DistCsrMatrix::spmvMulti(std::span<const double> xLocal,
                              std::span<double> yLocal, int nVec) const {
  LISI_CHECK(nVec >= 1, "DistCsrMatrix::spmvMulti: nVec must be >= 1");
  if (nVec == 1) {
    spmv(xLocal, yLocal);
    return;
  }
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix::spmvMulti: rectangular operator constructed "
             "without colStarts");
  const auto nloc = static_cast<std::size_t>(localCols());
  const auto mloc = static_cast<std::size_t>(localRows());
  const auto nv = static_cast<std::size_t>(nVec);
  LISI_CHECK(xLocal.size() == nloc * nv,
             "DistCsrMatrix::spmvMulti: x size mismatch");
  LISI_CHECK(yLocal.size() == mloc * nv,
             "DistCsrMatrix::spmvMulti: y size mismatch");

  // One tag, one message per neighbour — same wire schedule as spmv(), the
  // payload just carries nVec values per ghost index (index-major), so the
  // blocked Krylov solvers amortize the halo latency across the batch.
  const int tag = spmvTags_[spmvRound_ % spmvTags_.size()];
  ++spmvRound_;
  obs::Span spmvSpan("sparse.spmv_multi");
  const long long bytesHigh =
      8LL * (static_cast<long long>(mapped_.nnz()) +
             static_cast<long long>(nv) *
                 (static_cast<long long>(sendIdx_.size()) +
                  static_cast<long long>(ghostCols_.size())));
  prec::noteBytesHigh(bytesHigh);
  obs::count("prec.bytes_high", bytesHigh);

  if (sendBufMulti_.size() < sendIdx_.size() * nv) {
    sendBufMulti_.resize(sendIdx_.size() * nv);
  }
  if (xGhostMulti_.size() < ghostCols_.size() * nv) {
    xGhostMulti_.resize(ghostCols_.size() * nv);
  }
  {
    obs::Span phase("sparse.spmv.halo_send");
    for (std::size_t s = 0; s < sendToRanks_.size(); ++s) {
      const auto b = static_cast<std::size_t>(sendOffsets_[s]);
      const auto e = static_cast<std::size_t>(sendOffsets_[s + 1]);
      for (std::size_t k = b; k < e; ++k) {
        const auto idx = static_cast<std::size_t>(sendIdx_[k]);
        for (std::size_t v = 0; v < nv; ++v) {
          sendBufMulti_[k * nv + v] = xLocal[v * nloc + idx];
        }
      }
      comm_.send(
          std::span<const double>(sendBufMulti_.data() + b * nv, (e - b) * nv),
          sendToRanks_[s], tag);
    }
  }
  // Reference kCsr accumulation per vector (bitwise identical per lane to
  // spmv); the tuned aux kernels stay single-vector — the multi path's win
  // is communication amortization, not local kernel shape.
  const auto rowProduct = [&](int i, std::size_t v) {
    double acc = 0.0;
    const std::size_t xBase = v * nloc;
    for (int k = mapped_.rowPtr[static_cast<std::size_t>(i)];
         k < mapped_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = mapped_.colIdx[static_cast<std::size_t>(k)];
      acc += mapped_.values[static_cast<std::size_t>(k)] *
             (c < static_cast<int>(nloc)
                  ? xLocal[xBase + static_cast<std::size_t>(c)]
                  : xGhostMulti_[static_cast<std::size_t>(
                                     c - static_cast<int>(nloc)) *
                                     nv +
                                 v]);
    }
    yLocal[v * mloc + static_cast<std::size_t>(i)] = acc;
  };
  {
    obs::Span phase("sparse.spmv.interior");
    for (const int i : interiorRows_) {
      for (std::size_t v = 0; v < nv; ++v) rowProduct(i, v);
    }
  }
  {
    obs::Span phase("sparse.spmv.halo_recv");
    for (std::size_t r = 0; r < recvFromRanks_.size(); ++r) {
      comm_.recv(std::span<double>(
                     xGhostMulti_.data() +
                         static_cast<std::size_t>(recvOffsets_[r]) * nv,
                     static_cast<std::size_t>(recvCounts_[r]) * nv),
                 recvFromRanks_[r], tag);
    }
  }
  obs::Span phase("sparse.spmv.boundary");
  for (const int i : boundaryRows_) {
    for (std::size_t v = 0; v < nv; ++v) rowProduct(i, v);
  }
}

CsrMatrix DistCsrMatrix::gatherToRoot(int root) const {
  std::vector<int> lens(static_cast<std::size_t>(local_.rows));
  for (int i = 0; i < local_.rows; ++i) {
    lens[static_cast<std::size_t>(i)] =
        local_.rowPtr[static_cast<std::size_t>(i) + 1] -
        local_.rowPtr[static_cast<std::size_t>(i)];
  }
  std::vector<int> allLens = comm_.gatherv(std::span<const int>(lens), root);
  std::vector<int> allCols =
      comm_.gatherv(std::span<const int>(local_.colIdx), root);
  std::vector<double> allVals =
      comm_.gatherv(std::span<const double>(local_.values), root);
  CsrMatrix global;
  if (comm_.rank() == root) {
    global.rows = globalRows_;
    global.cols = globalCols_;
    global.rowPtr.assign(static_cast<std::size_t>(globalRows_) + 1, 0);
    for (int i = 0; i < globalRows_; ++i) {
      global.rowPtr[static_cast<std::size_t>(i) + 1] =
          global.rowPtr[static_cast<std::size_t>(i)] +
          allLens[static_cast<std::size_t>(i)];
    }
    global.colIdx = std::move(allCols);
    global.values = std::move(allVals);
    global.check();
  }
  return global;
}

std::vector<double> DistCsrMatrix::gatherVectorToRoot(
    std::span<const double> xLocal, int root) const {
  LISI_CHECK(static_cast<int>(xLocal.size()) == localRows(),
             "gatherVectorToRoot: size mismatch");
  return comm_.gatherv(xLocal, root);
}

std::vector<double> DistCsrMatrix::scatterVectorFromRoot(
    std::span<const double> xGlobal, int root) const {
  const int p = comm_.size();
  std::vector<int> counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] =
        rowStarts_[static_cast<std::size_t>(r) + 1] -
        rowStarts_[static_cast<std::size_t>(r)];
  }
  if (comm_.rank() == root) {
    LISI_CHECK(static_cast<int>(xGlobal.size()) == globalRows_,
               "scatterVectorFromRoot: global size mismatch");
  }
  return comm_.scatterv(xGlobal, std::span<const int>(counts), root);
}

std::vector<double> DistCsrMatrix::localDiagonal() const {
  const int myStart = startRow();
  std::vector<double> d(static_cast<std::size_t>(local_.rows), 0.0);
  for (int i = 0; i < local_.rows; ++i) {
    for (int k = local_.rowPtr[static_cast<std::size_t>(i)];
         k < local_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (local_.colIdx[static_cast<std::size_t>(k)] == myStart + i) {
        d[static_cast<std::size_t>(i)] +=
            local_.values[static_cast<std::size_t>(k)];
      }
    }
  }
  return d;
}

double distDot(const comm::Comm& comm, std::span<const double> x,
               std::span<const double> y) {
  LISI_CHECK(x.size() == y.size(), "distDot: local size mismatch");
  double local = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) local += x[i] * y[i];
  return comm.allreduceValue(local, comm::ReduceOp::kSum);
}

std::array<double, 2> distDot2(const comm::Comm& comm,
                               std::span<const double> x1,
                               std::span<const double> y1,
                               std::span<const double> x2,
                               std::span<const double> y2) {
  LISI_CHECK(x1.size() == y1.size() && x2.size() == y2.size(),
             "distDot2: local size mismatch");
  std::array<double, 2> local{0.0, 0.0};
  for (std::size_t i = 0; i < x1.size(); ++i) local[0] += x1[i] * y1[i];
  for (std::size_t i = 0; i < x2.size(); ++i) local[1] += x2[i] * y2[i];
  std::array<double, 2> global{0.0, 0.0};
  comm.allreduce(std::span<const double>(local),
                 std::span<double>(global), comm::ReduceOp::kSum);
  return global;
}

double distNorm2(const comm::Comm& comm, std::span<const double> x) {
  return std::sqrt(distDot(comm, x, x));
}

double distNormInf(const comm::Comm& comm, std::span<const double> x) {
  double local = 0.0;
  for (double v : x) local = std::max(local, std::abs(v));
  return comm.allreduceValue(local, comm::ReduceOp::kMax);
}

namespace {

/// Local partials of G dot lanes in one sweep over the rows.  Each lane
/// keeps its own accumulator and adds in index order — the same chain as
/// distDot's loop, so every lane is bitwise what distDot would reduce —
/// while the G independent chains overlap instead of waiting on one add
/// latency each.  SharedX loads x once when every lane's x is the same
/// vector (the Gram-Schmidt projections of one w).
template <int G, bool SharedX>
void localDotsGroup(const DotArgs* d, double* out) {
  const std::size_t n = d[0].x.size();
  const double* x[G];
  const double* y[G];
  double acc[G];
  for (int l = 0; l < G; ++l) {
    x[l] = d[l].x.data();
    y[l] = d[l].y.data();
    acc[l] = 0.0;
  }
  // Unrolled so the accumulators live in registers (-O2 keeps a runtime
  // lane loop and round-trips acc[] through memory otherwise).
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (SharedX) {
      const double xi = x[0][i];
#pragma GCC unroll 8
      for (int l = 0; l < G; ++l) acc[l] += xi * y[l][i];
    } else {
#pragma GCC unroll 8
      for (int l = 0; l < G; ++l) acc[l] += x[l][i] * y[l][i];
    }
  }
  for (int l = 0; l < G; ++l) out[l] = acc[l];
}

template <int G>
void localDotsGroup(const DotArgs* d, double* out) {
  bool sharedX = true;
  for (int l = 1; l < G; ++l) {
    sharedX = sharedX && d[l].x.data() == d[0].x.data();
  }
  if (sharedX) {
    localDotsGroup<G, true>(d, out);
  } else {
    localDotsGroup<G, false>(d, out);
  }
}

/// Local partial sums of every lane.  Consecutive lanes of equal length
/// share sweeps, up to 8 lanes per sweep.
void localDots(std::span<const DotArgs> dots, std::span<double> out) {
  for (const DotArgs& d : dots) {
    LISI_CHECK(d.x.size() == d.y.size(), "distDotsBegin: local size mismatch");
  }
  std::size_t l = 0;
  while (l < dots.size()) {
    std::size_t end = l + 1;
    while (end < dots.size() && dots[end].x.size() == dots[l].x.size()) ++end;
    for (; l + 8 <= end; l += 8) localDotsGroup<8>(&dots[l], &out[l]);
    if (l + 4 <= end) {
      localDotsGroup<4>(&dots[l], &out[l]);
      l += 4;
    }
    if (l + 2 <= end) {
      localDotsGroup<2>(&dots[l], &out[l]);
      l += 2;
    }
    if (l < end) localDotsGroup<1>(&dots[l], &out[l]);
    l = end;
  }
}

}  // namespace

void PendingDots::sumLocal(std::span<const DotArgs> dots) {
  LISI_CHECK(!handle_.valid() || handle_.test(),
             "distDotsBegin: the previous batch is still in flight");
  if (!buf_) buf_ = std::make_unique<Buf>();
  buf_->local.resize(dots.size());
  buf_->global.resize(dots.size());
  localDots(dots, std::span<double>(buf_->local));
}

PendingDots distDotsBegin(const comm::Comm& comm,
                          std::span<const DotArgs> dots) {
  PendingDots pending;
  distDotsBegin(comm, dots, pending);
  return pending;
}

void distDotsBegin(const comm::Comm& comm, std::span<const DotArgs> dots,
                   PendingDots& pending) {
  pending.sumLocal(dots);
  pending.handle_ =
      comm.iallreduce(std::span<const double>(pending.buf_->local),
                      std::span<double>(pending.buf_->global),
                      comm::ReduceOp::kSum);
}

std::span<const double> distDots(const comm::Comm& comm,
                                 std::span<const DotArgs> dots,
                                 PendingDots& buffer) {
  buffer.sumLocal(dots);
  buffer.handle_ = comm::CollHandle();
  comm.allreduce(std::span<const double>(buffer.buf_->local),
                 std::span<double>(buffer.buf_->global), comm::ReduceOp::kSum);
  return std::span<const double>(buffer.buf_->global);
}

std::span<const double> distDotsEnd(PendingDots& pending) {
  LISI_CHECK(pending.valid(), "distDotsEnd: no batch in flight");
  pending.handle_.wait();
  return std::span<const double>(pending.buf_->global);
}

PendingDots distDotBegin(const comm::Comm& comm, std::span<const double> x,
                         std::span<const double> y) {
  const DotArgs lane{x, y};
  return distDotsBegin(comm, std::span<const DotArgs>(&lane, 1));
}

double distDotEnd(PendingDots& pending) {
  const std::span<const double> r = distDotsEnd(pending);
  LISI_CHECK(r.size() == 1, "distDotEnd: batch is not single-lane");
  return r[0];
}

PendingDots distDot2Begin(const comm::Comm& comm, std::span<const double> x1,
                          std::span<const double> y1,
                          std::span<const double> x2,
                          std::span<const double> y2) {
  const std::array<DotArgs, 2> lanes{DotArgs{x1, y1}, DotArgs{x2, y2}};
  return distDotsBegin(comm, std::span<const DotArgs>(lanes));
}

std::array<double, 2> distDot2End(PendingDots& pending) {
  const std::span<const double> r = distDotsEnd(pending);
  LISI_CHECK(r.size() == 2, "distDot2End: batch is not two-lane");
  return {r[0], r[1]};
}

ArnoldiWorkspace::ArnoldiWorkspace(std::size_t lanes, std::size_t basisMax)
    : dots_(lanes * std::max<std::size_t>(basisMax, 1)),
      local_(dots_.size()),
      global_(dots_.size()) {}

// lisi-lint: zero-alloc-begin(Arnoldi step: workspace-owned scratch only)
void arnoldiProject(const comm::Comm& comm, std::span<ArnoldiLane> lanes,
                    ArnoldiWorkspace& ws) {
  // Per lane: (stepping) <w, v_0> .. <w, v_j>, then ||v~_j||^2.  The norm
  // goes last so the projections, which all share w, lead the sweeps.
  std::size_t total = 0;
  for (const ArnoldiLane& ln : lanes) {
    const bool steps = !ln.w.empty();
    LISI_CHECK(ln.basis.size() >= (steps ? 2u : 1u) &&
                   (!steps || (ln.w.size() == ln.n &&
                               ln.h.size() + 1 == ln.basis.size())),
               "arnoldiProject: inconsistent lane shape");
    total += steps ? ln.basis.size() : 1;
  }
  LISI_CHECK(total <= ws.dots_.size(), "arnoldiProject: workspace too small");
  std::size_t at = 0;
  for (const ArnoldiLane& ln : lanes) {
    const std::size_t j = ln.basis.size() - (ln.w.empty() ? 1 : 2);
    if (!ln.w.empty()) {
      for (std::size_t i = 0; i <= j; ++i) {
        ws.dots_[at++] = {ln.w, std::span<const double>(ln.basis[i], ln.n)};
      }
    }
    const std::span<const double> vj(ln.basis[j], ln.n);
    ws.dots_[at++] = {vj, vj};
  }
  const std::span<double> local = std::span<double>(ws.local_).first(total);
  const std::span<double> global = std::span<double>(ws.global_).first(total);
  localDots(std::span<const DotArgs>(ws.dots_).first(total), local);
  comm.allreduce(std::span<const double>(local), global, comm::ReduceOp::kSum);
  at = 0;
  for (ArnoldiLane& ln : lanes) {
    const std::size_t k = ln.w.empty() ? 0 : ln.h.size();  // projections
    ln.nu = std::sqrt(global[at + k]);
    if (k > 0) {
      for (std::size_t i = 0; i + 1 < k; ++i) ln.h[i] = global[at + i] / ln.nu;
      ln.h[k - 1] = global[at + k - 1] / ln.nu / ln.nu;
    }
    at += k + 1;
  }
}

void arnoldiExpand(const ArnoldiLane& lane) {
  const std::size_t j = lane.h.size() - 1;
  LISI_CHECK(!lane.w.empty() && lane.basis.size() == j + 2,
             "arnoldiExpand: not a stepping lane");
  normalizeAndSubtract(std::span<double>(lane.basis[j + 1], lane.n),
                       lane.w, 1.0 / lane.nu, lane.basis.first(j + 1),
                       std::span<const double>(lane.h));
}
// lisi-lint: zero-alloc-end

GmresLeastSquares::GmresLeastSquares(std::size_t m)
    : cs_(m, 0.0), sn_(m, 0.0), g_(m + 1, 0.0), y_(m, 0.0) {
  r_.reserve(m);
  for (std::size_t c = 0; c < m; ++c) r_.emplace_back(c + 1, 0.0);
}

void GmresLeastSquares::reset(double beta) {
  std::fill(g_.begin(), g_.end(), 0.0);
  g_[0] = beta;
}

std::optional<double> GmresLeastSquares::close(std::size_t c, double sub) {
  std::vector<double>& h = r_[c];
  for (std::size_t i = 0; i < c; ++i) {
    const double t = cs_[i] * h[i] + sn_[i] * h[i + 1];
    h[i + 1] = -sn_[i] * h[i] + cs_[i] * h[i + 1];
    h[i] = t;
  }
  const double hcc = h[c];
  const double denom = std::sqrt(hcc * hcc + sub * sub);
  if (denom == 0.0) return std::nullopt;
  cs_[c] = hcc / denom;
  sn_[c] = sub / denom;
  h[c] = denom;
  g_[c + 1] = -sn_[c] * g_[c];
  g_[c] = cs_[c] * g_[c];
  return std::abs(g_[c + 1]);
}

bool GmresLeastSquares::update(std::size_t cols,
                               std::span<double* const> basis,
                               std::span<double> x) {
  for (std::size_t i = cols; i-- > 0;) {
    double acc = g_[i];
    for (std::size_t k = i + 1; k < cols; ++k) acc -= r_[k][i] * y_[k];
    if (r_[i][i] == 0.0) return false;
    y_[i] = acc / r_[i][i];
  }
  for (std::size_t i = 0; i < cols; ++i) y_[i] = -y_[i];
  subtractCombination(x, basis.first(cols),
                      std::span<const double>(y_).first(cols));
  return true;
}

}  // namespace lisi::sparse
