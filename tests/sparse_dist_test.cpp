// Distributed-matrix tests: the parallel spmv and gathers must agree with
// their serial counterparts for every rank count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "comm/comm.hpp"
#include "mesh/pde5pt.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "sparse/partition.hpp"
#include "support/rng.hpp"

// ---- global allocation counter ----------------------------------------
// Replaces the global allocation functions for this test binary so the
// zero-allocation contract of DistCsrMatrix::spmv can be asserted directly.
// Counting is off by default; tests toggle it around the measured region.
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::size_t> g_allocCalls{0};
std::atomic<std::size_t> g_allocBytes{0};

void* countedAlloc(std::size_t n) {
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lisi::sparse {
namespace {

TEST(BlockRowPartition, EvenSplit) {
  const BlockRowPartition p(12, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(p.localRows(r), 3);
    EXPECT_EQ(p.startRow(r), 3 * r);
  }
}

TEST(BlockRowPartition, RemainderGoesToLowRanks) {
  const BlockRowPartition p(10, 3);
  EXPECT_EQ(p.localRows(0), 4);
  EXPECT_EQ(p.localRows(1), 3);
  EXPECT_EQ(p.localRows(2), 3);
  EXPECT_EQ(p.startRow(0), 0);
  EXPECT_EQ(p.startRow(1), 4);
  EXPECT_EQ(p.startRow(2), 7);
}

TEST(BlockRowPartition, OwnerLookup) {
  const BlockRowPartition p(10, 3);
  EXPECT_EQ(p.ownerOf(0), 0);
  EXPECT_EQ(p.ownerOf(3), 0);
  EXPECT_EQ(p.ownerOf(4), 1);
  EXPECT_EQ(p.ownerOf(9), 2);
  EXPECT_THROW((void)p.ownerOf(10), Error);
}

TEST(BlockRowPartition, MoreRanksThanRows) {
  const BlockRowPartition p(2, 5);
  int total = 0;
  for (int r = 0; r < 5; ++r) total += p.localRows(r);
  EXPECT_EQ(total, 2);
  EXPECT_EQ(p.localRows(0), 1);
  EXPECT_EQ(p.localRows(1), 1);
  EXPECT_EQ(p.localRows(4), 0);
}

class DistP : public ::testing::TestWithParam<int> {};

TEST_P(DistP, SpmvMatchesSerialOnRandomMatrix) {
  const int p = GetParam();
  const int n = 83;
  Rng rngA(100);
  const CsrMatrix global = randomDiagDominant(n, 6, 1.0, rngA);
  std::vector<double> x(static_cast<std::size_t>(n));
  Rng rngX(200);
  for (auto& v : x) v = rngX.uniform(-1, 1);
  std::vector<double> yRef(static_cast<std::size_t>(n));
  spmv(global, std::span<const double>(x), std::span<double>(yRef));

  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    EXPECT_EQ(dist.globalRows(), n);
    EXPECT_EQ(dist.globalNnz(), global.nnz());
    const int s = dist.startRow();
    const int m = dist.localRows();
    std::vector<double> xLoc(x.begin() + s, x.begin() + s + m);
    std::vector<double> yLoc(static_cast<std::size_t>(m));
    dist.spmv(std::span<const double>(xLoc), std::span<double>(yLoc));
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(yLoc[static_cast<std::size_t>(i)],
                  yRef[static_cast<std::size_t>(s + i)], 1e-12)
          << "rank " << c.rank() << " row " << s + i;
    }
  });
}

TEST_P(DistP, SpmvMatchesSerialOnPdeMatrix) {
  const int p = GetParam();
  mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const auto serial = mesh::assembleGlobal(spec);
  std::vector<double> x(static_cast<std::size_t>(serial.globalN));
  Rng rng(300);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> yRef(x.size());
  spmv(serial.localA, std::span<const double>(x), std::span<double>(yRef));

  comm::World::run(p, [&](comm::Comm& c) {
    const auto local = mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix dist(c, local.globalN, local.globalN, local.startRow,
                       local.localA);
    std::vector<double> xLoc(x.begin() + dist.startRow(),
                             x.begin() + dist.startRow() + dist.localRows());
    std::vector<double> yLoc(static_cast<std::size_t>(dist.localRows()));
    dist.spmv(std::span<const double>(xLoc), std::span<double>(yLoc));
    for (int i = 0; i < dist.localRows(); ++i) {
      EXPECT_NEAR(yLoc[static_cast<std::size_t>(i)],
                  yRef[static_cast<std::size_t>(dist.startRow() + i)], 1e-12);
    }
  });
}

TEST_P(DistP, GatherToRootReassemblesMatrix) {
  const int p = GetParam();
  Rng rng(400);
  const CsrMatrix global = randomCsr(37, 37, 5, rng);
  CsrMatrix canonical = global;
  canonical.canonicalize();
  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const CsrMatrix gathered = dist.gatherToRoot(0);
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(maxAbsDiff(canonical, gathered), 0.0);
    } else {
      EXPECT_EQ(gathered.rows, 0);
    }
  });
}

TEST_P(DistP, VectorGatherScatterRoundTrip) {
  const int p = GetParam();
  const int n = 29;
  std::vector<double> xGlobal(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xGlobal[static_cast<std::size_t>(i)] = i * 1.5;
  comm::World::run(p, [&](comm::Comm& c) {
    const CsrMatrix eye = laplacian1d(n);  // any square matrix fixes the layout
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, eye);
    const auto xLoc = dist.scatterVectorFromRoot(
        c.rank() == 0 ? std::span<const double>(xGlobal)
                      : std::span<const double>(),
        0);
    ASSERT_EQ(static_cast<int>(xLoc.size()), dist.localRows());
    for (int i = 0; i < dist.localRows(); ++i) {
      EXPECT_DOUBLE_EQ(xLoc[static_cast<std::size_t>(i)],
                       (dist.startRow() + i) * 1.5);
    }
    const auto back =
        dist.gatherVectorToRoot(std::span<const double>(xLoc), 0);
    if (c.rank() == 0) {
      ASSERT_EQ(back.size(), xGlobal.size());
      for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_DOUBLE_EQ(back[i], xGlobal[i]);
      }
    }
  });
}

TEST_P(DistP, LocalDiagonalMatchesGlobal) {
  const int p = GetParam();
  Rng rng(500);
  const CsrMatrix global = randomDiagDominant(41, 4, 0.5, rng);
  const auto dRef = diagonal(global);
  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const auto d = dist.localDiagonal();
    for (int i = 0; i < dist.localRows(); ++i) {
      EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)],
                       dRef[static_cast<std::size_t>(dist.startRow() + i)]);
    }
  });
}

TEST_P(DistP, DistVectorReductionsMatchSerial) {
  const int p = GetParam();
  const int n = 57;
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  Rng rng(600);
  for (auto& v : x) v = rng.uniform(-2, 2);
  for (auto& v : y) v = rng.uniform(-2, 2);
  const double dotRef = dot(std::span<const double>(x), std::span<const double>(y));
  const double n2Ref = norm2(std::span<const double>(x));
  comm::World::run(p, [&](comm::Comm& c) {
    const BlockRowPartition part(n, p);
    const int s = part.startRow(c.rank());
    const int m = part.localRows(c.rank());
    std::span<const double> xLoc(x.data() + s, static_cast<std::size_t>(m));
    std::span<const double> yLoc(y.data() + s, static_cast<std::size_t>(m));
    EXPECT_NEAR(distDot(c, xLoc, yLoc), dotRef, 1e-12);
    EXPECT_NEAR(distNorm2(c, xLoc), n2Ref, 1e-12);
    double infRef = 0.0;
    for (double v : x) infRef = std::max(infRef, std::abs(v));
    EXPECT_DOUBLE_EQ(distNormInf(c, xLoc), infRef);
  });
}

TEST(Dist, RejectsInconsistentTiling) {
  EXPECT_THROW(
      comm::World::run(2,
                       [](comm::Comm& c) {
                         CsrMatrix local;
                         local.rows = 3;  // 3+3 != 5 => must throw
                         local.cols = 5;
                         local.rowPtr = {0, 0, 0, 0};
                         DistCsrMatrix bad(c, 5, 5, c.rank() == 0 ? 0 : 3,
                                           local);
                       }),
      Error);
}

TEST(Dist, GhostCountIsZeroForBlockDiagonal) {
  comm::World::run(2, [](comm::Comm& c) {
    // Each rank's rows touch only its own columns -> no halo traffic.
    const int nloc = 4;
    CsrMatrix local;
    local.rows = nloc;
    local.cols = 8;
    local.rowPtr.resize(nloc + 1);
    const int base = c.rank() * nloc;
    for (int i = 0; i < nloc; ++i) {
      local.rowPtr[static_cast<std::size_t>(i)] = i;
      local.colIdx.push_back(base + i);
      local.values.push_back(1.0);
    }
    local.rowPtr[nloc] = nloc;
    DistCsrMatrix dist(c, 8, 8, base, local);
    EXPECT_EQ(dist.numGhosts(), 0);
    std::vector<double> x(nloc, 2.0), y(nloc);
    dist.spmv(std::span<const double>(x), std::span<double>(y));
    for (double v : y) EXPECT_DOUBLE_EQ(v, 2.0);
  });
}

TEST_P(DistP, InteriorBoundarySplitCoversAllRows) {
  const int p = GetParam();
  mesh::Pde5ptSpec spec;
  spec.gridN = 10;
  comm::World::run(p, [&](comm::Comm& c) {
    const auto local = mesh::assembleLocal(spec, c.rank(), c.size());
    const DistCsrMatrix dist(c, local.globalN, local.globalN, local.startRow,
                             local.localA);
    EXPECT_EQ(dist.numInteriorRows() + dist.numBoundaryRows(),
              dist.localRows());
    // A row is boundary iff it touches a ghost column, so boundary rows and
    // ghosts appear together.
    EXPECT_EQ(dist.numBoundaryRows() > 0, dist.numGhosts() > 0);
    if (p == 1) {
      EXPECT_EQ(dist.numBoundaryRows(), 0);
    }
  });
}

TEST_P(DistP, RepeatedSpmvIsBitwiseDeterministic) {
  const int p = GetParam();
  const int n = 83;
  Rng rng(700);
  const CsrMatrix global = randomDiagDominant(n, 6, 1.0, rng);
  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const int m = dist.localRows();
    std::vector<double> x(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      x[static_cast<std::size_t>(i)] = 0.25 * (dist.startRow() + i) - 3.0;
    }
    std::vector<double> y0(static_cast<std::size_t>(m));
    dist.spmv(std::span<const double>(x), std::span<double>(y0));
    // Back-to-back rounds rotate through distinct reserved tags; the values
    // must nevertheless be bitwise identical every round.
    for (int round = 0; round < 5; ++round) {
      std::vector<double> y(static_cast<std::size_t>(m), -1.0);
      dist.spmv(std::span<const double>(x), std::span<double>(y));
      for (int i = 0; i < m; ++i) {
        EXPECT_EQ(y[static_cast<std::size_t>(i)],
                  y0[static_cast<std::size_t>(i)]);
      }
    }
  });
}

TEST(Dist, SpmvIsAllocationFreeSingleRank) {
  comm::World::run(1, [](comm::Comm& c) {
    const int n = 256;
    const CsrMatrix a = laplacian1d(n);
    const DistCsrMatrix dist(c, n, n, 0, a);
    std::vector<double> x(static_cast<std::size_t>(n), 1.0);
    std::vector<double> y(static_cast<std::size_t>(n));
    dist.spmv(std::span<const double>(x), std::span<double>(y));  // warm
    g_allocCalls.store(0);
    g_allocBytes.store(0);
    g_countAllocs.store(true);
    for (int it = 0; it < 32; ++it) {
      dist.spmv(std::span<const double>(x), std::span<double>(y));
    }
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCalls.load(), 0u);
    EXPECT_EQ(g_allocBytes.load(), 0u);
  });
}

TEST(Dist, SpmvAllocatesOnlyTransportEnvelopesMultiRank) {
  // With two ranks the 1-D Laplacian couples the blocks through a single
  // entry each way, so per-call message payloads are a few bytes while the
  // plan scratch (xExt, pack buffer) is ~n doubles.  If spmv re-allocated
  // its scratch per call, the counted bytes would be megabytes.
  const int n = 20000;
  const int reps = 16;
  const CsrMatrix global = laplacian1d(n);
  comm::World::run(2, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const int m = dist.localRows();
    std::vector<double> x(static_cast<std::size_t>(m), 1.0);
    std::vector<double> y(static_cast<std::size_t>(m));
    for (int it = 0; it < 4; ++it) {  // warm the transport
      dist.spmv(std::span<const double>(x), std::span<double>(y));
    }
    c.barrier();
    if (c.rank() == 0) {
      g_allocCalls.store(0);
      g_allocBytes.store(0);
      g_countAllocs.store(true);
    }
    c.barrier();
    for (int it = 0; it < reps; ++it) {
      dist.spmv(std::span<const double>(x), std::span<double>(y));
    }
    c.barrier();
    if (c.rank() == 0) {
      g_countAllocs.store(false);
      // Both ranks' transport traffic over all reps: far below one xExt.
      EXPECT_LT(g_allocBytes.load(), static_cast<std::size_t>(n));
    }
    c.barrier();
  });
}

TEST_P(DistP, SplitPhaseDotsBitwiseMatchBlocking) {
  const int p = GetParam();
  const int n = 63;
  std::vector<double> x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n));
  Rng rng(601);
  for (auto& v : x) v = rng.uniform(-2, 2);
  for (auto& v : y) v = rng.uniform(-2, 2);
  for (auto& v : z) v = rng.uniform(-2, 2);
  constexpr int kMaxLanes = 19;  // 8+8+2+1: every sweep width of the kernel
  std::vector<std::vector<double>> pool(kMaxLanes,
                                        std::vector<double>(x.size()));
  for (auto& vec : pool) {
    for (auto& v : vec) v = rng.uniform(-2, 2);
  }
  std::vector<double> h(kMaxLanes);
  for (auto& v : h) v = rng.uniform(-1, 1);
  comm::World::run(p, [&](comm::Comm& c) {
    const BlockRowPartition part(n, p);
    const int s = part.startRow(c.rank());
    const int m = part.localRows(c.rank());
    std::span<const double> xL(x.data() + s, static_cast<std::size_t>(m));
    std::span<const double> yL(y.data() + s, static_cast<std::size_t>(m));
    std::span<const double> zL(z.data() + s, static_cast<std::size_t>(m));
    std::vector<std::span<const double>> poolL;
    for (const auto& vec : pool) {
      poolL.emplace_back(vec.data() + s, static_cast<std::size_t>(m));
    }
    // Single lane: identical bits to the blocking distDot.
    const double blockingDot = distDot(c, xL, yL);
    PendingDots p1 = distDotBegin(c, xL, yL);
    EXPECT_EQ(distDotEnd(p1), blockingDot);
    // Fused two-lane: identical bits to the blocking distDot2.
    const std::array<double, 2> blocking2 = distDot2(c, xL, yL, yL, zL);
    PendingDots p2 = distDot2Begin(c, xL, yL, yL, zL);
    const std::array<double, 2> split2 = distDot2End(p2);
    EXPECT_EQ(split2[0], blocking2[0]);
    EXPECT_EQ(split2[1], blocking2[1]);
    // General batch (three lanes, as pipelined CG uses).
    const std::array<DotArgs, 3> lanes{DotArgs{xL, xL}, DotArgs{xL, zL},
                                       DotArgs{yL, zL}};
    PendingDots p3 = distDotsBegin(c, std::span<const DotArgs>(lanes));
    while (!p3.test()) {
    }
    const auto r3 = distDotsEnd(p3);
    ASSERT_EQ(r3.size(), 3u);
    EXPECT_EQ(r3[0], distDot(c, xL, xL));
    EXPECT_EQ(r3[1], distDot(c, xL, zL));
    EXPECT_EQ(r3[2], distDot(c, yL, zL));
    // Grouped local sums, 1..19 lanes: lanes that all share x (Gram-Schmidt
    // projections) and lanes whose x changes every few lanes.  Each lane
    // must still be bitwise its own distDot.
    for (int lanesN = 1; lanesN <= kMaxLanes; ++lanesN) {
      for (const bool shared : {true, false}) {
        std::vector<DotArgs> batch;
        for (int l = 0; l < lanesN; ++l) {
          const std::span<const double> xl =
              shared || l % 3 == 0 ? xL : poolL[static_cast<std::size_t>(
                                              (l + 7) % kMaxLanes)];
          batch.push_back({xl, poolL[static_cast<std::size_t>(l)]});
        }
        PendingDots pb = distDotsBegin(c, batch);
        const auto rb = distDotsEnd(pb);
        ASSERT_EQ(rb.size(), batch.size());
        for (std::size_t l = 0; l < batch.size(); ++l) {
          EXPECT_EQ(rb[l], distDot(c, batch[l].x, batch[l].y))
              << lanesN << " lanes, shared x " << shared << ", lane " << l;
        }
      }
    }
    // The fused subtraction w -= sum_i h_i v_i equals sequential axpys.
    std::vector<const double*> basis;
    for (const auto& v : poolL) basis.push_back(v.data());
    for (std::size_t k = 1; k <= basis.size(); ++k) {
      std::vector<double> fused(xL.begin(), xL.end());
      std::vector<double> seq(xL.begin(), xL.end());
      subtractCombination(std::span<double>(fused),
                          std::span<const double* const>(basis).first(k),
                          std::span<const double>(h).first(k));
      for (std::size_t i = 0; i < k; ++i) {
        axpy(-h[i], poolL[i], std::span<double>(seq));
      }
      for (std::size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(fused[i], seq[i]) << k << " vectors, entry " << i;
      }
    }
  });
}

TEST_P(DistP, SplitPhaseDotOverlapsSpmv) {
  // The intended hot-path usage: begin a dot, run an spmv (whose halo
  // exchange shares the wires), then collect — results must be unaffected.
  const int p = GetParam();
  const int n = 48;
  Rng rngA(603);
  const CsrMatrix a = randomDiagDominant(n, 6, 1.0, rngA);
  std::vector<double> x(static_cast<std::size_t>(n));
  Rng rng(602);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> yRef(static_cast<std::size_t>(n));
  spmv(a, std::span<const double>(x), std::span<double>(yRef));
  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, a);
    const BlockRowPartition part(n, p);
    const int s = part.startRow(c.rank());
    const int m = part.localRows(c.rank());
    std::span<const double> xL(x.data() + s, static_cast<std::size_t>(m));
    const double dotRef = distDot(c, xL, xL);
    PendingDots pend = distDotBegin(c, xL, xL);
    std::vector<double> yL(static_cast<std::size_t>(m));
    dist.spmv(xL, std::span<double>(yL));
    (void)pend.test();
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(yL[static_cast<std::size_t>(i)],
                  yRef[static_cast<std::size_t>(s + i)], 1e-10);
    }
    EXPECT_EQ(distDotEnd(pend), dotRef);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistP,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

// ---- Arnoldi step (delayed normalization) -------------------------------

/// Global inputs of one Arnoldi lane: the unnormalized start vector and the
/// w fed to each step (random, so the test checks the step, not a solver).
struct ArnoldiInputs {
  std::vector<double> v0;
  std::vector<std::vector<double>> w;
  ArnoldiInputs(int n, int steps, std::uint64_t seed) {
    Rng rng(seed);
    v0.resize(static_cast<std::size_t>(n));
    for (auto& e : v0) e = rng.uniform(-2, 2);
    w.assign(static_cast<std::size_t>(steps),
             std::vector<double>(static_cast<std::size_t>(n)));
    for (auto& vec : w) {
      for (auto& e : vec) e = rng.uniform(-2, 2);
    }
  }
};

/// One rank's state of a lane: local basis slots, Hessenberg columns and
/// the norms the steps measured.
struct ArnoldiState {
  const ArnoldiInputs* in;
  std::size_t s;  // first owned global row
  std::size_t m;  // owned rows
  std::vector<std::vector<double>> v;
  std::vector<double*> vp;
  std::vector<std::vector<double>> h;
  std::vector<double> nu;
  std::size_t j = 0;  // next step

  ArnoldiState(const ArnoldiInputs& inputs, int start, int rows)
      : in(&inputs),
        s(static_cast<std::size_t>(start)),
        m(static_cast<std::size_t>(rows)),
        v(inputs.w.size() + 1, std::vector<double>(m)),
        h(inputs.w.size()) {
    std::copy_n(inputs.v0.begin() + static_cast<std::ptrdiff_t>(s), m,
                v[0].begin());
    for (auto& vec : v) vp.push_back(vec.data());
    for (std::size_t k = 0; k < h.size(); ++k) h[k].resize(k + 1);
  }
  /// The lane of step j (w sliced from the inputs).
  [[nodiscard]] ArnoldiLane stepLane() {
    ArnoldiLane ln;
    ln.n = m;
    ln.w = std::span<const double>(in->w[j].data() + s, m);
    ln.basis = std::span<double* const>(vp).first(j + 2);
    ln.h = h[j];
    return ln;
  }
  void finish(const ArnoldiLane& ln) {
    nu.push_back(ln.nu);
    arnoldiExpand(ln);
    ++j;
  }
};

/// Serial reference of `steps` delayed-normalization Arnoldi steps on the
/// global inputs: returns the normalized basis v_0..v_{steps-1}, the
/// columns and the norms.
struct ArnoldiReference {
  std::vector<std::vector<double>> v;
  std::vector<std::vector<double>> h;
  std::vector<double> nu;
  explicit ArnoldiReference(const ArnoldiInputs& in) {
    std::vector<double> next = in.v0;
    for (const auto& w : in.w) {
      const double nrm = norm2(std::span<const double>(next));
      nu.push_back(nrm);
      v.push_back(next);
      for (auto& e : v.back()) e /= nrm;
      std::vector<double> col;
      for (const auto& vi : v) {
        col.push_back(dot(std::span<const double>(w),
                          std::span<const double>(vi)) /
                      nrm);
      }
      next = w;
      for (auto& e : next) e /= nrm;
      for (std::size_t i = 0; i < v.size(); ++i) {
        axpy(-col[i], std::span<const double>(v[i]),
             std::span<double>(next));
      }
      h.push_back(col);
    }
  }
};

class ArnoldiStepP : public ::testing::TestWithParam<int> {};

TEST_P(ArnoldiStepP, MatchesSerialReferenceAndIsBitwiseStable) {
  const int p = GetParam();
  constexpr int kN = 61;
  constexpr int kSteps = 12;  // 12 basis vectors: head widths 8 and 2
  const ArnoldiInputs inA(kN, kSteps, 901);
  const ArnoldiInputs inB(kN, kSteps + 3, 902);
  const ArnoldiInputs inC(kN, 1, 903);
  const ArnoldiReference ref(inA);

  // Lane A run alone (twice) and batched with B (three steps ahead, so a
  // different basis size) and a closing lane C.  Each rank writes its rows
  // of A's final basis into the shared result.
  struct Result {
    std::vector<double> basis;  // (kSteps+1) x kN, row-major
    std::vector<std::vector<double>> h;
    std::vector<double> nu;
  };
  const auto run = [&](bool batched) {
    Result res;
    res.basis.assign(static_cast<std::size_t>((kSteps + 1) * kN), 0.0);
    comm::World::run(p, [&](comm::Comm& c) {
      const BlockRowPartition part(kN, p);
      const int s = part.startRow(c.rank());
      const int m = part.localRows(c.rank());
      ArnoldiWorkspace ws(3, kSteps + 4);
      ArnoldiState a(inA, s, m);
      ArnoldiState b(inB, s, m);
      ArnoldiState cl(inC, s, m);
      for (int k = 0; k < 3; ++k) {
        ArnoldiLane ln = b.stepLane();
        arnoldiProject(c, std::span<ArnoldiLane>(&ln, 1), ws);
        b.finish(ln);
      }
      const std::span<const double> cv(cl.v[0].data(), cl.m);
      const double cNorm = distNorm2(c, cv);
      for (int k = 0; k < kSteps; ++k) {
        if (batched) {
          ArnoldiLane close;
          close.n = cl.m;
          close.basis = std::span<double* const>(cl.vp).first(1);
          std::array<ArnoldiLane, 3> lanes{b.stepLane(), close, a.stepLane()};
          arnoldiProject(c, std::span<ArnoldiLane>(lanes), ws);
          EXPECT_EQ(lanes[1].nu, cNorm);  // a close is bitwise distNorm2
          b.finish(lanes[0]);
          a.finish(lanes[2]);
        } else {
          ArnoldiLane ln = a.stepLane();
          arnoldiProject(c, std::span<ArnoldiLane>(&ln, 1), ws);
          a.finish(ln);
        }
      }
      for (std::size_t i = 0; i <= kSteps; ++i) {
        std::copy(a.v[i].begin(), a.v[i].end(),
                  res.basis.begin() +
                      static_cast<std::ptrdiff_t>(i * kN + a.s));
      }
      if (c.rank() == 0) {
        res.h = a.h;
        res.nu = a.nu;
      }
    });
    return res;
  };
  const Result alone = run(false);
  const Result again = run(false);
  const Result batched = run(true);
  EXPECT_EQ(again.basis, alone.basis);
  EXPECT_EQ(again.h, alone.h);
  EXPECT_EQ(again.nu, alone.nu);
  EXPECT_EQ(batched.basis, alone.basis);
  EXPECT_EQ(batched.h, alone.h);
  EXPECT_EQ(batched.nu, alone.nu);

  // Against the serial reference: same quantities up to summation order.
  for (std::size_t j = 0; j < static_cast<std::size_t>(kSteps); ++j) {
    EXPECT_NEAR(alone.nu[j], ref.nu[j], 1e-12 * ref.nu[j]) << "step " << j;
    for (std::size_t i = 0; i <= j; ++i) {
      EXPECT_NEAR(alone.h[j][i], ref.h[j][i], 1e-12) << "h " << i << "," << j;
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(kN); ++r) {
      EXPECT_NEAR(alone.basis[j * kN + r], ref.v[j][r], 1e-12)
          << "v_" << j << " row " << r;
    }
  }
  // v_0..v_{kSteps-1} are orthonormal.
  for (std::size_t i = 0; i < static_cast<std::size_t>(kSteps); ++i) {
    for (std::size_t k = 0; k <= i; ++k) {
      double d = 0.0;
      for (std::size_t r = 0; r < static_cast<std::size_t>(kN); ++r) {
        d += alone.basis[i * kN + r] * alone.basis[k * kN + r];
      }
      EXPECT_NEAR(d, i == k ? 1.0 : 0.0, 1e-12) << i << "," << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ArnoldiStepP, ::testing::Values(1, 2, 4));

TEST(Dist, ArnoldiStepAllocatesNothingBeyondItsCollective) {
  // The step's own work is allocation-free (workspace-owned scratch).  Its
  // one allreduce is measured alongside with the same sizes, so the
  // comparison also holds in builds whose collectives allocate (the
  // LISI_COMM_CHECK bookkeeping); in the default build both are zero.
  comm::World::run(1, [](comm::Comm& c) {
    constexpr int kN = 200;
    constexpr int kSteps = 10;
    const ArnoldiInputs in(kN, kSteps, 904);
    ArnoldiState st(in, 0, kN);
    ArnoldiWorkspace ws(1, kSteps + 1);
    ArnoldiLane ln = st.stepLane();
    arnoldiProject(c, std::span<ArnoldiLane>(&ln, 1), ws);  // warm
    st.finish(ln);
    std::vector<double> local(kSteps + 1), global(kSteps + 1);
    g_allocCalls.store(0);
    g_countAllocs.store(true);
    for (std::size_t j = 1; j < kSteps; ++j) {  // step j reduces j+2 values
      c.allreduce(std::span<const double>(local).first(j + 2),
                  std::span<double>(global).first(j + 2),
                  comm::ReduceOp::kSum);
    }
    g_countAllocs.store(false);
    const std::size_t collective = g_allocCalls.load();
    g_allocCalls.store(0);
    g_countAllocs.store(true);
    for (int k = 1; k < kSteps; ++k) {
      ln = st.stepLane();
      arnoldiProject(c, std::span<ArnoldiLane>(&ln, 1), ws);
      arnoldiExpand(ln);
      ++st.j;
    }
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCalls.load(), collective);
  });
}

}  // namespace
}  // namespace lisi::sparse
