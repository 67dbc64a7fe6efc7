// PKSP package tests: API contract (handles, error codes, call order),
// convergence of every method/preconditioner combination, parallel/serial
// agreement, matrix-free shell operators, and options-string parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <new>

#include "comm/check.hpp"
#include "comm/comm.hpp"
#include "mesh/pde5pt.hpp"
#include "obs/obs.hpp"
#include "pksp/pksp.hpp"
#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

// ---- global allocation counter ----------------------------------------
// Replaces the global allocation functions for this test binary so the
// allocation-free contract of the blocked Krylov loops can be asserted
// directly.  Counting is off by default; tests toggle it around the
// measured region.
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::size_t> g_allocCalls{0};

void* countedAlloc(std::size_t n) {
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
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

namespace pksp {
namespace {

using lisi::Rng;
using lisi::comm::Comm;
using lisi::comm::World;
using lisi::sparse::CsrMatrix;
using lisi::sparse::DistCsrMatrix;

/// Run a serial (1-rank) solve of `global` with the given config; returns
/// the relative true-residual and solution.
struct SerialResult {
  double relResidual;
  int iterations;
  PkspConvergedReason reason;
  std::vector<double> x;
};

SerialResult solveSerial(const CsrMatrix& global, const std::vector<double>& b,
                         PkspType type, PkspPcType pc, double rtol = 1e-10,
                         int maxits = 2000) {
  SerialResult result{};
  World::run(1, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, global);
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetOperator(ksp, &a), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetType(ksp, type), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetPCType(ksp, pc), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetTolerances(ksp, rtol, 1e-14, maxits), PKSP_SUCCESS);
    std::vector<double> x(b.size());
    (void)KSPSolve(ksp, std::span<const double>(b), std::span<double>(x));
    double rnorm = 0;
    KSPGetResidualNorm(ksp, &rnorm);
    KSPGetIterationNumber(ksp, &result.iterations);
    KSPGetConvergedReason(ksp, &result.reason);
    result.relResidual =
        rnorm / lisi::sparse::norm2(std::span<const double>(b));
    result.x = x;
    KSPDestroy(&ksp);
    EXPECT_EQ(ksp, nullptr);
  });
  return result;
}

TEST(PkspApi, NullHandleRejected) {
  EXPECT_EQ(KSPSetType(nullptr, PKSP_CG), PKSP_ERR_ARG);
  EXPECT_EQ(KSPSetPCType(nullptr, PKSP_PC_NONE), PKSP_ERR_ARG);
  EXPECT_EQ(KSPSetTolerances(nullptr, 1e-6, 1e-12, 10), PKSP_ERR_ARG);
  int it = 0;
  EXPECT_EQ(KSPGetIterationNumber(nullptr, &it), PKSP_ERR_ARG);
}

TEST(PkspApi, SolveBeforeOperatorIsOrderError) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    std::vector<double> b(4, 1.0), x(4);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_ERR_ORDER);
    KSPDestroy(&ksp);
  });
}

TEST(PkspApi, SizeMismatchRejected) {
  World::run(1, [](Comm& c) {
    const CsrMatrix g = lisi::sparse::laplacian1d(6);
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    std::vector<double> b(5, 1.0), x(6);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

TEST(PkspApi, RectangularOperatorRejected) {
  World::run(1, [](Comm& c) {
    Rng rng(1);
    const CsrMatrix g = lisi::sparse::randomCsr(4, 6, 2, rng);
    CsrMatrix local = g;
    DistCsrMatrix a(c, 4, 6, 0, local);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetOperator(ksp, &a), PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

TEST(PkspApi, DestroyNullsAndToleratesNull) {
  KSP ksp = nullptr;
  EXPECT_EQ(KSPDestroy(&ksp), PKSP_SUCCESS);
  EXPECT_EQ(KSPDestroy(nullptr), PKSP_ERR_ARG);
}

TEST(PkspApi, InvalidSettingsRejected) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetRestart(ksp, 0), PKSP_ERR_ARG);
    EXPECT_EQ(KSPSetSorOptions(ksp, 2.5, 1), PKSP_ERR_ARG);
    EXPECT_EQ(KSPSetSorOptions(ksp, 1.0, 0), PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

TEST(PkspOptions, StringParsingConfigures) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetFromString(ksp,
                               "-ksp_type bicgstab -pc_type jacobi "
                               "-ksp_rtol 1e-9 -ksp_max_it 123"),
              PKSP_SUCCESS);
    std::string desc;
    KSPGetDescription(ksp, &desc);
    EXPECT_NE(desc.find("bicgstab"), std::string::npos);
    EXPECT_NE(desc.find("jacobi"), std::string::npos);
    EXPECT_NE(desc.find("1e-09"), std::string::npos);
    EXPECT_NE(desc.find("123"), std::string::npos);
    KSPDestroy(&ksp);
  });
}

TEST(PkspOptions, UnknownKeyReported) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_bogus_flag on"),
              PKSP_ERR_UNSUPPORTED);
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_rtol notanumber"), PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

// ---- convergence matrix: method x preconditioner ----------------------

struct Combo {
  PkspType type;
  PkspPcType pc;
};

class PkspConvergence : public ::testing::TestWithParam<Combo> {};

TEST_P(PkspConvergence, SpdSystemSolves) {
  const Combo combo = GetParam();
  const CsrMatrix g = lisi::sparse::laplacian2d(12, 12);
  std::vector<double> xTrue(static_cast<std::size_t>(g.rows));
  Rng rng(42);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> b(xTrue.size());
  lisi::sparse::spmv(g, std::span<const double>(xTrue), std::span<double>(b));
  const auto res = solveSerial(g, b, combo.type, combo.pc, 1e-10, 5000);
  EXPECT_GT(res.reason, 0) << "reason=" << res.reason;
  EXPECT_LT(res.relResidual, 1e-8);
  // Solution itself must be accurate (Laplacian is well conditioned here).
  for (std::size_t i = 0; i < xTrue.size(); ++i) {
    EXPECT_NEAR(res.x[i], xTrue[i], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndPcs, PkspConvergence,
    ::testing::Values(Combo{PKSP_CG, PKSP_PC_NONE},
                      Combo{PKSP_CG, PKSP_PC_JACOBI},
                      Combo{PKSP_CG, PKSP_PC_ILU0},
                      Combo{PKSP_GMRES, PKSP_PC_NONE},
                      Combo{PKSP_GMRES, PKSP_PC_JACOBI},
                      Combo{PKSP_GMRES, PKSP_PC_SOR},
                      Combo{PKSP_GMRES, PKSP_PC_ILU0},
                      Combo{PKSP_GMRES, PKSP_PC_BJACOBI},
                      Combo{PKSP_BICGSTAB, PKSP_PC_NONE},
                      Combo{PKSP_BICGSTAB, PKSP_PC_JACOBI},
                      Combo{PKSP_BICGSTAB, PKSP_PC_ILU0},
                      Combo{PKSP_RICHARDSON, PKSP_PC_ILU0},
                      Combo{PKSP_RICHARDSON, PKSP_PC_SOR}));

TEST(PkspNonsymmetric, GmresSolvesConvectionDiffusion) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 16;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  const auto res =
      solveSerial(sys.localA, sys.localB, PKSP_GMRES, PKSP_PC_ILU0, 1e-10);
  EXPECT_GT(res.reason, 0);
  EXPECT_LT(res.relResidual, 1e-8);
}

TEST(PkspNonsymmetric, BicgstabSolvesConvectionDiffusion) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 16;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  const auto res =
      solveSerial(sys.localA, sys.localB, PKSP_BICGSTAB, PKSP_PC_ILU0, 1e-10);
  EXPECT_GT(res.reason, 0);
  EXPECT_LT(res.relResidual, 1e-8);
}

TEST(PkspDiagnostics, MaxItsReportedAsDivergence) {
  const CsrMatrix g = lisi::sparse::laplacian2d(20, 20);
  std::vector<double> b(static_cast<std::size_t>(g.rows), 1.0);
  const auto res = solveSerial(g, b, PKSP_CG, PKSP_PC_NONE, 1e-14, 3);
  EXPECT_EQ(res.reason, PKSP_DIVERGED_ITS);
  EXPECT_EQ(res.iterations, 3);
}

TEST(PkspDiagnostics, ZeroRhsConvergesImmediately) {
  const CsrMatrix g = lisi::sparse::laplacian1d(30);
  std::vector<double> b(30, 0.0);
  const auto res = solveSerial(g, b, PKSP_GMRES, PKSP_PC_NONE);
  EXPECT_GT(res.reason, 0);
  EXPECT_EQ(res.iterations, 0);
  for (double v : res.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PkspDiagnostics, InitialGuessNonzeroIsUsed) {
  World::run(1, [](Comm& c) {
    const CsrMatrix g = lisi::sparse::laplacian1d(40);
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    std::vector<double> xTrue(40, 1.0);
    std::vector<double> b(40);
    lisi::sparse::spmv(g, std::span<const double>(xTrue), std::span<double>(b));
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_CG);
    KSPSetInitialGuessNonzero(ksp, true);
    // Exact solution as initial guess: must converge in zero iterations.
    std::vector<double> x = xTrue;
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_SUCCESS);
    int its = -1;
    KSPGetIterationNumber(ksp, &its);
    EXPECT_EQ(its, 0);
    KSPDestroy(&ksp);
  });
}

TEST(PkspPc, ShellOperatorWithMatrixPcUnsupported) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    auto matvec = [](void*, const double* x, double* y, int n) {
      for (int i = 0; i < n; ++i) y[i] = 2.0 * x[i];
    };
    KSPSetOperatorShell(ksp, matvec, nullptr, 8);
    KSPSetPCType(ksp, PKSP_PC_ILU0);
    std::vector<double> b(8, 2.0), x(8);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_ERR_UNSUPPORTED);
    KSPDestroy(&ksp);
  });
}

TEST(PkspShell, MatrixFreeDiagonalSolve) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    auto matvec = [](void*, const double* x, double* y, int n) {
      for (int i = 0; i < n; ++i) y[i] = (4.0 + i % 3) * x[i];
    };
    KSPSetOperatorShell(ksp, matvec, nullptr, 10);
    KSPSetType(ksp, PKSP_CG);
    std::vector<double> b(10, 1.0), x(10);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_SUCCESS);
    for (int i = 0; i < 10; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0 / (4.0 + i % 3), 1e-8);
    }
    KSPDestroy(&ksp);
  });
}

TEST(PkspShell, MatrixFreeMatchesAssembledOperator) {
  // Shell wrapping a DistCsrMatrix must reproduce the assembled solve.
  for (int p : {1, 2, 4}) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = 10;
    const auto serial = lisi::mesh::assembleGlobal(spec);
    const auto ref = solveSerial(serial.localA, serial.localB, PKSP_GMRES,
                                 PKSP_PC_NONE, 1e-10);
    ASSERT_GT(ref.reason, 0);
    World::run(p, [&](Comm& c) {
      const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
      DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                      local.localA);
      auto matvec = [](void* ctx, const double* x, double* y, int n) {
        const auto* mat = static_cast<const DistCsrMatrix*>(ctx);
        mat->spmv(std::span<const double>(x, static_cast<std::size_t>(n)),
                  std::span<double>(y, static_cast<std::size_t>(n)));
      };
      KSP ksp = nullptr;
      KSPCreate(c, &ksp);
      KSPSetOperatorShell(ksp, matvec, &a, a.localRows());
      KSPSetType(ksp, PKSP_GMRES);
      KSPSetTolerances(ksp, 1e-10, 1e-14, 2000);
      std::vector<double> x(static_cast<std::size_t>(a.localRows()));
      std::span<const double> bLoc(local.localB);
      EXPECT_EQ(KSPSolve(ksp, bLoc, std::span<double>(x)), PKSP_SUCCESS);
      for (int i = 0; i < a.localRows(); ++i) {
        EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                    ref.x[static_cast<std::size_t>(a.startRow() + i)], 1e-6);
      }
      KSPDestroy(&ksp);
    });
  }
}

class PkspParallel : public ::testing::TestWithParam<int> {};

TEST_P(PkspParallel, ParallelSolutionMatchesSerial) {
  const int p = GetParam();
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  const auto serial = lisi::mesh::assembleGlobal(spec);
  const auto ref = solveSerial(serial.localA, serial.localB, PKSP_BICGSTAB,
                               PKSP_PC_JACOBI, 1e-12);
  ASSERT_GT(ref.reason, 0);

  World::run(p, [&](Comm& c) {
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_BICGSTAB);
    KSPSetPCType(ksp, PKSP_PC_JACOBI);
    KSPSetTolerances(ksp, 1e-12, 1e-14, 5000);
    std::vector<double> x(static_cast<std::size_t>(a.localRows()));
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    for (int i = 0; i < a.localRows(); ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  ref.x[static_cast<std::size_t>(a.startRow() + i)], 1e-6);
    }
    KSPDestroy(&ksp);
  });
}

TEST_P(PkspParallel, IluBlockJacobiConvergesInParallel) {
  const int p = GetParam();
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  World::run(p, [&](Comm& c) {
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_GMRES);
    KSPSetPCType(ksp, PKSP_PC_ILU0);
    KSPSetTolerances(ksp, 1e-10, 1e-14, 2000);
    std::vector<double> x(static_cast<std::size_t>(a.localRows()));
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    double rnorm = 0;
    KSPGetResidualNorm(ksp, &rnorm);
    const double bnorm =
        lisi::sparse::distNorm2(c, std::span<const double>(local.localB));
    EXPECT_LT(rnorm / bnorm, 1e-8);
    KSPDestroy(&ksp);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, PkspParallel, ::testing::Values(1, 2, 3, 4, 8));

// ---- pipelined (communication-hiding) Krylov variants ------------------

/// Solve a globally replicated system on `p` ranks with the given
/// method/pipeline mode; gathers the full solution for comparison.
struct PipelineRun {
  std::vector<double> x;          // full solution (assembled from all ranks)
  std::vector<int> historyLen;    // per-rank residual-history length
  std::vector<PkspConvergedReason> reason;
};

PipelineRun solveDist(const CsrMatrix& global, const std::vector<double>& b,
                      int p, PkspType type, PkspPipelineMode mode,
                      PkspPcType pc, double rtol) {
  PipelineRun run;
  run.x.assign(static_cast<std::size_t>(global.rows), 0.0);
  run.historyLen.assign(static_cast<std::size_t>(p), 0);
  run.reason.assign(static_cast<std::size_t>(p), PKSP_ITERATING);
  std::mutex mu;
  World::run(p, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, global);
    const std::size_t n = static_cast<std::size_t>(a.localRows());
    const std::size_t start = static_cast<std::size_t>(a.startRow());
    std::vector<double> bLocal(b.begin() + static_cast<std::ptrdiff_t>(start),
                               b.begin() +
                                   static_cast<std::ptrdiff_t>(start + n));
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, type);
    KSPSetPCType(ksp, pc);
    KSPSetTolerances(ksp, rtol, 1e-14, 5000);
    ASSERT_EQ(KSPSetPipeline(ksp, mode), PKSP_SUCCESS);
    std::vector<double> x(n);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(bLocal),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    const double* hist = nullptr;
    int histLen = 0;
    KSPGetResidualHistory(ksp, &hist, &histLen);
    PkspConvergedReason reason = PKSP_ITERATING;
    KSPGetConvergedReason(ksp, &reason);
    {
      std::lock_guard<std::mutex> lock(mu);
      for (std::size_t i = 0; i < n; ++i) run.x[start + i] = x[i];
      run.historyLen[static_cast<std::size_t>(c.rank())] = histLen;
      run.reason[static_cast<std::size_t>(c.rank())] = reason;
    }
    KSPDestroy(&ksp);
  });
  return run;
}

/// SPD 5-point Poisson system for the CG tests (the paper PDE's -3 u_x
/// convection term makes it nonsymmetric, so CG does not apply there).
CsrMatrix spdSystem(std::vector<double>& b) {
  const CsrMatrix g = lisi::sparse::laplacian2d(14, 14);
  std::vector<double> xTrue(static_cast<std::size_t>(g.rows));
  Rng rng(1234);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  b.assign(xTrue.size(), 0.0);
  lisi::sparse::spmv(g, std::span<const double>(xTrue), std::span<double>(b));
  return g;
}

/// Nonsymmetric convection-diffusion system (the paper's PDE) for BiCGStab.
CsrMatrix paperSystem(std::vector<double>& b) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  b = sys.localB;
  return sys.localA;
}

class PkspPipelined : public ::testing::TestWithParam<int> {};

TEST_P(PkspPipelined, CgMatchesClassicIterate) {
  const int p = GetParam();
  std::vector<double> b;
  const CsrMatrix g = spdSystem(b);
  const auto classic =
      solveDist(g, b, p, PKSP_CG, PKSP_PIPELINE_OFF, PKSP_PC_JACOBI, 1e-12);
  const auto piped =
      solveDist(g, b, p, PKSP_CG, PKSP_PIPELINE_ON, PKSP_PC_JACOBI, 1e-12);
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(classic.reason[static_cast<std::size_t>(r)], 0);
    EXPECT_GT(piped.reason[static_cast<std::size_t>(r)], 0);
    // Same convergence-history length up to one iteration of slack (the
    // pipelined monitor evaluates the norm one fused reduction earlier).
    EXPECT_NEAR(classic.historyLen[static_cast<std::size_t>(r)],
                piped.historyLen[static_cast<std::size_t>(r)], 1);
  }
  ASSERT_EQ(classic.x.size(), piped.x.size());
  for (std::size_t i = 0; i < classic.x.size(); ++i) {
    EXPECT_NEAR(classic.x[i], piped.x[i], 1e-10) << "entry " << i;
  }
}

TEST_P(PkspPipelined, BicgstabMatchesClassicIterate) {
  const int p = GetParam();
  std::vector<double> b;
  const CsrMatrix g = paperSystem(b);
  const auto classic = solveDist(g, b, p, PKSP_BICGSTAB, PKSP_PIPELINE_OFF,
                                 PKSP_PC_JACOBI, 1e-12);
  const auto piped = solveDist(g, b, p, PKSP_BICGSTAB, PKSP_PIPELINE_ON,
                               PKSP_PC_JACOBI, 1e-12);
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(classic.reason[static_cast<std::size_t>(r)], 0);
    EXPECT_GT(piped.reason[static_cast<std::size_t>(r)], 0);
  }
  ASSERT_EQ(classic.x.size(), piped.x.size());
  for (std::size_t i = 0; i < classic.x.size(); ++i) {
    EXPECT_NEAR(classic.x[i], piped.x[i], 1e-10) << "entry " << i;
  }
}

TEST_P(PkspPipelined, AutoModeConvergesWithIlu) {
  const int p = GetParam();
  std::vector<double> b;
  const CsrMatrix g = spdSystem(b);
  const auto piped =
      solveDist(g, b, p, PKSP_CG, PKSP_PIPELINE_AUTO, PKSP_PC_ILU0, 1e-10);
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(piped.reason[static_cast<std::size_t>(r)], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PkspPipelined, ::testing::Values(1, 3, 4, 8));

TEST(PkspPipeline, OptionsStringSelectsMode) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_type cg -ksp_pipeline auto"),
              PKSP_SUCCESS);
    std::string desc;
    KSPGetDescription(ksp, &desc);
    EXPECT_NE(desc.find("pipelined:auto"), std::string::npos) << desc;
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_pipeline on"), PKSP_SUCCESS);
    KSPGetDescription(ksp, &desc);
    EXPECT_NE(desc.find("[pipelined]"), std::string::npos) << desc;
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_pipeline off"), PKSP_SUCCESS);
    KSPGetDescription(ksp, &desc);
    EXPECT_EQ(desc.find("pipelined"), std::string::npos) << desc;
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_pipeline sideways"), PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

TEST(PkspPipeline, DescriptionOmitsMarkerForGmres) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    KSPSetType(ksp, PKSP_GMRES);
    KSPSetPipeline(ksp, PKSP_PIPELINE_ON);
    std::string desc;
    KSPGetDescription(ksp, &desc);
    EXPECT_EQ(desc.find("pipelined"), std::string::npos) << desc;
    KSPDestroy(&ksp);
  });
}

TEST(PkspReuse, MultipleSolvesReuseFactorization) {
  // Use case (c) of §5.2: same A, several right-hand sides.
  World::run(2, [](Comm& c) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = 10;
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_GMRES);
    KSPSetPCType(ksp, PKSP_PC_ILU0);
    KSPSetTolerances(ksp, 1e-10, 1e-14, 1000);
    for (int rhs = 0; rhs < 3; ++rhs) {
      std::vector<double> b(local.localB);
      for (auto& v : b) v *= (rhs + 1);
      std::vector<double> x(b.size());
      EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
                PKSP_SUCCESS);
      double rnorm = 0;
      KSPGetResidualNorm(ksp, &rnorm);
      const double bnorm = lisi::sparse::distNorm2(c, std::span<const double>(b));
      EXPECT_LT(rnorm / bnorm, 1e-8) << "rhs " << rhs;
    }
    KSPDestroy(&ksp);
  });
}

TEST(PkspMonitor, CallbackSeesMonotoneCgResiduals) {
  World::run(1, [](Comm& c) {
    const CsrMatrix g = lisi::sparse::laplacian2d(10, 10);
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_CG);
    KSPSetTolerances(ksp, 1e-10, 1e-14, 1000);
    std::vector<double> seen;
    auto monitor = [](void* ctx, int it, double rnorm) {
      auto* v = static_cast<std::vector<double>*>(ctx);
      EXPECT_EQ(static_cast<int>(v->size()), it);
      v->push_back(rnorm);
    };
    KSPSetMonitor(ksp, monitor, &seen);
    std::vector<double> b(static_cast<std::size_t>(g.rows), 1.0), x(b.size());
    ASSERT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_SUCCESS);
    int its = 0;
    KSPGetIterationNumber(ksp, &its);
    ASSERT_EQ(static_cast<int>(seen.size()), its + 1);  // includes iter 0
    EXPECT_LT(seen.back(), 1e-10 * seen.front() + 1e-14);
    KSPDestroy(&ksp);
  });
}

TEST(PkspMonitor, HistoryRecordedWithoutExplicitMonitor) {
  World::run(2, [](Comm& c) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = 8;
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_GMRES);
    KSPSetTolerances(ksp, 1e-8, 1e-14, 1000);
    std::vector<double> x(static_cast<std::size_t>(a.localRows()));
    ASSERT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    const double* history = nullptr;
    int count = 0;
    ASSERT_EQ(KSPGetResidualHistory(ksp, &history, &count), PKSP_SUCCESS);
    int its = 0;
    KSPGetIterationNumber(ksp, &its);
    ASSERT_EQ(count, its + 1);
    // GMRES's tracked residual is non-increasing.
    for (int i = 1; i < count; ++i) {
      EXPECT_LE(history[i], history[i - 1] * (1.0 + 1e-12));
    }
    // History resets on the next solve.
    ASSERT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    int count2 = 0;
    KSPGetResidualHistory(ksp, &history, &count2);
    EXPECT_EQ(count2, count);
    KSPDestroy(&ksp);
  });
}

TEST(PkspGmres, RestartAffectsButStillConverges) {
  const CsrMatrix g = lisi::sparse::laplacian2d(15, 15);
  std::vector<double> b(static_cast<std::size_t>(g.rows), 1.0);
  World::run(1, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    for (int restart : {5, 20, 100}) {
      KSP ksp = nullptr;
      KSPCreate(c, &ksp);
      KSPSetOperator(ksp, &a);
      KSPSetType(ksp, PKSP_GMRES);
      KSPSetRestart(ksp, restart);
      KSPSetTolerances(ksp, 1e-10, 1e-14, 5000);
      std::vector<double> x(b.size());
      EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
                PKSP_SUCCESS)
          << "restart " << restart;
      double rnorm = 0;
      KSPGetResidualNorm(ksp, &rnorm);
      EXPECT_LT(rnorm, 1e-7);
      KSPDestroy(&ksp);
    }
  });
}

// The CG kernel fuses <z,z> and <r,z> into one two-element allreduce.  The
// allreduce schedule is elementwise, so the fused lanes must be bitwise
// identical to separate dots: iterates, iteration count, and solution may
// not change at any rank count.  This reference runs the identical
// recurrence with the *unfused* collectives.
TEST(PkspCg, FusedDotMatchesUnfusedReferenceBitwise) {
  const int n = 64;
  const CsrMatrix g = lisi::sparse::laplacian1d(n);
  std::vector<double> bGlobal(static_cast<std::size_t>(n));
  Rng rng(42);
  for (auto& v : bGlobal) v = rng.uniform(-1, 1);
  const double rtol = 1e-10;
  const double atol = 1e-14;
  const int maxits = 2000;

  for (const int p : {1, 2, 3, 4}) {
    World::run(p, [&](Comm& c) {
      DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
      const int s = a.startRow();
      const auto m = static_cast<std::size_t>(a.localRows());
      const std::vector<double> b(bGlobal.begin() + s,
                                  bGlobal.begin() + s + a.localRows());

      // Unfused reference CG (no preconditioner: z == r).
      std::vector<double> xRef(m, 0.0), r(b), z(b), pd(m), ap(m);
      const double z0 = lisi::sparse::distNorm2(c, std::span<const double>(z));
      const double target = rtol * z0;
      std::copy(z.begin(), z.end(), pd.begin());
      double rz = lisi::sparse::distDot(c, std::span<const double>(r),
                                        std::span<const double>(z));
      int itRef = 0;
      for (int it = 1; it <= maxits; ++it) {
        a.spmv(std::span<const double>(pd), std::span<double>(ap));
        const double pap = lisi::sparse::distDot(
            c, std::span<const double>(pd), std::span<const double>(ap));
        const double alpha = rz / pap;
        for (std::size_t i = 0; i < m; ++i) {
          xRef[i] += alpha * pd[i];
          r[i] -= alpha * ap[i];
        }
        std::copy(r.begin(), r.end(), z.begin());
        const double znorm =
            lisi::sparse::distNorm2(c, std::span<const double>(z));
        itRef = it;
        if (znorm <= atol || znorm <= target) break;
        const double rzNew = lisi::sparse::distDot(
            c, std::span<const double>(r), std::span<const double>(z));
        const double beta = rzNew / rz;
        rz = rzNew;
        for (std::size_t i = 0; i < m; ++i) pd[i] = z[i] + beta * pd[i];
      }

      // Production path (fused dots).
      KSP ksp = nullptr;
      ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetOperator(ksp, &a), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetType(ksp, PKSP_CG), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetPCType(ksp, PKSP_PC_NONE), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetTolerances(ksp, rtol, atol, maxits), PKSP_SUCCESS);
      std::vector<double> x(m, 0.0);
      EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
                PKSP_SUCCESS);
      int its = 0;
      KSPGetIterationNumber(ksp, &its);
      KSPDestroy(&ksp);

      EXPECT_EQ(its, itRef) << "p=" << p;
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(x[i], xRef[i]) << "p=" << p << " entry " << s + i;
      }
    });
  }
}

// ---- blocked multi-RHS: per-lane bitwise identity ---------------------

/// Solve nRhs systems twice — once lane-by-lane through KSPSolve, once
/// through the blocked KSPSolveMulti — and require bitwise-equal lanes.
/// The blocked kernels share only communication (one block matvec per
/// iteration, fused dot batches), never values, so each lane must
/// reproduce its standalone solve exactly.  Every solve must return
/// `expectRc` (a maxits cap that stops the lanes mid-cycle fails them all).
void checkBlockedMatchesSequential(PkspType type, PkspPcType pc, int ranks,
                                   int maxits = 500, int restart = 30,
                                   int expectRc = PKSP_SUCCESS) {
  const CsrMatrix g = lisi::sparse::laplacian2d(10, 10);
  const int n = g.rows;
  const int nRhs = 3;
  std::vector<double> bGlobal(static_cast<std::size_t>(n * nRhs));
  Rng rng(7);
  for (auto& v : bGlobal) v = rng.uniform(-1, 1);

  World::run(ranks, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    const int s = a.startRow();
    const auto m = static_cast<std::size_t>(a.localRows());
    std::vector<double> b(m * nRhs);
    for (int k = 0; k < nRhs; ++k) {
      std::copy(bGlobal.begin() + k * n + s, bGlobal.begin() + k * n + s +
                                                 a.localRows(),
                b.begin() + static_cast<std::ptrdiff_t>(k * m));
    }

    auto makeKsp = [&](KSP* ksp) {
      ASSERT_EQ(KSPCreate(c, ksp), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetOperator(*ksp, &a), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetType(*ksp, type), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetPCType(*ksp, pc), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetTolerances(*ksp, 1e-10, 1e-14, maxits), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetRestart(*ksp, restart), PKSP_SUCCESS);
    };

    // Sequential reference: one standalone KSPSolve per lane.
    std::vector<double> xSeq(m * nRhs, 0.0);
    std::vector<int> itsSeq(nRhs, 0);
    for (int k = 0; k < nRhs; ++k) {
      KSP ksp = nullptr;
      makeKsp(&ksp);
      std::span<double> lane(xSeq.data() + static_cast<std::size_t>(k) * m, m);
      std::span<const double> rhs(b.data() + static_cast<std::size_t>(k) * m,
                                  m);
      ASSERT_EQ(KSPSolve(ksp, rhs, lane), expectRc);
      KSPGetIterationNumber(ksp, &itsSeq[static_cast<std::size_t>(k)]);
      KSPDestroy(&ksp);
    }

    // Blocked path.
    std::vector<double> xBlk(m * nRhs, 0.0);
    KSP ksp = nullptr;
    makeKsp(&ksp);
    ASSERT_EQ(KSPSolveMulti(ksp, std::span<const double>(b),
                            std::span<double>(xBlk), nRhs),
              expectRc);
    int itsBlk = 0;
    KSPGetIterationNumber(ksp, &itsBlk);
    KSPDestroy(&ksp);

    EXPECT_EQ(itsBlk, *std::max_element(itsSeq.begin(), itsSeq.end()));
    for (std::size_t i = 0; i < xBlk.size(); ++i) {
      ASSERT_EQ(xBlk[i], xSeq[i])
          << "ranks=" << ranks << " entry " << i << " (lane " << i / m << ")";
    }
  });
}

TEST(PkspMulti, BlockedCgMatchesSequentialBitwise) {
  for (const int p : {1, 2, 3}) {
    checkBlockedMatchesSequential(PKSP_CG, PKSP_PC_JACOBI, p);
  }
}

TEST(PkspMulti, BlockedGmresMatchesSequentialBitwise) {
  for (const int p : {1, 2, 3}) {
    checkBlockedMatchesSequential(PKSP_GMRES, PKSP_PC_ILU0, p);
  }
}

TEST(PkspMulti, BlockedGmresStopsAtMaxitsLikeSequential) {
  // maxits 10 at restart 4 ends every lane mid-cycle, after two restarts,
  // through the closing reduction; maxits 0 runs no column at all.
  for (const int p : {1, 3}) {
    checkBlockedMatchesSequential(PKSP_GMRES, PKSP_PC_ILU0, p, 10, 4,
                                  PKSP_ERR_NUMERIC);
    checkBlockedMatchesSequential(PKSP_GMRES, PKSP_PC_ILU0, p, 0, 4,
                                  PKSP_ERR_NUMERIC);
  }
}

// ---- GMRES orthogonalization -------------------------------------------
//
// GMRES orthogonalizes with single-pass classical Gram-Schmidt, one
// reduction per step with delayed normalization.  Guard its numerics
// against the modified Gram-Schmidt it replaced: on the 64^2
// Figure 5 operator each solve may take at most 2 % more iterations than
// the MGS count recorded here, and must reach a true relative residual
// within 10*rtol.

struct GmresParityCase {
  PkspPcType pc;
  int ranks;
  int restart;
  double rtol;
  int mgsIterations;
};

TEST(PkspGmres, IterationsWithinTwoPercentOfModifiedGramSchmidt) {
  constexpr GmresParityCase kCases[] = {
      {PKSP_PC_NONE, 1, 30, 1e-6, 326},  {PKSP_PC_NONE, 1, 30, 1e-10, 509},
      {PKSP_PC_NONE, 1, 100, 1e-6, 213}, {PKSP_PC_NONE, 1, 100, 1e-10, 330},
      {PKSP_PC_NONE, 4, 30, 1e-6, 326},  {PKSP_PC_NONE, 4, 30, 1e-10, 509},
      {PKSP_PC_NONE, 4, 100, 1e-6, 213}, {PKSP_PC_NONE, 4, 100, 1e-10, 330},
      {PKSP_PC_ILU0, 1, 30, 1e-6, 64},   {PKSP_PC_ILU0, 1, 30, 1e-10, 114},
      {PKSP_PC_ILU0, 1, 100, 1e-6, 52},  {PKSP_PC_ILU0, 1, 100, 1e-10, 74},
      {PKSP_PC_ILU0, 4, 30, 1e-6, 83},   {PKSP_PC_ILU0, 4, 30, 1e-10, 135},
      {PKSP_PC_ILU0, 4, 100, 1e-6, 62},  {PKSP_PC_ILU0, 4, 100, 1e-10, 91},
  };
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 64;
  for (const GmresParityCase& k : kCases) {
    int its = 0;
    double relResidual = 0.0;
    World::run(k.ranks, [&](Comm& c) {
      const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
      DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                      local.localA);
      KSP ksp = nullptr;
      ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
      KSPSetOperator(ksp, &a);
      KSPSetType(ksp, PKSP_GMRES);
      KSPSetPCType(ksp, k.pc);
      KSPSetRestart(ksp, k.restart);
      KSPSetTolerances(ksp, k.rtol, 0.0, 10000);
      std::vector<double> x(local.localB.size());
      EXPECT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                         std::span<double>(x)),
                PKSP_SUCCESS);
      std::vector<double> r(x.size());
      a.spmv(std::span<const double>(x), std::span<double>(r));
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = local.localB[i] - r[i];
      const double rn = lisi::sparse::distNorm2(c, std::span<const double>(r));
      const double bn =
          lisi::sparse::distNorm2(c, std::span<const double>(local.localB));
      if (c.rank() == 0) {
        KSPGetIterationNumber(ksp, &its);
        relResidual = rn / bn;
      }
      KSPDestroy(&ksp);
    });
    SCOPED_TRACE(::testing::Message()
                 << (k.pc == PKSP_PC_NONE ? "pc none" : "ilu0") << " p="
                 << k.ranks << " restart=" << k.restart << " rtol=" << k.rtol);
    EXPECT_GT(its, 0);
    EXPECT_LE(its, k.mgsIterations + k.mgsIterations / 50);
    EXPECT_LE(relResidual, 10.0 * k.rtol);
  }
}

/// Allreduce spans completed since the last obs::reset, summed over ranks.
long long allreduceSpans() {
  const lisi::obs::Report r = lisi::obs::collect();
  long long n = 0;
  for (const lisi::obs::SpanStat& s : r.spans) {
    if (s.name == "coll.allreduce.tree" || s.name == "coll.allreduce.star") {
      n += static_cast<long long>(s.count);
    }
  }
  return n;
}

TEST(PkspGmres, OneReductionPerArnoldiStep) {
  if (!lisi::obs::enabled()) GTEST_SKIP() << "built without LISI_OBS=ON";
  constexpr int kRanks = 4;
  constexpr int kRestart = 30;
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 48;
  const auto run = [&](bool solve, int* its) {
    World::run(kRanks, [&](Comm& c) {
      const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
      DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                      local.localA);
      KSP ksp = nullptr;
      ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
      KSPSetOperator(ksp, &a);
      KSPSetType(ksp, PKSP_GMRES);
      KSPSetPCType(ksp, PKSP_PC_ILU0);
      KSPSetRestart(ksp, kRestart);
      KSPSetTolerances(ksp, 1e-10, 0.0, 10000);
      if (solve) {
        std::vector<double> x(local.localB.size());
        EXPECT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                           std::span<double>(x)),
                  PKSP_SUCCESS);
        if (c.rank() == 0) KSPGetIterationNumber(ksp, its);
      }
      KSPDestroy(&ksp);
    });
  };
  // Matrix build and KSP configuration alone: not the solve's reductions.
  lisi::obs::reset();
  run(false, nullptr);
  const long long setup = allreduceSpans();
  lisi::obs::reset();
  int its = 0;
  run(true, &its);
  const long long solve = allreduceSpans() - setup;
  ASSERT_GT(its, kRestart);  // at least one restart
  // Per rank: 1 per Arnoldi step (the projections and the norm that closes
  // the previous column), 1 per cycle to close its last column (a closing
  // norm, or the step whose SpMV+PC ran ahead of a converging column), 1
  // per cycle for ||M^{-1} r||, and 1 for the fused post-solve residuals.
  const long long cycles = (its + kRestart - 1) / kRestart;
  EXPECT_EQ(solve, kRanks * (its + 2LL * cycles + 1)) << its << " iterations";
}

// ---- hot loops ------------------------------------------------------------

/// Heap allocations of one warm 2-lane KSPSolveMulti at p = 1 stopped after
/// `maxits` iterations (rtol 0: no lane converges first).
std::size_t blockedSolveAllocs(KSP ksp, int maxits,
                               std::span<const double> b, std::span<double> x) {
  EXPECT_EQ(KSPSetTolerances(ksp, 0.0, 0.0, maxits), PKSP_SUCCESS);
  g_allocCalls.store(0);
  g_countAllocs.store(true);
  (void)KSPSolveMulti(ksp, b, x, 2);
  g_countAllocs.store(false);
  int its = 0;
  KSPGetIterationNumber(ksp, &its);
  EXPECT_EQ(its, maxits);
  return g_allocCalls.load();
}

TEST(PkspMulti, BlockedIterationsAllocateNothing) {
  // Two warm solves that differ only in their iteration count allocate the
  // same: whatever a solve allocates, it allocates once, not per iteration
  // (GMRES: not per restart cycle either).
  if (lisi::comm::check::enabled()) {
    GTEST_SKIP() << "LISI_COMM_CHECK collectives allocate their bookkeeping";
  }
  const CsrMatrix g = lisi::sparse::laplacian2d(12, 12);
  struct Config {
    PkspType type;
    PkspPcType pc;
  };
  for (const Config cfg : {Config{PKSP_CG, PKSP_PC_JACOBI},
                           Config{PKSP_GMRES, PKSP_PC_ILU0}}) {
    World::run(1, [&](Comm& c) {
      DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
      const auto m = static_cast<std::size_t>(a.localRows());
      std::vector<double> b(2 * m), x(2 * m);
      Rng rng(11);
      for (double& v : b) v = rng.uniform(-1, 1);
      KSP ksp = nullptr;
      ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetOperator(ksp, &a), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetType(ksp, cfg.type), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetPCType(ksp, cfg.pc), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetRestart(ksp, 5), PKSP_SUCCESS);
      // Warm-up: builds the preconditioner and sizes every reused buffer
      // (the residual history included) for the longest solve below.
      (void)blockedSolveAllocs(ksp, 40, b, x);
      const std::size_t shortSolve = blockedSolveAllocs(ksp, 10, b, x);
      const std::size_t longSolve = blockedSolveAllocs(ksp, 30, b, x);
      EXPECT_EQ(longSolve, shortSolve)
          << (cfg.type == PKSP_CG ? "CG" : "GMRES") << ": "
          << longSolve - shortSolve << " allocations in 20 more iterations";
      KSPDestroy(&ksp);
    });
  }
}

/// Preconditioner that counts its applications (z = r).
class CountingPc final : public detail::Preconditioner {
 public:
  void apply(std::span<const double> r, std::span<double> z) const override {
    ++applies;
    std::copy(r.begin(), r.end(), z.begin());
  }
  mutable int applies = 0;
};

TEST(PkspBicgstab, ThreePreconditionerAppliesPerIteration) {
  // One apply for the initial ||M^{-1} r||, then per full iteration:
  // M^{-1} p, M^{-1} s (the half-step norm, reused as s-hat for t = A s-hat)
  // and M^{-1} r for the convergence norm.  s is preconditioned once.
  const CsrMatrix g = lisi::sparse::laplacian2d(10, 10);
  World::run(1, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    const detail::MatrixOperator op(&a);
    std::vector<double> b(static_cast<std::size_t>(a.localRows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    CountingPc pc;
    detail::Tolerances tol;
    tol.rtol = 0.0;
    tol.atol = 0.0;
    tol.maxits = 6;
    const detail::SolveReport rep = detail::runBiCgStab(
        c, op, pc, std::span<const double>(b), std::span<double>(x), tol);
    EXPECT_EQ(rep.reason, PKSP_DIVERGED_ITS);
    EXPECT_EQ(rep.iterations, 6);
    EXPECT_EQ(pc.applies, 1 + 3 * 6);
  });
}

TEST(PkspMulti, FallbackForUnsupportedTypeStillSolves) {
  // BiCGSTAB has no blocked kernel: KSPSolveMulti must quietly run the
  // per-lane fallback and still report success.
  const CsrMatrix g = lisi::sparse::laplacian2d(8, 8);
  const int nRhs = 2;
  World::run(2, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    const auto m = static_cast<std::size_t>(a.localRows());
    std::vector<double> b(m * nRhs, 1.0), x(m * nRhs, 0.0);
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetOperator(ksp, &a), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetType(ksp, PKSP_BICGSTAB), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetTolerances(ksp, 1e-10, 1e-14, 500), PKSP_SUCCESS);
    EXPECT_EQ(KSPSolveMulti(ksp, std::span<const double>(b),
                            std::span<double>(x), nRhs),
              PKSP_SUCCESS);
    PkspConvergedReason reason;
    KSPGetConvergedReason(ksp, &reason);
    EXPECT_GT(reason, 0);
    KSPDestroy(&ksp);
  });
}

}  // namespace
}  // namespace pksp
