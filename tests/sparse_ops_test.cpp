// Tests for serial sparse kernels (spmv variants, transpose, norms).
#include <gtest/gtest.h>

#include <cmath>

#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

namespace lisi::sparse {
namespace {

TEST(Spmv, KnownSmallMatrix) {
  // A = [1 2; 3 4], x = [5, 6] -> y = [17, 39]
  CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.rowPtr = {0, 2, 4};
  a.colIdx = {0, 1, 0, 1};
  a.values = {1, 2, 3, 4};
  std::vector<double> x{5, 6};
  std::vector<double> y(2);
  spmv(a, std::span<const double>(x), std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Spmv, SizeMismatchThrows) {
  Rng rng(1);
  const CsrMatrix a = randomCsr(3, 4, 2, rng);
  std::vector<double> xBad(3), y(3), x(4), yBad(4);
  EXPECT_THROW(spmv(a, std::span<const double>(xBad), std::span<double>(y)),
               Error);
  EXPECT_THROW(spmv(a, std::span<const double>(x), std::span<double>(yBad)),
               Error);
}

TEST(SpmvTranspose, MatchesExplicitTranspose) {
  Rng rng(2);
  const CsrMatrix a = randomCsr(9, 6, 3, rng);
  std::vector<double> x(9);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y1(6), y2(6);
  spmvTranspose(a, std::span<const double>(x), std::span<double>(y1));
  spmv(transpose(a), std::span<const double>(x), std::span<double>(y2));
  for (int i = 0; i < 6; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(Transpose, Involution) {
  Rng rng(3);
  const CsrMatrix a = randomCsr(8, 5, 3, rng);
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, transpose(transpose(a))), 0.0);
}

TEST(Diagonal, ExtractsAndDefaultsZero) {
  CsrMatrix a;
  a.rows = 3;
  a.cols = 3;
  a.rowPtr = {0, 1, 1, 2};
  a.colIdx = {0, 2};
  a.values = {7.0, 9.0};
  const auto d = diagonal(a);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 7.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 9.0);
}

TEST(Norms, KnownValues) {
  CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.rowPtr = {0, 2, 3};
  a.colIdx = {0, 1, 1};
  a.values = {3.0, -4.0, 12.0};
  EXPECT_DOUBLE_EQ(frobeniusNorm(a), 13.0);
  EXPECT_DOUBLE_EQ(infNorm(a), 12.0);
}

TEST(VectorOps, DotAxpyNorm) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(std::span<const double>(x), std::span<const double>(y)),
                   32.0);
  EXPECT_DOUBLE_EQ(norm2(std::span<const double>(x)), std::sqrt(14.0));
  axpy(2.0, std::span<const double>(x), std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(ResidualNorm, ZeroForExactSolution) {
  const CsrMatrix a = laplacian1d(50);
  std::vector<double> x(50, 0.0);
  std::vector<double> b(50, 0.0);
  EXPECT_DOUBLE_EQ(
      residualNorm(a, std::span<const double>(x), std::span<const double>(b)),
      0.0);
  // b = A * ones  ->  x = ones has zero residual.
  std::vector<double> ones(50, 1.0);
  spmv(a, std::span<const double>(ones), std::span<double>(b));
  EXPECT_NEAR(residualNorm(a, std::span<const double>(ones),
                           std::span<const double>(b)),
              0.0, 1e-14);
}

TEST(MaxAbsDiff, DetectsPatternDifferences) {
  CsrMatrix a;
  a.rows = 1;
  a.cols = 3;
  a.rowPtr = {0, 1};
  a.colIdx = {0};
  a.values = {2.0};
  CsrMatrix b;
  b.rows = 1;
  b.cols = 3;
  b.rowPtr = {0, 1};
  b.colIdx = {2};
  b.values = {5.0};
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 5.0);
}

TEST(Generators, Laplacian2dStructure) {
  const CsrMatrix a = laplacian2d(4, 3);
  EXPECT_EQ(a.rows, 12);
  EXPECT_EQ(a.cols, 12);
  const auto d = diagonal(a);
  for (double v : d) EXPECT_DOUBLE_EQ(v, 4.0);
  // Symmetry: A == A'.
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, transpose(a)), 0.0);
}

TEST(Generators, DiagDominantIsDominant) {
  Rng rng(4);
  const CsrMatrix a = randomDiagDominant(40, 5, 0.25, rng);
  for (int i = 0; i < a.rows; ++i) {
    double diag = 0.0;
    double off = 0.0;
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (a.colIdx[static_cast<std::size_t>(k)] == i) {
        diag = a.values[static_cast<std::size_t>(k)];
      } else {
        off += std::abs(a.values[static_cast<std::size_t>(k)]);
      }
    }
    EXPECT_GE(diag, off + 0.25 - 1e-12) << "row " << i;
  }
}

TEST(Generators, SpdIsSymmetric) {
  Rng rng(5);
  const CsrMatrix a = randomSpd(30, 4, rng);
  EXPECT_LT(maxAbsDiff(a, transpose(a)), 1e-15);
  // Positive diagonal is necessary for SPD.
  for (double v : diagonal(a)) EXPECT_GT(v, 0.0);
}

/// `count` random vectors of length `n` (and their pointers).
struct RandomBasis {
  std::vector<std::vector<double>> vecs;
  std::vector<double*> ptrs;
  RandomBasis(std::size_t count, std::size_t n, Rng& rng)
      : vecs(count, std::vector<double>(n)) {
    for (auto& v : vecs) {
      for (auto& e : v) e = rng.uniform(-2, 2);
      ptrs.push_back(v.data());
    }
  }
};

TEST(SubtractCombination, NegatedCoefficientsAreBitwiseTheAxpyLoop) {
  // The GMRES restart update x += sum_i y_i v_i runs as one
  // subtractCombination with coefficients -y_i.  It must be bitwise the
  // per-vector loops it replaced: pksp's x[k] += y_i*v_i[k] and aztec's
  // Vector::update(y_i, v_i, 1.0), i.e. vy = y_i*v_i + 1.0*vy.
  Rng rng(71);
  constexpr std::size_t kN = 37;  // odd: exercises the pair loop's tail
  for (std::size_t count = 1; count <= 19; ++count) {
    const RandomBasis basis(count, kN, rng);
    std::vector<double> y(count);
    for (auto& e : y) e = rng.uniform(-3, 3);
    std::vector<double> x0(kN);
    for (auto& e : x0) e = rng.uniform(-1, 1);

    std::vector<double> axpyLoop = x0;
    std::vector<double> updateLoop = x0;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t k = 0; k < kN; ++k) {
        axpyLoop[k] += y[i] * basis.vecs[i][k];
        updateLoop[k] = y[i] * basis.vecs[i][k] + 1.0 * updateLoop[k];
      }
    }
    std::vector<double> negY(count);
    for (std::size_t i = 0; i < count; ++i) negY[i] = -y[i];
    std::vector<double> fused = x0;
    subtractCombination(std::span<double>(fused),
                        std::span<const double* const>(basis.ptrs),
                        std::span<const double>(negY));
    for (std::size_t k = 0; k < kN; ++k) {
      ASSERT_EQ(fused[k], axpyLoop[k]) << count << " vectors, entry " << k;
      ASSERT_EQ(fused[k], updateLoop[k]) << count << " vectors, entry " << k;
    }
  }
}

TEST(NormalizeAndSubtract, IsBitwiseScaleThenSequentialAxpys) {
  // basis[m] *= s; out = w*s; out -= h_m basis[m]; out -= h_i basis[i] for
  // i = 0..m-1 in turn.  m = 0..19 covers every head and group width.
  Rng rng(72);
  constexpr std::size_t kN = 41;
  for (std::size_t m = 0; m <= 19; ++m) {
    const RandomBasis start(m + 1, kN, rng);
    std::vector<double> h(m + 1);
    for (auto& e : h) e = rng.uniform(-1, 1);
    std::vector<double> w(kN);
    for (auto& e : w) e = rng.uniform(-5, 5);
    const double s = 1.0 / rng.uniform(0.5, 3.0);

    RandomBasis ref = start;
    for (std::size_t i = 0; i <= m; ++i) ref.ptrs[i] = ref.vecs[i].data();
    for (auto& e : ref.vecs[m]) e *= s;
    std::vector<double> expected(kN);
    for (std::size_t k = 0; k < kN; ++k) expected[k] = w[k] * s;
    axpy(-h[m], std::span<const double>(ref.vecs[m]),
         std::span<double>(expected));
    for (std::size_t i = 0; i < m; ++i) {
      axpy(-h[i], std::span<const double>(ref.vecs[i]),
           std::span<double>(expected));
    }

    RandomBasis got = start;
    for (std::size_t i = 0; i <= m; ++i) got.ptrs[i] = got.vecs[i].data();
    std::vector<double> out(kN);
    normalizeAndSubtract(std::span<double>(out), std::span<const double>(w),
                         s, std::span<double* const>(got.ptrs),
                         std::span<const double>(h));
    for (std::size_t k = 0; k < kN; ++k) {
      ASSERT_EQ(out[k], expected[k]) << "m=" << m << " entry " << k;
      ASSERT_EQ(got.vecs[m][k], ref.vecs[m][k]) << "m=" << m << " entry " << k;
    }
    for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(got.vecs[i], start.vecs[i]);
  }
}

}  // namespace
}  // namespace lisi::sparse
