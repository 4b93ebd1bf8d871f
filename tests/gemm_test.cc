#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/bf16.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/thread_pool.h"

namespace podnet::tensor {
namespace {

// Straightforward triple loop, the reference for all GEMM tests.
void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const std::vector<float>& a,
                const std::vector<float>& b, float beta,
                std::vector<float>& c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[static_cast<std::size_t>(p * m + i)]
                            : a[static_cast<std::size_t>(i * k + p)];
        const float bv = tb ? b[static_cast<std::size_t>(j * k + p)]
                            : b[static_cast<std::size_t>(p * n + j)];
        acc += static_cast<double>(av) * bv;
      }
      float& cv = c[static_cast<std::size_t>(i * n + j)];
      cv = alpha * static_cast<float>(acc) + beta * cv;
    }
  }
}

struct GemmCase {
  std::int64_t m, n, k;
  bool ta, tb;
};

class GemmVsNaiveTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsNaiveTest, MatchesReference) {
  const GemmCase& tc = GetParam();
  Rng rng(tc.m * 1000 + tc.n * 100 + tc.k + (tc.ta ? 7 : 0) + (tc.tb ? 3 : 0));
  std::vector<float> a(static_cast<std::size_t>(tc.m * tc.k));
  std::vector<float> b(static_cast<std::size_t>(tc.k * tc.n));
  std::vector<float> c(static_cast<std::size_t>(tc.m * tc.n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : c) v = rng.normal();
  std::vector<float> expected = c;

  gemm_contiguous(tc.ta, tc.tb, tc.m, tc.n, tc.k, 1.5f, a.data(), b.data(),
                  0.5f, c.data());
  naive_gemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, 1.5f, a, b, 0.5f, expected);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmVsNaiveTest,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{3, 5, 7, true, false},
                      GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true},
                      GemmCase{16, 16, 16, false, false},
                      GemmCase{1, 64, 300, false, false},
                      GemmCase{64, 1, 300, true, true},
                      GemmCase{33, 65, 129, false, false},
                      GemmCase{128, 96, 272, false, false}));

TEST(GemmTest, BetaZeroOverwritesGarbage) {
  std::vector<float> a = {1, 2};
  std::vector<float> b = {3, 4};
  std::vector<float> c = {1e30f};  // must be ignored with beta = 0
  gemm_contiguous(false, false, 1, 1, 2, 1.f, a.data(), b.data(), 0.f,
                  c.data());
  EXPECT_FLOAT_EQ(c[0], 11.f);
}

TEST(GemmTest, KZeroScalesByBeta) {
  std::vector<float> c = {2.f, 4.f};
  gemm_contiguous(false, false, 1, 2, 0, 1.f, nullptr, nullptr, 0.5f,
                  c.data());
  EXPECT_FLOAT_EQ(c[0], 1.f);
  EXPECT_FLOAT_EQ(c[1], 2.f);
}

TEST(GemmTest, AlphaZeroSkipsProduct) {
  std::vector<float> a = {1};
  std::vector<float> b = {1};
  std::vector<float> c = {3.f};
  gemm_contiguous(false, false, 1, 1, 1, 0.f, a.data(), b.data(), 1.f,
                  c.data());
  EXPECT_FLOAT_EQ(c[0], 3.f);
}

TEST(GemmTest, Bf16RoundsMultiplicands) {
  // A value that bf16 cannot represent gets rounded before multiplying.
  const float odd = 1.0f + 1.0f / 512.0f;  // rounds to 1.0 in bf16
  std::vector<float> a = {odd};
  std::vector<float> b = {256.f};
  std::vector<float> c = {0.f};
  gemm_contiguous(false, false, 1, 1, 1, 1.f, a.data(), b.data(), 0.f,
                  c.data(), MatmulPrecision::kBf16);
  EXPECT_FLOAT_EQ(c[0], 256.f);  // not 256.5
  gemm_contiguous(false, false, 1, 1, 1, 1.f, a.data(), b.data(), 0.f,
                  c.data(), MatmulPrecision::kFp32);
  EXPECT_FLOAT_EQ(c[0], 256.5f);
}

TEST(GemmTest, Bf16AccumulatesInFp32) {
  // 256 summands of 1 + 2^-7 (exactly bf16-representable): the fp32
  // accumulator must keep every increment and reach 258 exactly; a bf16
  // accumulator would lose the +2^-7 increments once the sum grows.
  const std::int64_t k = 256;
  std::vector<float> a(static_cast<std::size_t>(k), 1.f + 1.f / 128.f);
  std::vector<float> b(static_cast<std::size_t>(k), 1.f);
  std::vector<float> c = {0.f};
  gemm_contiguous(false, false, 1, 1, k, 1.f, a.data(), b.data(), 0.f,
                  c.data(), MatmulPrecision::kBf16);
  EXPECT_NEAR(c[0], 258.f, 1e-2f);
}

TEST(GemmTest, LargeParallelPathMatchesReference) {
  // Big enough to trigger the thread-pool path.
  const std::int64_t m = 96, n = 96, k = 256;
  Rng rng(77);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.f);
  std::vector<float> expected(static_cast<std::size_t>(m * n), 0.f);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  gemm_contiguous(false, false, m, n, k, 1.f, a.data(), b.data(), 0.f,
                  c.data());
  naive_gemm(false, false, m, n, k, 1.f, a, b, 0.f, expected);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 2e-3f) << i;
  }
}

TEST(GemmTest, SmallAfterHugeStaysCorrect) {
  // Exercises the pack-buffer shrink path: a large product grows the
  // thread_local pack buffers, then a tiny one (< 1/4 of the high-water
  // capacity) releases them and must still compute exact results.
  const std::int64_t m = 128, n = 128, k = 512;
  Rng rng(99);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.f);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  gemm_contiguous(false, false, m, n, k, 1.f, a.data(), b.data(), 0.f,
                  c.data());

  for (int round = 0; round < 3; ++round) {
    std::vector<float> sa = {1.f, 2.f, 3.f, 4.f};  // 2x2
    std::vector<float> sb = {5.f, 6.f, 7.f, 8.f};
    std::vector<float> sc(4, 0.f);
    gemm_contiguous(false, false, 2, 2, 2, 1.f, sa.data(), sb.data(), 0.f,
                    sc.data());
    EXPECT_FLOAT_EQ(sc[0], 19.f);
    EXPECT_FLOAT_EQ(sc[1], 22.f);
    EXPECT_FLOAT_EQ(sc[2], 43.f);
    EXPECT_FLOAT_EQ(sc[3], 50.f);
  }
}

// ---- Oracle: the SIMD kernels' own per-element order ----------------------

// Serial reference in the SIMD microkernels' order: the beta pre-pass, then
// per K block of 256 an accumulator from zero fed by std::fma in ascending
// p, folded into C as fma(alpha, acc, c); the epilogue is the active
// level's span add_inplace / swish / relu on each row.
std::vector<float> fma_oracle(bool ta, std::int64_t m, std::int64_t n,
                              std::int64_t k, float alpha,
                              const std::vector<float>& a,
                              const std::vector<float>& b, float beta,
                              std::vector<float> c, const GemmEpilogue& epi) {
  constexpr std::int64_t kKc = 256;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& cv = c[static_cast<std::size_t>(i * n + j)];
      if (beta == 0.f) {
        cv = 0.f;
      } else if (beta != 1.f) {
        cv *= beta;
      }
      for (std::int64_t kb = 0; kb < k; kb += kKc) {
        float acc = 0.f;
        for (std::int64_t p = kb; p < std::min(k, kb + kKc); ++p) {
          const float av = ta ? a[static_cast<std::size_t>(p * m + i)]
                              : a[static_cast<std::size_t>(i * k + p)];
          acc = std::fma(av, b[static_cast<std::size_t>(p * n + j)], acc);
        }
        cv = std::fma(alpha, acc, cv);
      }
    }
  }
  const std::size_t w = static_cast<std::size_t>(n);
  std::vector<float> sig(w);
  for (std::int64_t i = 0; i < m; ++i) {
    const std::span<float> row(c.data() + i * n, w);
    if (epi.bias != nullptr) add_inplace({epi.bias, w}, row);
    if (epi.act == GemmEpilogue::Act::kSwish) swish(row, sig, row);
    if (epi.act == GemmEpilogue::Act::kRelu) relu(row, row);
  }
  return c;
}

// Float bits mapped onto a line where adjacent floats differ by one.
std::int64_t monotone(float f) {
  const std::int32_t i = std::bit_cast<std::int32_t>(f);
  return i >= 0 ? static_cast<std::int64_t>(i)
                : -static_cast<std::int64_t>(i & 0x7fffffff);
}

std::int64_t max_ulp(const std::vector<float>& x, const std::vector<float>& y) {
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t d = std::llabs(monotone(x[i]) - monotone(y[i]));
    if (d > worst) worst = d;
  }
  return worst;
}

// Runs gemm() and gemm_prepacked() under every epilogue at one level and
// checks them against the oracle: bit for bit at AVX-512, within the
// 256-ULP epilogue bound at AVX2 (whose span kernels end in scalar code).
void check_against_oracle(simd::Level level, bool ta, std::int64_t m,
                          std::int64_t n, std::int64_t k, float alpha,
                          float beta) {
  SCOPED_TRACE(::testing::Message()
               << simd::level_name(level) << " ta=" << ta << " m=" << m
               << " n=" << n << " k=" << k << " alpha=" << alpha
               << " beta=" << beta);
  simd::ScopedLevel lvl(level);
  Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 131 + k * 17 + ta));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c0(static_cast<std::size_t>(m * n));
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : c0) v = rng.normal();
  for (auto& v : bias) v = rng.normal();
  const std::int64_t lda = ta ? m : k;
  const auto expect_match = [&](const std::vector<float>& got,
                                const std::vector<float>& want) {
    if (level == simd::Level::kAvx512) {
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0);
    } else {
      EXPECT_LE(max_ulp(got, want), 256);
    }
  };

  std::vector<float> c = c0;
  gemm(ta, false, m, n, k, alpha, a.data(), lda, b.data(), n, beta, c.data(),
       n);
  expect_match(c, fma_oracle(ta, m, n, k, alpha, a, b, beta, c0, {}));

  const PackedB packed = pack_b(false, k, n, b.data(), n);
  using Act = GemmEpilogue::Act;
  for (const Act act : {Act::kNone, Act::kSwish, Act::kRelu}) {
    for (const float* bp : {static_cast<const float*>(nullptr),
                            static_cast<const float*>(bias.data())}) {
      GemmEpilogue epi;
      epi.act = act;
      epi.bias = bp;
      SCOPED_TRACE(::testing::Message() << "act=" << static_cast<int>(act)
                                        << " bias=" << (bp != nullptr));
      c = c0;
      gemm_prepacked(ta, m, n, k, alpha, a.data(), lda, packed, beta,
                     c.data(), n, epi);
      expect_match(c, fma_oracle(ta, m, n, k, alpha, a, b, beta, c0, epi));
    }
  }
}

TEST(GemmOracleTest, SimdKernelsFollowTheSerialFmaOrder) {
  const std::int64_t ns[] = {1, 8, 16, 17, 31, 33, 64};
  const std::int64_t ks[] = {1, 16, 27, 256, 257, 600};
  struct Scale { float alpha, beta; };
  const Scale scales[] = {{1.f, 0.f}, {1.5f, 0.5f}, {-0.75f, 0.f}};
  for (const simd::Level level : {simd::Level::kAvx512, simd::Level::kAvx2}) {
    if (simd::detected_level() < level) continue;
    for (const bool ta : {false, true}) {
      for (const std::int64_t n : ns) {
        for (const std::int64_t k : ks) {
          for (const Scale& s : scales) {
            check_against_oracle(level, ta, 13, n, k, s.alpha, s.beta);
          }
        }
      }
      // Large enough for run_tiles to split it over the pool (when the
      // host has more than one core); the order per element is unchanged.
      check_against_oracle(level, ta, 301, 64, 600, 1.5f, 0.5f);
    }
  }
}

}  // namespace
}  // namespace podnet::tensor
