// AVX2/FMA implementations of the hot kernels declared in simd.h.
//
// This translation unit is compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt); nothing here may be called unless
// simd::active_level() == Level::kAvx2, which implies the cpuid/xgetbv
// check in simd.cc passed. Everything else in the tensor library is built
// with the project's baseline flags, so a PODNET_NATIVE=OFF binary still
// runs on CPUs without AVX2 — it simply never jumps in here.
#include "tensor/simd.h"

#if defined(PODNET_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "tensor/conv_direct.h"

namespace podnet::tensor::simd::avx2 {
namespace {

// ---------------------------------------------------------------------------
// Horizontal reductions
// ---------------------------------------------------------------------------

double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s2 = _mm_add_pd(lo, hi);
  const __m128d s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
  return _mm_cvtsd_f64(s1);
}

float hmax(__m256 v) {
  const __m128 lo = _mm_max_ps(_mm256_castps256_ps128(v),
                               _mm256_extractf128_ps(v, 1));
  const __m128 m2 = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  const __m128 m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1));
  return _mm_cvtss_f32(m1);
}

// Widens the 8 floats of v into two 4-wide double accumulators.
void accumulate_pd(__m256 v, __m256d& acc0, __m256d& acc1) {
  acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
  acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
}

}  // namespace

// ---------------------------------------------------------------------------
// expf — Cephes-style polynomial, the standard AVX port. Max error vs
// std::expf is ~1-2 ulp over the clamped range; inputs outside
// [-88.38, 88.38] saturate to the boundary value (finite). Named (not in
// the anonymous namespace) so the conv::avx2 kernels below can share it
// for the fused swish epilogue. Always inlined, so a call inside a
// register tile does not spill the tile; the empty asm on the result keeps
// a caller's `1 + exp(..)` a separate rounding (GCC would otherwise
// contract the final multiply into an FMA), so every copy rounds alike.
// ---------------------------------------------------------------------------

[[gnu::always_inline]] inline __m256 exp256_ps(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);

  // n = round(x / ln2); x -= n * ln2 (split constant for accuracy).
  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = p0;
  y = _mm256_fmadd_ps(y, x, p1);
  y = _mm256_fmadd_ps(y, x, p2);
  y = _mm256_fmadd_ps(y, x, p3);
  y = _mm256_fmadd_ps(y, x, p4);
  y = _mm256_fmadd_ps(y, x, p5);
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  // y * 2^n via exponent-field construction.
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  __m256 r = _mm256_mul_ps(y, _mm256_castsi256_ps(n));
  asm("" : "+x"(r));
  return r;
}

float exp_scalar_tail(float x) {
  // Tail elements use the same clamped polynomial path via a 1-lane
  // vector so vector and tail lanes agree bit-for-bit.
  const __m256 v = exp256_ps(_mm256_set1_ps(x));
  return _mm_cvtss_f32(_mm256_castps256_ps128(v));
}

// ---------------------------------------------------------------------------
// Elementwise / reduction primitives
// ---------------------------------------------------------------------------

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void axpby(float alpha, const float* x, float beta, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 by = _mm256_mul_ps(vb, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), by));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], beta * y[i]);
}

void scale(float alpha, float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void scale_copy(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = alpha * x[i];
}

void add_inplace(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void mul_inplace(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void fma_inplace(const float* a, const float* b, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                     _mm256_loadu_ps(b + i), vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a[i], b[i], y[i]);
}

double sum(const float* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    accumulate_pd(_mm256_loadu_ps(x + i), acc0, acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

double sum_squares(const float* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d d0 = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d d1 = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
  return s;
}

double dot(const float* x, const float* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(vx)),
                           _mm256_cvtps_pd(_mm256_castps256_ps128(vy)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1)),
                           acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += static_cast<double>(x[i]) * y[i];
  return s;
}

float max_value(const float* x, std::size_t n) {
  float m = -std::numeric_limits<float>::infinity();
  std::size_t i = 0;
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
    }
    m = hmax(vm);
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

bool all_finite(const float* x, std::size_t n) {
  // A float is non-finite iff its exponent field is all-ones: an unsigned
  // max over the masked bits decides without any FP comparisons (NaN
  // never poisons an integer max).
  const __m256i exp_mask = _mm256_set1_epi32(0x7f800000);
  __m256i worst = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    worst = _mm256_max_epu32(worst, _mm256_and_si256(bits, exp_mask));
  }
  const __m256i bad = _mm256_cmpeq_epi32(_mm256_and_si256(worst, exp_mask),
                                         exp_mask);
  if (_mm256_movemask_epi8(bad) != 0) return false;
  for (; i < n; ++i) {
    std::uint32_t b;
    std::memcpy(&b, x + i, sizeof(b));
    if ((b & 0x7f800000u) == 0x7f800000u) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

void sigmoid(const float* x, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), v));
    _mm256_storeu_ps(y + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  }
  for (; i < n; ++i) y[i] = 1.0f / (1.0f + exp_scalar_tail(-x[i]));
}

void swish(const float* x, float* sig, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), v));
    const __m256 s = _mm256_div_ps(one, _mm256_add_ps(one, e));
    _mm256_storeu_ps(sig + i, s);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(v, s));
  }
  for (; i < n; ++i) {
    sig[i] = 1.0f / (1.0f + exp_scalar_tail(-x[i]));
    y[i] = x[i] * sig[i];
  }
}

void swish_backward(const float* g, const float* x, const float* sig,
                    float* out, std::size_t n) {
  // d/dx [x*s(x)] = s * (1 + x * (1 - s))
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s = _mm256_loadu_ps(sig + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 t =
        _mm256_fmadd_ps(vx, _mm256_sub_ps(one, s), one);  // 1 + x*(1-s)
    const __m256 d = _mm256_mul_ps(s, t);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  for (; i < n; ++i) {
    out[i] = g[i] * sig[i] * std::fma(x[i], 1.0f - sig[i], 1.0f);
  }
}

void sigmoid_backward(const float* g, const float* y, float* out,
                      std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 d = _mm256_mul_ps(vy, _mm256_sub_ps(one, vy));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  for (; i < n; ++i) out[i] = g[i] * y[i] * (1.0f - y[i]);
}

void relu(const float* x, float* y, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(zero, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.f ? x[i] : 0.f;
}

void relu_backward(const float* g, const float* x, float* out, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(mask, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.f ? g[i] : 0.f;
}

double exp_sub_sum(float* row, std::size_t n, float m) {
  const __m256 vm = _mm256_set1_ps(m);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vm));
    _mm256_storeu_ps(row + i, e);
    accumulate_pd(e, acc0, acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    row[i] = exp_scalar_tail(row[i] - m);
    s += row[i];
  }
  return s;
}

// ---------------------------------------------------------------------------
// bf16 round-to-nearest-even roundtrip, bit-exact vs bf16::round_bits.
// ---------------------------------------------------------------------------

void bf16_round_inplace(float* x, std::size_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  const __m256i bias = _mm256_set1_epi32(0x7fff);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i hi_mask = _mm256_set1_epi32(
      static_cast<std::int32_t>(0xffff0000u));
  const __m256i nan_bit = _mm256_set1_epi32(0x00400000);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    // Round-to-nearest-even on the upper 16 bits: add 0x7fff plus the
    // round bit's lsb, then truncate. Matches bf16::round_bits exactly.
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(v, 16), one);
    const __m256i rounded = _mm256_and_si256(
        _mm256_add_epi32(v, _mm256_add_epi32(bias, lsb)), hi_mask);
    // NaN: truncate and force a mantissa bit. abs(v) <= INT32_MAX after
    // masking, so the signed compare is safe.
    const __m256i is_nan =
        _mm256_cmpgt_epi32(_mm256_and_si256(v, abs_mask), inf_bits);
    const __m256i nan_val =
        _mm256_or_si256(_mm256_and_si256(v, hi_mask), nan_bit);
    const __m256i out = _mm256_blendv_epi8(rounded, nan_val, is_nan);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), out);
  }
  for (; i < n; ++i) {
    const std::uint32_t u = std::bit_cast<std::uint32_t>(x[i]);
    std::uint32_t out;
    if ((u & 0x7fffffffu) > 0x7f800000u) {
      out = (u & 0xffff0000u) | 0x00400000u;
    } else {
      const std::uint32_t lsb = (u >> 16) & 1u;
      out = (u + 0x7fffu + lsb) & 0xffff0000u;
    }
    x[i] = std::bit_cast<float>(out);
  }
}

// ---------------------------------------------------------------------------
// GEMM: register-blocked 6x16 FMA microkernel.
//
//   B is packed into kNr(=16)-column panels spanning all of K, zero-padded
//   in the last panel. A plain fp32 A is broadcast straight from its rows;
//   a transposed or bf16 A is packed per (MC x KC) block into kMr(=6)-row
//   panels, zero-padded in the last panel. The microkernel keeps a 6x16
//   accumulator tile in 12 ymm registers and streams both operands; a
//   panel with at most 8 valid columns runs one accumulator column.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kKc = 256;  // K block: B panel slice stays in L1/L2
constexpr std::int64_t kMc = 120;  // M block: A block (kMc x kKc) fits in L2

// Lane mask for the first n lanes (n in [0, 8]).
__m256i lane_mask(std::int64_t n) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), idx);
}

}  // namespace

// Bias (when has_bias) then activation on one accumulator vector, lane for
// lane the float operations of add_inplace, swish and relu above; the
// scalar form runs the same code on one lane. Named so the conv kernels
// below share them.
[[gnu::always_inline]] inline __m256 epilogue256(__m256 v, __m256 bias,
                                                 bool has_bias,
                                                 GemmEpilogue::Act act) {
  if (has_bias) v = _mm256_add_ps(v, bias);
  if (act == GemmEpilogue::Act::kSwish) {
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), v));
    v = _mm256_mul_ps(v, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  } else if (act == GemmEpilogue::Act::kRelu) {
    v = _mm256_max_ps(_mm256_setzero_ps(), v);
  }
  return v;
}

float epilogue_scalar(float v, float bias, bool has_bias,
                      GemmEpilogue::Act act) {
  return _mm256_cvtss_f32(epilogue256(_mm256_set1_ps(v),
                                      _mm256_set1_ps(bias), has_bias, act));
}

namespace {

// C[rows, cols] += alpha * A[rows, kc] * B[kc, cols] for one 6 x (8*NV)
// register tile; cols <= 8*NV. kInPlace reads A(r, p) at a[r*lda + p]
// (rows past `rows` re-read the last valid row, whose results are never
// stored); otherwise `a` is a packed panel, A(r, p) at a[p*kMr + r]. A
// partial panel loads and stores C through lane masks. A non-null `epi`
// (the last K block) applies its bias (offset by the tile's first column
// j0) and activation before the store.
template <int NV, bool kInPlace>
void micro_tile(std::int64_t kc, const float* a, std::int64_t lda,
                const float* bp, float alpha, float* c, std::int64_t ldc,
                std::int64_t rows, std::int64_t cols,
                const GemmEpilogue* epi, std::int64_t j0) {
  __m256 acc[kMr][NV];
  const float* arow[kMr];
  #pragma GCC unroll 16
  for (int r = 0; r < kMr; ++r) {
    #pragma GCC unroll 16
    for (int j = 0; j < NV; ++j) acc[r][j] = _mm256_setzero_ps();
    arow[r] = a + std::min<std::int64_t>(r, rows - 1) * lda;
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    __m256 b[NV];
    #pragma GCC unroll 16
    for (int j = 0; j < NV; ++j) b[j] = _mm256_loadu_ps(bp + p * kNr + 8 * j);
    #pragma GCC unroll 16
    for (int r = 0; r < kMr; ++r) {
      const __m256 av =
          _mm256_set1_ps(kInPlace ? arow[r][p] : a[p * kMr + r]);
      #pragma GCC unroll 16
      for (int j = 0; j < NV; ++j) {
        acc[r][j] = _mm256_fmadd_ps(av, b[j], acc[r][j]);
      }
    }
  }
  const __m256 va = _mm256_set1_ps(alpha);
  const bool full = cols == 8 * NV;
  __m256i m[NV];
  __m256 bias[NV];
  const bool has_bias = epi != nullptr && epi->bias != nullptr;
  #pragma GCC unroll 16
  for (int j = 0; j < NV; ++j) {
    m[j] = lane_mask(std::clamp<std::int64_t>(cols - 8 * j, 0, 8));
    bias[j] = has_bias ? _mm256_maskload_ps(epi->bias + j0 + 8 * j, m[j])
                       : _mm256_setzero_ps();
  }
  // Constant trip counts keep every acc index static: the tile stays in
  // registers. Every C load comes before the first store: narrow rows
  // share cache lines, and a load behind a partial masked store to its
  // line would wait for that store (and so for its row's epilogue).
  #pragma GCC unroll 16
  for (int r = 0; r < kMr; ++r) {
    if (r == rows) break;
    #pragma GCC unroll 16
    for (int j = 0; j < NV; ++j) {
      const float* cv = c + r * ldc + 8 * j;
      acc[r][j] = _mm256_fmadd_ps(
          va, acc[r][j],
          full ? _mm256_loadu_ps(cv) : _mm256_maskload_ps(cv, m[j]));
    }
  }
  #pragma GCC unroll 16
  for (int r = 0; r < kMr; ++r) {
    if (r == rows) break;
    #pragma GCC unroll 16
    for (int j = 0; j < NV; ++j) {
      float* cv = c + r * ldc + 8 * j;
      __m256 v = acc[r][j];
      if (epi != nullptr) v = epilogue256(v, bias[j], has_bias, epi->act);
      if (full) {
        _mm256_storeu_ps(cv, v);
      } else {
        _mm256_maskstore_ps(cv, m[j], v);
      }
    }
  }
}

template <bool kInPlace>
void micro(std::int64_t kc, const float* a, std::int64_t lda, const float* bp,
           float alpha, float* c, std::int64_t ldc, std::int64_t rows,
           std::int64_t cols, const GemmEpilogue* epi, std::int64_t j0) {
  if (cols > 8) {
    micro_tile<2, kInPlace>(kc, a, lda, bp, alpha, c, ldc, rows, cols, epi,
                            j0);
  } else {
    micro_tile<1, kInPlace>(kc, a, lda, bp, alpha, c, ldc, rows, cols, epi,
                            j0);
  }
}

// Packs rows [i0, i0+mc) x K-slice [kb, kb+kc) of op(A) into kMr-row
// panels: dst[panel][p*kMr + r], padded rows zeroed.
void pack_a_block(bool trans_a, std::int64_t i0, std::int64_t mc,
                  std::int64_t kb, std::int64_t kc, const float* a,
                  std::int64_t lda, float* dst) {
  const std::int64_t panels = (mc + kMr - 1) / kMr;
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    const std::int64_t rows = std::min<std::int64_t>(kMr, mc - ip * kMr);
    float* base = dst + ip * kMr * kc;
    if (!trans_a) {
      for (std::int64_t p = 0; p < kc; ++p) {
        float* d = base + p * kMr;
        for (std::int64_t r = 0; r < rows; ++r) {
          d[r] = a[(i0 + ip * kMr + r) * lda + kb + p];
        }
        for (std::int64_t r = rows; r < kMr; ++r) d[r] = 0.f;
      }
    } else {
      // A stored k x m: row p of the slice is contiguous in memory.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* s = a + (kb + p) * lda + i0 + ip * kMr;
        float* d = base + p * kMr;
        for (std::int64_t r = 0; r < rows; ++r) d[r] = s[r];
        for (std::int64_t r = rows; r < kMr; ++r) d[r] = 0.f;
      }
    }
  }
}

}  // namespace

std::size_t packed_b_size(std::int64_t k, std::int64_t n) {
  const std::int64_t n_panels = (n + kNr - 1) / kNr;
  return static_cast<std::size_t>(n_panels * kNr * k);
}

void pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
            std::int64_t ldb, bool to_bf16, float* dst) {
  const std::int64_t n_panels = (n + kNr - 1) / kNr;
  for (std::int64_t jp = 0; jp < n_panels; ++jp) {
    const std::int64_t cols = std::min<std::int64_t>(kNr, n - jp * kNr);
    float* base = dst + jp * kNr * k;
    if (!trans_b) {
      for (std::int64_t p = 0; p < k; ++p) {
        const float* s = b + p * ldb + jp * kNr;
        float* d = base + p * kNr;
        for (std::int64_t j = 0; j < cols; ++j) d[j] = s[j];
        for (std::int64_t j = cols; j < kNr; ++j) d[j] = 0.f;
      }
    } else {
      // B stored n x k: column j of op(B) is row j of storage.
      for (std::int64_t p = 0; p < k; ++p) {
        float* d = base + p * kNr;
        for (std::int64_t j = 0; j < cols; ++j) {
          d[j] = b[(jp * kNr + j) * ldb + p];
        }
        for (std::int64_t j = cols; j < kNr; ++j) d[j] = 0.f;
      }
    }
  }
  if (to_bf16) {
    bf16_round_inplace(dst, static_cast<std::size_t>(n_panels * kNr * k));
  }
}

// One tile of the 2D (rows x panels) grid the scheduler in gemm.cc carves
// the product into: rows [m0, m1) x B panels [jp0, jp1). The beta pre-pass
// has already happened there. A packed A lives in a thread_local buffer,
// so concurrent tiles never share pack state, and the per-element
// accumulation order (kb ascending, kc in-register) does not depend on
// the tile boundaries — the result is grid- and thread-count-independent.
void gemm_tile(bool trans_a, std::int64_t m0, std::int64_t m1,
               std::int64_t jp0, std::int64_t jp1, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* packed_b, float* c, std::int64_t ldc,
               bool to_bf16, const GemmEpilogue* epi) {
  const bool in_place = !trans_a && !to_bf16;
  thread_local std::vector<float> a_panels;
  for (std::int64_t kb = 0; kb < k; kb += kKc) {
    const std::int64_t kc = std::min(kKc, k - kb);
    const GemmEpilogue* tail = kb + kc == k ? epi : nullptr;
    for (std::int64_t ic = m0; ic < m1; ic += kMc) {
      const std::int64_t mc = std::min(kMc, m1 - ic);
      const std::int64_t m_panels = (mc + kMr - 1) / kMr;
      if (!in_place) {
        a_panels.resize(static_cast<std::size_t>(m_panels * kMr * kc));
        pack_a_block(trans_a, ic, mc, kb, kc, a, lda, a_panels.data());
        if (to_bf16) bf16_round_inplace(a_panels.data(), a_panels.size());
      }
      for (std::int64_t ip = 0; ip < m_panels; ++ip) {
        const std::int64_t i0 = ic + ip * kMr;
        const std::int64_t rows = std::min<std::int64_t>(kMr, mc - ip * kMr);
        for (std::int64_t jp = jp0; jp < jp1; ++jp) {
          const std::int64_t cols = std::min<std::int64_t>(kNr, n - jp * kNr);
          const float* bp = packed_b + jp * kNr * k + kb * kNr;
          float* ct = c + i0 * ldc + jp * kNr;
          if (in_place) {
            micro<true>(kc, a + i0 * lda + kb, lda, bp, alpha, ct, ldc, rows,
                        cols, tail, jp * kNr);
          } else {
            micro<false>(kc, a_panels.data() + ip * kMr * kc, 0, bp, alpha,
                         ct, ldc, rows, cols, tail, jp * kNr);
          }
        }
      }
    }
  }
}

}  // namespace podnet::tensor::simd::avx2

// ---------------------------------------------------------------------------
// Direct convolution kernels (see conv_direct.h). Same TU so they share the
// exp256_ps polynomial with the activation kernels above.
// ---------------------------------------------------------------------------

namespace podnet::tensor::conv::avx2 {
namespace {

namespace sa = podnet::tensor::simd::avx2;

}  // namespace

void depthwise_forward_rows(const ConvGeometry& g, const float* x,
                            const float* w, const float* bias,
                            Epilogue epilogue, float* y, std::int64_t row0,
                            std::int64_t row1) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  const GemmEpilogue epi = gemm_epilogue(epilogue, bias);
  const bool has_bias = epi.bias != nullptr;
  // Bias + activation on the 8 channels from c (one channel for the
  // scalar tails), before the store.
  const auto tail = [&](__m256 acc, std::int64_t c) {
    const __m256 b =
        has_bias ? _mm256_loadu_ps(epi.bias + c) : _mm256_setzero_ps();
    return sa::epilogue256(acc, b, has_bias, epi.act);
  };
  const auto tail1 = [&](float acc, std::int64_t c) {
    return sa::epilogue_scalar(acc, has_bias ? epi.bias[c] : 0.f, has_bias,
                               epi.act);
  };
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t n = row / g.out_h;
    const std::int64_t oh = row % g.out_h;
    const std::int64_t ih0 = oh * g.stride - g.pad_top;
    const std::int64_t kh_lo = ih0 < 0 ? -ih0 : 0;
    const std::int64_t kh_hi = std::min<std::int64_t>(K, g.in_h - ih0);
    float* out_row = y + row * g.out_w * C;

    // General single-pixel path: handles every stride/kernel/boundary
    // combination; also finishes the boundary columns of the fast path.
    auto pixel = [&](std::int64_t ow) {
      const std::int64_t iw0 = ow * g.stride - g.pad_left;
      const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
      float* out = out_row + ow * C;
      // The accumulator block lives in registers across all taps: one
      // store per 16 channels instead of a load+store per tap.
      std::int64_t c = 0;
      for (; c + 16 <= C; c += 16) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C + c;
          const float* w_base = w + kh * K * C + c;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(in_base + kw * C),
                                   _mm256_loadu_ps(w_base + kw * C), acc0);
            acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(in_base + kw * C + 8),
                                   _mm256_loadu_ps(w_base + kw * C + 8), acc1);
          }
        }
        _mm256_storeu_ps(out + c, tail(acc0, c));
        _mm256_storeu_ps(out + c + 8, tail(acc1, c + 8));
      }
      for (; c + 8 <= C; c += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C + c;
          const float* w_base = w + kh * K * C + c;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(in_base + kw * C),
                                  _mm256_loadu_ps(w_base + kw * C), acc);
          }
        }
        _mm256_storeu_ps(out + c, tail(acc, c));
      }
      for (; c < C; ++c) {
        float acc = 0.f;
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C;
          const float* w_base = w + kh * K * C;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc = std::fma(in_base[kw * C + c], w_base[kw * C + c], acc);
          }
        }
        out[c] = tail1(acc, c);
      }
    };

    // Stride-1 3x3 interior fast path: all nine weight vectors of an
    // 8-channel block stay in registers across the whole output row,
    // halving the load traffic of the general path (which re-reads a
    // weight vector per tap per pixel — the bottleneck, since two loads
    // feed every FMA). Tap order (kh, kw ascending, single accumulator
    // per lane) matches the general path, so results are bit-identical.
    const std::int64_t ow_lo = std::min<std::int64_t>(g.pad_left, g.out_w);
    const std::int64_t ow_hi =
        std::min<std::int64_t>(g.in_w + g.pad_left - (K - 1), g.out_w);
    if (g.stride == 1 && K == 3 && kh_lo == 0 && kh_hi == K &&
        ow_hi - ow_lo >= 8) {
      for (std::int64_t ow = 0; ow < ow_lo; ++ow) pixel(ow);
      for (std::int64_t ow = std::max<std::int64_t>(ow_hi, ow_lo);
           ow < g.out_w; ++ow) {
        pixel(ow);
      }
      const float* r0 = x + ((n * g.in_h + ih0) * g.in_w) * C;
      const float* r1 = r0 + g.in_w * C;
      const float* r2 = r1 + g.in_w * C;
      std::int64_t c = 0;
      for (; c + 8 <= C; c += 8) {
        __m256 wv[9];
        for (int t = 0; t < 9; ++t) wv[t] = _mm256_loadu_ps(w + t * C + c);
        for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
          const std::int64_t i0 = (ow - g.pad_left) * C + c;
          __m256 acc = _mm256_setzero_ps();
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i0), wv[0], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i0 + C), wv[1], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i0 + 2 * C), wv[2], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i0), wv[3], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i0 + C), wv[4], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i0 + 2 * C), wv[5], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i0), wv[6], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i0 + C), wv[7], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i0 + 2 * C), wv[8], acc);
          _mm256_storeu_ps(out_row + ow * C + c, tail(acc, c));
        }
      }
      for (; c < C; ++c) {
        for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
          const std::int64_t i0 = (ow - g.pad_left) * C + c;
          float acc = 0.f;
          acc = std::fma(r0[i0], w[0 * C + c], acc);
          acc = std::fma(r0[i0 + C], w[1 * C + c], acc);
          acc = std::fma(r0[i0 + 2 * C], w[2 * C + c], acc);
          acc = std::fma(r1[i0], w[3 * C + c], acc);
          acc = std::fma(r1[i0 + C], w[4 * C + c], acc);
          acc = std::fma(r1[i0 + 2 * C], w[5 * C + c], acc);
          acc = std::fma(r2[i0], w[6 * C + c], acc);
          acc = std::fma(r2[i0 + C], w[7 * C + c], acc);
          acc = std::fma(r2[i0 + 2 * C], w[8 * C + c], acc);
          out_row[ow * C + c] = tail1(acc, c);
        }
      }
      continue;
    }
    for (std::int64_t ow = 0; ow < g.out_w; ++ow) pixel(ow);
  }
}

void depthwise_backward(const ConvGeometry& g, const float* x, const float* w,
                        const float* grad_out, float* dx, float* dw) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  assert(K <= 7);
  // Channel-block x kernel-row outer loops: a full row of dW accumulators
  // (up to 7 vectors) plus the matching weight row stay in registers
  // across the whole image, so dW touches memory once per tap per block.
  std::int64_t c = 0;
  for (; c + 8 <= C; c += 8) {
    for (std::int64_t kh = 0; kh < K; ++kh) {
      __m256 dwacc[7];
      __m256 wv[7];
      for (std::int64_t kw = 0; kw < K; ++kw) {
        dwacc[kw] = _mm256_setzero_ps();
        wv[kw] = _mm256_loadu_ps(w + (kh * K + kw) * C + c);
      }
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
          const std::int64_t ih = oh * g.stride - g.pad_top + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          const float* g_row = grad_out + (n * g.out_h + oh) * g.out_w * C;
          const float* x_row = x + (n * g.in_h + ih) * g.in_w * C;
          float* dx_row = dx + (n * g.in_h + ih) * g.in_w * C;
          for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
            const __m256 gv = _mm256_loadu_ps(g_row + ow * C + c);
            const std::int64_t iw0 = ow * g.stride - g.pad_left;
            const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
            const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
            for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
              const std::int64_t off = (iw0 + kw) * C + c;
              dwacc[kw] =
                  _mm256_fmadd_ps(_mm256_loadu_ps(x_row + off), gv, dwacc[kw]);
              _mm256_storeu_ps(
                  dx_row + off,
                  _mm256_fmadd_ps(wv[kw], gv, _mm256_loadu_ps(dx_row + off)));
            }
          }
        }
      }
      for (std::int64_t kw = 0; kw < K; ++kw) {
        float* d = dw + (kh * K + kw) * C + c;
        _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), dwacc[kw]));
      }
    }
  }
  // Channel tail: scalar, same loop structure.
  for (; c < C; ++c) {
    for (std::int64_t kh = 0; kh < K; ++kh) {
      float dwacc[7] = {};
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
          const std::int64_t ih = oh * g.stride - g.pad_top + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          const float* g_row = grad_out + (n * g.out_h + oh) * g.out_w * C;
          const float* x_row = x + (n * g.in_h + ih) * g.in_w * C;
          float* dx_row = dx + (n * g.in_h + ih) * g.in_w * C;
          for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
            const float gv = g_row[ow * C + c];
            const std::int64_t iw0 = ow * g.stride - g.pad_left;
            const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
            const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
            for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
              const std::int64_t off = (iw0 + kw) * C + c;
              dwacc[kw] = std::fma(x_row[off], gv, dwacc[kw]);
              dx_row[off] = std::fma(w[(kh * K + kw) * C + c], gv, dx_row[off]);
            }
          }
        }
      }
      for (std::int64_t kw = 0; kw < K; ++kw) {
        dw[(kh * K + kw) * C + c] += dwacc[kw];
      }
    }
  }
}

namespace {

// P adjacent output pixels of one output row, each with NV accumulators
// for the out-channel block at w/bias/out (already offset by its first
// channel): taps (kh, kw, ci) ascending per pixel, as in the scalar
// reference, with each tap's weight vectors shared by the P pixels. The
// last vector loads and stores through `last` (its valid lanes). x0 is
// the input offset of pixel 0's (kh, kw) = (0, 0) tap and pixels sit
// px_step floats apart; only taps in [kh_lo, kh_hi) x [kw_lo, kw_hi) run.
template <int NV, int P>
void conv_pixels(const ConvGeometry& g, std::int64_t out_c, const float* x,
                 std::int64_t x0, std::int64_t px_step, const float* w,
                 __m256i last, std::int64_t kh_lo, std::int64_t kh_hi,
                 std::int64_t kw_lo, std::int64_t kw_hi,
                 const GemmEpilogue& epi, const float* bias, float* out) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  const auto load = [&](const float* p, int j) {
    return j + 1 < NV ? _mm256_loadu_ps(p + j * 8)
                      : _mm256_maskload_ps(p + j * 8, last);
  };
  __m256 acc[P][NV];
  #pragma GCC unroll 16
  for (int p = 0; p < P; ++p) {
    #pragma GCC unroll 16
    for (int j = 0; j < NV; ++j) acc[p][j] = _mm256_setzero_ps();
  }
  for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
    for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
      const float* in = x + (x0 + (kh * g.in_w + kw) * C);
      const float* wk = w + (kh * K + kw) * C * out_c;
      for (std::int64_t ci = 0; ci < C; ++ci) {
        __m256 wv[NV];
        #pragma GCC unroll 16
        for (int j = 0; j < NV; ++j) wv[j] = load(wk + ci * out_c, j);
        #pragma GCC unroll 16
        for (int p = 0; p < P; ++p) {
          const __m256 xv = _mm256_set1_ps(in[p * px_step + ci]);
          #pragma GCC unroll 16
          for (int j = 0; j < NV; ++j) {
            acc[p][j] = _mm256_fmadd_ps(xv, wv[j], acc[p][j]);
          }
        }
      }
    }
  }
  const bool has_bias = epi.bias != nullptr;
  __m256 bv[NV];
  #pragma GCC unroll 16
  for (int j = 0; j < NV; ++j) {
    bv[j] = has_bias ? load(bias, j) : _mm256_setzero_ps();
  }
  #pragma GCC unroll 16
  for (int p = 0; p < P; ++p) {
    float* o = out + p * out_c;
    #pragma GCC unroll 16
    for (int j = 0; j + 1 < NV; ++j) {
      _mm256_storeu_ps(o + j * 8,
                       sa::epilogue256(acc[p][j], bv[j], has_bias, epi.act));
    }
    _mm256_maskstore_ps(
        o + (NV - 1) * 8, last,
        sa::epilogue256(acc[p][NV - 1], bv[NV - 1], has_bias, epi.act));
  }
}

// One output row's out-channel block: interior pixels in blocks of P,
// every other pixel alone with its taps clipped to the image. P keeps
// P * NV accumulators within 12 of the 16 ymm registers.
template <int NV>
void conv_row(const ConvGeometry& g, std::int64_t out_c, const float* x,
              std::int64_t x_row, const float* w, __m256i last,
              std::int64_t kh_lo, std::int64_t kh_hi, std::int64_t ow_lo,
              std::int64_t ow_hi, const GemmEpilogue& epi, const float* bias,
              float* out_row) {
  constexpr int P = NV == 1 ? 8 : NV == 2 ? 4 : NV <= 4 ? 2 : 1;
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  const std::int64_t px_step = g.stride * C;
  const auto x0 = [&](std::int64_t ow) {
    return x_row + (ow * g.stride - g.pad_left) * C;
  };
  const auto one = [&](std::int64_t ow) {
    const std::int64_t iw0 = ow * g.stride - g.pad_left;
    const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
    const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
    conv_pixels<NV, 1>(g, out_c, x, x0(ow), px_step, w, last, kh_lo, kh_hi,
                       kw_lo, kw_hi, epi, bias, out_row + ow * out_c);
  };
  std::int64_t ow = 0;
  for (; ow < ow_lo; ++ow) one(ow);
  if constexpr (P > 1) {
    for (; ow + P <= ow_hi; ow += P) {
      conv_pixels<NV, P>(g, out_c, x, x0(ow), px_step, w, last, kh_lo, kh_hi,
                         0, K, epi, bias, out_row + ow * out_c);
    }
  }
  for (; ow < g.out_w; ++ow) one(ow);
}

}  // namespace

void conv2d_direct_rows(const ConvGeometry& g, std::int64_t out_c,
                        const float* x, const float* w, const float* bias,
                        Epilogue epilogue, float* y, std::int64_t row0,
                        std::int64_t row1) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  const GemmEpilogue epi = gemm_epilogue(epilogue, bias);
  // Output columns [ow_lo, ow_hi) see every kernel column.
  const std::int64_t ow_lo = std::min<std::int64_t>(
      g.out_w, (g.pad_left + g.stride - 1) / g.stride);
  const std::int64_t last_iw = g.in_w - K + g.pad_left;
  const std::int64_t ow_hi = std::max<std::int64_t>(
      ow_lo, last_iw < 0 ? 0
                         : std::min<std::int64_t>(g.out_w,
                                                  last_iw / g.stride + 1));
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t n = row / g.out_h;
    const std::int64_t oh = row % g.out_h;
    const std::int64_t ih0 = oh * g.stride - g.pad_top;
    const std::int64_t kh_lo = ih0 < 0 ? -ih0 : 0;
    const std::int64_t kh_hi = std::min<std::int64_t>(K, g.in_h - ih0);
    const std::int64_t x_row = (n * g.in_h + ih0) * g.in_w * C;
    float* out_row = y + row * g.out_w * out_c;
    // Up to 64 output channels (8 ymm accumulators) per pixel stay in
    // registers while the Kh x Kw x in_c taps stream by.
    for (std::int64_t co0 = 0; co0 < out_c; co0 += 64) {
      const std::int64_t oc = std::min<std::int64_t>(64, out_c - co0);
      const std::int64_t nvec = (oc + 7) / 8;
      const __m256i last = sa::lane_mask(oc - (nvec - 1) * 8);
      const float* b = epi.bias != nullptr ? epi.bias + co0 : nullptr;
      const auto row_fn = [&](auto nv) {
        conv_row<decltype(nv)::value>(g, out_c, x, x_row, w + co0, last,
                                      kh_lo, kh_hi, ow_lo, ow_hi, epi, b,
                                      out_row + co0);
      };
      switch (nvec) {
        case 1: row_fn(std::integral_constant<int, 1>{}); break;
        case 2: row_fn(std::integral_constant<int, 2>{}); break;
        case 3: row_fn(std::integral_constant<int, 3>{}); break;
        case 4: row_fn(std::integral_constant<int, 4>{}); break;
        case 5: row_fn(std::integral_constant<int, 5>{}); break;
        case 6: row_fn(std::integral_constant<int, 6>{}); break;
        case 7: row_fn(std::integral_constant<int, 7>{}); break;
        default: row_fn(std::integral_constant<int, 8>{}); break;
      }
    }
  }
}

}  // namespace podnet::tensor::conv::avx2

#endif  // PODNET_HAVE_AVX2
