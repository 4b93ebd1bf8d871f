#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "obs/profile.h"
#include "tensor/bf16.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/thread_pool.h"

namespace podnet::tensor {
namespace {

// Flags a nested gemm() on one thread. The pack buffers below are
// thread_local, so a reentrant call (e.g. a parallel_for functor calling
// gemm again on the caller's thread) would clobber a live pack mid-product
// and silently corrupt C. No current caller nests; the assert keeps it
// that way.
thread_local bool gemm_active = false;

struct ReentryGuard {
  ReentryGuard() {
    assert(!gemm_active &&
           "gemm is not reentrant per thread (thread_local pack buffers)");
    gemm_active = true;
  }
  ~ReentryGuard() { gemm_active = false; }
};

// Releases pack capacity when a call needs far less than the high-water
// mark, so one huge GEMM (e.g. the classifier at a large batch) does not
// pin its peak footprint on every thread for the rest of the process.
void maybe_shrink(std::vector<float>& buf, std::size_t need) {
  constexpr std::size_t kShrinkFloor = std::size_t{1} << 16;  // 256 KiB
  if (buf.capacity() > kShrinkFloor && need < buf.capacity() / 4) {
    buf.resize(need);
    buf.shrink_to_fit();
  }
}

// Packs op(A) into a dense m x k row-major buffer, optionally rounding
// through bf16. Packing first keeps the inner kernel branch-free and makes
// the bf16 rounding a one-time cost instead of per-FMA.
void pack(bool trans, std::int64_t rows, std::int64_t cols, const float* src,
          std::int64_t ld, bool to_bf16, std::vector<float>& dst) {
  maybe_shrink(dst, static_cast<std::size_t>(rows * cols));
  dst.resize(static_cast<std::size_t>(rows * cols));
  if (!trans) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* s = src + r * ld;
      float* d = dst.data() + r * cols;
      std::copy(s, s + cols, d);
    }
  } else {
    // Stored as cols x rows; gather the transpose.
    for (std::int64_t r = 0; r < rows; ++r) {
      float* d = dst.data() + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) d[c] = src[c * ld + r];
    }
  }
  if (to_bf16) bf16_round_inplace(dst);
}

// Scalar inner kernel: C[mb, j0..j1) += A[mb, K] * B[K, j0..j1) for a row
// block, with B fully packed dense (k x n). K-blocked to keep the B panel
// in cache. This is the original PodNet kernel (the beta pre-pass moved to
// the shared driver), kept bit-compatible as the reference the SIMD paths
// are tested against — per element the kb order and inner j order are
// unchanged, so the result does not depend on the tile grid.
void gemm_block(std::int64_t m_begin, std::int64_t m_end, std::int64_t j0,
                std::int64_t j1, std::int64_t n, std::int64_t k, float alpha,
                const float* a, const float* b, float* c, std::int64_t ldc) {
  constexpr std::int64_t kKc = 256;
  for (std::int64_t kb = 0; kb < k; kb += kKc) {
    const std::int64_t kc = std::min(kKc, k - kb);
    for (std::int64_t i = m_begin; i < m_end; ++i) {
      const float* arow = a + i * k + kb;
      float* crow = c + i * ldc;
      for (std::int64_t p = 0; p < kc; ++p) {
        const float av = alpha * arow[p];
        if (av == 0.f) continue;
        const float* brow = b + (kb + p) * n;
        for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// Degenerate products (k == 0 or alpha == 0) reduce to C *= beta; also the
// shared beta pre-pass before the accumulate-only tile kernels run.
void scale_c(std::int64_t m, std::int64_t n, float beta, float* c,
             std::int64_t ldc) {
  if (beta == 1.f) return;
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.f) {
      std::fill(crow, crow + n, 0.f);
    } else {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// 2D (MC x NC) tile scheduler shared by all dispatch levels. The product
// is carved into Rm x Cn tiles of (row range) x (column-unit range), where
// a column unit is one packed-B panel for the SIMD kernels and one column
// for the scalar kernel. Row splits are preferred (they share the packed B
// read-only); column splits only appear when there are not enough row
// blocks to feed every worker, which is what lets a tall-skinny or
// short-wide product still use the whole pool. Each C element belongs to
// exactly one tile and every kernel runs the full K extent in a fixed
// order, so the result is independent of the grid and the thread count.
template <typename TileFn>
void run_tiles(std::int64_t m, std::int64_t n_units, std::int64_t flops,
               const TileFn& tile) {
  ThreadPool& pool = ThreadPool::global();
  const std::int64_t workers = pool.worker_count() + 1;  // caller works too
  if (flops < (1 << 22) || workers <= 1) {
    tile(0, m, 0, n_units);
    return;
  }
  // At least ~32 rows per row block keeps the A-pack amortized.
  const std::int64_t rm =
      std::clamp<std::int64_t>((m + 31) / 32, 1, workers);
  const std::int64_t cn =
      std::max<std::int64_t>(1, std::min((workers + rm - 1) / rm, n_units));
  if (rm * cn == 1) {
    tile(0, m, 0, n_units);
    return;
  }
  pool.parallel_for(rm * cn, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t ri = t / cn;
      const std::int64_t ci = t % cn;
      const std::int64_t r0 = ri * m / rm;
      const std::int64_t r1 = (ri + 1) * m / rm;
      const std::int64_t c0 = ci * n_units / cn;
      const std::int64_t c1 = (ci + 1) * n_units / cn;
      if (r0 < r1 && c0 < c1) tile(r0, r1, c0, c1);
    }
  });
}

// Applies a fused epilogue to the C tile rows [r0, r1) x columns [c0, c1)
// via the shared span kernels: the scalar driver's tail and the alpha == 0
// path. The SIMD tile kernels apply the same float operations in
// registers instead (simd.h gemm_tile).
void apply_epilogue(const GemmEpilogue& e, std::int64_t r0, std::int64_t r1,
                    std::int64_t c0, std::int64_t c1, float* c,
                    std::int64_t ldc) {
  const std::size_t w = static_cast<std::size_t>(c1 - c0);
  if (w == 0) return;
  thread_local std::vector<float> sig;  // swish sigmoid scratch, per worker
  if (e.act == GemmEpilogue::Act::kSwish && sig.size() < w) sig.resize(w);
  for (std::int64_t i = r0; i < r1; ++i) {
    float* row = c + i * ldc + c0;
    if (e.bias != nullptr) add_inplace({e.bias + c0, w}, {row, w});
    if (e.act == GemmEpilogue::Act::kSwish) {
      swish({row, w}, {sig.data(), w}, {row, w});
    } else if (e.act == GemmEpilogue::Act::kRelu) {
      relu({row, w}, {row, w});
    }
  }
}

// Scalar driver over a packed A (dense m x k) and packed B (dense k x n).
void scalar_gemm_driver(std::int64_t m, std::int64_t n, std::int64_t k,
                        float alpha, const float* a_packed,
                        const float* b_packed, float* c, std::int64_t ldc,
                        const GemmEpilogue* epi = nullptr) {
  run_tiles(m, n, 2 * m * n * k,
            [&](std::int64_t r0, std::int64_t r1, std::int64_t c0,
                std::int64_t c1) {
              gemm_block(r0, r1, c0, c1, n, k, alpha, a_packed, b_packed, c,
                         ldc);
              if (epi != nullptr) apply_epilogue(*epi, r0, r1, c0, c1, c, ldc);
            });
}

// Panel width the active dispatch level packs B with (0 = dense scalar).
std::int64_t active_panel_width() {
  const simd::Level level = simd::active_level();
  (void)level;
#if defined(PODNET_HAVE_AVX512)
  if (level == simd::Level::kAvx512) return simd::avx512::kNr;
#endif
#if defined(PODNET_HAVE_AVX2)
  if (level >= simd::Level::kAvx2) return simd::avx2::kNr;
#endif
  return 0;
}

// Runs the SIMD tile kernel matching `panel_width` over the 2D grid; the
// kernels apply `epi` in registers. `packed_b` must have been produced by
// the same level's pack_b.
void simd_gemm_driver(std::int64_t panel_width, bool trans_a, std::int64_t m,
                      std::int64_t n, std::int64_t k, float alpha,
                      const float* a, std::int64_t lda, const float* packed_b,
                      float* c, std::int64_t ldc, bool to_bf16,
                      const GemmEpilogue* epi = nullptr) {
  const std::int64_t n_panels = (n + panel_width - 1) / panel_width;
  const std::int64_t flops = 2 * m * n * k;
#if defined(PODNET_HAVE_AVX512)
  if (panel_width == simd::avx512::kNr) {
    run_tiles(m, n_panels, flops,
              [&](std::int64_t r0, std::int64_t r1, std::int64_t p0,
                  std::int64_t p1) {
                simd::avx512::gemm_tile(trans_a, r0, r1, p0, p1, n, k, alpha,
                                        a, lda, packed_b, c, ldc, to_bf16,
                                        epi);
              });
    return;
  }
#endif
#if defined(PODNET_HAVE_AVX2)
  if (panel_width == simd::avx2::kNr) {
    run_tiles(m, n_panels, flops,
              [&](std::int64_t r0, std::int64_t r1, std::int64_t p0,
                  std::int64_t p1) {
                simd::avx2::gemm_tile(trans_a, r0, r1, p0, p1, n, k, alpha, a,
                                      lda, packed_b, c, ldc, to_bf16, epi);
              });
    return;
  }
#endif
  (void)trans_a;
  (void)lda;
  (void)epi;
  assert(false && "no SIMD kernel for this panel width in this binary");
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, MatmulPrecision precision) {
  PODNET_PROFILE_SPAN("gemm");
  assert(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.f) {
    scale_c(m, n, beta, c, ldc);
    return;
  }

  const bool to_bf16 = precision == MatmulPrecision::kBf16;
  const ReentryGuard reentry_guard;
  const std::int64_t width = active_panel_width();
#if defined(PODNET_HAVE_AVX512)
  if (width == simd::avx512::kNr) {
    thread_local std::vector<float> b_panels;
    const std::size_t need = simd::avx512::packed_b_size(k, n);
    maybe_shrink(b_panels, need);
    b_panels.resize(need);
    simd::avx512::pack_b(trans_b, k, n, b, ldb, to_bf16, b_panels.data());
    scale_c(m, n, beta, c, ldc);
    simd_gemm_driver(width, trans_a, m, n, k, alpha, a, lda, b_panels.data(),
                     c, ldc, to_bf16);
    return;
  }
#endif
#if defined(PODNET_HAVE_AVX2)
  if (width == simd::avx2::kNr) {
    thread_local std::vector<float> b_panels;
    const std::size_t need = simd::avx2::packed_b_size(k, n);
    maybe_shrink(b_panels, need);
    b_panels.resize(need);
    simd::avx2::pack_b(trans_b, k, n, b, ldb, to_bf16, b_panels.data());
    scale_c(m, n, beta, c, ldc);
    simd_gemm_driver(width, trans_a, m, n, k, alpha, a, lda, b_panels.data(),
                     c, ldc, to_bf16);
    return;
  }
#endif
  thread_local std::vector<float> a_pack;
  thread_local std::vector<float> b_pack;
  pack(trans_a, m, k, a, lda, to_bf16, a_pack);
  pack(trans_b, k, n, b, ldb, to_bf16, b_pack);
  scale_c(m, n, beta, c, ldc);
  scalar_gemm_driver(m, n, k, alpha, a_pack.data(), b_pack.data(), c, ldc);
}

PackedB pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
               std::int64_t ldb, MatmulPrecision precision) {
  assert(k > 0 && n > 0);
  PackedB packed;
  packed.k_ = k;
  packed.n_ = n;
  packed.precision_ = precision;
  const bool to_bf16 = precision == MatmulPrecision::kBf16;
  const std::int64_t width = active_panel_width();
  (void)width;
#if defined(PODNET_HAVE_AVX512)
  if (width == simd::avx512::kNr) {
    packed.panel_width_ = width;
    packed.data_.resize(simd::avx512::packed_b_size(k, n));
    simd::avx512::pack_b(trans_b, k, n, b, ldb, to_bf16, packed.data_.data());
    return packed;
  }
#endif
#if defined(PODNET_HAVE_AVX2)
  if (width == simd::avx2::kNr) {
    packed.panel_width_ = width;
    packed.data_.resize(simd::avx2::packed_b_size(k, n));
    simd::avx2::pack_b(trans_b, k, n, b, ldb, to_bf16, packed.data_.data());
    return packed;
  }
#endif
  pack(trans_b, k, n, b, ldb, to_bf16, packed.data_);
  return packed;
}

namespace {

void gemm_prepacked_impl(bool trans_a, std::int64_t m, std::int64_t n,
                         std::int64_t k, float alpha, const float* a,
                         std::int64_t lda, std::int64_t panel_width,
                         const float* packed_b, float beta, float* c,
                         std::int64_t ldc, const GemmEpilogue* epi,
                         MatmulPrecision precision) {
  PODNET_PROFILE_SPAN("gemm");
  assert(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (alpha == 0.f) {
    scale_c(m, n, beta, c, ldc);
    if (epi != nullptr) apply_epilogue(*epi, 0, m, 0, n, c, ldc);
    return;
  }
  const bool to_bf16 = precision == MatmulPrecision::kBf16;
  const ReentryGuard reentry_guard;
  // Follow the layout recorded at pack time, not the active level: a
  // PackedB built under one level stays valid after the level is flipped.
  if (panel_width != 0) {
    scale_c(m, n, beta, c, ldc);
    simd_gemm_driver(panel_width, trans_a, m, n, k, alpha, a, lda, packed_b,
                     c, ldc, to_bf16, epi);
    return;
  }
  thread_local std::vector<float> a_pack;
  pack(trans_a, m, k, a, lda, to_bf16, a_pack);
  scale_c(m, n, beta, c, ldc);
  scalar_gemm_driver(m, n, k, alpha, a_pack.data(), packed_b, c, ldc, epi);
}

}  // namespace

void gemm_prepacked(bool trans_a, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const PackedB& bp, float beta, float* c,
                    std::int64_t ldc, MatmulPrecision precision) {
  assert(bp.valid() && bp.k_ == k && bp.n_ == n && bp.precision_ == precision);
  gemm_prepacked_impl(trans_a, m, n, k, alpha, a, lda, bp.panel_width_,
                      bp.data_.data(), beta, c, ldc, nullptr, precision);
}

void gemm_prepacked(bool trans_a, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const PackedB& bp, float beta, float* c,
                    std::int64_t ldc, const GemmEpilogue& epilogue,
                    MatmulPrecision precision) {
  assert(bp.valid() && bp.k_ == k && bp.n_ == n && bp.precision_ == precision);
  const bool has_tail =
      epilogue.bias != nullptr || epilogue.act != GemmEpilogue::Act::kNone;
  gemm_prepacked_impl(trans_a, m, n, k, alpha, a, lda, bp.panel_width_,
                      bp.data_.data(), beta, c, ldc,
                      has_tail ? &epilogue : nullptr, precision);
}

}  // namespace podnet::tensor
