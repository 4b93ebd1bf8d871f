// Scalar reference kernels and the per-call dispatch for the direct
// (im2col-free) convolution path. The AVX2/AVX-512 variants live in
// simd_avx2.cc / simd_avx512.cc; all levels share the same loop structure
// and per-element tap order (kh, kw ascending; ci ascending for the
// standard conv), so they differ from this reference only by FMA contraction
// and the vectorized exp in the swish tail — the ULP parity tests bound it.
#include "tensor/conv_direct.h"

#include <atomic>
#include <cassert>
#include <cmath>

#include "tensor/thread_pool.h"

namespace podnet::tensor::conv {
namespace {

std::atomic<Mode>& mode_slot() {
  static std::atomic<Mode> slot{Mode::kAuto};
  return slot;
}

// Output rows (one row = one n,oh pair) are independent: the wrapper
// splits them over the kernel worker pool when the arithmetic is large
// enough to amortize the fork/join, mirroring the GEMM threshold.
constexpr std::int64_t kParallelFlops = std::int64_t{1} << 22;

void scalar_depthwise_forward_rows(const ConvGeometry& g, const float* x,
                                   const float* w, const float* bias,
                                   Epilogue epilogue, float* y,
                                   std::int64_t row0, std::int64_t row1) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  const GemmEpilogue epi = gemm_epilogue(epilogue, bias);
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t n = row / g.out_h;
    const std::int64_t oh = row % g.out_h;
    const std::int64_t ih0 = oh * g.stride - g.pad_top;
    const std::int64_t kh_lo = ih0 < 0 ? -ih0 : 0;
    const std::int64_t kh_hi = std::min<std::int64_t>(K, g.in_h - ih0);
    float* out_row = y + row * g.out_w * C;
    for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
      const std::int64_t iw0 = ow * g.stride - g.pad_left;
      const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
      float* out = out_row + ow * C;
      for (std::int64_t c = 0; c < C; ++c) {
        float acc = 0.f;
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_row =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C;
          const float* w_row = w + kh * K * C;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc += in_row[kw * C + c] * w_row[kw * C + c];
          }
        }
        // The scalar add_inplace / swish / relu element operations.
        if (epi.bias != nullptr) acc += epi.bias[c];
        if (epi.act == GemmEpilogue::Act::kSwish) {
          acc = acc * (1.0f / (1.0f + std::exp(-acc)));
        } else if (epi.act == GemmEpilogue::Act::kRelu) {
          acc = acc > 0.f ? acc : 0.f;
        }
        out[c] = acc;
      }
    }
  }
}

void scalar_conv2d_direct_rows(const ConvGeometry& g, std::int64_t out_c,
                               const float* x, const float* w,
                               const float* bias, Epilogue epilogue, float* y,
                               std::int64_t row0, std::int64_t row1) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t n = row / g.out_h;
    const std::int64_t oh = row % g.out_h;
    const std::int64_t ih0 = oh * g.stride - g.pad_top;
    const std::int64_t kh_lo = ih0 < 0 ? -ih0 : 0;
    const std::int64_t kh_hi = std::min<std::int64_t>(K, g.in_h - ih0);
    float* out_row = y + row * g.out_w * out_c;
    for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
      const std::int64_t iw0 = ow * g.stride - g.pad_left;
      const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
      float* out = out_row + ow * out_c;
      for (std::int64_t co = 0; co < out_c; ++co) {
        float acc = 0.f;
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_row =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            const float* in = in_row + kw * C;
            const float* wk = w + ((kh * K + kw) * C) * out_c + co;
            for (std::int64_t ci = 0; ci < C; ++ci) {
              acc += in[ci] * wk[ci * out_c];
            }
          }
        }
        if (epilogue != Epilogue::kNone) {
          if (bias != nullptr) acc += bias[co];
          if (epilogue == Epilogue::kBiasSwish) {
            acc = acc / (1.0f + std::exp(-acc));
          } else if (epilogue == Epilogue::kBiasRelu) {
            acc = acc > 0.f ? acc : 0.f;
          }
        }
        out[co] = acc;
      }
    }
  }
}

void scalar_depthwise_backward(const ConvGeometry& g, const float* x,
                               const float* w, const float* grad_out,
                               float* dx, float* dw) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t kh = 0; kh < K; ++kh) {
      float dwacc[7] = {};  // kernel <= 7x7; asserted by the wrapper
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
          const std::int64_t ih = oh * g.stride - g.pad_top + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          const float* g_row =
              grad_out + (n * g.out_h + oh) * g.out_w * C;
          const float* x_row = x + (n * g.in_h + ih) * g.in_w * C;
          float* dx_row = dx + (n * g.in_h + ih) * g.in_w * C;
          for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
            const float gv = g_row[ow * C + c];
            const std::int64_t iw0 = ow * g.stride - g.pad_left;
            const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
            const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
            for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
              const std::int64_t ioff = (iw0 + kw) * C + c;
              dwacc[kw] += x_row[ioff] * gv;
              dx_row[ioff] += w[(kh * K + kw) * C + c] * gv;
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

template <typename RowFn>
void run_rows(const ConvGeometry& g, std::int64_t flops_per_row,
              const RowFn& fn) {
  const std::int64_t rows = g.batch * g.out_h;
  if (rows * flops_per_row >= kParallelFlops &&
      ThreadPool::global().worker_count() > 0) {
    ThreadPool::global().parallel_for(
        rows, [&](std::int64_t r0, std::int64_t r1) { fn(r0, r1); });
  } else {
    fn(0, rows);
  }
}

}  // namespace

Mode active_mode() { return mode_slot().load(std::memory_order_relaxed); }

Mode set_mode(Mode mode) {
  return mode_slot().exchange(mode, std::memory_order_relaxed);
}

bool prefer_direct(const ConvGeometry& g, std::int64_t out_c) {
  // 3x3/5x5 over few input channels: the whole weight tensor stays L1
  // resident and an out_c accumulator block fits the register file. Wider
  // input channels amortize im2col better via the GEMM microkernel.
  if (g.kernel_h != g.kernel_w) return false;
  if (g.kernel_h != 3 && g.kernel_h != 5) return false;
  return g.in_c <= 8 && out_c <= 64;
}

void conv2d_direct(const ConvGeometry& g, std::int64_t out_c, const float* x,
                   const float* w, const float* bias, Epilogue epilogue,
                   float* y) {
  assert(g.kernel_h == g.kernel_w && g.kernel_h <= 7);
  const std::int64_t flops_per_row =
      2 * g.out_w * out_c * g.kernel_h * g.kernel_w * g.in_c;
  const simd::Level level = simd::active_level();
  (void)level;
#if defined(PODNET_HAVE_AVX512)
  if (level == simd::Level::kAvx512) {
    run_rows(g, flops_per_row, [&](std::int64_t r0, std::int64_t r1) {
      avx512::conv2d_direct_rows(g, out_c, x, w, bias, epilogue, y, r0, r1);
    });
    return;
  }
#endif
#if defined(PODNET_HAVE_AVX2)
  if (level >= simd::Level::kAvx2) {
    run_rows(g, flops_per_row, [&](std::int64_t r0, std::int64_t r1) {
      avx2::conv2d_direct_rows(g, out_c, x, w, bias, epilogue, y, r0, r1);
    });
    return;
  }
#endif
  run_rows(g, flops_per_row, [&](std::int64_t r0, std::int64_t r1) {
    scalar_conv2d_direct_rows(g, out_c, x, w, bias, epilogue, y, r0, r1);
  });
}

void depthwise_forward(const ConvGeometry& g, const float* x, const float* w,
                       float* y) {
  depthwise_forward(g, x, w, nullptr, Epilogue::kNone, y);
}

void depthwise_forward(const ConvGeometry& g, const float* x, const float* w,
                       const float* bias, Epilogue epilogue, float* y) {
  assert(g.kernel_h == g.kernel_w && g.kernel_h <= 7);
  const std::int64_t flops_per_row =
      2 * g.out_w * g.in_c * g.kernel_h * g.kernel_w;
  const simd::Level level = simd::active_level();
  (void)level;
#if defined(PODNET_HAVE_AVX512)
  if (level == simd::Level::kAvx512) {
    run_rows(g, flops_per_row, [&](std::int64_t r0, std::int64_t r1) {
      avx512::depthwise_forward_rows(g, x, w, bias, epilogue, y, r0, r1);
    });
    return;
  }
#endif
#if defined(PODNET_HAVE_AVX2)
  if (level >= simd::Level::kAvx2) {
    run_rows(g, flops_per_row, [&](std::int64_t r0, std::int64_t r1) {
      avx2::depthwise_forward_rows(g, x, w, bias, epilogue, y, r0, r1);
    });
    return;
  }
#endif
  run_rows(g, flops_per_row, [&](std::int64_t r0, std::int64_t r1) {
    scalar_depthwise_forward_rows(g, x, w, bias, epilogue, y, r0, r1);
  });
}

void depthwise_backward(const ConvGeometry& g, const float* x, const float* w,
                        const float* grad_out, float* dx, float* dw) {
  assert(g.kernel_h == g.kernel_w && g.kernel_h <= 7);
  const simd::Level level = simd::active_level();
  (void)level;
#if defined(PODNET_HAVE_AVX512)
  if (level == simd::Level::kAvx512) {
    avx512::depthwise_backward(g, x, w, grad_out, dx, dw);
    return;
  }
#endif
#if defined(PODNET_HAVE_AVX2)
  if (level >= simd::Level::kAvx2) {
    avx2::depthwise_backward(g, x, w, grad_out, dx, dw);
    return;
  }
#endif
  scalar_depthwise_backward(g, x, w, grad_out, dx, dw);
}

}  // namespace podnet::tensor::conv
