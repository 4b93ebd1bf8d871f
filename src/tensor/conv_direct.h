// Direct (im2col-free) convolution kernels.
//
// EfficientNet's MBConv stages are depthwise-heavy, and for those layers —
// plus small-channel standard convolutions like the stem — the im2col
// materialization costs more memory traffic than the arithmetic it feeds.
// This layer provides direct NHWC kernels that skip the lowering entirely:
//
//   * depthwise_forward / depthwise_backward — register-tiled depthwise
//     convolution. The forward keeps a per-channel-block accumulator in
//     registers across all KhxKw taps (one store per output vector instead
//     of one load+store per tap), with an optional bias + activation
//     applied to it before the store; the backward holds a kernel row of
//     dW accumulators in registers across the whole image.
//   * conv2d_direct — standard convolution for small-in_c stages: the
//     out_c accumulator block of several adjacent interior output pixels
//     (one pixel at the borders) stays in registers while the
//     Kh x Kw x in_c taps stream by, each tap's weight vectors (HWIO makes
//     the out_c axis contiguous) shared by the pixels, with an optional
//     fused bias / bias+activation tail applied while the tile is hot.
//
// Each entry point dispatches once per call between the scalar reference
// (this file's .cc), AVX2, and AVX-512 kernels via simd::active_level().
// nn::Conv2D consults prefer_direct() per layer and keeps the im2col+GEMM
// path as the general fallback; set_mode()/ScopedMode force one path for
// parity tests and benchmarks.
#pragma once

#include <cstdint>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"

namespace podnet::tensor::conv {

// Fused epilogue applied to each output tile while it is in registers.
enum class Epilogue {
  kNone = 0,
  kBias = 1,       // y += bias[c]
  kBiasSwish = 2,  // y = swish(y + bias[c]); bias may be null for plain swish
  kBiasRelu = 3,   // y = max(y + bias[c], 0); bias may be null likewise
};

// Path-selection override for nn::Conv2D (kAuto consults prefer_direct).
enum class Mode {
  kAuto = 0,
  kDirect = 1,  // force the direct kernel where it is implemented
  kIm2col = 2,  // force the im2col+GEMM lowering
};

Mode active_mode();
Mode set_mode(Mode mode);

class ScopedMode {
 public:
  explicit ScopedMode(Mode mode) : prev_(set_mode(mode)) {}
  ~ScopedMode() { set_mode(prev_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode prev_;
};

// Shape heuristic for the standard-conv direct kernel: true when the
// whole tap footprint stays register/L1 friendly — 3x3 or 5x5 kernels over
// few input channels (the stem; expand-ratio-1 MBConv entries) with an
// out_c accumulator block that fits the register file. 1x1 convolutions
// never take this kernel: nn::Conv2D lowers them to a single GEMM with no
// im2col at all, which is strictly better.
bool prefer_direct(const ConvGeometry& g, std::int64_t out_c);

// y[N,OH,OW,out_c] = conv(x, w) with HWIO weights [kh,kw,in_c,out_c] and
// the given epilogue (bias is out_c-long, may be null unless Epilogue
// needs it). Every output element is written (no accumulate-into).
void conv2d_direct(const ConvGeometry& g, std::int64_t out_c, const float* x,
                   const float* w, const float* bias, Epilogue epilogue,
                   float* y);

// Depthwise forward: w is [kh,kw,C]; y fully overwritten.
void depthwise_forward(const ConvGeometry& g, const float* x, const float* w,
                       float* y);

// Depthwise forward with the epilogue applied inside each output row's
// task (same bias/activation contract as conv2d_direct). Bitwise what
// depthwise_forward followed by the row-wise add_inplace and the span
// swish / relu produce.
void depthwise_forward(const ConvGeometry& g, const float* x, const float* w,
                       const float* bias, Epilogue epilogue, float* y);

// Depthwise backward: accumulates dW += x (*) g and dx += w (*) g. The
// caller provides dx zero-initialized; dw follows the Param::grad
// accumulate-across-calls contract.
void depthwise_backward(const ConvGeometry& g, const float* x, const float* w,
                        const float* grad_out, float* dx, float* dw);

// An Epilogue as the GEMM tail the kernels apply: kBias* add `bias` when
// it is non-null, then the activation.
inline GemmEpilogue gemm_epilogue(Epilogue epilogue, const float* bias) {
  GemmEpilogue e;
  e.bias = epilogue == Epilogue::kNone ? nullptr : bias;
  if (epilogue == Epilogue::kBiasSwish) e.act = GemmEpilogue::Act::kSwish;
  if (epilogue == Epilogue::kBiasRelu) e.act = GemmEpilogue::Act::kRelu;
  return e;
}

// Per-level kernels (simd_avx2.cc / simd_avx512.cc). The forward kernels
// take an output-row range [row0, row1) over the N*OH rows so the
// dispatching wrappers above can split them across the thread pool; the
// backward is serial (dW accumulators race across images).
#if defined(PODNET_HAVE_AVX2)
namespace avx2 {
void conv2d_direct_rows(const ConvGeometry& g, std::int64_t out_c,
                        const float* x, const float* w, const float* bias,
                        Epilogue epilogue, float* y, std::int64_t row0,
                        std::int64_t row1);
void depthwise_forward_rows(const ConvGeometry& g, const float* x,
                            const float* w, const float* bias,
                            Epilogue epilogue, float* y, std::int64_t row0,
                            std::int64_t row1);
void depthwise_backward(const ConvGeometry& g, const float* x, const float* w,
                        const float* grad_out, float* dx, float* dw);
}  // namespace avx2
#endif

#if defined(PODNET_HAVE_AVX512)
namespace avx512 {
void conv2d_direct_rows(const ConvGeometry& g, std::int64_t out_c,
                        const float* x, const float* w, const float* bias,
                        Epilogue epilogue, float* y, std::int64_t row0,
                        std::int64_t row1);
void depthwise_forward_rows(const ConvGeometry& g, const float* x,
                            const float* w, const float* bias,
                            Epilogue epilogue, float* y, std::int64_t row0,
                            std::int64_t row1);
void depthwise_backward(const ConvGeometry& g, const float* x, const float* w,
                        const float* grad_out, float* dx, float* dw);
}  // namespace avx512
#endif

}  // namespace podnet::tensor::conv
