// Single-precision GEMM with optional bf16 multiplicands.
//
// C = alpha * op(A) * op(B) + beta * C, row-major, with op in {identity,
// transpose}. This is the workhorse behind im2col convolutions and dense
// layers. The bf16 variant rounds both multiplicand matrices through
// bfloat16 before the fp32-accumulated product, reproducing TPU
// mixed-precision semantics (paper Sec 3.5).
//
// Three implementations sit behind one entry point (see src/tensor/simd.h
// for the dispatch rules): a scalar reference that is bit-compatible with
// the original PodNet kernel, an AVX2/FMA path built around a
// register-blocked 6x16 microkernel, and an AVX-512 path around an 8x32
// microkernel, both over cache-blocked packed B panels (A is read in
// place unless it is transposed or rounded to bf16). A shared 2D (rows x
// column-panels) tile scheduler in gemm.cc splits every sufficiently large
// product across the thread pool; each C element belongs to exactly one
// tile and the in-tile K order is fixed, so results are independent of the
// thread count and grid shape. The SIMD results differ from the scalar one
// only by floating-point reassociation (tests bound the difference with a
// ULP-scaled tolerance).
#pragma once

#include <cstdint>
#include <vector>

namespace podnet::tensor {

// Precision of the multiplicands fed to the (simulated) matrix unit.
enum class MatmulPrecision {
  kFp32,   // plain fp32 multiply-accumulate
  kBf16,   // bf16 multiplicands, fp32 accumulation (TPU MXU semantics)
};

// Row-major GEMM. lda/ldb/ldc are leading dimensions (row strides) of the
// *stored* matrices, i.e. of A as laid out in memory, before transposition.
//
// Reentrancy contract: gemm() is safe to call concurrently from different
// threads (the pack buffers are thread_local), but it is NOT reentrant on
// one thread — a nested call would clobber the live pack of the outer one.
// Debug builds assert against nesting. Pack capacity is released when a
// call needs less than a quarter of the high-water mark, so one oversized
// product does not pin its peak footprint per thread forever.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc,
          MatmulPrecision precision = MatmulPrecision::kFp32);

// Fused tail: an optional per-column bias add followed by an optional
// activation. The SIMD microkernels apply it to the accumulator registers
// in the store of the last K block — no second pass over the output — with
// the float operations of the span kernels (ops.h add_inplace / swish /
// relu), so the result is bitwise the interpreter's separate bias pass and
// activation at the scalar and AVX-512 levels. At AVX2 the span kernels
// finish each span with scalar code, where only non-finite values can
// round differently (the parity tests bound the difference in ULPs).
struct GemmEpilogue {
  enum class Act { kNone = 0, kSwish, kRelu };
  Act act = Act::kNone;
  const float* bias = nullptr;  // n-long, may be null for a bias-free tail
};

// A pre-packed right-hand side for repeated products against the same B —
// the convolution batch loop packs its weight matrix once and reuses it
// for every image. The packed layout matches whichever dispatch level was
// active at pack time (panel_width records it: 0 = dense row-major scalar
// layout, 16 = AVX2 microkernel panels, 32 = AVX-512 panels) and
// gemm_prepacked follows the recorded layout, so a PackedB stays valid
// even if the level is flipped afterwards (tests do that). Read-only after
// packing: safe to share across threads.
class PackedB {
 public:
  PackedB() = default;

  bool valid() const { return k_ > 0 && n_ > 0; }
  std::int64_t k() const { return k_; }
  std::int64_t n() const { return n_; }
  std::int64_t panel_width() const { return panel_width_; }

 private:
  friend PackedB pack_b(bool, std::int64_t, std::int64_t, const float*,
                        std::int64_t, MatmulPrecision);
  friend void gemm_prepacked(bool, std::int64_t, std::int64_t, std::int64_t,
                             float, const float*, std::int64_t,
                             const PackedB&, float, float*, std::int64_t,
                             MatmulPrecision);
  friend void gemm_prepacked(bool, std::int64_t, std::int64_t, std::int64_t,
                             float, const float*, std::int64_t,
                             const PackedB&, float, float*, std::int64_t,
                             const GemmEpilogue&, MatmulPrecision);

  std::vector<float> data_;
  std::int64_t k_ = 0;
  std::int64_t n_ = 0;
  std::int64_t panel_width_ = 0;
  MatmulPrecision precision_ = MatmulPrecision::kFp32;
};

// Packs op(B) (k x n after transposition) once, applying the precision's
// multiplicand rounding.
PackedB pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
               std::int64_t ldb,
               MatmulPrecision precision = MatmulPrecision::kFp32);

// C = alpha * op(A) * Bpacked + beta * C. `precision` must match the one
// the PackedB was built with (it governs the rounding of A here; B was
// rounded at pack time). Same per-thread reentrancy contract as gemm().
void gemm_prepacked(bool trans_a, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const PackedB& bp, float beta, float* c,
                    std::int64_t ldc,
                    MatmulPrecision precision = MatmulPrecision::kFp32);

// As above, with a fused epilogue applied to each C tile in the worker
// that computed it (the ir::Executor's GEMM tail for bias + activation).
void gemm_prepacked(bool trans_a, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const PackedB& bp, float beta, float* c,
                    std::int64_t ldc, const GemmEpilogue& epilogue,
                    MatmulPrecision precision = MatmulPrecision::kFp32);

// Convenience wrapper for contiguous row-major operands:
// A is m x k, B is k x n, C is m x n (when untransposed).
inline void gemm_contiguous(bool trans_a, bool trans_b, std::int64_t m,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, const float* b, float beta,
                            float* c,
                            MatmulPrecision precision = MatmulPrecision::kFp32) {
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;
  gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, n,
       precision);
}

}  // namespace podnet::tensor
