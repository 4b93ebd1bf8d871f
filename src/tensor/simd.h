// Runtime SIMD dispatch for the compute hot path.
//
// PodNet ships three implementations of every hot kernel: a portable
// scalar reference (bit-compatible with the original code, used for parity
// tests and on CPUs without AVX2), an AVX2/FMA path compiled into a
// separate translation unit (`simd_avx2.cc`) with `-mavx2 -mfma`, and an
// AVX-512 path (`simd_avx512.cc`, `-mavx512{f,bw,dq,vl}`). Which one runs
// is decided once at startup:
//
//   compile time  — each SIMD TU only exists when the compiler accepts its
//                   flags (PODNET_HAVE_AVX2 / PODNET_HAVE_AVX512 are
//                   defined for the tensor library's own sources in that
//                   case; the AVX-512 TU is only added on top of AVX2);
//   run time      — cpuid must report the feature set and the OS must have
//                   enabled the register state via xgetbv (YMM for AVX2;
//                   opmask+ZMM for AVX-512), so a binary built with both
//                   SIMD TUs still runs correctly on older CPUs;
//   environment   — PODNET_SIMD=scalar|avx2|avx512 overrides the detected
//                   level, clamped to what the host supports (requesting
//                   avx512 on an AVX2-only host gets avx2, not a crash),
//                   which is how the perf harness and parity tests time
//                   every path in one process.
//
// The dispatch decision is a relaxed atomic read per kernel call; kernels
// themselves never re-detect.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"

namespace podnet::tensor::simd {

// Levels form a total order: every level's instruction set is a superset
// of the previous one's, so clamping an override is min(request, detected).
enum class Level {
  kScalar = 0,  // portable reference loops
  kAvx2 = 1,    // AVX2 + FMA (256-bit)
  kAvx512 = 2,  // AVX-512 F/BW/DQ/VL (512-bit)
};

const char* level_name(Level level);

// Best level this binary can run here: compile-time availability of the
// SIMD TUs intersected with cpuid/xgetbv. Computed once, then cached.
Level detected_level();

// Level the dispatching kernels actually use. Starts as detected_level()
// unless the PODNET_SIMD environment variable overrides it ("scalar",
// "avx2", or "avx512"; a request above what the host supports is clamped
// down to the detected level).
Level active_level();

// Overrides the active level, clamped to detected_level(); returns the
// previous one. Intended for parity tests and level-vs-level benchmarks.
// Takes effect for subsequent kernel calls; do not flip it while kernels
// are in flight on other threads.
Level set_level(Level level);

// RAII level override for tests/benchmarks.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : prev_(set_level(level)) {}
  ~ScopedLevel() { set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level prev_;
};

#if defined(PODNET_HAVE_AVX2)
// Kernels implemented in simd_avx2.cc. Only the tensor library's own
// translation units see these declarations (the define is PRIVATE to the
// target); everything else goes through the dispatching wrappers in
// ops.h / gemm.h / bf16.h / conv_direct.h. Callers must have checked
// active_level() (or, for GEMM tiles, the recorded PackedB layout).
namespace avx2 {

// ---- elementwise / reduction primitives (see ops.h for semantics) ----
void axpy(float alpha, const float* x, float* y, std::size_t n);
void axpby(float alpha, const float* x, float beta, float* y, std::size_t n);
void scale(float alpha, float* x, std::size_t n);
void scale_copy(float alpha, const float* x, float* y, std::size_t n);
void add_inplace(const float* x, float* y, std::size_t n);
void mul_inplace(const float* x, float* y, std::size_t n);
void fma_inplace(const float* a, const float* b, float* y, std::size_t n);
double sum(const float* x, std::size_t n);
double sum_squares(const float* x, std::size_t n);
double dot(const float* x, const float* y, std::size_t n);
float max_value(const float* x, std::size_t n);
bool all_finite(const float* x, std::size_t n);

// ---- transcendental / activation kernels ----
void sigmoid(const float* x, float* y, std::size_t n);
void swish(const float* x, float* sig, float* y, std::size_t n);
void swish_backward(const float* g, const float* x, const float* sig,
                    float* out, std::size_t n);
void sigmoid_backward(const float* g, const float* y, float* out,
                      std::size_t n);
void relu(const float* x, float* y, std::size_t n);
void relu_backward(const float* g, const float* x, float* out, std::size_t n);
// row[c] = exp(row[c] - m); returns the sum of the exponentials.
double exp_sub_sum(float* row, std::size_t n, float m);

// ---- bf16 ----
// Bit-exact vector version of the scalar round-to-nearest-even roundtrip.
// There is deliberately no AVX-512 variant: this one is the vector
// reference all levels share, keeping the round bit-exact everywhere.
void bf16_round_inplace(float* x, std::size_t n);

// ---- GEMM ----
// Packs op(B) (k x n) into zero-padded column panels of width kNr for the
// 6x16 microkernel.
inline constexpr std::int64_t kMr = 6;
inline constexpr std::int64_t kNr = 16;
std::size_t packed_b_size(std::int64_t k, std::int64_t n);
void pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
            std::int64_t ldb, bool to_bf16, float* dst);
// One tile of C += alpha * op(A) * Bpacked: rows [m0, m1) x panels
// [jp0, jp1) of the kNr-wide panel array produced by pack_b. A plain fp32
// A is read in place (the microkernel broadcasts straight from its rows);
// a transposed or bf16 A is packed into kMr-row panels per (MC x KC)
// block in a thread_local buffer, so concurrent tiles on different
// threads never share pack state. A non-null `epi` is applied to the
// accumulator tile in the store of the last K block: bias, then the
// activation, lane for lane the float operations of the span kernels.
// The 2D tile scheduler in gemm.cc decides the grid; the beta pre-pass
// happens there too.
void gemm_tile(bool trans_a, std::int64_t m0, std::int64_t m1,
               std::int64_t jp0, std::int64_t jp1, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* packed_b, float* c, std::int64_t ldc,
               bool to_bf16, const GemmEpilogue* epi);

}  // namespace avx2
#endif  // PODNET_HAVE_AVX2

#if defined(PODNET_HAVE_AVX512)
// Kernels implemented in simd_avx512.cc (same visibility contract as the
// avx2 namespace above). The AVX-512 tier carries the primitives feeding
// LARS and the all-reduce loops, the activation kernels, and a wider-N
// GEMM microkernel; bf16 rounding intentionally reuses avx2's bit-exact
// kernel.
namespace avx512 {

void axpy(float alpha, const float* x, float* y, std::size_t n);
void axpby(float alpha, const float* x, float beta, float* y, std::size_t n);
void scale(float alpha, float* x, std::size_t n);
void scale_copy(float alpha, const float* x, float* y, std::size_t n);
void add_inplace(const float* x, float* y, std::size_t n);
void mul_inplace(const float* x, float* y, std::size_t n);
void fma_inplace(const float* a, const float* b, float* y, std::size_t n);
double sum(const float* x, std::size_t n);
double sum_squares(const float* x, std::size_t n);
double dot(const float* x, const float* y, std::size_t n);
float max_value(const float* x, std::size_t n);
bool all_finite(const float* x, std::size_t n);

void sigmoid(const float* x, float* y, std::size_t n);
void swish(const float* x, float* sig, float* y, std::size_t n);
void swish_backward(const float* g, const float* x, const float* sig,
                    float* out, std::size_t n);
void sigmoid_backward(const float* g, const float* y, float* out,
                      std::size_t n);
void relu(const float* x, float* y, std::size_t n);
void relu_backward(const float* g, const float* x, float* out, std::size_t n);
double exp_sub_sum(float* row, std::size_t n, float m);

// 8x32 microkernel (8 rows x 2 ZMM accumulator columns, embedded-broadcast
// A operands): twice the N-register block of the AVX2 kernel, so the
// packed-B panels are 32 floats wide and incompatible with avx2::pack_b
// output — PackedB records which width it was packed with.
inline constexpr std::int64_t kMr = 8;
inline constexpr std::int64_t kNr = 32;
std::size_t packed_b_size(std::int64_t k, std::int64_t n);
void pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
            std::int64_t ldb, bool to_bf16, float* dst);
// Same tile contract as avx2::gemm_tile.
void gemm_tile(bool trans_a, std::int64_t m0, std::int64_t m1,
               std::int64_t jp0, std::int64_t jp1, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* packed_b, float* c, std::int64_t ldc,
               bool to_bf16, const GemmEpilogue* epi);

}  // namespace avx512
#endif  // PODNET_HAVE_AVX512

}  // namespace podnet::tensor::simd
