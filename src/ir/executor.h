// Executor: runs a Program against the existing tensor/SIMD kernels.
//
// Construction packs every weight matrix once (PackedB: convs, dense and
// GEMM ops, squeeze-excite's two matrices) and validates that the program
// carries real parameter tensors. The first
// run() — and any run at a new input shape or conv-mode override — binds
// the program: shapes are inferred, per-op scratch needs are computed for
// the lowering strategy each conv will actually take, and ir/plan.h lays
// out one first-fit arena for every intermediate value and scratch block.
// Steady-state inference then allocates nothing but the output tensor.
//
// Kernel parity: with no passes applied, the executor runs the kernels
// nn's layer interpreter uses at inference — the same three conv lowering
// strategies (1x1-stride-1 single GEMM, conv_direct for register-friendly
// shapes, per-image im2col+GEMM), dense layers and squeeze-excite through
// the same B panels and microkernel as gemm_contiguous, and the span
// activations — so results are bitwise identical. Bias adds and fused
// activations run in the kernels' register epilogues (conv_direct,
// depthwise, tensor::GemmEpilogue), which perform the span kernels' float
// operations: bitwise the same at the scalar and AVX-512 levels, within
// the parity tests' ULP bound at AVX2. A PackedB keeps the layout of the
// level it was packed under, so after a level flip the GEMMs still run
// that level's microkernel.
//
// Threading: run() must be called from one thread at a time (the GEMMs'
// per-thread pack-buffer contract); different Executors on different
// threads are fine. Fp32 only — bf16 models keep the layer interpreter.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/ir.h"
#include "ir/plan.h"
#include "tensor/conv_direct.h"
#include "tensor/gemm.h"

namespace podnet::ir {

class Executor {
 public:
  struct Stats {
    std::int64_t arena_bytes = 0;     // planned peak, first-fit reuse
    std::int64_t no_reuse_bytes = 0;  // same blocks with no reuse
  };

  // Borrows `p` (and, transitively, the model tensors it references);
  // both must outlive the executor. Throws std::invalid_argument on a
  // weightless shape program, and on a program the range analysis
  // statically proves NaN-producing (non-finite parameters, a BN whose
  // var + eps is not positive).
  explicit Executor(const Program& p);

  // Runs the program on `input` and returns the output value as a fresh
  // tensor. Rebinds automatically when the input shape or the
  // conv-direct mode override changed since the last run.
  Tensor run(const Tensor& input);

  // Valid after the first run() (or bind via run); zero/empty before.
  const Stats& stats() const { return stats_; }
  const MemoryPlan& plan() const { return plan_; }
  const std::vector<Shape>& shapes() const { return shapes_; }
  // Per-op private scratch needs (floats) at the current binding, from
  // ir/analysis.h op_scratch_floats — what the plan above was built (and
  // certified) against.
  const std::vector<std::int64_t>& scratch_floats() const { return scratch_; }

 private:
  void bind(const Shape& input);
  bool conv_goes_direct(const Op& op, const tensor::ConvGeometry& g) const;

  // Per op, packed at construction: the weight matrix of a conv, dense or
  // GEMM op in `w`; squeeze-excite's reduce matrix in `w`, its expand
  // matrix in `w2`. Invalid for every other op.
  struct Packed {
    tensor::PackedB w;
    tensor::PackedB w2;
  };

  const Program* prog_;
  std::vector<Packed> packed_;
  std::vector<bool> finite_check_;  // per op; assert_finite points (CHECK)

  Shape bound_input_;
  tensor::conv::Mode bound_mode_ = tensor::conv::Mode::kAuto;
  std::vector<Shape> shapes_;
  std::vector<std::int64_t> scratch_;  // per op, floats
  MemoryPlan plan_;
  std::vector<float> arena_;
  Stats stats_;
};

}  // namespace podnet::ir
