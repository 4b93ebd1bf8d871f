// Optimization passes over a lowered Program.
//
// Pass order (run_passes): conv+BN fold -> epilogue fusion -> DCE. Each
// pass is a plain function Program& -> rewrite count, verified with
// PODNET_IR_VERIFY after rewriting. The rewrite convention keeps
// topological order trivially valid: a fold/fuse replaces the *consumer*
// op slot (the BN / activation) with the combined op — same out id, new
// attributes — and leaves the old producer in place, now dead, for DCE to
// sweep. This is why fold and fuse only fire when the producer's value
// has exactly one consumer.
//
//   fold_batch_norm: conv(w) -> bn(gamma,beta,mean,var)  becomes
//     conv(w*scale, bias = old_bias*scale + shift) using the exact float
//     arithmetic of BatchNorm's inference path (scale = gamma/sqrt(var +
//     eps), shift = beta - mean*scale). Applies to standard and depthwise
//     convs; skips weightless programs.
//   fuse_epilogue: conv/dense -> swish/relu becomes a fused-Act op, run
//     through the conv_direct register epilogue or the GEMM tail hook
//     (tensor::GemmEpilogue). Depthwise convs fuse too — the executor
//     applies their tail with the shared span kernels.
//   dead_code_elimination: drops ops whose value neither any consumer nor
//     the program output reads. Value ids are not renumbered, so golden
//     prints show the surviving structure with stable ids.
#pragma once

#include "ir/ir.h"

namespace podnet::ir {

struct PassOptions {
  bool fold_bn = true;
  bool fuse = true;
  bool dce = true;
};

struct PassStats {
  int folded = 0;   // conv+BN pairs folded
  int fused = 0;    // activation epilogues fused
  int removed = 0;  // dead ops swept
};

int fold_batch_norm(Program& p);
int fuse_epilogue(Program& p);
int dead_code_elimination(Program& p);

// Runs the enabled passes in the canonical order.
PassStats run_passes(Program& p, const PassOptions& opts = PassOptions{});

}  // namespace podnet::ir
