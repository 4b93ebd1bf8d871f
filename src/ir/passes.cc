#include "ir/passes.h"

#include "ir/verify.h"

namespace podnet::ir {

PassStats run_passes(Program& p, const PassOptions& opts) {
  PassStats stats;
  if (opts.fold_bn) stats.folded = fold_batch_norm(p);
  if (opts.fuse) stats.fused = fuse_epilogue(p);
  if (opts.dce) stats.removed = dead_code_elimination(p);
  return stats;
}

}  // namespace podnet::ir
