#include "ir/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "tensor/conv_direct.h"
#include "tensor/ops.h"

namespace podnet::ir {
namespace {

[[noreturn]] void shape_fail(const Op& op, const std::string& what) {
  throw std::runtime_error("ir shape: " + std::string(op_kind_name(op.kind)) +
                           " '" + op.name + "' (v" + std::to_string(op.out) +
                           "): " + what);
}

[[noreturn]] void plan_fail(const std::string& what) {
  throw std::runtime_error("ir plan: " + what);
}

void require_rank(const Op& op, int arg, const ValueInfo& info, int want) {
  if (info.rank_known() && info.rank != want) {
    shape_fail(op, "arg v" + std::to_string(arg) + " has rank " +
                       std::to_string(info.rank) + ", expected rank " +
                       std::to_string(want));
  }
}

void require_channels(const Op& op, int arg, const ValueInfo& info,
                      Index want, const char* attr) {
  if (info.channels_known() && info.channels != want) {
    shape_fail(op, "arg v" + std::to_string(arg) + " has " +
                       std::to_string(info.channels) + " channels, expected " +
                       attr + " " + std::to_string(want));
  }
}

}  // namespace

// ---- Value dataflow (symbolic shape inference) ------------------------------

std::vector<ValueInfo> infer_value_info(const Program& p) {
  std::vector<ValueInfo> info(static_cast<std::size_t>(p.num_values()));
  for (const Op& op : p.ops()) {
    const auto arg = [&](std::size_t i) -> const ValueInfo& {
      return info[static_cast<std::size_t>(op.args[i])];
    };
    ValueInfo out;
    switch (op.kind) {
      case OpKind::kConv2D:
        require_rank(op, op.args[0], arg(0), 4);
        require_channels(op, op.args[0], arg(0), op.in_c, "in_c");
        out = {4, op.out_c};
        break;
      case OpKind::kDepthwiseConv2D:
        require_rank(op, op.args[0], arg(0), 4);
        require_channels(op, op.args[0], arg(0), op.in_c, "channels");
        out = {4, op.in_c};
        break;
      case OpKind::kBatchNorm:
      case OpKind::kSqueezeExcite:
        require_rank(op, op.args[0], arg(0), 4);
        require_channels(op, op.args[0], arg(0), op.in_c, "channels");
        out = {4, op.in_c};
        break;
      case OpKind::kSwish:
      case OpKind::kRelu:
      case OpKind::kSigmoid:
        out = arg(0);
        break;
      case OpKind::kSoftmax:
        require_rank(op, op.args[0], arg(0), 2);
        out = arg(0);
        out.rank = 2;
        break;
      case OpKind::kAdd: {
        const ValueInfo& a = arg(0);
        const ValueInfo& b = arg(1);
        if (a.rank_known() && b.rank_known() && a.rank != b.rank) {
          shape_fail(op, "operand ranks differ (" + std::to_string(a.rank) +
                             " vs " + std::to_string(b.rank) + ")");
        }
        if (a.channels_known() && b.channels_known() &&
            a.channels != b.channels) {
          shape_fail(op, "operand channels differ (" +
                             std::to_string(a.channels) + " vs " +
                             std::to_string(b.channels) + ")");
        }
        out.rank = a.rank_known() ? a.rank : b.rank;
        out.channels = a.channels_known() ? a.channels : b.channels;
        break;
      }
      case OpKind::kGlobalAvgPool:
        require_rank(op, op.args[0], arg(0), 4);
        out = {2, arg(0).channels};
        break;
      case OpKind::kDense:
      case OpKind::kGemm:
        require_rank(op, op.args[0], arg(0), 2);
        require_channels(op, op.args[0], arg(0), op.in_c, "in_c");
        out = {2, op.out_c};
        break;
    }
    info[static_cast<std::size_t>(op.out)] = out;
  }
  return info;
}

// ---- Concrete shape inference (moved from ir.cc; the "ir:" authority) -------

namespace {

[[noreturn]] void concrete_fail(const Op& op, const std::string& what) {
  throw std::runtime_error("ir: " + std::string(op_kind_name(op.kind)) +
                           " '" + op.name + "' (v" + std::to_string(op.out) +
                           "): " + what);
}

void expect_rank(const Op& op, const Shape& s, int rank) {
  if (s.rank() != rank) {
    concrete_fail(op, "expected rank-" + std::to_string(rank) +
                          " input, got " + s.str());
  }
}

}  // namespace

std::vector<Shape> infer_shapes(const Program& p, const Shape& input) {
  if (input.rank() < 2) {
    throw std::runtime_error("ir: program input must have rank >= 2, got " +
                             input.str());
  }
  std::vector<Shape> shapes(static_cast<std::size_t>(p.num_values()));
  shapes[Program::kInputValue] = input;
  for (const Op& op : p.ops()) {
    auto arg = [&](std::size_t i) -> const Shape& {
      return shapes[static_cast<std::size_t>(op.args[i])];
    };
    Shape out;
    switch (op.kind) {
      case OpKind::kConv2D: {
        expect_rank(op, arg(0), 4);
        if (arg(0)[3] != op.in_c) {
          concrete_fail(op, "input channels " + std::to_string(arg(0)[3]) +
                                " != in_c " + std::to_string(op.in_c));
        }
        const tensor::ConvGeometry g = conv_geometry(op, arg(0));
        out = Shape{g.batch, g.out_h, g.out_w, op.out_c};
        break;
      }
      case OpKind::kDepthwiseConv2D: {
        expect_rank(op, arg(0), 4);
        if (arg(0)[3] != op.in_c) {
          concrete_fail(op, "input channels " + std::to_string(arg(0)[3]) +
                                " != channels " + std::to_string(op.in_c));
        }
        const tensor::ConvGeometry g = conv_geometry(op, arg(0));
        out = Shape{g.batch, g.out_h, g.out_w, op.in_c};
        break;
      }
      case OpKind::kBatchNorm:
      case OpKind::kSqueezeExcite: {
        expect_rank(op, arg(0), 4);
        if (arg(0)[3] != op.in_c) {
          concrete_fail(op, "input channels " + std::to_string(arg(0)[3]) +
                                " != channels " + std::to_string(op.in_c));
        }
        out = arg(0);
        break;
      }
      case OpKind::kSwish:
      case OpKind::kRelu:
      case OpKind::kSigmoid:
        out = arg(0);
        break;
      case OpKind::kSoftmax:
        expect_rank(op, arg(0), 2);
        out = arg(0);
        break;
      case OpKind::kAdd:
        if (arg(0) != arg(1)) {
          concrete_fail(op, "operand shapes differ: " + arg(0).str() +
                                " vs " + arg(1).str());
        }
        out = arg(0);
        break;
      case OpKind::kGlobalAvgPool:
        expect_rank(op, arg(0), 4);
        out = Shape{arg(0)[0], arg(0)[3]};
        break;
      case OpKind::kDense:
      case OpKind::kGemm:
        expect_rank(op, arg(0), 2);
        if (arg(0)[1] != op.in_c) {
          concrete_fail(op, "input features " + std::to_string(arg(0)[1]) +
                                " != in_c " + std::to_string(op.in_c));
        }
        out = Shape{arg(0)[0], op.out_c};
        break;
    }
    shapes[static_cast<std::size_t>(op.out)] = out;
  }
  return shapes;
}

// ---- Value-range / finiteness analysis --------------------------------------

namespace {

constexpr double kUB = ValueRange::kUnbounded;

double clamp_range(double x) {
  if (x > kUB) return kUB;
  if (x < -kUB) return -kUB;
  return x;
}

std::string range_msg(const Op& op, const std::string& what) {
  return "ir range: " + std::string(op_kind_name(op.kind)) + " '" + op.name +
         "' (v" + std::to_string(op.out) + "): " + what;
}

// True when every element of `t` is finite; one SIMD-dispatched
// exponent-bits scan decides (tensor::all_finite), and the index hunt
// runs only on the failing path.
bool tensor_finite(const Tensor& t, Index* first_bad) {
  const float* d = t.data();
  const Index n = t.numel();
  if (tensor::all_finite({d, static_cast<std::size_t>(n)})) return true;
  for (Index i = 0; i < n; ++i) {
    if (!std::isfinite(d[i])) {
      *first_bad = i;
      return false;
    }
  }
  *first_bad = 0;
  return false;
}

struct ParamScan {
  bool all_finite = true;  // across every tensor the op carries
};

// Scans each parameter tensor the op carries; appends one fatal finding
// per non-finite tensor.
ParamScan scan_params(const Op& op, std::size_t op_index,
                      std::vector<RangeFinding>& findings) {
  struct Field {
    const Tensor* t;
    const char* label;
  };
  const Field fields[] = {
      {op.weight, "weight"}, {op.bias, "bias"},   {op.gamma, "gamma"},
      {op.beta, "beta"},     {op.mean, "running_mean"},
      {op.var, "running_var"}, {op.se_w1, "se_w1"}, {op.se_b1, "se_b1"},
      {op.se_w2, "se_w2"},   {op.se_b2, "se_b2"},
  };
  ParamScan scan;
  for (const Field& f : fields) {
    if (f.t == nullptr) continue;
    Index bad = 0;
    if (!tensor_finite(*f.t, &bad)) {
      scan.all_finite = false;
      RangeFinding finding;
      finding.kind = RangeFinding::Kind::kNonFiniteParam;
      finding.op_index = op_index;
      finding.value = op.out;
      finding.fatal = true;
      finding.message = range_msg(
          op, std::string(f.label) + " contains a non-finite value (first at "
                                     "flat index " +
                  std::to_string(bad) + " of " + std::to_string(f.t->numel()) +
                  ")");
      findings.push_back(std::move(finding));
    }
  }
  return scan;
}

// Largest per-output-channel sum of |w| — the Lipschitz-style bound a
// conv/gemm/dense applies to a bounded input. The output channel is the
// last, contiguous axis in HWIO, depthwise [k,k,C], and [in,out] layouts
// alike.
double max_abs_channel_sum(const Tensor& w, Index out_c) {
  std::vector<double> sums(static_cast<std::size_t>(out_c), 0.0);
  const float* d = w.data();
  const Index rows = w.numel() / out_c;
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < out_c; ++c) {
      sums[static_cast<std::size_t>(c)] +=
          std::fabs(static_cast<double>(d[r * out_c + c]));
    }
  }
  double worst = 0;
  for (const double s : sums) worst = std::max(worst, s);
  return worst;
}

double max_abs(const Tensor& t) {
  double worst = 0;
  const float* d = t.data();
  for (Index i = 0; i < t.numel(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(d[i])));
  }
  return worst;
}

ValueRange apply_act(ValueRange r, Act act) {
  switch (act) {
    case Act::kNone:
      return r;
    case Act::kRelu:
      r.lo = std::max(r.lo, 0.0);
      r.hi = std::max(r.hi, 0.0);
      return r;
    case Act::kSwish:
      // swish(x) = x*sigmoid(x): bounded below by the global minimum
      // ~-0.2785, bounded above by max(x, 0).
      r.lo = r.lo >= 0 ? 0.0 : -0.2785;
      r.hi = std::max(r.hi, 0.0);
      return r;
  }
  return r;
}

bool exp_family(OpKind kind) {
  return kind == OpKind::kSwish || kind == OpKind::kSigmoid ||
         kind == OpKind::kSoftmax || kind == OpKind::kSqueezeExcite;
}

}  // namespace

RangeReport analyze_ranges(const Program& p) {
  RangeReport report;
  report.ranges.resize(static_cast<std::size_t>(p.num_values()));

  const auto& ops = p.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const ValueRange& in = report.ranges[static_cast<std::size_t>(op.args[0])];
    const ParamScan scan = scan_params(op, i, report.findings);
    ValueRange out;  // default: unbounded, finite
    out.finite = in.finite && scan.all_finite;

    switch (op.kind) {
      case OpKind::kConv2D:
      case OpKind::kDepthwiseConv2D:
      case OpKind::kGemm:
      case OpKind::kDense: {
        if (op.weight != nullptr && scan.all_finite && in.bounded()) {
          const Index out_c =
              op.kind == OpKind::kDepthwiseConv2D ? op.in_c : op.out_c;
          const double amax = std::max(std::fabs(in.lo), std::fabs(in.hi));
          double bound = max_abs_channel_sum(*op.weight, out_c) * amax;
          if (op.bias != nullptr) bound += max_abs(*op.bias);
          out.lo = clamp_range(-bound);
          out.hi = clamp_range(bound);
        }
        if (op.act == Act::kSwish && !out.bounded()) {
          RangeFinding f;
          f.kind = RangeFinding::Kind::kUnboundedExpInput;
          f.op_index = i;
          f.value = op.out;
          f.fatal = false;
          f.message = range_msg(
              op, "fused activation over an unbounded value; placing finite "
                  "check");
          report.findings.push_back(std::move(f));
        }
        out = apply_act(out, op.act);
        break;
      }
      case OpKind::kBatchNorm: {
        if (op.var != nullptr) {
          for (Index c = 0; c < op.in_c; ++c) {
            if (!(op.var->at(c) + op.eps > 0.f)) {
              RangeFinding f;
              f.kind = RangeFinding::Kind::kNonPositiveVariance;
              f.op_index = i;
              f.value = op.out;
              f.fatal = true;
              f.message = range_msg(
                  op, "running variance var[" + std::to_string(c) +
                          "] + eps is not positive (1/sqrt is NaN)");
              report.findings.push_back(std::move(f));
              out.finite = false;
              break;
            }
          }
        }
        if (op.var != nullptr && scan.all_finite && out.finite &&
            in.bounded()) {
          double max_scale = 0, max_shift = 0;
          for (Index c = 0; c < op.in_c; ++c) {
            const double istd =
                1.0 / std::sqrt(static_cast<double>(op.var->at(c)) + op.eps);
            const double scale = op.gamma->at(c) * istd;
            const double shift = op.beta->at(c) - op.mean->at(c) * scale;
            max_scale = std::max(max_scale, std::fabs(scale));
            max_shift = std::max(max_shift, std::fabs(shift));
          }
          const double amax = std::max(std::fabs(in.lo), std::fabs(in.hi));
          const double bound = clamp_range(max_scale * amax + max_shift);
          out.lo = -bound;
          out.hi = bound;
        }
        break;
      }
      case OpKind::kSwish:
        out = apply_act(in, Act::kSwish);
        out.finite = in.finite;
        break;
      case OpKind::kRelu:
        out = apply_act(in, Act::kRelu);
        out.finite = in.finite;
        break;
      case OpKind::kSigmoid:
      case OpKind::kSoftmax:
        out.lo = 0.0;
        out.hi = 1.0;
        out.finite = in.finite;
        break;
      case OpKind::kSqueezeExcite:
        // The channel gate is a sigmoid output in [0,1], so the gated
        // value can only shrink toward zero.
        out.lo = std::min(in.lo, 0.0);
        out.hi = std::max(in.hi, 0.0);
        break;
      case OpKind::kAdd: {
        const ValueRange& rhs =
            report.ranges[static_cast<std::size_t>(op.args[1])];
        out.lo = clamp_range(in.lo + rhs.lo);
        out.hi = clamp_range(in.hi + rhs.hi);
        out.finite = in.finite && rhs.finite;
        break;
      }
      case OpKind::kGlobalAvgPool:
        out.lo = in.lo;
        out.hi = in.hi;
        out.finite = in.finite;
        break;
    }

    if (exp_family(op.kind) && !in.bounded()) {
      RangeFinding f;
      f.kind = RangeFinding::Kind::kUnboundedExpInput;
      f.op_index = i;
      f.value = op.out;
      f.fatal = false;
      f.message =
          range_msg(op, "exp over an unbounded value; placing finite check");
      report.findings.push_back(std::move(f));
    }

    report.ranges[static_cast<std::size_t>(op.out)] = out;
  }
  return report;
}

void assert_ranges(const Program& p) {
  const RangeReport report = analyze_ranges(p);
  for (const RangeFinding& f : report.findings) {
    if (f.fatal) throw std::runtime_error(f.message);
  }
}

std::vector<bool> finite_check_points(const Program& p,
                                      const RangeReport& report) {
  std::vector<bool> points(p.ops().size(), false);
  for (const RangeFinding& f : report.findings) {
    if (f.kind == RangeFinding::Kind::kUnboundedExpInput) {
      points[f.op_index] = true;
    }
  }
  const auto& ops = p.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].out == p.output() &&
        !report.ranges[static_cast<std::size_t>(p.output())].bounded()) {
      points[i] = true;
    }
  }
  return points;
}

// ---- Scratch requirements ---------------------------------------------------

ConvStrategyFn default_conv_strategy() {
  return [](const Op& op, const tensor::ConvGeometry& g) {
    const tensor::conv::Mode mode = tensor::conv::active_mode();
    return mode == tensor::conv::Mode::kDirect ||
           (mode == tensor::conv::Mode::kAuto &&
            tensor::conv::prefer_direct(g, op.out_c));
  };
}

std::vector<std::int64_t> op_scratch_floats(const Program& p,
                                            const std::vector<Shape>& shapes,
                                            const ConvStrategyFn& goes_direct) {
  const auto& ops = p.ops();
  std::vector<std::int64_t> scratch(ops.size(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const Shape& in = shapes[static_cast<std::size_t>(op.args[0])];
    const Shape& out = shapes[static_cast<std::size_t>(op.out)];
    switch (op.kind) {
      case OpKind::kConv2D: {
        const tensor::ConvGeometry g = conv_geometry(op, in);
        if (op.kernel == 1 && op.stride == 1) break;  // single GEMM, no col
        if (goes_direct(op, g)) break;                // no lowering at all
        scratch[i] = g.out_h * g.out_w * g.col_cols();  // one image's col
        break;
      }
      case OpKind::kBatchNorm:
        scratch[i] = 2 * op.in_c;  // scale + shift
        break;
      case OpKind::kSwish:
        scratch[i] = out.numel();  // sigmoid buffer
        break;
      case OpKind::kSqueezeExcite: {
        const Index n = in[0];
        // squeezed [N,C] + gate [N,C] + reduced [N,se_c].
        scratch[i] = 2 * n * op.in_c + n * op.se_c;
        break;
      }
      // Their bias + activation tails run in the kernels' registers.
      case OpKind::kDepthwiseConv2D:
      case OpKind::kDense:
      case OpKind::kGemm:
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kAdd:
      case OpKind::kGlobalAvgPool:
      case OpKind::kSoftmax:
        break;
    }
  }
  return scratch;
}

// ---- Plan certification -----------------------------------------------------

namespace {

struct AuditBlock {
  std::string label;      // "v<N>" or "scratch@<op>"
  std::int64_t offset = 0;
  std::int64_t size = 0;  // exact floats (unpadded)
  int live_begin = 0;     // op index range, inclusive
  int live_end = 0;
};

std::string interval_str(const AuditBlock& b) {
  return b.label + " [" + std::to_string(b.offset) + ", " +
         std::to_string(b.offset + b.size) + ") live ops " +
         std::to_string(b.live_begin) + ".." + std::to_string(b.live_end);
}

}  // namespace

void certify_plan(const Program& p, const std::vector<Shape>& shapes,
                  const std::vector<std::int64_t>& scratch_floats,
                  const MemoryPlan& plan) {
  const auto& ops = p.ops();
  const int n_ops = static_cast<int>(ops.size());
  const std::size_t n_values = static_cast<std::size_t>(p.num_values());
  if (plan.value_offset.size() != n_values) {
    plan_fail("value_offset covers " + std::to_string(plan.value_offset.size()) +
              " values, program has " + std::to_string(n_values));
  }
  if (plan.scratch_offset.size() != ops.size()) {
    plan_fail("scratch_offset covers " +
              std::to_string(plan.scratch_offset.size()) + " ops, program has " +
              std::to_string(ops.size()));
  }
  if (shapes.size() != n_values || scratch_floats.size() != ops.size()) {
    plan_fail("shape/scratch tables do not match the program");
  }

  // Independent lifetime re-derivation: def point and last read per value;
  // the program output is read after the last op (the executor copies it
  // out), so it survives to n_ops.
  std::vector<int> def(n_values, -1);
  std::vector<int> last_use(n_values, -1);
  for (int i = 0; i < n_ops; ++i) {
    const Op& op = ops[static_cast<std::size_t>(i)];
    def[static_cast<std::size_t>(op.out)] = i;
    for (const int a : op.args) {
      last_use[static_cast<std::size_t>(a)] =
          std::max(last_use[static_cast<std::size_t>(a)], i);
    }
  }
  last_use[static_cast<std::size_t>(p.output())] = n_ops;

  std::vector<AuditBlock> blocks;
  blocks.reserve(n_values + ops.size());

  // The program input lives outside the arena, always.
  if (plan.value_offset[Program::kInputValue] != -1) {
    plan_fail("program input v0 must live outside the arena (offset -1), got " +
              std::to_string(plan.value_offset[Program::kInputValue]));
  }

  for (std::size_t v = 1; v < n_values; ++v) {
    const std::int64_t off = plan.value_offset[v];
    if (def[v] < 0) {
      if (off != -1) {
        plan_fail("dead value v" + std::to_string(v) +
                  " has arena offset " + std::to_string(off));
      }
      continue;
    }
    if (off < 0) {
      plan_fail("value v" + std::to_string(v) + " defined by op " +
                std::to_string(def[v]) + " has no arena offset");
    }
    AuditBlock b;
    b.label = "v" + std::to_string(v);
    b.offset = off;
    b.size = shapes[v].numel();
    b.live_begin = def[v];
    b.live_end = std::max(last_use[v], def[v]);
    blocks.push_back(std::move(b));
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::int64_t off = plan.scratch_offset[i];
    if (scratch_floats[i] <= 0) {
      if (off != -1) {
        plan_fail("op " + std::to_string(i) +
                  " needs no scratch but has offset " + std::to_string(off));
      }
      continue;
    }
    if (off < 0) {
      plan_fail("op " + std::to_string(i) + " needs " +
                std::to_string(scratch_floats[i]) +
                " scratch floats but has no offset");
    }
    AuditBlock b;
    b.label = "scratch@" + std::to_string(i);
    b.offset = off;
    b.size = scratch_floats[i];
    b.live_begin = static_cast<int>(i);
    b.live_end = static_cast<int>(i);
    blocks.push_back(std::move(b));
  }

  for (const AuditBlock& b : blocks) {
    if (b.offset % 16 != 0) {
      plan_fail(b.label + " offset " + std::to_string(b.offset) +
                " is not 64-byte (16-float) aligned");
    }
    if (b.offset + b.size > plan.arena_floats) {
      plan_fail(interval_str(b) + " exceeds the arena end " +
                std::to_string(plan.arena_floats));
    }
  }

  // Pairwise alias audit over exact extents: two blocks may share space
  // only when their live intervals are disjoint.
  std::sort(blocks.begin(), blocks.end(),
            [](const AuditBlock& a, const AuditBlock& b) {
              return a.offset < b.offset;
            });
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const AuditBlock& a = blocks[i];
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const AuditBlock& b = blocks[j];
      if (b.offset >= a.offset + a.size) break;  // sorted: no later overlap
      if (a.live_begin <= b.live_end && b.live_begin <= a.live_end) {
        plan_fail(interval_str(a) + " overlaps " + interval_str(b) +
                  " while both are live");
      }
    }
  }
}

// ---- Pass legality ----------------------------------------------------------

DefUse::DefUse(const Program& p) : prog_(&p) {
  const std::size_t n = static_cast<std::size_t>(p.num_values());
  def_index_.assign(n, -1);
  use_count_.assign(n, 0);
  live_.assign(n, false);

  const auto& ops = p.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    def_index_[static_cast<std::size_t>(ops[i].out)] = static_cast<int>(i);
    for (const int a : ops[i].args) {
      ++use_count_[static_cast<std::size_t>(a)];
    }
  }
  ++use_count_[static_cast<std::size_t>(p.output())];

  live_[static_cast<std::size_t>(p.output())] = true;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (!live_[static_cast<std::size_t>(it->out)]) continue;
    for (const int a : it->args) live_[static_cast<std::size_t>(a)] = true;
  }
}

int DefUse::def_index(int value) const {
  if (value < 0 || value >= prog_->num_values()) return -1;
  return def_index_[static_cast<std::size_t>(value)];
}

int DefUse::use_count(int value) const {
  if (value < 0 || value >= prog_->num_values()) return 0;
  return use_count_[static_cast<std::size_t>(value)];
}

bool DefUse::can_replace_consumer(int producer_value, int consumer_value,
                                  std::string* why) const {
  const auto reject = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  const int pi = def_index(producer_value);
  if (pi < 0) {
    return reject("producer v" + std::to_string(producer_value) +
                  " is the program input or undefined");
  }
  const int ci = def_index(consumer_value);
  if (ci < 0) {
    return reject("consumer v" + std::to_string(consumer_value) +
                  " is not defined by an op");
  }
  const Op& consumer = prog_->ops()[static_cast<std::size_t>(ci)];
  bool reads = false;
  for (const int a : consumer.args) reads = reads || a == producer_value;
  if (!reads) {
    return reject("consumer v" + std::to_string(consumer_value) +
                  " does not read producer v" +
                  std::to_string(producer_value));
  }
  if (use_count(producer_value) != 1) {
    return reject("producer v" + std::to_string(producer_value) + " has " +
                  std::to_string(use_count(producer_value)) +
                  " readers (program output counts); the rewrite would hide "
                  "the pre-rewrite value from the others");
  }
  return true;
}

}  // namespace podnet::ir
