// Static analysis over a lowered Program: the gate that rejects a bad
// program *before* it runs.
//
// ir::verify (verify.h) checks structural invariants only — it cannot see
// an inter-op shape mismatch, an unsound fusion, or a scratch-arena plan
// that aliases two simultaneously-live values. Everything in this header
// closes that gap; each analysis is a plain function over the op vector,
// linear (or near-linear) in program size, and throws std::runtime_error
// naming the offending op/value on the first violation:
//
//  * value dataflow (`infer_value_info`) — a forward walk propagating the
//    rank and trailing-axis channel count of every value symbolically, so
//    arg/def mismatches between ops (a folded conv reading the wrong
//    value, a dense whose in_c disagrees with the pool feeding it) are
//    hard errors at verify time, with no concrete input shape needed.
//    verify() runs it after the structural checks; diagnostics use the
//    "ir shape:" prefix.
//  * concrete shape inference (`infer_shapes`) — the authority for the
//    Shape of every value at a given program input; the executor binds
//    against it and flop_macs costs against it ("ir:" prefix, kept from
//    its original home in ir.cc).
//  * value-range / finiteness analysis (`analyze_ranges`) — interval
//    propagation through conv/BN/activations that statically flags
//    NaN-producing patterns: a BN whose var + eps is not positive (1/sqrt
//    is NaN), a pass-baked parameter tensor containing NaN/Inf (e.g. a
//    fold that got the epsilon sign wrong), with non-fatal findings
//    marking where exp-family activations consume unbounded values —
//    those op indices feed check::assert_finite placement in the
//    executor under PODNET_CHECK ("ir range:" prefix).
//  * plan certification (`certify_plan`) — an independent liveness/alias
//    auditor that re-derives every value and scratch lifetime from the
//    op list (it shares no code with the first-fit placer in plan.cc)
//    and proves the MemoryPlan never overlaps two live buffers, keeps
//    64-byte alignment, and stays inside the arena ("ir plan:" prefix).
//  * pass legality (`DefUse`) — def-use chains with the single-reader /
//    effect queries every pass must consult before rewriting (the lint
//    check in tools/lint.sh enforces that each pass TU queries it).
//
// The mutation harness (ir/mutate.h, tools/ir_mutate,
// tests/ir_analysis_test.cc) proves these have teeth: ~14 deliberately
// bugged pass/planner variants must each be rejected here, and a seeded
// random-program fuzz corpus must pass with zero false positives.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "ir/plan.h"

namespace podnet::ir {

// ---- Value dataflow (symbolic shape inference) ------------------------------

// What a forward walk can know about a value without a concrete program
// input: its rank and its trailing-axis extent (channels for NHWC values,
// features for rank-2 values). -1 means unknown — the program input
// starts unknown and ops with fixed output geometry (conv, dense, pool)
// introduce known info downstream.
struct ValueInfo {
  int rank = -1;
  Index channels = -1;

  bool rank_known() const { return rank >= 0; }
  bool channels_known() const { return channels >= 0; }
};

// Propagates ValueInfo through the program, throwing std::runtime_error
// ("ir shape:" prefix) on the first rank or channel mismatch between an
// op and the value it consumes. Assumes a structurally valid program
// (verify() runs its structural checks first, then calls this).
std::vector<ValueInfo> infer_value_info(const Program& p);

// ---- Concrete shape inference ----------------------------------------------

// Shape of every value id given the program input shape. Entry [v] is the
// shape of value v; entry [kInputValue] echoes `input`. Dead value ids
// (skipped by DCE) keep a default (rank-0) shape. Throws on rank/channel
// mismatches ("ir:" prefix).
std::vector<Shape> infer_shapes(const Program& p, const Shape& input);

// ---- Value-range / finiteness analysis --------------------------------------

// Interval of a value's elements, propagated with outward rounding in
// double so the analysis itself can never overflow. `finite` means the
// analysis proved every element mathematically finite given a finite
// program input and the parameters it scanned; an unbounded-but-finite
// value (lo/hi infinite, finite true) is where float overflow — and the
// NaNs it breeds in exp-family activations — could still appear at run
// time, so those are the assert_finite placement points.
struct ValueRange {
  double lo = -kUnbounded;
  double hi = kUnbounded;
  bool finite = true;

  static constexpr double kUnbounded = 1e300;
  bool bounded() const { return lo > -kUnbounded && hi < kUnbounded; }
};

struct RangeFinding {
  enum class Kind {
    kNonPositiveVariance,  // BN var[c] + eps <= 0: 1/sqrt is NaN. Fatal.
    kNonFiniteParam,       // a parameter tensor carries NaN/Inf. Fatal.
    kUnboundedExpInput,    // exp-family activation over an unbounded
                           // value; overflow risk, assert_finite point.
  };
  Kind kind = Kind::kUnboundedExpInput;
  std::size_t op_index = 0;  // offending op's index in p.ops()
  int value = -1;            // the op's out value id
  bool fatal = false;
  std::string message;  // full "ir range:" diagnostic text
};

struct RangeReport {
  std::vector<ValueRange> ranges;     // per value id
  std::vector<RangeFinding> findings;

  bool fatal() const {
    for (const RangeFinding& f : findings) {
      if (f.fatal) return true;
    }
    return false;
  }
};

// Runs the interval/finiteness walk. Weightless shape programs produce
// no fatal findings (there are no tensors to scan); weighted programs
// get every parameter tensor checked for NaN/Inf and every BN's
// var + eps checked for positivity.
RangeReport analyze_ranges(const Program& p);

// Throws std::runtime_error with the first fatal finding's message.
void assert_ranges(const Program& p);

// Per op index: true where the executor should check::assert_finite the
// op's freshly computed output under PODNET_CHECK — ops applying an
// exp-family activation (standalone swish/sigmoid/softmax, SE gates, or
// a fused act tail) to a value the range analysis could not bound, plus
// the program output when it is unbounded.
std::vector<bool> finite_check_points(const Program& p,
                                      const RangeReport& report);

// ---- Scratch requirements ---------------------------------------------------

// Decides whether a conv op will run through the direct kernel (no
// im2col lowering) at geometry g; the executor wires its per-bind mode
// override through this.
using ConvStrategyFn =
    std::function<bool(const Op& op, const tensor::ConvGeometry& g)>;

// Consults tensor::conv::prefer_direct under the ambient conv mode —
// what an executor bound at the current override would choose.
ConvStrategyFn default_conv_strategy();

// Per-op private scratch need in floats (0 = none), for the lowering
// strategy each op will actually take: one image's im2col column block
// for non-direct convs, the sigmoid buffer of a standalone swish, BN's
// scale+shift pair, and squeeze-excite's three temporaries. Both the
// executor's bind and the plan certifier derive from this one table.
std::vector<std::int64_t> op_scratch_floats(const Program& p,
                                            const std::vector<Shape>& shapes,
                                            const ConvStrategyFn& goes_direct);

// ---- Plan certification -----------------------------------------------------

// Independently re-derives every value's live interval (def to last use,
// with the program output surviving to one past the last op) and every
// scratch block's single-op lifetime, then proves the plan: offsets
// present exactly where a buffer is needed, 64-byte (16-float) aligned,
// inside the arena, and no two simultaneously-live blocks overlapping.
// Throws std::runtime_error ("ir plan:" prefix) naming both blocks on
// the first aliasing pair. Shares no code with plan.cc's placer.
void certify_plan(const Program& p, const std::vector<Shape>& shapes,
                  const std::vector<std::int64_t>& scratch_floats,
                  const MemoryPlan& plan);

// ---- Pass legality ----------------------------------------------------------

// Def-use chains over a structurally valid program. Built once at the
// top of a pass; the queries below are what make a slot-replacement
// rewrite sound, so every pass consults them instead of keeping private
// ad-hoc scans (tools/lint.sh check 7 greps for exactly that).
class DefUse {
 public:
  explicit DefUse(const Program& p);

  // Op index defining `value`, or -1 for the program input / undefined.
  int def_index(int value) const;

  // Number of reads of `value`; the program output counts as a read.
  int use_count(int value) const;

  // True iff exactly one op (or the program result) reads `value`.
  bool single_reader(int value) const { return use_count(value) == 1; }

  // Backward liveness from the program output: live[v] iff v is the
  // output or some transitively-live op reads it. DCE's removal set is
  // exactly the ops whose out is not live.
  const std::vector<bool>& live() const { return live_; }

  // Legality of the canonical fold/fuse rewrite: the consumer op (which
  // reads `producer_value` as its sole argument) is replaced in its slot
  // by a combined op keeping the consumer's out id, leaving the producer
  // dead for DCE. Sound iff the producer is a real op (not the program
  // input) whose value has exactly one reader — the consumer — so no
  // other op (and not the program result) observes the pre-rewrite
  // value. On failure returns false and, when `why` is non-null, stores
  // the reason.
  bool can_replace_consumer(int producer_value, int consumer_value,
                            std::string* why = nullptr) const;

 private:
  const Program* prog_;
  std::vector<int> def_index_;   // per value id, -1 = input/undefined
  std::vector<int> use_count_;   // per value id, output counts
  std::vector<bool> live_;       // per value id
};

}  // namespace podnet::ir
