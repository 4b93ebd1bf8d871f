// Graph IR tests: builder/printer goldens, verifier invariants, pass
// rewrites, memory planning, and executor parity with the nn layer
// interpreter (bitwise with no passes; tightly bounded with fold/fuse).
#include "ir/ir.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/trainer.h"
#include "effnet/mbconv.h"
#include "effnet/model.h"
#include "ir/analysis.h"
#include "ir/builder.h"
#include "ir/executor.h"
#include "ir/passes.h"
#include "ir/plan.h"
#include "ir/printer.h"
#include "ir/verify.h"
#include "nn/conv.h"
#include "nn/lower.h"
#include "resnet/resnet.h"
#include "tensor/conv_direct.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace podnet::ir {
namespace {

using nn::Rng;
using tensor::Shape;
using tensor::Tensor;

// Maps a float onto the integers so adjacent representable values differ
// by 1; |monotone(a) - monotone(b)| is the ULP distance (+-0 coincide).
std::int64_t monotone(float x) {
  std::int32_t i;
  std::memcpy(&i, &x, sizeof(i));
  return i >= 0 ? static_cast<std::int64_t>(i)
                : -static_cast<std::int64_t>(i & 0x7fffffff);
}

std::int64_t max_ulp_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  std::int64_t worst = 0;
  for (tensor::Index i = 0; i < a.numel(); ++i) {
    const std::int64_t d =
        std::llabs(monotone(a.data()[i]) - monotone(b.data()[i]));
    if (d > worst) worst = d;
  }
  return worst;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           static_cast<std::size_t>(got.numel()) *
                               sizeof(float)));
}

void expect_close(const Tensor& got, const Tensor& want, float rtol,
                  float atol) {
  ASSERT_EQ(got.shape(), want.shape());
  for (tensor::Index i = 0; i < got.numel(); ++i) {
    const float w = want.data()[i];
    ASSERT_NEAR(got.data()[i], w, atol + rtol * std::fabs(w)) << "at " << i;
  }
}

// Lowers, optimizes, and runs `m` on `x` through the executor.
Tensor run_ir(const nn::Layer& m, const Tensor& x, const PassOptions& opts) {
  Program p = nn::lower_to_program(m);
  run_passes(p, opts);
  Executor exec(p);
  return exec.run(x);
}

PassOptions no_passes() { return {false, false, false}; }

// ---- Builder + printer ------------------------------------------------------

TEST(IrBuilderTest, GoldenPrintCoversEveryOpKind) {
  Builder b;
  const int v1 = b.conv2d(b.input(), 3, 8, 3, 2, nullptr, nullptr,
                          "stem/conv");
  const int v2 = b.batch_norm(v1, 8, 1e-3f, nullptr, nullptr, nullptr,
                              nullptr, "stem/bn");
  const int v3 = b.swish(v2);
  const int v4 = b.depthwise_conv2d(v3, 8, 3, 1, nullptr, "dw");
  const int v5 = b.squeeze_excite(v4, 8, 2, nullptr, nullptr, nullptr,
                                  nullptr, "se");
  const int v6 = b.add(v5, v3);
  const int v7 = b.relu(v6);
  const int v8 = b.global_avg_pool(v7);
  const int v9 = b.gemm(v8, 8, 8, nullptr, "proj");
  const int v10 = b.sigmoid(v9);
  const int v11 = b.dense(v10, 8, 10, nullptr, nullptr, "fc",
                          /*has_bias=*/true);
  const int v12 = b.softmax(v11);
  const Program p = b.finish(v12);

  EXPECT_EQ(print(p),
            "v1 = conv2d(v0) k3 s2 3->8 \"stem/conv\"\n"
            "v2 = batch_norm(v1) c8 \"stem/bn\"\n"
            "v3 = swish(v2)\n"
            "v4 = depthwise_conv2d(v3) k3 s1 c8 \"dw\"\n"
            "v5 = squeeze_excite(v4) c8 se2 \"se\"\n"
            "v6 = add(v5, v3)\n"
            "v7 = relu(v6)\n"
            "v8 = global_avg_pool(v7)\n"
            "v9 = gemm(v8) 8->8 \"proj\"\n"
            "v10 = sigmoid(v9)\n"
            "v11 = dense(v10) 8->10 +bias \"fc\"\n"
            "v12 = softmax(v11)\n"
            "return v12\n");
  EXPECT_EQ(p.output(), v12);
  EXPECT_EQ(p.num_values(), 13);
}

TEST(IrBuilderTest, WeightlessProgramInfersShapes) {
  Builder b;
  const int c = b.conv2d(b.input(), 3, 8, 3, 2, nullptr, nullptr, "c");
  const int g = b.global_avg_pool(c);
  const Program p = b.finish(g);
  const auto shapes = infer_shapes(p, Shape{2, 16, 16, 3});
  EXPECT_EQ(shapes[static_cast<std::size_t>(c)], Shape({2, 8, 8, 8}));
  EXPECT_EQ(shapes[static_cast<std::size_t>(g)], Shape({2, 8}));
}

// ---- Verifier ---------------------------------------------------------------

TEST(IrVerifyTest, RejectsForwardReference) {
  Builder b;
  const int v1 = b.relu(b.input());
  const int v2 = b.relu(v1);
  Program p = b.finish(v2);
  p.ops()[0].args[0] = v2;  // op 0 reads a later op's value
  EXPECT_THROW(verify(p), std::runtime_error);
}

TEST(IrVerifyTest, RejectsUndefinedOutput) {
  Builder b;
  const int v1 = b.relu(b.input());
  Program p = b.finish(v1);
  p.set_output(99);
  EXPECT_THROW(verify(p), std::runtime_error);
}

TEST(IrVerifyTest, RejectsWrongWeightShape) {
  Rng rng(1);
  const Tensor w = Tensor::randn(Shape{3, 3, 3, 7}, rng);  // out_c says 8
  Builder b;
  const int c = b.conv2d(b.input(), 3, 8, 3, 1, &w, nullptr, "c");
  EXPECT_THROW(b.finish(c), std::runtime_error);
}

TEST(IrVerifyTest, RejectsFusedActOnNonMatmulOp) {
  Builder b;
  const int v1 = b.relu(b.input());
  Program p = b.finish(v1);
  p.ops()[0].act = Act::kSwish;
  EXPECT_THROW(verify(p), std::runtime_error);
}

// ---- Pass golden rewrites ---------------------------------------------------

// conv -> bn -> relu with real tensors; each pass leaves a goldenable print.
struct FoldFixture {
  Rng rng{11};
  Tensor w = Tensor::randn(Shape{3, 3, 3, 8}, rng, 0.3f);
  Tensor gamma = Tensor::randn(Shape{8}, rng, 0.2f);
  Tensor beta = Tensor::randn(Shape{8}, rng, 0.2f);
  Tensor mean = Tensor::randn(Shape{8}, rng, 0.5f);
  Tensor var;

  FoldFixture() : var(Shape{8}) {
    for (tensor::Index c = 0; c < 8; ++c) {
      var.at(c) = 0.5f + std::fabs(Tensor::randn(Shape{1}, rng).at(0));
    }
    for (tensor::Index c = 0; c < 8; ++c) gamma.at(c) += 1.f;
  }

  Program build() {
    Builder b;
    const int c = b.conv2d(b.input(), 3, 8, 3, 1, &w, nullptr, "c");
    const int n = b.batch_norm(c, 8, 1e-3f, &gamma, &beta, &mean, &var, "bn");
    const int r = b.relu(n);
    return b.finish(r);
  }
};

TEST(IrPassTest, FoldFuseDceGoldenSequence) {
  FoldFixture f;
  Program p = f.build();
  EXPECT_EQ(print(p),
            "v1 = conv2d(v0) k3 s1 3->8 \"c\"\n"
            "v2 = batch_norm(v1) c8 \"bn\"\n"
            "v3 = relu(v2)\n"
            "return v3\n");

  // Fold replaces the BN slot with the combined conv (same out id, +bias);
  // the original conv goes dead but keeps its slot until DCE.
  EXPECT_EQ(fold_batch_norm(p), 1);
  EXPECT_EQ(print(p),
            "v1 = conv2d(v0) k3 s1 3->8 \"c\"\n"
            "v2 = conv2d(v0) k3 s1 3->8 +bias \"c\"\n"
            "v3 = relu(v2)\n"
            "return v3\n");

  EXPECT_EQ(fuse_epilogue(p), 1);
  EXPECT_EQ(print(p),
            "v1 = conv2d(v0) k3 s1 3->8 \"c\"\n"
            "v2 = conv2d(v0) k3 s1 3->8 +bias \"c\"\n"
            "v3 = conv2d(v0) k3 s1 3->8 +bias +relu \"c\"\n"
            "return v3\n");

  // DCE sweeps both superseded producers; ids are not renumbered.
  EXPECT_EQ(dead_code_elimination(p), 2);
  EXPECT_EQ(print(p),
            "v3 = conv2d(v0) k3 s1 3->8 +bias +relu \"c\"\n"
            "return v3\n");
}

TEST(IrPassTest, FoldSkipsConvWithSecondReader) {
  FoldFixture f;
  Builder b;
  const int c = b.conv2d(b.input(), 3, 8, 3, 1, &f.w, nullptr, "c");
  const int n = b.batch_norm(c, 8, 1e-3f, &f.gamma, &f.beta, &f.mean, &f.var,
                             "bn");
  const int a = b.add(n, c);  // raw conv output escapes into the residual
  Program p = b.finish(a);
  EXPECT_EQ(fold_batch_norm(p), 0);
}

TEST(IrPassTest, FoldSkipsWeightlessPrograms) {
  Builder b;
  const int c = b.conv2d(b.input(), 3, 8, 3, 1, nullptr, nullptr, "c");
  const int n = b.batch_norm(c, 8, 1e-3f, nullptr, nullptr, nullptr, nullptr,
                             "bn");
  Program p = b.finish(n);
  EXPECT_EQ(fold_batch_norm(p), 0);
}

TEST(IrPassTest, PassOptionsDisableIndividually) {
  FoldFixture f;
  Program p = f.build();
  PassOptions opts;
  opts.fold_bn = false;
  const PassStats s = run_passes(p, opts);
  EXPECT_EQ(s.folded, 0);
  EXPECT_EQ(s.fused, 0);  // relu consumes the BN, not a matmul op
  EXPECT_EQ(s.removed, 0);
}

TEST(IrPassTest, FoldNumericsMatchUnfolded) {
  FoldFixture f;
  Rng rng(12);
  const Tensor x = Tensor::randn(Shape{2, 7, 7, 3}, rng);

  Program base = f.build();
  Executor unfolded(base);
  const Tensor want = unfolded.run(x);

  Program p = f.build();
  PassOptions opts;
  opts.fuse = false;
  opts.dce = false;
  EXPECT_EQ(run_passes(p, opts).folded, 1);
  Executor folded(p);
  // Folding reassociates w*scale through the accumulation; agreement is a
  // tight relative bound, not bitwise.
  expect_close(folded.run(x), want, 1e-4f, 1e-5f);
}

TEST(IrPassTest, FuseEpilogueNumericsMatchUnfused) {
  Rng rng(13);
  const Tensor w = Tensor::randn(Shape{3, 3, 4, 16}, rng, 0.3f);
  const Tensor bias = Tensor::randn(Shape{16}, rng, 0.1f);
  const Tensor x = Tensor::randn(Shape{2, 9, 9, 4}, rng);
  const auto build = [&] {
    Builder b;
    const int c = b.conv2d(b.input(), 4, 16, 3, 1, &w, &bias, "c",
                           /*has_bias=*/true);
    return b.finish(b.swish(c));
  };

  Program base = build();
  Executor plain(base);
  const Tensor want = plain.run(x);

  Program p = build();
  PassOptions opts;
  opts.fold_bn = false;
  opts.dce = false;
  EXPECT_EQ(run_passes(p, opts).fused, 1);
  Executor fused_exec(p);
  const Tensor got = fused_exec.run(x);
  // The fused tail evaluates the same swish on the same sums; only the
  // SIMD segmentation of the activation differs (vector vs scalar exp on
  // boundary elements), a few-ULP effect.
  EXPECT_LE(max_ulp_diff(got, want), 256);
  expect_close(got, want, 1e-5f, 1e-6f);
}

// ---- Kernel-level epilogue parity ------------------------------------------

TEST(IrEpilogueTest, GemmBiasTailIsBitwiseExact) {
  Rng rng(21);
  const tensor::Index m = 37, n = 29, k = 17;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor bm = Tensor::randn(Shape{k, n}, rng);
  const Tensor bias = Tensor::randn(Shape{n}, rng);
  const tensor::PackedB pack = tensor::pack_b(false, k, n, bm.data(), n);

  Tensor want = Tensor::uninitialized(Shape{m, n});
  tensor::gemm_prepacked(false, m, n, k, 1.f, a.data(), k, pack, 0.f,
                         want.data(), n);
  for (tensor::Index r = 0; r < m; ++r) {
    tensor::add_inplace(
        std::span<const float>(bias.data(), static_cast<std::size_t>(n)),
        std::span<float>(want.data() + r * n, static_cast<std::size_t>(n)));
  }

  tensor::GemmEpilogue epi;
  epi.act = tensor::GemmEpilogue::Act::kNone;
  epi.bias = bias.data();
  Tensor got = Tensor::uninitialized(Shape{m, n});
  tensor::gemm_prepacked(false, m, n, k, 1.f, a.data(), k, pack, 0.f,
                         got.data(), n, epi);
  expect_bitwise(got, want);
}

TEST(IrEpilogueTest, GemmSwishTailTracksSpanKernel) {
  Rng rng(22);
  const tensor::Index m = 53, n = 31, k = 23;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor bm = Tensor::randn(Shape{k, n}, rng);
  const Tensor bias = Tensor::randn(Shape{n}, rng, 0.1f);
  const tensor::PackedB pack = tensor::pack_b(false, k, n, bm.data(), n);

  Tensor want = Tensor::uninitialized(Shape{m, n});
  tensor::gemm_prepacked(false, m, n, k, 1.f, a.data(), k, pack, 0.f,
                         want.data(), n);
  const std::size_t numel = static_cast<std::size_t>(m * n);
  for (tensor::Index r = 0; r < m; ++r) {
    tensor::add_inplace(
        std::span<const float>(bias.data(), static_cast<std::size_t>(n)),
        std::span<float>(want.data() + r * n, static_cast<std::size_t>(n)));
  }
  std::vector<float> sig(numel);
  tensor::swish(std::span<const float>(want.data(), numel),
                std::span<float>(sig.data(), numel),
                std::span<float>(want.data(), numel));

  tensor::GemmEpilogue epi;
  epi.act = tensor::GemmEpilogue::Act::kSwish;
  epi.bias = bias.data();
  Tensor got = Tensor::uninitialized(Shape{m, n});
  tensor::gemm_prepacked(false, m, n, k, 1.f, a.data(), k, pack, 0.f,
                         got.data(), n, epi);
  EXPECT_LE(max_ulp_diff(got, want), 256);
  expect_close(got, want, 1e-5f, 1e-6f);
}

TEST(IrEpilogueTest, DirectConvBiasReluMatchesSeparateRelu) {
  Rng rng(23);
  const tensor::Index batch = 2, hw = 9, in_c = 4, out_c = 19;
  const auto g = tensor::ConvGeometry::same(batch, hw, hw, in_c, 3, 1);
  const Tensor x = Tensor::randn(Shape{batch, hw, hw, in_c}, rng);
  const Tensor w = Tensor::randn(Shape{3, 3, in_c, out_c}, rng, 0.2f);
  const Tensor bias = Tensor::randn(Shape{out_c}, rng, 0.1f);
  const Shape out_shape{batch, g.out_h, g.out_w, out_c};

  Tensor want = Tensor::uninitialized(out_shape);
  tensor::conv::conv2d_direct(g, out_c, x.data(), w.data(), bias.data(),
                              tensor::conv::Epilogue::kBias, want.data());
  for (tensor::Index i = 0; i < want.numel(); ++i) {
    want.data()[i] = want.data()[i] > 0.f ? want.data()[i] : 0.f;
  }

  // max(y + b, 0) in registers is the same float operation sequence as the
  // separate pass, so the fused epilogue is bitwise identical.
  Tensor got = Tensor::uninitialized(out_shape);
  tensor::conv::conv2d_direct(g, out_c, x.data(), w.data(), bias.data(),
                              tensor::conv::Epilogue::kBiasRelu, got.data());
  expect_bitwise(got, want);
}

// ---- Memory planning --------------------------------------------------------

TEST(IrPlanTest, ArenaReusesAndAligns) {
  effnet::ModelSpec spec = effnet::pico();
  spec.dropout = 0.f;
  spec.drop_connect = 0.f;
  effnet::ModelOptions mopts;
  mopts.num_classes = 8;
  effnet::EfficientNet model(spec, mopts);

  Program p = nn::lower_to_program(model);
  run_passes(p);
  Executor exec(p);
  Rng rng(31);
  (void)exec.run(Tensor::randn(Shape{2, 16, 16, 3}, rng));

  const auto& stats = exec.stats();
  EXPECT_GT(stats.arena_bytes, 0);
  // First-fit reuse must beat the no-reuse layout on a deep chain.
  EXPECT_LT(stats.arena_bytes, stats.no_reuse_bytes);

  const MemoryPlan& plan = exec.plan();
  EXPECT_EQ(plan.value_offset[Program::kInputValue], -1);
  for (const std::int64_t off : plan.value_offset) {
    if (off >= 0) {
      EXPECT_EQ(off % 16, 0);
    }
  }
  for (const std::int64_t off : plan.scratch_offset) {
    if (off >= 0) {
      EXPECT_EQ(off % 16, 0);
    }
  }
  EXPECT_LE(plan.arena_floats, plan.total_floats);
}

TEST(IrPlanTest, DeadValuesStayExecutableWithoutDce) {
  // fold+fuse leave dead producers in place; with DCE off the executor
  // still runs them, so the plan must give every op's value a buffer.
  FoldFixture f;
  Program p = f.build();
  PassOptions opts;
  opts.dce = false;
  run_passes(p, opts);
  Executor exec(p);
  Rng rng(32);
  const Tensor x = Tensor::randn(Shape{1, 5, 5, 3}, rng);
  EXPECT_NO_THROW((void)exec.run(x));
}

// ---- Executor parity with the layer interpreter -----------------------------

TEST(IrExecutorTest, RejectsWeightlessProgram) {
  Builder b;
  const int c = b.conv2d(b.input(), 3, 8, 3, 1, nullptr, nullptr, "c");
  const Program p = b.finish(c);
  EXPECT_THROW(Executor exec(p), std::invalid_argument);
}

TEST(IrExecutorTest, NoPassParityIsBitwiseOnPico) {
  effnet::ModelSpec spec = effnet::pico();
  spec.dropout = 0.f;
  spec.drop_connect = 0.f;
  effnet::ModelOptions mopts;
  mopts.num_classes = 8;
  effnet::EfficientNet model(spec, mopts);
  Rng rng(41);
  // Move the BN running statistics off their init values first.
  (void)model.forward(Tensor::randn(Shape{4, 16, 16, 3}, rng), true);

  const Tensor x = Tensor::randn(Shape{3, 16, 16, 3}, rng);
  const Tensor want = model.forward(x, /*training=*/false);
  expect_bitwise(run_ir(model, x, no_passes()), want);
}

TEST(IrExecutorTest, AllPassParityOnPico) {
  effnet::ModelSpec spec = effnet::pico();
  spec.dropout = 0.f;
  spec.drop_connect = 0.f;
  effnet::ModelOptions mopts;
  mopts.num_classes = 8;
  effnet::EfficientNet model(spec, mopts);
  Rng rng(42);
  (void)model.forward(Tensor::randn(Shape{4, 16, 16, 3}, rng), true);

  const Tensor x = Tensor::randn(Shape{3, 16, 16, 3}, rng);
  const Tensor want = model.forward(x, /*training=*/false);
  expect_close(run_ir(model, x, PassOptions{}), want, 5e-4f, 1e-4f);
}

TEST(IrExecutorTest, PassMatrixParityOnMBConv) {
  Rng rng(43);
  effnet::BlockArgs args;
  args.kernel = 3;
  args.stride = 1;
  args.expand_ratio = 4;
  args.input_filters = 8;
  args.output_filters = 8;
  args.se_ratio = 0.25f;
  args.survival_prob = 1.f;
  effnet::MBConvBlock block(args, rng, rng.split(1),
                            tensor::MatmulPrecision::kFp32, "blk");
  (void)block.forward(Tensor::randn(Shape{4, 8, 8, 8}, rng), true);
  const Tensor x = Tensor::randn(Shape{2, 8, 8, 8}, rng);
  const Tensor want = block.forward(x, /*training=*/false);

  for (const bool fold : {false, true}) {
    for (const bool fuse : {false, true}) {
      for (const bool dce : {false, true}) {
        const PassOptions opts{fold, fuse, dce};
        const Tensor got = run_ir(block, x, opts);
        if (!fold && !fuse) {
          expect_bitwise(got, want);
        } else {
          expect_close(got, want, 5e-4f, 1e-4f);
        }
      }
    }
  }
}

TEST(IrExecutorTest, ParityAcrossConvModeOverrides) {
  effnet::ModelSpec spec = effnet::pico();
  spec.dropout = 0.f;
  spec.drop_connect = 0.f;
  effnet::ModelOptions mopts;
  mopts.num_classes = 8;
  effnet::EfficientNet model(spec, mopts);
  Rng rng(44);
  const Tensor x = Tensor::randn(Shape{2, 16, 16, 3}, rng);

  Program p = nn::lower_to_program(model);
  Executor exec(p);  // one executor; must rebind when the mode flips
  for (const auto mode : {tensor::conv::Mode::kAuto,
                          tensor::conv::Mode::kIm2col,
                          tensor::conv::Mode::kDirect}) {
    tensor::conv::ScopedMode m(mode);
    const Tensor want = model.forward(x, /*training=*/false);
    expect_bitwise(exec.run(x), want);
  }
}

TEST(IrExecutorTest, RebindsOnNewInputShape) {
  effnet::ModelSpec spec = effnet::pico();
  spec.dropout = 0.f;
  spec.drop_connect = 0.f;
  effnet::ModelOptions mopts;
  mopts.num_classes = 8;
  effnet::EfficientNet model(spec, mopts);
  Rng rng(45);

  Program p = nn::lower_to_program(model);
  Executor exec(p);
  for (const tensor::Index batch : {2, 5, 1}) {
    const Tensor x = Tensor::randn(Shape{batch, 16, 16, 3}, rng);
    expect_bitwise(exec.run(x), model.forward(x, /*training=*/false));
  }
}

TEST(IrExecutorTest, ResNetParity) {
  resnet::ResNet::Options opts;
  opts.num_classes = 10;
  resnet::ResNet model(resnet::resnet_tiny(), opts);
  Rng rng(46);
  (void)model.forward(Tensor::randn(Shape{4, 16, 16, 3}, rng), true);

  const Tensor x = Tensor::randn(Shape{2, 16, 16, 3}, rng);
  const Tensor want = model.forward(x, /*training=*/false);
  expect_bitwise(run_ir(model, x, no_passes()), want);
  expect_close(run_ir(model, x, PassOptions{}), want, 5e-4f, 1e-4f);
}

TEST(IrExecutorTest, RandomizedShapesParity) {
  Rng shape_rng(47);
  const auto pick = [&](int lo, int hi) {
    const float u = 0.5f * (Tensor::randn(Shape{1}, shape_rng).at(0) + 3.f);
    const int span = hi - lo + 1;
    int v = lo + static_cast<int>(std::fabs(u) * 997.f) % span;
    return v;
  };
  for (int iter = 0; iter < 6; ++iter) {
    Rng rng(100 + static_cast<std::uint64_t>(iter));
    effnet::BlockArgs args;
    args.kernel = iter % 2 == 0 ? 3 : 5;
    args.stride = 1 + iter % 2;
    args.expand_ratio = 1 + 3 * (iter % 2);
    args.input_filters = static_cast<tensor::Index>(pick(3, 12));
    args.output_filters = args.stride == 1 ? args.input_filters
                                           : static_cast<tensor::Index>(
                                                 pick(4, 16));
    args.se_ratio = iter % 3 == 0 ? 0.25f : 0.f;
    args.survival_prob = 1.f;
    effnet::MBConvBlock block(args, rng, rng.split(1),
                              tensor::MatmulPrecision::kFp32, "blk");
    const tensor::Index n = static_cast<tensor::Index>(pick(1, 3));
    const tensor::Index hw = static_cast<tensor::Index>(pick(5, 11));
    const Tensor x =
        Tensor::randn(Shape{n, hw, hw, args.input_filters}, rng);
    const Tensor want = block.forward(x, /*training=*/false);
    expect_bitwise(run_ir(block, x, no_passes()), want);
    expect_close(run_ir(block, x, PassOptions{}), want, 5e-4f, 1e-4f);
  }
}

// ---- Trainer integration ---------------------------------------------------

core::TrainConfig tiny_train_config() {
  core::TrainConfig c;
  c.spec = effnet::pico();
  c.spec.dropout = 0.f;
  c.spec.drop_connect = 0.f;
  c.dataset.num_classes = 8;
  c.dataset.train_size = 128;
  c.dataset.eval_size = 64;
  c.dataset.resolution = 16;
  c.replicas = 2;
  c.per_replica_batch = 16;
  c.epochs = 1.0;
  c.eval_every_epochs = 1.0;
  c.seed = 9;
  return c;
}

TEST(IrTrainerTest, IrEvalReportsArenaBytesAndMatchesInterpreter) {
  core::TrainConfig c = tiny_train_config();
  c.ir_eval = false;
  const core::TrainResult interp = core::train(c);
  EXPECT_EQ(interp.ir_scratch_bytes, 0);

  // Same seed, IR-backed eval: identical data and training path, so the
  // eval accuracy must match the interpreter run (in PODNET_CHECK builds
  // the trainer additionally asserts logit agreement every eval).
  c.ir_eval = true;
  const core::TrainResult ir = core::train(c);
  EXPECT_GT(ir.ir_scratch_bytes, 0);
  ASSERT_EQ(ir.history.size(), interp.history.size());
  // Folded logits can flip a near-tied argmax on a barely-trained model;
  // allow a couple of examples out of the 64-image eval split.
  EXPECT_NEAR(ir.history.back().eval_accuracy,
              interp.history.back().eval_accuracy, 2.5 / 64);
}

// ---- Interpreter scratch release -------------------------------------------

TEST(IrScratchTest, Conv2DReleasesIm2colScratch) {
  Rng rng(51);
  nn::Conv2D conv(6, 10, 3, 1, rng, /*use_bias=*/false);
  const Tensor x = Tensor::randn(Shape{2, 9, 9, 6}, rng);
  tensor::conv::ScopedMode m(tensor::conv::Mode::kIm2col);
  (void)conv.forward(x, /*training=*/false);
  EXPECT_GT(conv.scratch_bytes(), 0);
  conv.release_scratch();
  EXPECT_EQ(conv.scratch_bytes(), 0);
}

TEST(IrScratchTest, ModelScratchReleasesAndArenaIsSmaller) {
  effnet::ModelSpec spec = effnet::pico();
  spec.dropout = 0.f;
  spec.drop_connect = 0.f;
  effnet::ModelOptions mopts;
  mopts.num_classes = 8;
  effnet::EfficientNet model(spec, mopts);
  Rng rng(52);
  const Tensor x = Tensor::randn(Shape{8, 16, 16, 3}, rng);
  {
    tensor::conv::ScopedMode m(tensor::conv::Mode::kIm2col);
    (void)model.forward(x, /*training=*/false);
  }
  const std::int64_t interp_scratch = model.scratch_bytes();
  EXPECT_GT(interp_scratch, 0);
  model.release_scratch();
  EXPECT_EQ(model.scratch_bytes(), 0);

  Program p = nn::lower_to_program(model);
  run_passes(p);
  Executor exec(p);
  tensor::conv::ScopedMode m(tensor::conv::Mode::kIm2col);
  (void)exec.run(x);
  // The planned arena covers *all* values and scratch yet stays below the
  // unshared sum its blocks would need.
  EXPECT_LT(exec.stats().arena_bytes, exec.stats().no_reuse_bytes);
}

}  // namespace
}  // namespace podnet::ir
