#include "nn/conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/depthwise_conv.h"
#include "nn/grad_check.h"
#include "tensor/conv_direct.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace podnet::nn {
namespace {

TEST(Conv2DTest, OutputShapeSamePadding) {
  Rng rng(1);
  Conv2D conv(3, 8, 3, 1, rng);
  Tensor x = Tensor::randn(Shape{2, 7, 7, 3}, rng);
  EXPECT_EQ(conv.forward(x, false).shape(), Shape({2, 7, 7, 8}));

  Conv2D strided(3, 8, 3, 2, rng);
  EXPECT_EQ(strided.forward(x, false).shape(), Shape({2, 4, 4, 8}));
}

TEST(Conv2DTest, OneByOneConvIsPerPixelMatmul) {
  Rng rng(2);
  Conv2D conv(2, 3, 1, 1, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 2, 2}, rng);
  Tensor y = conv.forward(x, false);
  // Manually compute pixel (0, 0): y = W^T x with W in [1,1,2,3] (HWIO).
  auto params = parameters_of(conv);
  const Tensor& w = params[0]->value;
  for (Index co = 0; co < 3; ++co) {
    float expect = 0.f;
    for (Index ci = 0; ci < 2; ++ci) {
      expect += x.at4(0, 0, 0, ci) * w.at(ci * 3 + co);
    }
    EXPECT_NEAR(y.at4(0, 0, 0, co), expect, 1e-5f);
  }
}

TEST(Conv2DTest, TranslationCovarianceInterior) {
  // Shifting the input one pixel shifts the stride-1 output one pixel
  // (away from padding effects).
  Rng rng(3);
  Conv2D conv(1, 4, 3, 1, rng);
  Tensor x(Shape{1, 8, 8, 1});
  x.at4(0, 3, 3, 0) = 1.f;  // impulse
  Tensor y1 = conv.forward(x, false);
  Tensor x2(Shape{1, 8, 8, 1});
  x2.at4(0, 4, 5, 0) = 1.f;
  Tensor y2 = conv.forward(x2, false);
  for (Index c = 0; c < 4; ++c) {
    EXPECT_NEAR(y1.at4(0, 3, 3, c), y2.at4(0, 4, 5, c), 1e-6f);
    EXPECT_NEAR(y1.at4(0, 2, 2, c), y2.at4(0, 3, 4, c), 1e-6f);
  }
}

TEST(Conv2DTest, GradCheck) {
  Rng rng(4);
  Conv2D conv(3, 5, 3, 1, rng);
  Tensor x = Tensor::randn(Shape{2, 5, 5, 3}, rng);
  GradCheckOptions opts;
  opts.epsilon = 1e-2f;
  const auto res = grad_check(conv, x, rng, opts);
  EXPECT_LE(res.max_rel_err, 5e-2) << res.worst;
}

TEST(Conv2DTest, GradCheckStride2WithBias) {
  Rng rng(5);
  Conv2D conv(2, 4, 3, 2, rng, /*use_bias=*/true);
  Tensor x = Tensor::randn(Shape{2, 6, 6, 2}, rng);
  GradCheckOptions opts;
  opts.epsilon = 1e-2f;
  const auto res = grad_check(conv, x, rng, opts);
  EXPECT_LE(res.max_rel_err, 5e-2) << res.worst;
}

TEST(Conv2DTest, GradientAccumulatesAcrossBackwardCalls) {
  Rng rng(6);
  Conv2D conv(1, 1, 1, 1, rng);
  Tensor x = Tensor::full(Shape{1, 2, 2, 1}, 1.f);
  Tensor g = Tensor::full(Shape{1, 2, 2, 1}, 1.f);
  auto params = parameters_of(conv);
  zero_grads(params);
  conv.forward(x, true);
  conv.backward(g);
  const float once = params[0]->grad.at(0);
  conv.forward(x, true);
  conv.backward(g);
  EXPECT_FLOAT_EQ(params[0]->grad.at(0), 2 * once);
}

TEST(DepthwiseConv2DTest, ChannelsStayIndependent) {
  Rng rng(7);
  DepthwiseConv2D dw(3, 3, 1, rng);
  Tensor x(Shape{1, 5, 5, 3});
  // Only channel 1 is nonzero -> only channel 1 of the output is nonzero.
  for (Index h = 0; h < 5; ++h) {
    for (Index w = 0; w < 5; ++w) x.at4(0, h, w, 1) = 1.f;
  }
  Tensor y = dw.forward(x, false);
  for (Index h = 0; h < 5; ++h) {
    for (Index w = 0; w < 5; ++w) {
      EXPECT_EQ(y.at4(0, h, w, 0), 0.f);
      EXPECT_EQ(y.at4(0, h, w, 2), 0.f);
    }
  }
}

TEST(DepthwiseConv2DTest, OutputShape) {
  Rng rng(8);
  DepthwiseConv2D dw(4, 5, 2, rng);
  Tensor x = Tensor::randn(Shape{2, 9, 9, 4}, rng);
  EXPECT_EQ(dw.forward(x, false).shape(), Shape({2, 5, 5, 4}));
}

TEST(DepthwiseConv2DTest, GradCheck) {
  Rng rng(9);
  DepthwiseConv2D dw(3, 3, 1, rng);
  Tensor x = Tensor::randn(Shape{2, 4, 4, 3}, rng);
  GradCheckOptions opts;
  opts.epsilon = 1e-2f;
  const auto res = grad_check(dw, x, rng, opts);
  EXPECT_LE(res.max_rel_err, 5e-2) << res.worst;
}

TEST(DepthwiseConv2DTest, GradCheckStride2) {
  Rng rng(10);
  DepthwiseConv2D dw(2, 3, 2, rng);
  Tensor x = Tensor::randn(Shape{1, 6, 6, 2}, rng);
  GradCheckOptions opts;
  opts.epsilon = 1e-2f;
  const auto res = grad_check(dw, x, rng, opts);
  EXPECT_LE(res.max_rel_err, 5e-2) << res.worst;
}

TEST(ConvPrecisionTest, Bf16MatchesFp32WithinRoundingBudget) {
  Rng rng(11);
  Conv2D fp(3, 8, 3, 1, rng);
  Rng rng2(11);
  Conv2D bf(3, 8, 3, 1, rng2, /*use_bias=*/false,
            tensor::MatmulPrecision::kBf16);
  Tensor x = Tensor::randn(Shape{1, 6, 6, 3}, rng);
  Tensor yf = fp.forward(x, false);
  Tensor yb = bf.forward(x, false);
  // Same weights (same init stream); outputs differ only by bf16 rounding.
  double max_rel = 0;
  for (Index i = 0; i < yf.numel(); ++i) {
    const double denom = std::max(0.05, std::abs(static_cast<double>(yf.at(i))));
    max_rel = std::max(max_rel, std::abs(yf.at(i) - yb.at(i)) / denom);
  }
  EXPECT_GT(max_rel, 0.0);   // rounding is actually happening
  EXPECT_LT(max_rel, 0.15);  // but small (~2^-8 per multiplicand, 27 taps)
}

// Naive double-precision convolution used as the parity reference below.
// Alongside each output it accumulates the absolute contribution mass, which
// bounds the reassociation error of any same-math float kernel.
void naive_conv_ref(const tensor::ConvGeometry& g, Index out_c, const float* x,
                    const float* w, const float* bias,
                    std::vector<double>& ref, std::vector<double>& mass) {
  ref.assign(static_cast<std::size_t>(g.batch * g.out_h * g.out_w * out_c), 0);
  mass.assign(ref.size(), 0);
  for (Index n = 0; n < g.batch; ++n) {
    for (Index oh = 0; oh < g.out_h; ++oh) {
      for (Index ow = 0; ow < g.out_w; ++ow) {
        const std::size_t o0 = static_cast<std::size_t>(
            ((n * g.out_h + oh) * g.out_w + ow) * out_c);
        for (Index kh = 0; kh < g.kernel_h; ++kh) {
          const Index ih = oh * g.stride - g.pad_top + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          for (Index kw = 0; kw < g.kernel_w; ++kw) {
            const Index iw = ow * g.stride - g.pad_left + kw;
            if (iw < 0 || iw >= g.in_w) continue;
            const float* xp =
                x + ((n * g.in_h + ih) * g.in_w + iw) * g.in_c;
            const float* wp = w + (kh * g.kernel_w + kw) * g.in_c * out_c;
            for (Index ci = 0; ci < g.in_c; ++ci) {
              for (Index co = 0; co < out_c; ++co) {
                const double p = static_cast<double>(xp[ci]) *
                                 wp[ci * out_c + co];
                ref[o0 + static_cast<std::size_t>(co)] += p;
                mass[o0 + static_cast<std::size_t>(co)] += std::abs(p);
              }
            }
          }
        }
        if (bias) {
          for (Index co = 0; co < out_c; ++co) {
            ref[o0 + static_cast<std::size_t>(co)] += bias[co];
            mass[o0 + static_cast<std::size_t>(co)] += std::abs(bias[co]);
          }
        }
      }
    }
  }
}

TEST(DirectConvTest, MatchesIm2colAcrossShapesAndLevels) {
  namespace conv = tensor::conv;
  namespace simd = tensor::simd;
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  const simd::Level levels[] = {simd::Level::kScalar, simd::Level::kAvx2,
                                simd::Level::kAvx512};
  // out_c sweeps the vector-width tails: below/at/above 8, 16, 32 lanes.
  const Index out_cs[] = {1, 7, 8, 9, 16, 17, 24, 31, 32, 33, 48, 64};
  Rng data_rng(41);
  for (int iter = 0; iter < 12; ++iter) {
    const Index kernel = (iter % 2 == 0) ? 3 : 5;
    const Index stride = (iter % 3 == 0) ? 2 : 1;
    const Index in_c = 1 + iter % 8;
    const Index out_c = out_cs[iter % 12];
    const Index hw = kernel + 2 + iter % 5;
    const Index batch = 1 + iter % 2;
    const bool use_bias = iter % 2 == 1;

    Rng init_rng(100 + iter);
    Conv2D layer(in_c, out_c, kernel, stride, init_rng, use_bias);
    Tensor x = Tensor::randn(Shape{batch, hw, hw, in_c}, data_rng);

    const auto g = tensor::ConvGeometry::same(batch, hw, hw, in_c, kernel,
                                              stride);
    auto params = parameters_of(layer);
    const float* bias = use_bias ? params[1]->value.data() : nullptr;
    std::vector<double> ref, mass;
    naive_conv_ref(g, out_c, x.data(), params[0]->value.data(), bias, ref,
                   mass);
    // Float summation of T contributions drifts by at most ~T ulps of the
    // absolute mass, whichever order a kernel accumulates in.
    const double taps = static_cast<double>(kernel * kernel * in_c + 8);

    for (const auto mode : {conv::Mode::kIm2col, conv::Mode::kDirect}) {
      for (const simd::Level request : levels) {
        conv::ScopedMode m(mode);
        simd::ScopedLevel lvl(request);
        Tensor y = layer.forward(x, /*training=*/false);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(y.data()[i], ref[i], taps * kEps * mass[i] + 1e-30)
              << "iter " << iter << " mode " << static_cast<int>(mode)
              << " level " << simd::level_name(request) << " at " << i;
        }
      }
    }
  }
}

TEST(DirectConvTest, FusedSwishEpilogueMatchesReferenceAcrossLevels) {
  namespace conv = tensor::conv;
  namespace simd = tensor::simd;
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  const Index batch = 2, hw = 7, in_c = 4, out_c = 19, kernel = 3;
  const auto g = tensor::ConvGeometry::same(batch, hw, hw, in_c, kernel, 1);
  Rng rng(43);
  Tensor x = Tensor::randn(Shape{batch, hw, hw, in_c}, rng);
  Tensor w = Tensor::randn(Shape{kernel, kernel, in_c, out_c}, rng, 0.2f);
  Tensor b = Tensor::randn(Shape{out_c}, rng, 0.1f);

  std::vector<double> ref, mass;
  naive_conv_ref(g, out_c, x.data(), w.data(), b.data(), ref, mass);
  const double taps = static_cast<double>(kernel * kernel * in_c + 8);

  for (const simd::Level request :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    simd::ScopedLevel lvl(request);
    Tensor y = Tensor::uninitialized(Shape{batch, g.out_h, g.out_w, out_c});
    conv::conv2d_direct(g, out_c, x.data(), w.data(), b.data(),
                        conv::Epilogue::kBiasSwish, y.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const double a = ref[i];
      const double expect = a / (1.0 + std::exp(-a));
      // Accumulator drift (Lipschitz constant of swish is ~1.1) plus the
      // vector exp's few-ulp tracking of std::exp.
      const double tol = 2e-6 * (1.0 + std::abs(a)) +
                         2.0 * taps * kEps * mass[i];
      ASSERT_NEAR(y.data()[i], expect, tol)
          << "level " << simd::level_name(request) << " at " << i;
    }
  }
}

TEST(DepthwiseDirectTest, ForwardAndBackwardMatchScalarAcrossLevels) {
  namespace conv = tensor::conv;
  namespace simd = tensor::simd;
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  // Channel counts straddle the 8/16/32-lane block boundaries; strides and
  // kernels cover the EfficientNet depthwise variants.
  struct Case { Index c, kernel, stride, hw; };
  // The hw >= 12 stride-1 3x3 cases engage the interior fast path (it
  // needs >= 8 unclipped output columns); the small ones stay on the
  // general per-pixel path.
  const Case cases[] = {{1, 3, 1, 6},  {3, 3, 2, 7},   {5, 5, 1, 8},
                        {8, 3, 1, 6},  {15, 5, 2, 9},  {16, 3, 1, 5},
                        {17, 3, 2, 8}, {32, 5, 1, 7},  {33, 3, 1, 6},
                        {8, 3, 1, 16}, {17, 3, 1, 14}, {24, 3, 1, 20}};
  Rng rng(47);
  for (const Case& tc : cases) {
    const auto g = tensor::ConvGeometry::same(2, tc.hw, tc.hw, tc.c,
                                              tc.kernel, tc.stride);
    Tensor x = Tensor::randn(Shape{2, tc.hw, tc.hw, tc.c}, rng);
    Tensor w = Tensor::randn(Shape{tc.kernel, tc.kernel, tc.c}, rng);
    Tensor go = Tensor::randn(Shape{2, g.out_h, g.out_w, tc.c}, rng);
    const double taps = static_cast<double>(tc.kernel * tc.kernel + 8);

    Tensor y0 = Tensor::uninitialized(go.shape());
    Tensor dx0(x.shape());
    Tensor dw0(w.shape());
    {
      simd::ScopedLevel lvl(simd::Level::kScalar);
      conv::depthwise_forward(g, x.data(), w.data(), y0.data());
      conv::depthwise_backward(g, x.data(), w.data(), go.data(), dx0.data(),
                               dw0.data());
    }
    // Per-element error bounds from the absolute contribution masses.
    auto bound = [&](double m) { return taps * kEps * m + 1e-30; };
    for (const simd::Level request :
         {simd::Level::kAvx2, simd::Level::kAvx512}) {
      simd::ScopedLevel lvl(request);
      Tensor y1 = Tensor::uninitialized(go.shape());
      Tensor dx1(x.shape());
      Tensor dw1(w.shape());
      conv::depthwise_forward(g, x.data(), w.data(), y1.data());
      conv::depthwise_backward(g, x.data(), w.data(), go.data(), dx1.data(),
                               dw1.data());
      for (Index i = 0; i < y0.numel(); ++i) {
        ASSERT_NEAR(y0.at(i), y1.at(i),
                    bound(static_cast<double>(tc.kernel * tc.kernel) *
                          3.0))  // |x*w| mass ~ O(taps) with unit normals
            << "fwd c=" << tc.c << " k=" << tc.kernel << " level "
            << simd::level_name(request) << " at " << i;
      }
      for (Index i = 0; i < dx0.numel(); ++i) {
        ASSERT_NEAR(dx0.at(i), dx1.at(i),
                    bound(static_cast<double>(tc.kernel * tc.kernel) * 3.0))
            << "dx c=" << tc.c << " level " << simd::level_name(request)
            << " at " << i;
      }
      for (Index i = 0; i < dw0.numel(); ++i) {
        ASSERT_NEAR(dw0.at(i), dw1.at(i),
                    bound(static_cast<double>(g.batch * g.out_h * g.out_w) *
                          3.0))
            << "dw c=" << tc.c << " level " << simd::level_name(request)
            << " at " << i;
      }
    }
  }
}

// ---- Oracles: serial tap-order FMA and the span tail ----------------------

// The interpreter's separate tail over an [rows, cols] output at the active
// level: the row-wise add_inplace bias pass, then the span swish / relu.
void span_tail(tensor::conv::Epilogue e, const float* bias, Index rows,
               Index cols, std::vector<float>& y) {
  namespace conv = tensor::conv;
  if (e == conv::Epilogue::kNone) return;
  const std::size_t w = static_cast<std::size_t>(cols);
  if (bias != nullptr) {
    for (Index r = 0; r < rows; ++r) {
      tensor::add_inplace({bias, w}, {y.data() + r * cols, w});
    }
  }
  std::vector<float> sig(y.size());
  if (e == conv::Epilogue::kBiasSwish) tensor::swish(y, sig, y);
  if (e == conv::Epilogue::kBiasRelu) tensor::relu(y, y);
}

bool same_bits(const std::vector<float>& a, const float* b) {
  return std::memcmp(a.data(), b, a.size() * sizeof(float)) == 0;
}

struct EpilogueCase {
  tensor::conv::Epilogue epilogue;
  bool bias;
};

constexpr EpilogueCase kEpilogues[] = {
    {tensor::conv::Epilogue::kNone, false},
    {tensor::conv::Epilogue::kBias, true},
    {tensor::conv::Epilogue::kBiasSwish, true},
    {tensor::conv::Epilogue::kBiasRelu, true},
    {tensor::conv::Epilogue::kBiasSwish, false},
    {tensor::conv::Epilogue::kBiasRelu, false},
};

TEST(DirectConvOracleTest, MatchesSerialTapOrderFmaBitwise) {
  namespace conv = tensor::conv;
  namespace simd = tensor::simd;
  // Interior pixels run in blocks of 8/4 (AVX-512) or 8/4/2 (AVX2) by
  // out_c; these widths leave remainders after the blocks at every
  // kernel/stride, and the out_c values straddle the lane blocks.
  const Index out_cs[] = {1, 7, 16, 17, 33, 64};
  const Index widths[] = {13, 17, 22};
  Rng rng(53);
  int iter = 0;
  for (const Index kernel : {3, 5}) {
    for (const Index stride : {1, 2}) {
      for (const Index out_c : out_cs) {
        for (const Index in_w : widths) {
          const Index in_c = 1 + 3 * (iter++ % 3);  // 1, 4, 7
          const auto g =
              tensor::ConvGeometry::same(2, 5, in_w, in_c, kernel, stride);
          Tensor x = Tensor::randn(Shape{2, 5, in_w, in_c}, rng);
          Tensor w = Tensor::randn(Shape{kernel, kernel, in_c, out_c}, rng);
          Tensor b = Tensor::randn(Shape{out_c}, rng);
          // Per output element: taps (kh, kw, ci) ascending, one std::fma
          // accumulator from zero.
          const Index rows = g.batch * g.out_h * g.out_w;
          std::vector<float> core(static_cast<std::size_t>(rows * out_c));
          for (Index r = 0; r < rows; ++r) {
            const Index n = r / (g.out_h * g.out_w);
            const Index oh = r / g.out_w % g.out_h;
            const Index ow = r % g.out_w;
            for (Index co = 0; co < out_c; ++co) {
              float acc = 0.f;
              for (Index kh = 0; kh < kernel; ++kh) {
                const Index ih = oh * stride - g.pad_top + kh;
                if (ih < 0 || ih >= g.in_h) continue;
                for (Index kw = 0; kw < kernel; ++kw) {
                  const Index iw = ow * stride - g.pad_left + kw;
                  if (iw < 0 || iw >= g.in_w) continue;
                  for (Index ci = 0; ci < in_c; ++ci) {
                    acc = std::fma(
                        x.data()[((n * g.in_h + ih) * g.in_w + iw) * in_c +
                                 ci],
                        w.data()[((kh * kernel + kw) * in_c + ci) * out_c +
                                 co],
                        acc);
                  }
                }
              }
              core[static_cast<std::size_t>(r * out_c + co)] = acc;
            }
          }
          for (const simd::Level level :
               {simd::Level::kAvx2, simd::Level::kAvx512}) {
            if (simd::detected_level() < level) continue;
            simd::ScopedLevel lvl(level);
            for (const EpilogueCase& e : kEpilogues) {
              const float* bias = e.bias ? b.data() : nullptr;
              std::vector<float> want = core;
              span_tail(e.epilogue, bias, rows, out_c, want);
              std::vector<float> got(want.size());
              conv::conv2d_direct(g, out_c, x.data(), w.data(), bias,
                                  e.epilogue, got.data());
              ASSERT_TRUE(same_bits(want, got.data()))
                  << simd::level_name(level) << " k=" << kernel
                  << " s=" << stride << " out_c=" << out_c << " w=" << in_w
                  << " epilogue=" << static_cast<int>(e.epilogue)
                  << " bias=" << e.bias;
            }
          }
        }
      }
    }
  }
}

TEST(DepthwiseEpilogueTest, InKernelTailEqualsForwardPlusSpanTail) {
  namespace conv = tensor::conv;
  namespace simd = tensor::simd;
  struct Case { Index kernel, stride, hw; };
  // hw 14 at 3x3 stride 1 engages the interior fast path.
  const Case cases[] = {{3, 1, 6}, {3, 1, 14}, {5, 1, 9}, {3, 2, 9},
                        {5, 2, 11}};
  Rng rng(59);
  for (const Index c : {1, 8, 15, 16, 17, 32, 33, 40}) {
    for (const Case& tc : cases) {
      const auto g = tensor::ConvGeometry::same(2, tc.hw, tc.hw, c,
                                                tc.kernel, tc.stride);
      Tensor x = Tensor::randn(Shape{2, tc.hw, tc.hw, c}, rng);
      Tensor w = Tensor::randn(Shape{tc.kernel, tc.kernel, c}, rng);
      Tensor b = Tensor::randn(Shape{c}, rng);
      const Index rows = g.batch * g.out_h * g.out_w;
      for (const simd::Level level :
           {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
        if (simd::detected_level() < level) continue;
        simd::ScopedLevel lvl(level);
        std::vector<float> plain(static_cast<std::size_t>(rows * c));
        conv::depthwise_forward(g, x.data(), w.data(), plain.data());
        for (const EpilogueCase& e : kEpilogues) {
          const float* bias = e.bias ? b.data() : nullptr;
          std::vector<float> want = plain;
          span_tail(e.epilogue, bias, rows, c, want);
          std::vector<float> got(want.size());
          conv::depthwise_forward(g, x.data(), w.data(), bias, e.epilogue,
                                  got.data());
          ASSERT_TRUE(same_bits(want, got.data()))
              << simd::level_name(level) << " c=" << c
              << " k=" << tc.kernel << " s=" << tc.stride
              << " hw=" << tc.hw
              << " epilogue=" << static_cast<int>(e.epilogue)
              << " bias=" << e.bias;
        }
      }
    }
  }
}

}  // namespace
}  // namespace podnet::nn
