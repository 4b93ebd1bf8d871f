#include "data/dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <map>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/augment.h"

namespace podnet::data {
namespace {

DatasetConfig small_config() {
  DatasetConfig c;
  c.num_classes = 8;
  c.train_size = 256;
  c.eval_size = 64;
  c.resolution = 8;
  return c;
}

// The renderer as it was before class texels were cached: every pixel
// evaluates its sinusoids directly. Kept verbatim (texture draws included)
// as the oracle the cached and uncached render paths must match bit for
// bit.
class DirectRenderer {
 public:
  explicit DirectRenderer(const DatasetConfig& config) : config_(config) {
    tensor::Rng rng(config_.seed);
    textures_.resize(static_cast<std::size_t>(config_.num_classes));
    for (auto& tex : textures_) {
      tex.components.resize(
          static_cast<std::size_t>(config_.channels * kComponents));
      for (auto& comp : tex.components) {
        comp.fx = static_cast<float>(rng.next_below(4)) + 1.f;
        comp.fy = static_cast<float>(rng.next_below(4)) + 1.f;
        comp.phase = rng.uniform(0.f, 2.f * std::numbers::pi_v<float>);
        comp.amp = rng.uniform(0.4f, 1.0f) / kComponents;
      }
      tex.color_bias.resize(static_cast<std::size_t>(config_.channels));
      for (auto& b : tex.color_bias) b = rng.uniform(-0.5f, 0.5f);
    }
  }

  void render(const SyntheticImageNet& ds, Split split, Index index,
              std::uint64_t variant, std::span<float> image) const {
    const Index res = config_.resolution;
    const Index ch = config_.channels;

    const std::int64_t label = ds.label_of(split, index);
    const ClassTexture& tex = textures_[static_cast<std::size_t>(label)];

    const std::uint64_t v = split == Split::kEval ? 0 : variant;
    tensor::Rng rng(config_.seed ^ (0x5151ULL * (index + 1)) ^
                    (0xabcdULL * (v + 1)) ^
                    (split == Split::kEval ? 0xe77aULL : 0));

    Index dx = 0, dy = 0;
    bool flip = false;
    if (split == Split::kTrain) {
      if (config_.jitter > 0) {
        dx = static_cast<Index>(rng.next_below(
                 static_cast<std::uint64_t>(2 * config_.jitter + 1))) -
             config_.jitter;
        dy = static_cast<Index>(rng.next_below(
                 static_cast<std::uint64_t>(2 * config_.jitter + 1))) -
             config_.jitter;
      }
      flip = config_.flip && rng.next_below(2) == 1;
    }

    const float two_pi = 2.f * std::numbers::pi_v<float>;
    const float inv_res = 1.f / static_cast<float>(res);
    for (Index y = 0; y < res; ++y) {
      for (Index x = 0; x < res; ++x) {
        const Index sx = flip ? res - 1 - x : x;
        const float u = static_cast<float>(sx + dx) * inv_res;
        const float w = static_cast<float>(y + dy) * inv_res;
        for (Index c = 0; c < ch; ++c) {
          float val = tex.color_bias[static_cast<std::size_t>(c)];
          for (int k = 0; k < kComponents; ++k) {
            const auto& comp =
                tex.components[static_cast<std::size_t>(c * kComponents + k)];
            val += comp.amp *
                   std::sin(two_pi * (comp.fx * u + comp.fy * w) + comp.phase);
          }
          image[static_cast<std::size_t>((y * res + x) * ch + c)] =
              config_.difficulty * val + config_.noise * rng.normal();
        }
      }
    }
    if (split == Split::kTrain && config_.augment.enabled()) {
      apply_augmentations(image, res, ch, config_.augment, rng);
    }
  }

 private:
  struct ClassTexture {
    struct Component {
      float fx, fy, phase, amp;
    };
    std::vector<Component> components;
    std::vector<float> color_bias;
  };
  static constexpr int kComponents = 3;

  DatasetConfig config_;
  std::vector<ClassTexture> textures_;
};

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Renders `split` samples [0, count) at each variant through both paths.
void expect_matches_oracle(const DatasetConfig& c, Split split, Index count,
                           std::vector<std::uint64_t> variants) {
  const SyntheticImageNet ds(c);
  const DirectRenderer oracle(c);
  std::vector<float> got(static_cast<std::size_t>(ds.sample_elems()));
  std::vector<float> want(got.size());
  for (const std::uint64_t v : variants) {
    for (Index i = 0; i < count; ++i) {
      ds.render(split, i, v, got);
      oracle.render(ds, split, i, v, want);
      ASSERT_TRUE(bitwise_equal(got, want))
          << (split == Split::kTrain ? "train" : "eval") << " index " << i
          << " variant " << v << " res " << c.resolution << " jitter "
          << c.jitter << " flip " << c.flip << " channels " << c.channels
          << " augment " << c.augment.enabled();
    }
  }
}

TEST(DatasetTest, RenderIsBitwiseEqualToDirectRendering) {
  for (const Index res : {8, 16, 32}) {
    for (const Index jitter : {0, 3, 5}) {
      for (const bool flip : {false, true}) {
        for (const Index channels : {1, 3}) {
          for (const bool augment : {false, true}) {
            DatasetConfig c = small_config();
            c.num_classes = 5;
            c.resolution = res;
            c.jitter = jitter;
            c.flip = flip;
            c.channels = channels;
            if (augment) {
              c.augment.random_crop = true;
              c.augment.brightness = 0.2f;
              c.augment.cutout = res / 4;
            }
            ASSERT_TRUE(SyntheticImageNet(c).caches_texels());
            expect_matches_oracle(c, Split::kTrain, 12, {0, 3});
            expect_matches_oracle(c, Split::kEval, 6, {0});
          }
        }
      }
    }
  }
}

TEST(DatasetTest, UncachedRenderAboveTheBudgetIsBitwiseEqual) {
  // 1000 classes x 230^2 x 3 floats is ~635 MB of texels: over budget,
  // so render() evaluates every texel directly.
  const DatasetConfig c = imagenet_proportions();
  ASSERT_FALSE(SyntheticImageNet(c).caches_texels());
  expect_matches_oracle(c, Split::kTrain, 1, {2});
  expect_matches_oracle(c, Split::kEval, 1, {0});
}

TEST(DatasetTest, ConcurrentFirstRendersMatchASingleThread) {
  DatasetConfig c = small_config();
  c.resolution = 16;
  constexpr int kThreads = 4;
  constexpr Index kSamples = 24;  // every class, train and eval
  const std::size_t n =
      static_cast<std::size_t>(SyntheticImageNet(c).sample_elems());

  const SyntheticImageNet serial(c);
  std::vector<std::vector<float>> want(2 * kSamples, std::vector<float>(n));
  for (Index i = 0; i < kSamples; ++i) {
    serial.render(Split::kTrain, i, 1, want[static_cast<std::size_t>(i)]);
    serial.render(Split::kEval, i, 0,
                  want[static_cast<std::size_t>(kSamples + i)]);
  }

  // A fresh dataset: every class grid is first touched concurrently.
  const SyntheticImageNet shared(c);
  std::vector<std::vector<std::vector<float>>> got(
      kThreads, std::vector<std::vector<float>>(2 * kSamples,
                                                std::vector<float>(n)));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = got[static_cast<std::size_t>(t)];
      start.arrive_and_wait();
      for (Index i = 0; i < kSamples; ++i) {
        shared.render(Split::kTrain, i, 1, mine[static_cast<std::size_t>(i)]);
        shared.render(Split::kEval, i, 0,
                      mine[static_cast<std::size_t>(kSamples + i)]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_TRUE(bitwise_equal(got[static_cast<std::size_t>(t)][s], want[s]))
          << "thread " << t << " sample " << s;
    }
  }
}

TEST(DatasetTest, RenderIsDeterministic) {
  SyntheticImageNet ds(small_config());
  std::vector<float> a(static_cast<std::size_t>(ds.sample_elems()));
  std::vector<float> b(a.size());
  ds.render(Split::kTrain, 17, 3, a);
  ds.render(Split::kTrain, 17, 3, b);
  EXPECT_EQ(a, b);
}

TEST(DatasetTest, VariantChangesTrainSample) {
  SyntheticImageNet ds(small_config());
  std::vector<float> a(static_cast<std::size_t>(ds.sample_elems()));
  std::vector<float> b(a.size());
  ds.render(Split::kTrain, 17, 0, a);
  ds.render(Split::kTrain, 17, 1, b);
  EXPECT_NE(a, b);
}

TEST(DatasetTest, EvalIgnoresVariant) {
  SyntheticImageNet ds(small_config());
  std::vector<float> a(static_cast<std::size_t>(ds.sample_elems()));
  std::vector<float> b(a.size());
  ds.render(Split::kEval, 5, 0, a);
  ds.render(Split::kEval, 5, 99, b);
  EXPECT_EQ(a, b);
}

TEST(DatasetTest, LabelsBalanced) {
  SyntheticImageNet ds(small_config());
  std::map<std::int64_t, int> counts;
  for (Index i = 0; i < ds.size(Split::kTrain); ++i) {
    counts[ds.label_of(Split::kTrain, i)]++;
  }
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [label, n] : counts) EXPECT_EQ(n, 256 / 8) << label;
}

TEST(DatasetTest, SameSeedSameData) {
  SyntheticImageNet a(small_config());
  SyntheticImageNet b(small_config());
  std::vector<float> va(static_cast<std::size_t>(a.sample_elems()));
  std::vector<float> vb(va.size());
  a.render(Split::kTrain, 3, 1, va);
  b.render(Split::kTrain, 3, 1, vb);
  EXPECT_EQ(va, vb);
}

TEST(DatasetTest, DifferentSeedDifferentTextures) {
  DatasetConfig c1 = small_config();
  DatasetConfig c2 = small_config();
  c2.seed = c1.seed + 1;
  SyntheticImageNet a(c1), b(c2);
  std::vector<float> va(static_cast<std::size_t>(a.sample_elems()));
  std::vector<float> vb(va.size());
  a.render(Split::kEval, 0, 0, va);
  b.render(Split::kEval, 0, 0, vb);
  EXPECT_NE(va, vb);
}

TEST(DatasetTest, ClassesAreSeparableWithoutNoise) {
  // With noise off, two samples of a class correlate far more with each
  // other than samples of different classes (texture identity).
  DatasetConfig c = small_config();
  c.noise = 0.f;
  c.jitter = 0;
  c.flip = false;
  SyntheticImageNet ds(c);
  const std::size_t n = static_cast<std::size_t>(ds.sample_elems());
  // Samples 0 and 8 share class 0; sample 1 is class 1.
  std::vector<float> a(n), b(n), other(n);
  ds.render(Split::kTrain, 0, 0, a);
  ds.render(Split::kTrain, 8, 0, b);
  ds.render(Split::kTrain, 1, 0, other);
  EXPECT_EQ(ds.label_of(Split::kTrain, 0), ds.label_of(Split::kTrain, 8));
  EXPECT_NE(ds.label_of(Split::kTrain, 0), ds.label_of(Split::kTrain, 1));
  auto corr = [n](const std::vector<float>& x, const std::vector<float>& y) {
    double xy = 0, xx = 0, yy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      xy += static_cast<double>(x[i]) * y[i];
      xx += static_cast<double>(x[i]) * x[i];
      yy += static_cast<double>(y[i]) * y[i];
    }
    return xy / std::sqrt(xx * yy + 1e-12);
  };
  EXPECT_GT(corr(a, b), 0.95);            // same texture (no jitter/noise)
  EXPECT_LT(std::abs(corr(a, other)), 0.8);  // different texture
}

TEST(DatasetTest, NoiseScalesVariance) {
  DatasetConfig quiet = small_config();
  quiet.noise = 0.f;
  DatasetConfig loud = small_config();
  loud.noise = 1.0f;
  SyntheticImageNet dq(quiet), dl(loud);
  const std::size_t n = static_cast<std::size_t>(dq.sample_elems());
  std::vector<float> a(n), b(n);
  dq.render(Split::kTrain, 0, 0, a);
  dl.render(Split::kTrain, 0, 0, b);
  // The loud sample differs from the clean one by roughly unit-variance
  // noise.
  double diff2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = b[i] - a[i];
    diff2 += d * d;
  }
  EXPECT_NEAR(diff2 / static_cast<double>(n), 1.0, 0.3);
}

TEST(DatasetTest, ImagenetProportions) {
  const DatasetConfig c = imagenet_proportions();
  EXPECT_EQ(c.num_classes, 1000);
  EXPECT_EQ(c.train_size, 1281167);
  EXPECT_EQ(c.eval_size, 50000);
}

TEST(DatasetTest, FewerThanTwoClassesThrows) {
  DatasetConfig c = small_config();
  for (const Index classes : {Index{1}, Index{0}, Index{-3}}) {
    c.num_classes = classes;
    EXPECT_THROW(SyntheticImageNet{c}, std::invalid_argument) << classes;
  }
  c.num_classes = 2;
  EXPECT_NO_THROW(SyntheticImageNet{c});
}

TEST(DatasetTest, ValuesAreFinite) {
  SyntheticImageNet ds(small_config());
  std::vector<float> v(static_cast<std::size_t>(ds.sample_elems()));
  for (Index i = 0; i < 32; ++i) {
    ds.render(Split::kTrain, i, static_cast<std::uint64_t>(i), v);
    for (float x : v) EXPECT_TRUE(std::isfinite(x));
  }
}

}  // namespace
}  // namespace podnet::data
