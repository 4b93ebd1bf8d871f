// SyntheticImageNet: a procedural, deterministic stand-in for ImageNet.
//
// The real dataset is unavailable in this environment (see DESIGN.md Sec 2),
// so we synthesize a class-conditional image distribution that exercises
// the same training code paths: each class is a distinct low-frequency
// texture (a small bank of class-specific sinusoids plus a color bias);
// samples add geometric jitter, random horizontal flips, and white noise.
// Difficulty is tunable — lowering `difficulty` or raising `noise` shrinks
// class separability, which is what lets CI-scale runs exhibit the
// large-batch generalization gap the paper fights.
//
// Every sample is generated on the fly from (split, index, variant), so the
// dataset shards trivially and is bit-reproducible across replica counts.
//
// The noise-free texture depends only on the class and the shifted pixel
// position, so each class's texels are rendered once, on first use, onto a
// grid padded by the train jitter; a sample then costs one noise draw per
// value. The grids are cached only while all classes together fit in
// kTexelCacheBytes (64 MiB); above that (imagenet_proportions() needs
// ~635 MB) render() evaluates the same texel() per pixel. Both paths
// produce bitwise the same images.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/augment.h"
#include "tensor/rng.h"
#include "tensor/shape.h"

namespace podnet::data {

using Index = tensor::Index;

enum class Split { kTrain, kEval };

struct DatasetConfig {
  Index num_classes = 16;
  Index train_size = 2048;
  Index eval_size = 512;
  Index resolution = 16;
  Index channels = 3;
  std::uint64_t seed = 1234;
  float noise = 0.6f;       // instance white-noise stddev
  Index jitter = 3;         // max |translation| in pixels (train only)
  bool flip = true;         // random horizontal flip (train only)
  float difficulty = 1.0f;  // texture amplitude; lower = harder task
  // Optional extra train-time augmentation (crop/jitter/cutout); applied
  // after texture synthesis, never on the eval split.
  AugmentConfig augment;
};

// ImageNet-1k proportions, for the pod-scale analytic experiments where
// only epoch/step counts matter (never materialized).
DatasetConfig imagenet_proportions();

class SyntheticImageNet {
 public:
  // Throws std::invalid_argument when config.num_classes < 2.
  explicit SyntheticImageNet(const DatasetConfig& config);

  const DatasetConfig& config() const { return config_; }
  Index size(Split split) const {
    return split == Split::kTrain ? config_.train_size : config_.eval_size;
  }
  Index sample_elems() const {
    return config_.resolution * config_.resolution * config_.channels;
  }
  // Whether the class texels are cached (all classes fit the budget).
  bool caches_texels() const { return grids_ != nullptr; }

  // Label of sample `index` (balanced round-robin assignment).
  std::int64_t label_of(Split split, Index index) const;

  // Renders sample `index` of `split` into `image` (HWC, resolution^2 *
  // channels floats). `variant` decorrelates augmentation across epochs;
  // eval samples ignore jitter/flip and use a fixed noise draw. Safe to
  // call from several threads at once.
  void render(Split split, Index index, std::uint64_t variant,
              std::span<float> image) const;

 private:
  struct ClassTexture {
    // Three sinusoid components per channel: frequency pair, phase, amp.
    struct Component {
      float fx, fy, phase, amp;
    };
    std::vector<Component> components;  // channels * kComponents
    std::vector<float> color_bias;      // per channel
  };
  static constexpr int kComponents = 3;
  static constexpr std::size_t kTexelCacheBytes = std::size_t{64} << 20;

  // One class's texels on the padded grid (HWC, grid_side_^2 * channels),
  // filled by the first render() of the class.
  struct TexelGrid {
    std::once_flag filled;
    std::vector<float> texels;
  };

  // Noise-free value of channel `c` at normalized position (u, w).
  static float texel(const ClassTexture& tex, Index c, float u, float w);
  // The grid of class `label`, filled on first use from any thread.
  const float* texels(std::int64_t label) const;

  DatasetConfig config_;
  std::vector<ClassTexture> textures_;
  Index pad_;        // grid margin on each side: the max train jitter
  Index grid_side_;  // resolution + 2 * pad_
  std::unique_ptr<TexelGrid[]> grids_;  // per class; null above the budget
};

}  // namespace podnet::data
