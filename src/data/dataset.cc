#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace podnet::data {

DatasetConfig imagenet_proportions() {
  DatasetConfig c;
  c.num_classes = 1000;
  c.train_size = 1281167;
  c.eval_size = 50000;
  c.resolution = 224;
  return c;
}

SyntheticImageNet::SyntheticImageNet(const DatasetConfig& config)
    : config_(config) {
  if (config_.num_classes < 2) {
    throw std::invalid_argument("DatasetConfig::num_classes must be >= 2");
  }
  tensor::Rng rng(config_.seed);
  textures_.resize(static_cast<std::size_t>(config_.num_classes));
  for (auto& tex : textures_) {
    tex.components.resize(
        static_cast<std::size_t>(config_.channels * kComponents));
    for (auto& comp : tex.components) {
      // Low integer frequencies render as coarse, class-distinctive
      // stripes/checkers that survive jitter (translation only shifts
      // phase) while flips and noise still perturb them.
      comp.fx = static_cast<float>(rng.next_below(4)) + 1.f;
      comp.fy = static_cast<float>(rng.next_below(4)) + 1.f;
      comp.phase = rng.uniform(0.f, 2.f * std::numbers::pi_v<float>);
      comp.amp = rng.uniform(0.4f, 1.0f) / kComponents;
    }
    tex.color_bias.resize(static_cast<std::size_t>(config_.channels));
    for (auto& b : tex.color_bias) b = rng.uniform(-0.5f, 0.5f);
  }
  // Decided once; the grids themselves are filled lazily by render(), so
  // construction stays cheap.
  pad_ = std::max<Index>(config_.jitter, 0);
  grid_side_ = config_.resolution + 2 * pad_;
  const double cache_bytes = static_cast<double>(config_.num_classes) *
                             static_cast<double>(grid_side_ * grid_side_) *
                             static_cast<double>(config_.channels) *
                             sizeof(float);
  if (cache_bytes <= static_cast<double>(kTexelCacheBytes)) {
    grids_ = std::make_unique<TexelGrid[]>(
        static_cast<std::size_t>(config_.num_classes));
  }
}

float SyntheticImageNet::texel(const ClassTexture& tex, Index c, float u,
                               float w) {
  const float two_pi = 2.f * std::numbers::pi_v<float>;
  float val = tex.color_bias[static_cast<std::size_t>(c)];
  for (int k = 0; k < kComponents; ++k) {
    const auto& comp =
        tex.components[static_cast<std::size_t>(c * kComponents + k)];
    val += comp.amp *
           std::sin(two_pi * (comp.fx * u + comp.fy * w) + comp.phase);
  }
  return val;
}

const float* SyntheticImageNet::texels(std::int64_t label) const {
  TexelGrid& g = grids_[static_cast<std::size_t>(label)];
  std::call_once(g.filled, [&] {
    const ClassTexture& tex = textures_[static_cast<std::size_t>(label)];
    const Index side = grid_side_;
    const Index ch = config_.channels;
    const float inv_res = 1.f / static_cast<float>(config_.resolution);
    g.texels.resize(static_cast<std::size_t>(side * side * ch));
    for (Index gy = 0; gy < side; ++gy) {
      for (Index gx = 0; gx < side; ++gx) {
        // Grid cell (gx, gy) holds shifted position (gx - pad_, gy - pad_).
        const float u = static_cast<float>(gx - pad_) * inv_res;
        const float w = static_cast<float>(gy - pad_) * inv_res;
        for (Index c = 0; c < ch; ++c) {
          g.texels[static_cast<std::size_t>((gy * side + gx) * ch + c)] =
              texel(tex, c, u, w);
        }
      }
    }
  });
  return g.texels.data();
}

std::int64_t SyntheticImageNet::label_of(Split split, Index index) const {
  assert(index >= 0 && index < size(split));
  // Balanced assignment; an offset decorrelates train and eval orderings.
  const Index offset = split == Split::kEval ? 7 : 0;
  return (index + offset) % config_.num_classes;
}

void SyntheticImageNet::render(Split split, Index index,
                               std::uint64_t variant,
                               std::span<float> image) const {
  const Index res = config_.resolution;
  const Index ch = config_.channels;
  assert(static_cast<Index>(image.size()) == res * res * ch);

  const std::int64_t label = label_of(split, index);
  const ClassTexture& tex = textures_[static_cast<std::size_t>(label)];

  // Per-(split, index, variant) stream; eval ignores variant so the eval
  // set is fixed.
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

  const float* cached = nullptr;  // the class grid, shifted by (dx, dy)
  if (grids_) {
    cached = texels(label) + ((dy + pad_) * grid_side_ + dx + pad_) * ch;
  }
  const float inv_res = 1.f / static_cast<float>(res);
  for (Index y = 0; y < res; ++y) {
    for (Index x = 0; x < res; ++x) {
      const Index sx = flip ? res - 1 - x : x;
      const float u = static_cast<float>(sx + dx) * inv_res;
      const float w = static_cast<float>(y + dy) * inv_res;
      const float* cell =
          cached ? cached + (y * grid_side_ + sx) * ch : nullptr;
      for (Index c = 0; c < ch; ++c) {
        const float val = cell ? cell[c] : texel(tex, c, u, w);
        image[static_cast<std::size_t>((y * res + x) * ch + c)] =
            config_.difficulty * val + config_.noise * rng.normal();
      }
    }
  }
  if (split == Split::kTrain && config_.augment.enabled()) {
    apply_augmentations(image, res, ch, config_.augment, rng);
  }
}

}  // namespace podnet::data
