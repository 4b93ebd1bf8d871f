#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "effnet/model.h"

namespace podnet::core {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

effnet::EfficientNet make_model(std::uint64_t seed) {
  effnet::ModelSpec spec = effnet::pico();
  effnet::ModelOptions opts;
  opts.num_classes = 8;
  opts.init_seed = seed;
  return effnet::EfficientNet(spec, opts);
}

TEST(CheckpointTest, RoundTripIsBitExact) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  // Make the state distinctive.
  state[0]->fill(0.25f);
  CheckpointMeta meta;
  meta.step = 1234;
  meta.epoch = 5.5;
  const std::string path = temp_path("roundtrip.ckpt");
  save_checkpoint(path, params, state, meta);

  auto other = make_model(2);  // different init
  auto oparams = nn::parameters_of(other);
  std::vector<nn::Tensor*> ostate;
  other.collect_state(ostate);
  const CheckpointMeta loaded = load_checkpoint(path, oparams, ostate);
  EXPECT_EQ(loaded.step, 1234);
  EXPECT_DOUBLE_EQ(loaded.epoch, 5.5);
  ASSERT_EQ(params.size(), oparams.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    for (tensor::Index j = 0; j < params[i]->value.numel(); ++j) {
      ASSERT_EQ(params[i]->value.at(j), oparams[i]->value.at(j))
          << params[i]->name;
    }
  }
  EXPECT_EQ(ostate[0]->at(0), 0.25f);
}

TEST(CheckpointTest, RestoredModelPredictsIdentically) {
  auto model = make_model(3);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  const std::string path = temp_path("predict.ckpt");
  save_checkpoint(path, params, state, {});

  auto restored = make_model(99);
  auto rparams = nn::parameters_of(restored);
  std::vector<nn::Tensor*> rstate;
  restored.collect_state(rstate);
  load_checkpoint(path, rparams, rstate);

  nn::Rng rng(7);
  nn::Tensor x = nn::Tensor::randn(nn::Shape{2, 16, 16, 3}, rng);
  nn::Tensor y1 = model.forward(x, false);
  nn::Tensor y2 = restored.forward(x, false);
  for (tensor::Index i = 0; i < y1.numel(); ++i) {
    ASSERT_EQ(y1.at(i), y2.at(i));
  }
}

TEST(CheckpointTest, RejectsWrongArchitecture) {
  auto pico_model = make_model(1);
  auto params = nn::parameters_of(pico_model);
  std::vector<nn::Tensor*> state;
  pico_model.collect_state(state);
  const std::string path = temp_path("arch.ckpt");
  save_checkpoint(path, params, state, {});

  effnet::ModelSpec nano_spec = effnet::nano();
  effnet::ModelOptions opts;
  opts.num_classes = 8;
  effnet::EfficientNet nano_model(nano_spec, opts);
  auto nparams = nn::parameters_of(nano_model);
  std::vector<nn::Tensor*> nstate;
  nano_model.collect_state(nstate);
  EXPECT_THROW(load_checkpoint(path, nparams, nstate), std::runtime_error);
}

TEST(CheckpointTest, RejectsMissingFile) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  EXPECT_THROW(load_checkpoint(temp_path("nonexistent.ckpt"), params, state),
               std::runtime_error);
}

TEST(CheckpointTest, RejectsCorruptedFile) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  const std::string path = temp_path("corrupt.ckpt");
  save_checkpoint(path, params, state, {});
  // Truncate the file.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_EQ(0, ::ftruncate(fileno(f), size / 2));
    std::fclose(f);
  }
  EXPECT_THROW(load_checkpoint(path, params, state), std::runtime_error);
}

TEST(CheckpointTest, RejectsEveryFlippedByte) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  const std::string path = temp_path("bitflip.ckpt");
  save_checkpoint(path, params, state, {});
  long size = 0;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    size = std::ftell(f);
    std::fclose(f);
  }
  // Flip one byte at several positions spanning header, payload, and CRC
  // trailer; the CRC (or an earlier format check) must reject each.
  for (long pos : {0L, 5L, size / 3, size / 2, size - 2}) {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, pos, SEEK_SET);
    const int orig = std::fgetc(f);
    std::fseek(f, pos, SEEK_SET);
    std::fputc(orig ^ 0x20, f);
    std::fclose(f);
    EXPECT_THROW(load_checkpoint(path, params, state), std::runtime_error)
        << "flipped byte at " << pos;
    f = std::fopen(path.c_str(), "r+b");  // restore for the next position
    std::fseek(f, pos, SEEK_SET);
    std::fputc(orig, f);
    std::fclose(f);
  }
  EXPECT_NO_THROW(load_checkpoint(path, params, state));  // restored OK
}

TEST(CheckpointTest, ExtraBlobsRoundTrip) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  ExtraState extra;
  extra.emplace_back("optim", std::vector<std::uint8_t>{1, 2, 3, 4});
  extra.emplace_back("replica/0", std::vector<std::uint8_t>{});
  extra.emplace_back("replica/1", std::vector<std::uint8_t>(100, 0xAB));
  const std::string path = temp_path("extras.ckpt");
  save_checkpoint(path, params, state, {}, extra);

  ExtraState loaded;
  load_checkpoint(path, params, state, &loaded);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].first, "optim");
  ASSERT_NE(find_extra(loaded, "replica/1"), nullptr);
  EXPECT_EQ(*find_extra(loaded, "optim"),
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(find_extra(loaded, "replica/0")->size(), 0u);
  EXPECT_EQ(*find_extra(loaded, "replica/1"),
            std::vector<std::uint8_t>(100, 0xAB));
  EXPECT_EQ(find_extra(loaded, "missing"), nullptr);
}

TEST(CheckpointTest, MetaReaderNeedsNoModel) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  CheckpointMeta meta;
  meta.step = 24;
  meta.epoch = 1.5;
  ExtraState extra;
  extra.emplace_back("optim", std::vector<std::uint8_t>{9, 8, 7});
  const std::string path = temp_path("meta_only.ckpt");
  save_checkpoint(path, params, state, meta, extra);

  ExtraState read;
  const CheckpointMeta got = read_checkpoint_meta(path, &read);
  EXPECT_EQ(got.step, 24);
  EXPECT_EQ(got.epoch, 1.5);
  EXPECT_EQ(read, extra);

  // Same checks as a load: a truncated file is rejected.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(read_checkpoint_meta(path), CheckpointError);
}

TEST(CheckpointTest, AtomicWriteLeavesNoTempFile) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  const std::string path = temp_path("atomic.ckpt");
  save_checkpoint(path, params, state, {});
  FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
}

TEST(CheckpointTest, RejectsUnsupportedVersion) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  const std::string path = temp_path("version.ckpt");
  save_checkpoint(path, params, state, {});
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4, SEEK_SET);  // version field follows the magic
    std::fputc(0x7F, f);
    std::fclose(f);
  }
  try {
    load_checkpoint(path, params, state);
    FAIL() << "expected a version error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(CheckpointTest, RejectsBadMagic) {
  const std::string path = temp_path("magic.ckpt");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOPE0000000000000000000000000000", 1, 32, f);
  std::fclose(f);
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  EXPECT_THROW(load_checkpoint(path, params, state), std::runtime_error);
}

// ---- Typed errors + all-or-nothing load (fuzz-hardening satellite) ---------

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<float> flatten_params(const std::vector<nn::Param*>& params) {
  std::vector<float> out;
  for (const nn::Param* p : params) {
    for (tensor::Index i = 0; i < p->value.numel(); ++i) {
      out.push_back(p->value.at(i));
    }
  }
  return out;
}

CheckpointErrorKind kind_of_load_failure(const std::string& path,
                                         const std::vector<nn::Param*>& p,
                                         const std::vector<nn::Tensor*>& s) {
  try {
    load_checkpoint(path, p, s);
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected CheckpointError loading " << path;
  return CheckpointErrorKind::kIo;
}

TEST(CheckpointErrorTest, KindsDistinguishFailureClasses) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  const std::string path = temp_path("kinds.ckpt");
  save_checkpoint(path, params, state, {});
  const std::vector<std::uint8_t> pristine = read_bytes(path);

  EXPECT_EQ(kind_of_load_failure(temp_path("kinds-missing.ckpt"), params,
                                 state),
            CheckpointErrorKind::kIo);

  auto bad_magic = pristine;
  bad_magic[0] ^= 0xFF;
  write_bytes(path, bad_magic);
  EXPECT_EQ(kind_of_load_failure(path, params, state),
            CheckpointErrorKind::kFormat);

  auto bad_version = pristine;
  bad_version[4] = 0x7F;
  write_bytes(path, bad_version);
  EXPECT_EQ(kind_of_load_failure(path, params, state),
            CheckpointErrorKind::kFormat);

  auto flipped = pristine;
  flipped[pristine.size() / 2] ^= 0x01;
  write_bytes(path, flipped);
  EXPECT_EQ(kind_of_load_failure(path, params, state),
            CheckpointErrorKind::kCorrupt);

  write_bytes(path, pristine);
  effnet::ModelSpec nano_spec = effnet::nano();
  effnet::ModelOptions opts;
  opts.num_classes = 8;
  effnet::EfficientNet nano_model(nano_spec, opts);
  auto nparams = nn::parameters_of(nano_model);
  std::vector<nn::Tensor*> nstate;
  nano_model.collect_state(nstate);
  EXPECT_EQ(kind_of_load_failure(path, nparams, nstate),
            CheckpointErrorKind::kMismatch);

  EXPECT_STREQ(to_string(CheckpointErrorKind::kCorrupt), "corrupt");
}

TEST(CheckpointErrorTest, LateMismatchLeavesModelUntouched) {
  // The file parses cleanly through all params and the first state tensor
  // before hitting a shape mismatch on the last one — the pre-fix loader
  // would have already overwritten everything parsed so far.
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  nn::Tensor s0({4}), s1({4});
  s0.fill(1.0f);
  s1.fill(2.0f);
  const std::string path = temp_path("staged.ckpt");
  save_checkpoint(path, params, {&s0, &s1}, {});

  auto receiver = make_model(2);  // different init than the saved model
  auto rparams = nn::parameters_of(receiver);
  nn::Tensor r0({4}), r1({3});  // r1's shape mismatches at the LAST tensor
  r0.fill(9.0f);
  const std::vector<float> before = flatten_params(rparams);
  EXPECT_EQ(kind_of_load_failure(path, rparams, {&r0, &r1}),
            CheckpointErrorKind::kMismatch);
  EXPECT_EQ(flatten_params(rparams), before) << "params were half-restored";
  EXPECT_EQ(r0.at(0), 9.0f) << "state was half-restored";
}

TEST(CheckpointErrorTest, FuzzedCorruptionNeverYieldsPartialState) {
  auto model = make_model(1);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  ExtraState extra;
  extra.emplace_back("world", std::vector<std::uint8_t>{8, 0, 0, 0});
  const std::string path = temp_path("fuzz.ckpt");
  save_checkpoint(path, params, state, {}, extra);
  const std::vector<std::uint8_t> pristine = read_bytes(path);

  auto receiver = make_model(2);
  auto rparams = nn::parameters_of(receiver);
  std::vector<nn::Tensor*> rstate;
  receiver.collect_state(rstate);
  std::vector<float> before = flatten_params(rparams);

  std::mt19937 rng(0xC0FFEE);  // deterministic corpus
  const std::string fuzzed = temp_path("fuzzed.ckpt");
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> bytes = pristine;
    switch (iter % 3) {
      case 0: {  // flip 1-4 random bytes
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < flips; ++i) {
          bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(
              1 + rng() % 255);
        }
        break;
      }
      case 1:  // truncate to a random prefix
        bytes.resize(rng() % bytes.size());
        break;
      default: {  // zero a random 8-byte run (kills length fields)
        const std::size_t at = rng() % (bytes.size() - 8);
        std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(at + 8), 0);
        break;
      }
    }
    write_bytes(fuzzed, bytes);
    try {
      ExtraState loaded_extra;
      load_checkpoint(fuzzed, rparams, rstate, &loaded_extra);
      // Only acceptable if the mutation was a no-op (e.g. zeroing a run
      // of bytes that was already zero inside a tensor payload). The
      // receiver now holds the loaded values; later failed loads must
      // leave THAT state untouched.
      ASSERT_EQ(bytes, pristine) << "corrupt file loaded, iter " << iter;
      before = flatten_params(rparams);
    } catch (const CheckpointError&) {
      ASSERT_EQ(flatten_params(rparams), before)
          << "partial state after failed load, iter " << iter;
    }
  }
}

}  // namespace
}  // namespace podnet::core
