#include "core/checkpoint.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace podnet::core {
namespace {

constexpr char kMagic[4] = {'P', 'O', 'D', 'N'};
constexpr std::uint32_t kVersion = 2;
// A tensor name longer than this is treated as file corruption, bounding
// allocations before the CRC of a (rare) colliding corruption is trusted.
constexpr std::uint32_t kMaxNameLen = 4096;

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) with a lazily
// built table; the standard zlib-compatible checksum.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---- Serialization into an in-memory buffer --------------------------------

class Buffer {
 public:
  void put_bytes(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null for empty tensors
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }

  template <typename T>
  void put_pod(const T& v) {
    put_bytes(&v, sizeof(T));
  }

  void put_tensor(const std::string& name, const nn::Tensor& t) {
    put_pod(static_cast<std::uint32_t>(name.size()));
    put_bytes(name.data(), name.size());
    put_pod(static_cast<std::uint32_t>(t.shape().rank()));
    for (int d = 0; d < t.shape().rank(); ++d) {
      put_pod(static_cast<std::int64_t>(t.shape()[d]));
    }
    put_bytes(t.data(), static_cast<std::size_t>(t.numel()) * 4);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked reader over the fully loaded (and CRC-validated) file.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t n) : data_(data), n_(n) {}

  std::size_t remaining() const { return n_ - pos_; }

  void get_bytes(void* p, std::size_t n, const char* what) {
    require(n, what);
    if (n == 0) return;  // p may be null for empty tensors
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  void skip(std::size_t n, const char* what) {
    require(n, what);
    pos_ += n;
  }

  template <typename T>
  T get_pod(const char* what) {
    T v;
    get_bytes(&v, sizeof(T), what);
    return v;
  }

  std::string get_string(std::uint32_t len, const char* what) {
    if (len > kMaxNameLen) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            std::string("checkpoint: implausible ") + what +
                                " length " + std::to_string(len));
    }
    require(len, what);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  void require(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw CheckpointError(
          CheckpointErrorKind::kCorrupt,
          std::string("checkpoint: truncated reading ") + what);
    }
  }

  const std::uint8_t* data_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

// One parsed-but-not-committed tensor payload. Loading stages every
// payload here and commits to the model only after the whole file has
// parsed and matched, so a failure mid-file never leaves the model
// half-restored.
struct StagedTensor {
  nn::Tensor* dst;
  std::vector<float> data;
};

void read_tensor_staged(Cursor& in, const std::string& expect_name,
                        nn::Tensor& t, std::vector<StagedTensor>& staged) {
  const auto name_len = in.get_pod<std::uint32_t>("name length");
  const std::string name = in.get_string(name_len, "tensor name");
  if (name != expect_name) {
    throw CheckpointError(CheckpointErrorKind::kMismatch,
                          "checkpoint: tensor mismatch, file has '" + name +
                              "' where model expects '" + expect_name + "'");
  }
  const auto rank = in.get_pod<std::uint32_t>("rank");
  if (static_cast<int>(rank) != t.shape().rank()) {
    throw CheckpointError(CheckpointErrorKind::kMismatch,
                          "checkpoint: rank mismatch for " + name);
  }
  for (int d = 0; d < t.shape().rank(); ++d) {
    const auto dim = in.get_pod<std::int64_t>("dim");
    if (dim != t.shape()[d]) {
      throw CheckpointError(CheckpointErrorKind::kMismatch,
                            "checkpoint: shape mismatch for " + name);
    }
  }
  StagedTensor s;
  s.dst = &t;
  s.data.resize(static_cast<std::size_t>(t.numel()));
  in.get_bytes(s.data.data(), s.data.size() * 4, "data");
  staged.push_back(std::move(s));
}

// Checks one tensor record's bounds and steps over it, for readers that
// have no receiving model.
void skip_tensor(Cursor& in) {
  const auto name_len = in.get_pod<std::uint32_t>("name length");
  in.get_string(name_len, "tensor name");
  const auto rank = in.get_pod<std::uint32_t>("rank");
  std::size_t bytes = 4;
  for (std::uint32_t d = 0; d < rank; ++d) {
    const auto dim = in.get_pod<std::int64_t>("dim");
    if (dim < 0 || (dim > 0 && bytes > in.remaining() /
                                           static_cast<std::size_t>(dim))) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "checkpoint: implausible tensor shape");
    }
    bytes *= static_cast<std::size_t>(dim);
  }
  in.skip(bytes, "data");
}

// The blob section, which must end the file.
ExtraState read_extras(Cursor& in, const std::string& path) {
  const auto extra_count = in.get_pod<std::uint64_t>("extra count");
  if (extra_count > 1u << 20) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "checkpoint: implausible extra-blob count");
  }
  ExtraState extras;
  extras.reserve(static_cast<std::size_t>(extra_count));
  for (std::uint64_t i = 0; i < extra_count; ++i) {
    const auto name_len = in.get_pod<std::uint32_t>("extra name length");
    std::string name = in.get_string(name_len, "extra name");
    const auto blob_size = in.get_pod<std::uint64_t>("extra size");
    if (blob_size > in.remaining()) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "checkpoint: truncated reading extra '" + name +
                                "'");
    }
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(blob_size));
    in.get_bytes(blob.data(), blob.size(), "extra bytes");
    extras.emplace_back(std::move(name), std::move(blob));
  }
  if (in.remaining() != 0) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "checkpoint: trailing bytes in " + path);
  }
  return extras;
}

// The whole file at `path` once its size, magic, version and CRC check
// out. The body between version and CRC starts with the meta.
std::vector<std::uint8_t> read_verified(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "checkpoint: cannot open " + path);
  }
  const std::streamsize size = in.tellg();
  // Smallest valid file: header + zero tensors + zero blobs + CRC.
  constexpr std::streamsize kMinSize = 4 + 4 + 8 + 8 + 8 + 8 + 4;
  if (size < kMinSize) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "checkpoint: file too small: " + path);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "checkpoint: read failed for " + path);
  }

  // Validate magic/version before the CRC so a wrong-format file gets a
  // precise error rather than a generic checksum mismatch.
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    throw CheckpointError(CheckpointErrorKind::kFormat,
                          "checkpoint: bad magic in " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kVersion) {
    throw CheckpointError(CheckpointErrorKind::kFormat,
                          "checkpoint: unsupported version " +
                              std::to_string(version) + " in " + path);
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4,
              sizeof(stored_crc));
  const std::uint32_t computed_crc = crc32(bytes.data(), bytes.size() - 4);
  if (stored_crc != computed_crc) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "checkpoint: CRC mismatch in " + path +
                              " (file corrupted)");
  }
  return bytes;
}

CheckpointMeta read_meta(Cursor& in) {
  CheckpointMeta meta;
  meta.step = in.get_pod<std::int64_t>("step");
  meta.epoch = in.get_pod<double>("epoch");
  return meta;
}

std::string state_name(std::size_t i) {
  return "state/" + std::to_string(i);
}

}  // namespace

const char* to_string(CheckpointErrorKind kind) {
  switch (kind) {
    case CheckpointErrorKind::kIo: return "io";
    case CheckpointErrorKind::kFormat: return "format";
    case CheckpointErrorKind::kCorrupt: return "corrupt";
    case CheckpointErrorKind::kMismatch: return "mismatch";
  }
  return "unknown";
}

void save_checkpoint(const std::string& path,
                     const std::vector<nn::Param*>& params,
                     const std::vector<nn::Tensor*>& state,
                     const CheckpointMeta& meta,
                     const ExtraState& extra) {
  Buffer buf;
  buf.put_bytes(kMagic, 4);
  buf.put_pod(kVersion);
  buf.put_pod(meta.step);
  buf.put_pod(meta.epoch);
  buf.put_pod(static_cast<std::uint64_t>(params.size() + state.size()));
  for (const nn::Param* p : params) buf.put_tensor(p->name, p->value);
  for (std::size_t i = 0; i < state.size(); ++i) {
    buf.put_tensor(state_name(i), *state[i]);
  }
  buf.put_pod(static_cast<std::uint64_t>(extra.size()));
  for (const auto& [name, blob] : extra) {
    buf.put_pod(static_cast<std::uint32_t>(name.size()));
    buf.put_bytes(name.data(), name.size());
    buf.put_pod(static_cast<std::uint64_t>(blob.size()));
    buf.put_bytes(blob.data(), blob.size());
  }
  const std::uint32_t crc = crc32(buf.bytes().data(), buf.bytes().size());

  // Atomic write: the previous checkpoint stays intact until the new one
  // is fully on disk.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CheckpointError(CheckpointErrorKind::kIo,
                            "checkpoint: cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(buf.bytes().data()),
              static_cast<std::streamsize>(buf.bytes().size()));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw CheckpointError(CheckpointErrorKind::kIo,
                            "checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "checkpoint: rename failed for " + path);
  }
}

CheckpointMeta load_checkpoint(const std::string& path,
                               const std::vector<nn::Param*>& params,
                               const std::vector<nn::Tensor*>& state,
                               ExtraState* extra) {
  const std::vector<std::uint8_t> bytes = read_verified(path);
  Cursor cur(bytes.data() + 8, bytes.size() - 8 - 4);
  const CheckpointMeta meta = read_meta(cur);
  const auto count = cur.get_pod<std::uint64_t>("tensor count");
  if (count != params.size() + state.size()) {
    throw CheckpointError(
        CheckpointErrorKind::kMismatch,
        "checkpoint: tensor count mismatch (file has " +
            std::to_string(count) + ", model expects " +
            std::to_string(params.size() + state.size()) + ")");
  }
  std::vector<StagedTensor> staged;
  staged.reserve(params.size() + state.size());
  for (nn::Param* p : params) {
    read_tensor_staged(cur, p->name, p->value, staged);
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    read_tensor_staged(cur, state_name(i), *state[i], staged);
  }
  ExtraState extras = read_extras(cur, path);

  // Commit point: nothing above mutates the receiving model, so every
  // throw on the way here is all-or-nothing.
  for (StagedTensor& s : staged) {
    std::memcpy(s.dst->data(), s.data.data(), s.data.size() * 4);
  }
  if (extra) *extra = std::move(extras);
  return meta;
}

CheckpointMeta read_checkpoint_meta(const std::string& path,
                                    ExtraState* extra) {
  const std::vector<std::uint8_t> bytes = read_verified(path);
  Cursor cur(bytes.data() + 8, bytes.size() - 8 - 4);
  const CheckpointMeta meta = read_meta(cur);
  const auto count = cur.get_pod<std::uint64_t>("tensor count");
  for (std::uint64_t i = 0; i < count; ++i) skip_tensor(cur);
  ExtraState extras = read_extras(cur, path);
  if (extra) *extra = std::move(extras);
  return meta;
}

const std::vector<std::uint8_t>* find_extra(const ExtraState& extra,
                                            const std::string& name) {
  for (const auto& [n, blob] : extra) {
    if (n == name) return &blob;
  }
  return nullptr;
}

}  // namespace podnet::core
