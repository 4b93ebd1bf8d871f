// Checkpointing: durable binary serialization of model parameters,
// batch-norm running statistics, and opaque training-state blobs
// (optimizer slots, EMA shadows, per-replica RNG streams), keyed by
// parameter name.
//
// Format v2 (little-endian): magic "PODN", u32 version, meta (i64 step,
// f64 epoch), u64 tensor count, then per tensor: u32 name length, name
// bytes, u32 rank, i64 dims, f32 data; then u64 extra-blob count, per
// blob: u32 name length, name bytes, u64 size, raw bytes; finally a u32
// CRC-32 trailer over every preceding byte.
//
// Durability: save writes to "<path>.tmp" and atomically renames over
// `path`, so a crash mid-write never destroys the previous checkpoint.
// Loading reads the whole file, validates the CRC and every length field
// against the file size *before* touching tensor payloads, stages every
// parsed payload in memory, and commits to the receiving model only after
// the entire file has parsed and matched — a truncated, bit-flipped, or
// wrong-architecture file throws a typed CheckpointError and leaves the
// model exactly as it was (never half-restored).
//
// In data-parallel training every replica holds identical weights, so
// rank 0 saves and every replica can load the same file.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.h"

namespace podnet::core {

// Why a checkpoint failed to load. The recovery supervisor treats these
// differently: kIo may be transient (retry / fall back to the previous
// interval), while kCorrupt and kMismatch mean this file can never load.
enum class CheckpointErrorKind {
  kIo,        // cannot open/read/write the file
  kFormat,    // not a checkpoint, or an unsupported version
  kCorrupt,   // CRC mismatch, truncation, or implausible length fields
  kMismatch,  // file parsed fine but does not fit the receiving model
};

const char* to_string(CheckpointErrorKind kind);

// IS-A runtime_error so pre-existing catch sites keep working; the kind
// lets new callers branch without parsing message strings.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  CheckpointErrorKind kind() const { return kind_; }

 private:
  CheckpointErrorKind kind_;
};

struct CheckpointMeta {
  std::int64_t step = 0;
  double epoch = 0;
};

// Named opaque blobs stored alongside the tensors (order preserved).
using ExtraState =
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>;

// Writes params (values only), auxiliary state tensors, and extra blobs
// to `path` atomically (tmp file + rename) with a CRC-32 trailer.
// Throws CheckpointError (kIo) on I/O failure.
void save_checkpoint(const std::string& path,
                     const std::vector<nn::Param*>& params,
                     const std::vector<nn::Tensor*>& state,
                     const CheckpointMeta& meta,
                     const ExtraState& extra = {});

// Restores into the given params/state; returns the stored meta and, when
// `extra` is non-null, the stored blobs. Throws CheckpointError on I/O
// failure, corruption (CRC/bounds), format error, or model mismatch
// (names, order, or shapes differ). All-or-nothing: on any throw the
// receiving params/state/extra are untouched.
CheckpointMeta load_checkpoint(const std::string& path,
                               const std::vector<nn::Param*>& params,
                               const std::vector<nn::Tensor*>& state,
                               ExtraState* extra = nullptr);

// Reads the stored meta and, when `extra` is non-null, the stored blobs
// without a receiving model: the file gets load_checkpoint's checks, and
// tensor payloads are bounds-checked and skipped. Throws CheckpointError
// on I/O failure, corruption or format error.
CheckpointMeta read_checkpoint_meta(const std::string& path,
                                    ExtraState* extra = nullptr);

// Looks up a blob by name; returns nullptr when absent.
const std::vector<std::uint8_t>* find_extra(const ExtraState& extra,
                                            const std::string& name);

}  // namespace podnet::core
