// Packed mixed-precision model artifacts — the deployment half of CCQ.
//
// A CCQ run ends with a mixed-precision policy, but a float snapshot
// (core/snapshot) still stores every weight as fp32: the compression the
// controller fought for never reaches the disk or the serving process.
// This module defines the packed artifact the `ccq::serve` stack ships:
// each layer of the compiled `hw::IntegerNetwork` is stored as bit-packed
// k-bit weight codes at the layer's final ladder precision plus its
// per-channel scales and folded biases, under a versioned header with a
// whole-payload checksum.  A ResNet-20-class model on an 8/4/2 ladder
// packs 4–16× smaller than its float snapshot.
//
// Layout, version 3 (little-endian; counts, geometry dims and small
// signed values are LEB128 varints — zigzag-mapped when signed — so the
// per-channel requant record fits inside the 4× compression budget):
//   header  : magic "CCQA", u32 version, u32 layer_count,
//             u64 payload_bytes, u64 fnv1a(payload)
//   payload : varint rung count (always 1), one rung-table entry
//             {zigzag trail_step = −1, f32 val_acc = 0}, then one full
//             record per layer.  Earlier builds could write more rungs
//             (lower-precision operating points as delta records); the
//             engine serves one precision per model, so the reader
//             refuses any other rung count, naming the file, before it
//             parses a layer.
//   record  : name, kind, geometry, activation grid, packed weight codes
//             (min_code + divisor + bit width, values LSB-first),
//             per-channel scale + bias arrays, and the fused
//             requantization record: a fused flag, then per channel
//             {i32 multiplier, u8 shift, zigzag bias}.  Serializing the
//             requant parameters — instead of recomputing them at load
//             time — guarantees a served artifact replays the exporter's
//             exact integer datapath; `out_qmax` and `acc_bound` are
//             exact integer functions of the serialized fields and are
//             rederived by `finalize_plans` at load.
//
// The reader treats every count as untrusted: code counts must match the
// layer's geometry and array lengths must fit the remaining payload
// before either sizes an allocation.  Every layer must also meet the
// integer engine's 8-bit ceiling: weight grids of 2–8 bits with codes
// inside their ±2^bits envelope, and activation grids of 1–8 bits (or an
// unquantized head of 16 or more).
//
// Writes are crash-safe (temp file + atomic rename, common/fileio) and
// loads verify the checksum before parsing, so an interrupted export can
// never leave a half-parseable artifact behind.
//
// Only the portable plan fields are serialized.  The igemm payload (the
// kernel choice and its packed weight panels) is derived: `load_artifact`
// routes through `IntegerNetwork::from_plans`, which re-packs panels at
// load time — loaded networks serve through the same kernels as freshly
// compiled ones, and the on-disk format stays independent of kernel
// panel layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccq/hw/integer_engine.hpp"
#include "ccq/models/model.hpp"

namespace ccq::serve {

inline constexpr char kArtifactMagic[4] = {'C', 'C', 'Q', 'A'};
/// The one version written and read: the payload above.  Any
/// other version (v1 lacks the requant record, v2 the rung table) is
/// rejected before the payload with a named diagnostic and the command
/// that regenerates the file.
inline constexpr std::uint32_t kArtifactVersion = 3;

/// Bit-packed integer codes: value[i] = min_code + divisor · packed[i],
/// each packed entry `bits` wide, appended LSB-first.  `divisor` is the
/// GCD of the offsets, so the doubled codes the integer engine uses
/// (even for zero-centred grids, odd for half-offset ones) pack at their
/// native k bits instead of k+1.
struct PackedCodes {
  std::int32_t min_code = 0;
  std::uint32_t divisor = 1;
  std::uint8_t bits = 0;  ///< bits per packed value; 0 when all equal
  std::uint64_t count = 0;
  std::vector<std::uint8_t> bytes;

  std::size_t packed_bytes() const { return bytes.size(); }
};

/// Pack / unpack a code vector losslessly (round-trip is exact).
PackedCodes pack_codes(const std::vector<std::int32_t>& codes);
std::vector<std::int32_t> unpack_codes(const PackedCodes& packed);

/// Serialize a compiled integer network as a packed artifact at `path`
/// (crash-safe: temp file + rename).
void export_artifact(const hw::IntegerNetwork& net, const std::string& path);

/// Compile `model` (must be sequential and fully quantized, the
/// `IntegerNetwork::compile` contract) and export it.
void export_artifact(models::QuantModel& model, const std::string& path);

/// Load a packed artifact back into a runnable integer network.  Throws ccq::Error naming the file, the
/// offending layer and the expected vs found geometry/bits on any
/// header, checksum or per-layer mismatch; an unsupported version fails
/// before any payload byte is read, naming the found and supported
/// versions and the regeneration command.
hw::IntegerNetwork load_artifact(const std::string& path);

// ---- inspection ------------------------------------------------------------

/// Per-layer précis of an artifact.
struct ArtifactLayerInfo {
  std::string name;
  std::string kind;
  int weight_bits = 0;  ///< 0 for pool/reshape layers
  int act_bits = 0;     ///< 0 when no activation grid
  bool requant_fused = false;
};

/// Summary returned by `inspect_artifact` (the `ccq inspect` payload).
struct ArtifactInfo {
  std::uint32_t version = 0;
  std::size_t layer_count = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_bytes = 0;
  /// fp32-equivalent bytes of the serialized tensors (weight codes,
  /// channel scales, folded biases) — the denominator of the
  /// packed-vs-float compression ratio `ccq inspect` prints.
  std::uint64_t float_bytes = 0;
  std::vector<ArtifactLayerInfo> layers;
};

/// Parse and validate an artifact without building kernels or packing
/// panels.  Same failure contract as `load_artifact`.
ArtifactInfo inspect_artifact(const std::string& path);

}  // namespace ccq::serve
