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
//   payload : varint rung_count R ≥ 1, then per rung {zigzag trail_step,
//             f32 val_acc}; the *base* rung (index R−1, the lowest-
//             precision final configuration) as one full record per
//             layer; then, for each higher rung r = R−2 … 0, a chained
//             delta against rung r+1.  A single-point network is one
//             rung with no deltas.
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
//   delta   : varint delta_count, then per delta {varint layer_index,
//             u8 flags} with flag bit 0 carrying a codes section (u8
//             weight_bits + packed codes) and bit 1 a metadata section
//             (activation grid, channel scales, folded biases, requant
//             record).  Layer identity and geometry are stored once, in
//             the base records.  Weight codes are shared across rungs by
//             construction — a layer's codes are re-encoded only at the
//             rung where its precision actually changes — which is what
//             keeps a ≥3-rung artifact within
//             `MultiPointOptions::size_budget` of the single-point export
//             (`build_multipoint` measures and enforces it).
//
// The reader treats every count as untrusted: code counts must match the
// layer's geometry and array lengths must fit the remaining payload
// before either sizes an allocation.  Every rung's layers must also meet
// the integer engine's 8-bit ceiling: weight grids of 2–8 bits with codes
// inside their ±2^bits envelope, and activation grids of 1–8 bits (or an
// unquantized head of 16 or more).
//
// Writes are crash-safe (temp file + atomic rename, common/fileio) and
// loads verify the checksum before parsing, so an interrupted export can
// never leave a half-parseable artifact behind.
//
// Only the portable plan fields are serialized.  The igemm payload (the
// kernel choice and its packed weight panels) is derived: `load_artifact`
// routes through `IntegerNetwork::from_rungs`, which re-packs panels at
// load time — loaded networks serve through the same kernels as freshly
// compiled ones, and the on-disk format stays independent of kernel
// panel layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccq/core/trail.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/models/model.hpp"

namespace ccq::serve {

inline constexpr char kArtifactMagic[4] = {'C', 'C', 'Q', 'A'};
/// The one version written and read: the rung-table payload above.  Any
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

/// Load a packed artifact (single- or multi-point) back into a runnable
/// integer network.  Throws ccq::Error naming the file, the
/// offending layer and the expected vs found geometry/bits on any
/// header, checksum or per-layer mismatch; an unsupported version fails
/// before any payload byte is read, naming the found and supported
/// versions and the regeneration command.
hw::IntegerNetwork load_artifact(const std::string& path);

// ---- multi-point (adaptive-precision) export -------------------------------

struct MultiPointOptions {
  /// Operating points to ship, highest precision first.  ≥ 2 (a single
  /// point is just `export_artifact`).  Candidate rungs are spaced
  /// evenly over the trail; identical configurations are deduplicated,
  /// so the artifact may carry fewer rungs than requested.
  std::size_t rungs = 3;
  /// Size ceiling as a multiple of the single-point artifact.  When the
  /// evenly spaced candidates bust it, the span shrinks toward the final
  /// configuration (smaller deltas) until the encoding fits; if even a
  /// two-rung artifact cannot fit, build_multipoint throws.
  double size_budget = 1.5;
};

/// Replay `trail` (the controller's ladder pick history — see
/// core/trail.hpp) against `model`'s *final* trained weights and compile
/// one plan set per selected operating point, returning a multi-rung
/// network ready for `export_artifact` (one multi-rung artifact) or
/// direct serving.  The model must currently sit at the trail's final
/// configuration; its ladder positions are restored on return.  Rung 0
/// is the earliest (highest-precision) selected configuration, the last
/// rung the final one.  Throws on an empty trail, a trail inconsistent
/// with the model, or an unmeetable size budget.
hw::IntegerNetwork build_multipoint(models::QuantModel& model,
                                    const core::RungTrail& trail,
                                    const MultiPointOptions& options);

// ---- inspection ------------------------------------------------------------

/// Per-layer précis of an artifact, one entry per rung for the
/// precision-dependent fields.
struct ArtifactLayerInfo {
  std::string name;
  std::string kind;
  std::vector<int> weight_bits;    ///< per rung; 0 for pool/reshape layers
  std::vector<int> act_bits;       ///< per rung; 0 when no activation grid
  std::vector<bool> requant_fused; ///< per rung
};

/// Summary returned by `inspect_artifact` (the `ccq inspect` payload).
struct ArtifactInfo {
  std::uint32_t version = 0;
  std::size_t rung_count = 0;
  std::size_t layer_count = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_bytes = 0;
  /// fp32-equivalent bytes of the serialized tensors (weight codes,
  /// channel scales, folded biases at one rung) — the denominator of the
  /// packed-vs-float compression ratio `ccq inspect` prints.
  std::uint64_t float_bytes = 0;
  std::vector<hw::RungInfo> rungs;  ///< per-rung provenance (one entry per rung)
  std::vector<ArtifactLayerInfo> layers;
};

/// Parse and validate an artifact without building kernels or packing
/// panels.  Same failure contract as `load_artifact`.
ArtifactInfo inspect_artifact(const std::string& path);

}  // namespace ccq::serve
