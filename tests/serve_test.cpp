// Tests for ccq::serve: packed artifact round-trips, crash-safe writes,
// and the registry-routed inference server — admission control, flush
// triggers, drain/shutdown semantics and the headline property that
// served outputs are bit-identical to a direct integer forward for any
// worker count and batch composition, whether a worker or a blocking
// `infer` caller runs the batch.  Hot-swap and wire-protocol coverage
// live in serve_swap_test.cpp / serve_net_test.cpp.
//
// Labelled `serve` and run under the TSan quick tier
// (`CCQ_THREADS=4 ctest -L "parallel|telemetry|serve"`).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ccq/common/fileio.hpp"
#include "ccq/core/snapshot.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/harness.hpp"

namespace ccq::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

Tensor make_inputs(std::size_t n, std::size_t channels = 3,
                   std::size_t hw = 8) {
  Tensor x({n, channels, hw, hw});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

/// A small quantized CNN with a mixed 8/4/2 allocation (layer i sits at
/// ladder position i mod 3).  Untrained — serve correctness is about the
/// datapath, not accuracy — but forwarded once in train mode so
/// activation ranges are calibrated before compiling.
models::QuantModel make_mixed_model() {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, i % 3);
  }
  Workspace ws;
  model.set_training(true);
  model.forward(make_inputs(16), ws);
  model.set_training(false);
  return model;
}

float max_row_diff(const Tensor& row, const Tensor& batch, std::size_t i) {
  float diff = 0.0f;
  for (std::size_t c = 0; c < row.dim(0); ++c) {
    diff = std::max(diff, std::abs(row(c) - batch(i, c)));
  }
  return diff;
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// ---- bit packing -----------------------------------------------------------

TEST(PackCodesTest, RoundTripsExactly) {
  const std::vector<std::vector<std::int32_t>> cases = {
      {0},
      {7, 7, 7, 7},
      {-6, -4, -2, 0, 2, 4, 6},          // doubled even (zero-centred grid)
      {-7, -5, -3, -1, 1, 3, 5, 7},      // doubled odd (half-offset grid)
      {-254, 254, 0, 2, -128, 130},      // 8-bit doubled extremes
      {1, -1, 1, -1, 1},
      {123456, -123456, 0},
  };
  for (const auto& codes : cases) {
    EXPECT_EQ(unpack_codes(pack_codes(codes)), codes);
  }
}

TEST(PackCodesTest, DoubledCodesPackAtNativeWidth) {
  // Doubled codes of a 4-bit symmetric grid: even values in [-14, 14].
  std::vector<std::int32_t> codes;
  for (int i = 0; i < 100; ++i) codes.push_back(2 * ((i % 15) - 7));
  const PackedCodes packed = pack_codes(codes);
  EXPECT_EQ(packed.divisor % 2, 0u);  // parity folded into the divisor
  EXPECT_LE(packed.bits, 4);
  EXPECT_LE(packed.packed_bytes(), (codes.size() * 4 + 7) / 8);
  EXPECT_EQ(unpack_codes(packed), codes);
}

TEST(PackCodesTest, ConstantVectorPacksToZeroBits) {
  const std::vector<std::int32_t> codes(1000, -42);
  const PackedCodes packed = pack_codes(codes);
  EXPECT_EQ(packed.bits, 0);
  EXPECT_TRUE(packed.bytes.empty());
  EXPECT_EQ(unpack_codes(packed), codes);
}

// ---- artifact round-trip ---------------------------------------------------

TEST(ArtifactTest, RoundTripIsBitIdentical) {
  auto model = make_mixed_model();
  hw::IntegerNetwork direct = hw::IntegerNetwork::compile(model);
  const std::string path = temp_path("ccq_serve_roundtrip.ccqa");
  export_artifact(direct, path);
  hw::IntegerNetwork loaded = load_artifact(path);

  ASSERT_EQ(loaded.layer_count(), direct.layer_count());
  for (std::size_t l = 0; l < direct.layer_count(); ++l) {
    const auto& a = direct.plan(l);
    const auto& b = loaded.plan(l);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.weight_bits, b.weight_bits);
    EXPECT_EQ(a.weight_codes, b.weight_codes);
    EXPECT_EQ(a.channel_scale, b.channel_scale);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.act_bits, b.act_bits);
    EXPECT_EQ(a.act_clip, b.act_clip);
    // The v2 requant record round-trips verbatim, and the rederived
    // integer fields (out_qmax / acc_bound) agree with the exporter's.
    EXPECT_EQ(a.requant_fused, b.requant_fused);
    EXPECT_EQ(a.out_qmax, b.out_qmax);
    EXPECT_EQ(a.acc_bound, b.acc_bound);
    ASSERT_EQ(a.requant.size(), b.requant.size());
    for (std::size_t c = 0; c < a.requant.size(); ++c) {
      EXPECT_EQ(a.requant[c].multiplier, b.requant[c].multiplier);
      EXPECT_EQ(a.requant[c].shift, b.requant[c].shift);
      EXPECT_EQ(a.requant[c].bias, b.requant[c].bias);
    }
  }

  const Tensor x = make_inputs(20);
  EXPECT_EQ(max_abs_diff(direct.forward(x), loaded.forward(x)), 0.0f);
  fs::remove(path);
}

TEST(ArtifactTest, AtLeast4xSmallerThanFloatSnapshot) {
  auto model = make_mixed_model();
  const std::string snapshot = temp_path("ccq_serve_size.snap");
  const std::string artifact = temp_path("ccq_serve_size.ccqa");
  core::save_snapshot(model, snapshot);
  export_artifact(model, artifact);
  const auto snapshot_bytes = fs::file_size(snapshot);
  const auto artifact_bytes = fs::file_size(artifact);
  EXPECT_GE(static_cast<double>(snapshot_bytes) /
                static_cast<double>(artifact_bytes),
            4.0)
      << "snapshot " << snapshot_bytes << " B, artifact " << artifact_bytes
      << " B";
  fs::remove(snapshot);
  fs::remove(artifact);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ArtifactTest, ChecksumDetectsCorruption) {
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_corrupt.ccqa");
  export_artifact(model, path);

  // Flip one payload byte past the header.
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(path, bytes);
  const std::string message = error_message([&] { load_artifact(path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  fs::remove(path);
}

TEST(ArtifactTest, UnsupportedVersionsFailBeforeThePayload) {
  // Versions below and above the supported one: v1 lacks the fused
  // requantization record, v2 the rung table, and v4 / v99 exercise the
  // forward direction (a newer exporter meeting this reader).  Silently
  // parsing any of them with today's layouts would misload, so the
  // version gate must fire first and name both versions.
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_version.ccqa");
  export_artifact(model, path);
  const std::string original = read_file(path);

  for (const std::uint32_t bad : {1u, 2u, 4u, 99u}) {
    std::string bytes = original;
    // Rewrite the header's version field (bytes 4..7, after the magic).
    std::memcpy(bytes.data() + 4, &bad, sizeof(bad));
    // Corrupt the payload too: negotiation must fire before any payload
    // byte is parsed, so the corruption must never be reached.
    bytes.back() = static_cast<char>(~bytes.back());
    write_file(path, bytes);
    const std::string message = error_message([&] { load_artifact(path); });
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("unsupported version " + std::to_string(bad)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("reads version " + std::to_string(kArtifactVersion)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("regenerate"), std::string::npos) << message;
    EXPECT_NE(message.find("ccq export"), std::string::npos) << message;
    // inspect negotiates identically.
    EXPECT_NE(error_message([&] { inspect_artifact(path); })
                  .find("version " + std::to_string(bad)),
              std::string::npos);
  }
  fs::remove(path);
}

TEST(ArtifactTest, TruncationAtEveryPointIsDiagnosed) {
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_truncated.ccqa");
  export_artifact(model, path);
  const std::string original = read_file(path);

  // Every header truncation point (the header is 28 bytes), then a
  // sweep of payload truncations including one-byte-short.
  std::vector<std::size_t> cuts;
  for (std::size_t len = 0; len < 28; ++len) cuts.push_back(len);
  for (std::size_t len = 28; len < original.size();
       len += std::max<std::size_t>(1, (original.size() - 28) / 16)) {
    cuts.push_back(len);
  }
  cuts.push_back(original.size() - 1);
  for (const std::size_t len : cuts) {
    write_file(path, original.substr(0, len));
    const std::string message = error_message([&] { load_artifact(path); });
    EXPECT_FALSE(message.empty()) << "no error at " << len << " bytes";
    EXPECT_NE(message.find(path), std::string::npos) << message;
  }
  write_file(path, original.substr(0, original.size() / 2));
  EXPECT_NE(error_message([&] { load_artifact(path); }).find("truncated"),
            std::string::npos);

  // Trailing garbage after a well-formed payload is rejected too.
  write_file(path, original + std::string(3, 'x'));
  const std::string message = error_message([&] { load_artifact(path); });
  EXPECT_NE(message.find("bytes past the declared"), std::string::npos)
      << message;
  fs::remove(path);
}

TEST(ArtifactTest, InspectDescribesASinglePointExport) {
  auto model = make_mixed_model();
  const hw::IntegerNetwork net = hw::IntegerNetwork::compile(model);
  const std::string path = temp_path("ccq_serve_inspect.ccqa");
  export_artifact(net, path);

  const ArtifactInfo info = inspect_artifact(path);
  EXPECT_EQ(info.version, kArtifactVersion);
  EXPECT_EQ(info.file_bytes, fs::file_size(path));
  EXPECT_EQ(info.payload_bytes + 28, info.file_bytes);
  EXPECT_GT(info.float_bytes, info.file_bytes);  // packing compresses
  ASSERT_EQ(info.layer_count, net.layer_count());
  ASSERT_EQ(info.layers.size(), net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const hw::IntLayerPlan& plan = net.plan(i);
    const ArtifactLayerInfo& layer = info.layers[i];
    const bool weighted = plan.kind == hw::IntLayerPlan::Kind::kConv ||
                          plan.kind == hw::IntLayerPlan::Kind::kLinear;
    EXPECT_EQ(layer.name, plan.name);
    EXPECT_EQ(layer.weight_bits, weighted ? plan.weight_bits : 0) << plan.name;
    EXPECT_EQ(layer.act_bits, plan.has_act ? plan.act_bits : 0) << plan.name;
    EXPECT_EQ(layer.requant_fused, plan.requant_fused) << plan.name;
  }
  fs::remove(path);
}

// ---- hostile artifacts ----------------------------------------------------

/// One hand-built, correctly checksummed artifact: one conv layer named
/// 'hostile' whose geometry, grids, code stream
/// header and channel-scale count are chosen by the caller.  Every count
/// is a lie the reader must catch before it sizes an allocation, and
/// every grid must meet the engine's 8-bit ceiling.
struct CraftedLayer {
  std::uint64_t out_channels = 1, in_channels = 1;
  std::uint8_t weight_bits = 8;
  std::uint8_t act_bits = 32;  // with has_act: the layer's activation grid
  bool has_act = false;
  std::int64_t min_code = 0;
  std::uint64_t code_count = 1;
  std::uint8_t code_bits = 0;
  std::uint64_t scale_count = 1;
};

/// Write `payload` under a valid version-3 header declaring one layer,
/// with a matching length and checksum; returns the file's path.
std::string write_payload(const std::string& name, const std::string& payload) {
  std::string bytes(kArtifactMagic, sizeof(kArtifactMagic));
  const auto header = [&](auto v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  header(kArtifactVersion);
  header(std::uint32_t{1});  // layer count
  header(static_cast<std::uint64_t>(payload.size()));
  header(fnv1a(payload.data(), payload.size()));
  const std::string path = temp_path(name);
  write_file(path, bytes + payload);
  return path;
}

std::string write_crafted(const std::string& name, const CraftedLayer& layer) {
  std::string payload;
  const auto varint = [&](std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) payload.push_back(static_cast<char>(v | 0x80));
    payload.push_back(static_cast<char>(v));
  };
  const auto pod = [&](auto v) {
    payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  varint(1);     // one rung
  varint(1);     // zigzag(−1): the final configuration
  pod(0.0f);     // val_acc
  varint(7);
  payload += "hostile";
  pod(std::uint8_t{0});   // kind: conv
  pod(layer.weight_bits);
  pod(std::uint8_t{layer.has_act});
  pod(layer.act_bits);
  pod(1.0f);              // act clip
  for (std::uint64_t dim : {layer.in_channels, layer.out_channels,
                            std::uint64_t{1}, std::uint64_t{1},
                            std::uint64_t{0}, std::uint64_t{0},
                            std::uint64_t{0}, std::uint64_t{2},
                            std::uint64_t{2}}) {
    varint(dim);  // in/out channels, kernel, stride, pad, features, pool
  }
  varint((static_cast<std::uint64_t>(layer.min_code) << 1) ^
         static_cast<std::uint64_t>(layer.min_code >> 63));  // zigzag
  varint(1);  // divisor
  pod(layer.code_bits);
  varint(layer.code_count);
  varint(0);  // packed bytes
  varint(layer.scale_count);
  pod(1.0f);
  varint(1);  // one folded bias
  pod(0.0f);
  pod(std::uint8_t{0});  // unfused
  return write_payload(name, payload);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(ArtifactTest, CraftedCountsFailNamingTheLayerBeforeAllocating) {
  struct Case {
    const char* what;
    CraftedLayer layer;
  };
  const Case cases[] = {
      // 2^27 zero-bit codes for a 1×1 layer: a 512 MiB code vector.
      {"2^27 codes", {.code_count = std::uint64_t{1} << 27}},
      {"2^40 codes", {.code_count = std::uint64_t{1} << 40}},
      // Geometry agreeing with 2^61 codes at 8 bits: count · bits wraps
      // to zero expected bytes.
      {"2^61 codes at 8 bits",
       {.out_channels = std::uint64_t{1} << 31,
        .in_channels = std::uint64_t{1} << 30,
        .code_count = std::uint64_t{1} << 61,
        .code_bits = 8}},
      // n · sizeof(float) wraps to 4 bytes.
      {"2^62+1 scales", {.scale_count = (std::uint64_t{1} << 62) + 1}},
      {"200-bit codes", {.code_bits = 200}},
  };
  for (const Case& c : cases) {
    const std::string path = write_crafted("ccq_serve_crafted.ccqa", c.layer);
    const long rss_before = peak_rss_kb();
    const std::string message = error_message([&] { inspect_artifact(path); });
    EXPECT_NE(message.find("layer 'hostile'"), std::string::npos)
        << c.what << ": " << message;
    EXPECT_EQ(error_message([&] { load_artifact(path); }), message) << c.what;
    // Nothing the counts claim may be allocated first (peak RSS is in KiB).
    EXPECT_LT(peak_rss_kb() - rss_before, 64 * 1024) << c.what;
    fs::remove(path);
  }
}

TEST(ArtifactTest, CraftedGridsPastTheEngineCeilingFailNamingTheLayer) {
  struct Case {
    const char* what;
    CraftedLayer layer;
    const char* expect;
  };
  const Case cases[] = {
      {"12-bit weights", {.weight_bits = 12}, "weight bits 12"},
      {"12-bit activations",
       {.act_bits = 12, .has_act = true},
       "activation bits 12"},
      // A 0-bit stream: every code equals min_code, 1000 > 2^8.
      {"code outside the envelope", {.min_code = 1000}, "weight code 1000"},
  };
  for (const Case& c : cases) {
    const std::string path = write_crafted("ccq_serve_ceiling.ccqa", c.layer);
    const std::string message = error_message([&] { inspect_artifact(path); });
    EXPECT_NE(message.find("layer 'hostile'"), std::string::npos)
        << c.what << ": " << message;
    EXPECT_NE(message.find(c.expect), std::string::npos)
        << c.what << ": " << message;
    EXPECT_EQ(error_message([&] { load_artifact(path); }), message) << c.what;
    fs::remove(path);
  }
  // The same layer at 8 bits loads.
  const std::string path = write_crafted("ccq_serve_ceiling.ccqa",
                                         {.min_code = 256});
  EXPECT_EQ(inspect_artifact(path).layers.at(0).weight_bits, 8);
  EXPECT_NO_THROW(load_artifact(path));
  fs::remove(path);
}

TEST(ArtifactTest, ConstantCodeStreamIsBoundedBeforeItIsExpanded) {
  // A layer whose codes are all equal packs to 0 bits and 0 bytes, so its
  // declared geometry alone would size the code vector: 2^20 × 2^20 codes
  // is 4 TiB of int32.  The reader must throw a typed error naming the
  // layer (std::bad_alloc fails the test), and so must one row deeper
  // than the constant-stream cap.
  const CraftedLayer layers[] = {
      {.out_channels = std::uint64_t{1} << 20,
       .in_channels = std::uint64_t{1} << 20,
       .code_count = std::uint64_t{1} << 40},
      {.out_channels = 1,
       .in_channels = std::uint64_t{1} << 17,
       .code_count = std::uint64_t{1} << 17},
  };
  for (const CraftedLayer& layer : layers) {
    const std::string path = write_crafted("ccq_serve_constant.ccqa", layer);
    std::string message;
    EXPECT_THROW(
        {
          try {
            inspect_artifact(path);
          } catch (const Error& e) {
            message = e.what();
            throw;
          }
        },
        Error)
        << layer.in_channels << " codes per row";
    EXPECT_NE(message.find("layer 'hostile'"), std::string::npos) << message;
    EXPECT_NE(message.find("constant code stream"), std::string::npos)
        << message;
    EXPECT_EQ(error_message([&] { load_artifact(path); }), message);
    fs::remove(path);
  }
}

TEST(ArtifactTest, ConstantLayerRoundTrips) {
  // A legitimate constant layer — every code equal, so a 0-bit stream —
  // still loads and serves bit-identically.
  Rng rng(17);
  auto conv = [&](std::size_t in_c, std::size_t out_c, std::string name,
                  bool constant) {
    hw::IntLayerPlan p;
    p.kind = hw::IntLayerPlan::Kind::kConv;
    p.name = std::move(name);
    p.in_channels = in_c;
    p.out_channels = out_c;
    p.kernel = 3;
    p.stride = 1;
    p.pad = 1;
    p.weight_bits = 4;
    p.weight_codes.resize(out_c * in_c * 9);
    for (auto& c : p.weight_codes) {
      c = constant ? 3 : static_cast<std::int32_t>(rng.uniform_int(15)) - 7;
    }
    p.channel_scale.assign(out_c, 0.01f);
    p.bias.assign(out_c, 0.02f);
    p.has_act = true;
    p.act_bits = 4;
    p.act_clip = 1.0f;
    return p;
  };
  hw::IntegerNetwork direct = hw::IntegerNetwork::from_plans(
      {conv(3, 8, "conv1", false), conv(8, 4, "conv2", true)});
  ASSERT_EQ(pack_codes(direct.plan(1).weight_codes).bits, 0);
  const std::string path = temp_path("ccq_serve_constant_layer.ccqa");
  export_artifact(direct, path);
  hw::IntegerNetwork loaded = load_artifact(path);
  EXPECT_EQ(loaded.plan(1).weight_codes, direct.plan(1).weight_codes);
  const Tensor x = make_inputs(4);
  EXPECT_EQ(max_abs_diff(direct.forward(x), loaded.forward(x)), 0.0f);
  fs::remove(path);
}

TEST(ArtifactTest, MultiPointArtifactsFailBeforeAnyLayerIsParsed) {
  // Earlier builds wrote lower-precision operating points as extra rungs.
  // The reader refuses any rung count but 1 at the rung count itself:
  // the bytes after it are no layer record, so a reader that went on
  // would fail elsewhere, naming a layer or a truncation.
  for (const std::uint64_t rungs :
       {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{1} << 40}) {
    std::string payload;
    std::uint64_t v = rungs;  // LEB128, as the writer emits it
    for (; v >= 0x80; v >>= 7) payload.push_back(static_cast<char>(v | 0x80));
    payload.push_back(static_cast<char>(v));
    payload += std::string(16, '\xff');
    const std::string path = write_payload("ccq_serve_rungs.ccqa", payload);
    for (const auto& load : std::vector<std::function<void()>>{
             [&] { load_artifact(path); }, [&] { inspect_artifact(path); }}) {
      const std::string message = error_message(load);
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_NE(message.find("declares " + std::to_string(rungs) + " rungs"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("multi-point artifacts are no longer served"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("ccq export"), std::string::npos) << message;
      EXPECT_EQ(message.find("layer"), std::string::npos) << message;
    }
    fs::remove(path);
  }
}

TEST(ArtifactTest, RejectsForeignFiles) {
  const std::string path = temp_path("ccq_serve_notartifact.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "definitely not a packed model artifact";
  }
  const std::string message = error_message([&] { load_artifact(path); });
  EXPECT_NE(message.find("magic"), std::string::npos) << message;
  fs::remove(path);
}

// ---- crash-safe writes -----------------------------------------------------

TEST(AtomicWriteTest, FailedWriteKeepsPreviousFile) {
  const std::string path = temp_path("ccq_serve_atomic.txt");
  atomic_write_file(path, [](std::ostream& os) { os << "generation 1"; });
  EXPECT_THROW(atomic_write_file(path,
                                 [](std::ostream& os) {
                                   os << "partial";
                                   throw Error("simulated crash mid-write");
                                 }),
               Error);
  std::ifstream is(path);
  std::string content;
  std::getline(is, content);
  EXPECT_EQ(content, "generation 1");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(AtomicWriteTest, SnapshotSaveLeavesNoTempFile) {
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_snapshot.snap");
  core::save_snapshot(model, path);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(core::load_snapshot(model, path));
  fs::remove(path);
}

// ---- snapshot load diagnostics ---------------------------------------------

TEST(SnapshotErrorTest, ShapeMismatchNamesParameterAndShapes) {
  auto narrow = make_mixed_model();
  const std::string path = temp_path("ccq_serve_mismatch.snap");
  core::save_snapshot(narrow, path);

  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.5f;  // wider: every conv shape differs
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto wide =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  const std::string message =
      error_message([&] { core::load_snapshot(wide, path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("expects"), std::string::npos) << message;
  EXPECT_NE(message.find("found"), std::string::npos) << message;
  fs::remove(path);
}

TEST(SnapshotErrorTest, OffLadderBitsNameTheLayer) {
  auto model = make_mixed_model();  // layer 1 sits at 4 bits
  const std::string path = temp_path("ccq_serve_ladder.snap");
  core::save_snapshot(model, path);

  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto other =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 2}));
  const std::string message =
      error_message([&] { core::load_snapshot(other, path); });
  EXPECT_NE(message.find(model.registry().unit(1).name), std::string::npos)
      << message;
  EXPECT_NE(message.find("ladder"), std::string::npos) << message;
  fs::remove(path);
}

// ---- inference server ------------------------------------------------------

TEST(ServeTest, ServedOutputsBitIdenticalForAnyWorkerCount) {
  auto model = make_mixed_model();
  hw::IntegerNetwork direct = hw::IntegerNetwork::compile(model);
  const Tensor x = make_inputs(24);
  const Tensor reference = direct.forward(x);

  for (std::size_t workers : {1u, 2u, 4u}) {
    ServeConfig config;
    config.workers = workers;
    InferenceServer server(config);
    ModelConfig mc;
    mc.max_batch = 5;  // batches never align with producer strides
    mc.max_delay_us = 200;
    server.load("mixed", hw::IntegerNetwork::compile(model), mc);
    ServeHarness harness(server, "mixed");
    const HarnessReport report = harness.run(x, {.producers = 4});
    ASSERT_EQ(report.outputs.size(), x.dim(0));
    for (std::size_t i = 0; i < report.outputs.size(); ++i) {
      EXPECT_EQ(max_row_diff(report.outputs[i], reference, i), 0.0f)
          << "sample " << i << " with " << workers << " workers";
      EXPECT_EQ(report.versions[i], 1u);
    }
  }
}

TEST(ServeTest, ServedOutputsMatchThePrePackedNaiveForward) {
  // Golden check for the igemm datapath end to end: export the mixed
  // 8/4/2 SimpleCNN, reload it (the load path selects a kernel per layer
  // and re-packs the weight panels in that kernel's layout), serve it —
  // and require every served logit to be bit-identical to
  // `forward_reference`, the naive int64 triple loop that was the entire
  // serving datapath before the blocked kernels.
  auto model = make_mixed_model();
  hw::IntegerNetwork direct = hw::IntegerNetwork::compile(model);
  const Tensor x = make_inputs(24);
  const Tensor golden = direct.forward_reference(x);

  const std::string path = temp_path("ccq_serve_igemm_golden.ccqa");
  export_artifact(direct, path);
  hw::IntegerNetwork loaded = load_artifact(path);
  for (std::size_t l = 0; l < loaded.layer_count(); ++l) {
    const auto& plan = loaded.plan(l);
    if (plan.kind != hw::IntLayerPlan::Kind::kConv &&
        plan.kind != hw::IntLayerPlan::Kind::kLinear) {
      continue;
    }
    EXPECT_FALSE(plan.panel.empty())
        << "layer " << plan.name << " loaded without a packed panel";
    EXPECT_EQ(plan.panel.rows * plan.panel.depth, plan.weight_codes.size())
        << "layer " << plan.name << " panel shape mismatch";
    EXPECT_EQ(plan.panel.kernel, plan.igemm_kernel) << plan.name;
  }

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 5;
  mc.max_delay_us = 200;
  server.load("golden", std::move(loaded), mc);
  ServeHarness harness(server, "golden");
  const HarnessReport report = harness.run(x, {.producers = 3});
  ASSERT_EQ(report.outputs.size(), x.dim(0));
  for (std::size_t i = 0; i < report.outputs.size(); ++i) {
    EXPECT_EQ(max_row_diff(report.outputs[i], golden, i), 0.0f)
        << "served sample " << i << " diverged from the naive reference";
  }
  fs::remove(path);
}

TEST(ServeTest, FlushesWhenBatchFills) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 4;
  mc.max_delay_us = 5'000'000;  // only a full batch can flush this fast
  const ModelHandle handle =
      server.load("fill", hw::IntegerNetwork::compile(model), mc);

  const Tensor x = make_inputs(4);
  std::vector<Tensor> inputs(4), outputs(4);
  std::vector<std::future<void>> replies;
  const Shape chw{x.dim(1), x.dim(2), x.dim(3)};
  for (std::size_t i = 0; i < 4; ++i) {
    inputs[i] = Tensor(chw);
    const auto src = x.data().subspan(i * shape_numel(chw), shape_numel(chw));
    std::copy(src.begin(), src.end(), inputs[i].data().begin());
    replies.push_back(server.submit(handle, inputs[i], outputs[i]));
  }
  // The 4th submit fills the batch; replies must arrive long before the
  // 5-second delay deadline.
  for (auto& reply : replies) {
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
  }
}

TEST(ServeTest, FlushesOnDelayDeadline) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 64;  // never fills: only the deadline can flush
  mc.max_delay_us = 20'000;
  server.load("deadline", hw::IntegerNetwork::compile(model), mc);

  Tensor input = make_inputs(1);
  Tensor sample({input.dim(1), input.dim(2), input.dim(3)});
  std::copy(input.data().begin(), input.data().end(), sample.data().begin());
  Tensor out;
  // Submit through the name-resolving convenience overload.
  auto reply = server.submit("deadline", sample, out);
  ASSERT_EQ(reply.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  reply.get();
  EXPECT_EQ(out.rank(), 1u);
}

TEST(ServeTest, RejectsWhenQueueIsFullNamingTheModel) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 16;          // larger than capacity …
  mc.queue_capacity = 4;      // … so the queue fills while the worker
  mc.max_delay_us = 100'000;  // waits out the batch-fill deadline
  const ModelHandle handle =
      server.load("bounded", hw::IntegerNetwork::compile(model), mc);

  const Shape chw{3, 8, 8};
  std::vector<Tensor> inputs, outputs;
  for (std::size_t i = 0; i < 5; ++i) {
    inputs.push_back(make_inputs(1).reshaped(chw));
    outputs.emplace_back();
  }
  std::vector<std::future<void>> replies;
  for (std::size_t i = 0; i < 4; ++i) {
    replies.push_back(server.submit(handle, inputs[i], outputs[i]));
  }
  EXPECT_EQ(server.queue_depth("bounded"), 4u);
  const std::string message =
      error_message([&] { server.submit(handle, inputs[4], outputs[4]); });
  EXPECT_NE(message.find("bounded"), std::string::npos) << message;
  EXPECT_NE(message.find("capacity 4"), std::string::npos) << message;
  server.shutdown();  // flushes the queued four immediately
  for (auto& reply : replies) reply.get();
}

TEST(ServeTest, DrainWaitsForAllReplies) {
  auto model = make_mixed_model();
  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 3;
  mc.max_delay_us = 500;
  server.load("drain", hw::IntegerNetwork::compile(model), mc);
  ServeHarness harness(server, "drain");
  // run() already joins all futures; drain() afterwards must return
  // immediately with nothing queued or in flight.
  harness.run(make_inputs(12), {.producers = 3});
  server.drain();
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(ServeTest, ShutdownServesQueuedRequestsThenRejects) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 16;
  mc.max_delay_us = 60'000'000;  // effectively never flushes on its own
  const ModelHandle handle =
      server.load("slow", hw::IntegerNetwork::compile(model), mc);

  // Build every input/output up front: the server keeps pointers into
  // these vectors, so they must not reallocate after the first submit.
  const Shape chw{3, 8, 8};
  std::vector<Tensor> inputs, outputs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    inputs.push_back(make_inputs(1).reshaped(chw));
  }
  std::vector<std::future<void>> replies;
  for (std::size_t i = 0; i < 3; ++i) {
    replies.push_back(server.submit(handle, inputs[i], outputs[i]));
  }
  server.shutdown();  // graceful: queued work is served before exit
  for (auto& reply : replies) reply.get();
  for (const Tensor& out : outputs) EXPECT_EQ(out.rank(), 1u);

  Tensor late_in = make_inputs(1).reshaped(chw);
  Tensor late_out;
  EXPECT_THROW(server.submit(handle, late_in, late_out), ServerStoppedError);
}

TEST(ServeTest, RejectsMismatchedSampleShapes) {
  auto model = make_mixed_model();
  InferenceServer server;
  const ModelHandle handle =
      server.load("shapes", hw::IntegerNetwork::compile(model));
  Tensor batch_in = make_inputs(1);
  Tensor out;
  EXPECT_THROW(server.submit(handle, batch_in, out), Error);  // rank 4

  Tensor first = make_inputs(1).reshaped({3, 8, 8});
  auto reply = server.submit(handle, first, out);
  Tensor odd({3, 4, 4});
  Tensor odd_out;
  EXPECT_THROW(server.submit(handle, odd, odd_out), Error);
  reply.get();
}

TEST(ServeTest, WrongGeometryFirstRequestRejectedWithoutPoisoningPin) {
  auto model = make_mixed_model();
  InferenceServer server;
  const ModelHandle handle =
      server.load("geometry", hw::IntegerNetwork::compile(model));
  // A wrong-geometry *first* request must be rejected at admission (the
  // network expects 3 input channels), not pin its shape — over the TCP
  // front end it is untrusted, and an unchecked pin would both size the
  // conv loops from its dims and reject every later well-formed submit.
  Tensor bogus({7, 8, 8});
  Tensor bogus_out;
  const std::string message =
      error_message([&] { server.submit(handle, bogus, bogus_out); });
  EXPECT_NE(message.find("channels"), std::string::npos) << message;

  Tensor good = make_inputs(1).reshaped({3, 8, 8});
  Tensor out;
  server.submit(handle, good, out).get();  // pin is clean: this serves
  EXPECT_EQ(out.rank(), 1u);
  EXPECT_EQ(out.dim(0), 5u);
}

TEST(ServeTest, ZeroDimSampleRejectedAtAdmission) {
  auto model = make_mixed_model();
  InferenceServer server;
  const ModelHandle handle =
      server.load("zerodim", hw::IntegerNetwork::compile(model));
  Tensor zero({3, 0, 8});
  Tensor out;
  const std::string message =
      error_message([&] { server.submit(handle, zero, out); });
  EXPECT_NE(message.find("zero dimension"), std::string::npos) << message;
}

TEST(ServeTest, SubmitToUnknownNameThrowsModelNotFound) {
  InferenceServer server;
  Tensor sample({3, 8, 8});
  Tensor out;
  const std::string message =
      error_message([&] { server.submit("absent", sample, out); });
  EXPECT_NE(message.find("absent"), std::string::npos) << message;
  EXPECT_THROW(server.resolve("absent"), ModelNotFoundError);
}

TEST(ServeTest, HarnessRetriesRejectionsToCompletion) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 2;
  mc.max_delay_us = 100;
  mc.queue_capacity = 2;  // tiny: 4 producers must hit rejections
  server.load("tiny", hw::IntegerNetwork::compile(model), mc);
  ServeHarness harness(server, "tiny");
  const Tensor x = make_inputs(32);
  const HarnessReport report = harness.run(x, {.producers = 4});
  EXPECT_EQ(report.requests, 32u);
  ASSERT_EQ(report.outputs.size(), 32u);
  for (const Tensor& out : report.outputs) EXPECT_EQ(out.rank(), 1u);
}

TEST(ServeTest, TwoModelsServeConcurrentlyOnOnePool) {
  // Two distinct artifacts behind one shared worker pool: interleaved
  // traffic to both names must stay bit-identical to each model's own
  // direct forward (requests are never cross-batched between models).
  auto mixed = make_mixed_model();
  hw::IntegerNetwork mixed_net = hw::IntegerNetwork::compile(mixed);

  models::ModelConfig mc8;
  mc8.num_classes = 5;
  mc8.image_size = 8;
  mc8.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto uniform =
      models::make_simple_cnn(mc8, factory, quant::BitLadder({8, 4, 2}));
  {
    quant::LayerRegistry& registry = uniform.registry();
    for (std::size_t i = 0; i < registry.size(); ++i) {
      registry.set_ladder_pos(i, 0);  // uniform 8-bit: differs from mixed
    }
    Workspace ws;
    uniform.set_training(true);
    uniform.forward(make_inputs(16), ws);
    uniform.set_training(false);
  }
  hw::IntegerNetwork uniform_net = hw::IntegerNetwork::compile(uniform);

  const Tensor x = make_inputs(16);
  const Tensor ref_mixed = mixed_net.forward(x);
  const Tensor ref_uniform = uniform_net.forward(x);
  ASSERT_NE(max_abs_diff(ref_mixed, ref_uniform), 0.0f)
      << "models must be distinguishable for this test to mean anything";

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig serve_mc;
  serve_mc.max_batch = 3;
  serve_mc.max_delay_us = 200;
  server.load("mixed", std::move(mixed_net), serve_mc);
  server.load("uniform", std::move(uniform_net), serve_mc);
  EXPECT_EQ(server.registry().names().size(), 2u);

  ServeHarness drive_mixed(server, "mixed");
  ServeHarness drive_uniform(server, "uniform");
  HarnessReport report_mixed, report_uniform;
  std::thread t([&] { report_mixed = drive_mixed.run(x, {.producers = 2}); });
  report_uniform = drive_uniform.run(x, {.producers = 2});
  t.join();

  ASSERT_EQ(report_mixed.outputs.size(), x.dim(0));
  ASSERT_EQ(report_uniform.outputs.size(), x.dim(0));
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    EXPECT_EQ(max_row_diff(report_mixed.outputs[i], ref_mixed, i), 0.0f)
        << "mixed sample " << i;
    EXPECT_EQ(max_row_diff(report_uniform.outputs[i], ref_uniform, i), 0.0f)
        << "uniform sample " << i;
  }
}

// ---- blocking infer --------------------------------------------------------

/// The CHW samples of an NCHW batch.
std::vector<Tensor> split_samples(const Tensor& x) {
  const Shape chw{x.dim(1), x.dim(2), x.dim(3)};
  const std::size_t numel = shape_numel(chw);
  std::vector<Tensor> samples;
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    Tensor sample(chw);
    const auto src = x.data().subspan(i * numel, numel);
    std::copy(src.begin(), src.end(), sample.data().begin());
    samples.push_back(std::move(sample));
  }
  return samples;
}

/// `row` holds exactly the bytes of row `i` of `batch`.
bool row_bytes_equal(const Tensor& row, const Tensor& batch, std::size_t i) {
  const std::size_t classes = batch.dim(1);
  return row.rank() == 1 && row.dim(0) == classes &&
         std::memcmp(row.data().data(), batch.data().data() + i * classes,
                     classes * sizeof(float)) == 0;
}

/// The 8-bit variant of `make_mixed_model`'s network: same shapes,
/// different logits.
hw::IntegerNetwork make_uniform_network() {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, 0);
  }
  Workspace ws;
  model.set_training(true);
  model.forward(make_inputs(16), ws);
  model.set_training(false);
  return hw::IntegerNetwork::compile(model);
}

/// Poll until `done()` holds (a request parked in a queue, say).
void wait_until(const std::function<bool()>& done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::microseconds(50));
}

TEST(ServeInferTest, InferAndSubmitMixBitIdenticalAtAnyWorkerCount) {
  // Threads alternate between the blocking `infer` and `submit` while a
  // sampler watches the slot count: every reply is byte-equal to the
  // naive int64 reference whichever thread ran its batch, and no more
  // than `workers` batches ever run at once.
  auto model = make_mixed_model();
  const hw::IntegerNetwork direct = hw::IntegerNetwork::compile(model);
  const Tensor x = make_inputs(30);
  const Tensor reference = direct.forward_reference(x);
  const std::vector<Tensor> samples = split_samples(x);

  for (std::size_t workers : {1u, 2u, 4u}) {
    ServeConfig config;
    config.workers = workers;
    InferenceServer server(config);
    ModelConfig mc;
    mc.max_batch = 5;
    const ModelHandle handle =
        server.load("mixed", hw::IntegerNetwork::compile(model), mc);

    std::atomic<bool> done{false};
    std::size_t max_busy = 0;
    std::thread sampler([&] {
      while (!done.load()) {
        max_busy = std::max(max_busy, server.busy_slots());
        std::this_thread::yield();
      }
    });
    constexpr std::size_t kThreads = 6;
    constexpr std::size_t kRounds = 4;
    std::vector<std::vector<Tensor>> outputs(
        kThreads, std::vector<Tensor>(samples.size()));
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      callers.emplace_back([&, t] {
        Workspace ws;
        for (std::size_t round = 0; round < kRounds; ++round) {
          for (std::size_t i = t; i < samples.size(); i += kThreads) {
            if ((t + round) % 2 == 0) {
              server.infer(handle, samples[i], outputs[t][i], ws);
            } else {
              server.submit(handle, samples[i], outputs[t][i]).get();
            }
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    done.store(true);
    sampler.join();

    EXPECT_LE(max_busy, workers);
    // A reply can reach its caller before the worker that ran it hands
    // its slot back; drain() returns only once that has happened.
    server.drain();
    EXPECT_EQ(server.busy_slots(), 0u);
    EXPECT_EQ(server.queue_depth(), 0u);
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = t; i < samples.size(); i += kThreads) {
        EXPECT_TRUE(row_bytes_equal(outputs[t][i], reference, i))
            << "sample " << i << " from thread " << t << " with " << workers
            << " workers";
      }
    }
  }
}

TEST(ServeInferTest, TypedErrorsReachTheInferCaller) {
  auto model = make_mixed_model();
  ServeConfig config;
  config.workers = 1;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 4;
  mc.queue_capacity = 1;
  mc.max_delay_us = std::numeric_limits<std::uint64_t>::max();  // holds
  const ModelHandle handle =
      server.load("typed", hw::IntegerNetwork::compile(model), mc);
  const Shape chw{3, 8, 8};
  Tensor parked = make_inputs(1).reshaped(chw);
  Tensor incomer = make_inputs(1).reshaped(chw);
  Tensor parked_out, incomer_out;
  Workspace ws;

  // Shape errors at admission: a batch, then a wrong first geometry.
  Tensor batch_in = make_inputs(1);
  EXPECT_THROW(server.infer(handle, batch_in, incomer_out, ws), Error);
  Tensor bogus({7, 8, 8});
  const std::string geometry =
      error_message([&] { server.infer(handle, bogus, incomer_out, ws); });
  EXPECT_NE(geometry.find("channels"), std::string::npos) << geometry;

  // A low-priority caller finds its batch held, so it hands its slot
  // back and waits; the equal-priority incomer finds the queue full, and
  // a high-priority submit sheds the waiting caller's request.
  std::thread low([&] {
    Workspace low_ws;
    SubmitOptions options;
    options.priority = Priority::kLow;
    EXPECT_THROW(server.infer(handle, parked, parked_out, low_ws, options),
                 RequestShedError);
  });
  wait_until([&] { return server.queue_depth("typed") == 1; });
  SubmitOptions low_options;
  low_options.priority = Priority::kLow;
  const std::string full = error_message(
      [&] { server.infer(handle, incomer, incomer_out, ws, low_options); });
  EXPECT_NE(full.find("capacity 1"), std::string::npos) << full;
  SubmitOptions high;
  high.priority = Priority::kHigh;
  std::future<void> high_reply =
      server.submit(handle, incomer, incomer_out, high);
  low.join();

  // A queueing budget that runs out while the batch is held.
  const ModelHandle slow =
      server.load("slow", hw::IntegerNetwork::compile(model), mc);
  SubmitOptions tight;
  tight.deadline_us = 1;
  Tensor slow_out;
  EXPECT_THROW(server.infer(slow, parked, slow_out, ws, tight),
               DeadlineExceededError);

  // Unloading serves what is queued, then closes the version.
  server.unload("typed");
  high_reply.get();
  EXPECT_THROW(server.infer(handle, parked, parked_out, ws),
               ModelRetiredError);

  server.shutdown();
  EXPECT_THROW(server.infer(slow, parked, slow_out, ws), ServerStoppedError);
  EXPECT_EQ(server.busy_slots(), 0u);
}

TEST(ServeInferTest, ShutdownAndDrainWithInferCallersHoldingSlots) {
  // `infer` callers and `submit` callers share the slots when drain()
  // and then shutdown() arrive.  Every request admitted before the stop
  // is answered bit-exactly, every later one is refused with
  // ServerStoppedError, and shutdown returns.  At 2 workers a worker can
  // sleep through the stop's wake-up (work queued, every slot held by a
  // worker or a caller) and then see the queue drained by others: the
  // slot released last must wake it, or shutdown waits forever.
  auto model = make_mixed_model();
  const hw::IntegerNetwork net = hw::IntegerNetwork::compile(model);
  const Tensor x = make_inputs(6);
  const Tensor reference = net.forward_reference(x);
  const std::vector<Tensor> samples = split_samples(x);
  constexpr std::size_t kCallers = 6;   // even: infer, odd: submit
  constexpr std::size_t kRequests = 8;  // bounded, so drain() can return

  for (int repeat = 0; repeat < 400; ++repeat) {
    ServeConfig config;
    config.workers = repeat % 4 == 3 ? 1 : 2;
    InferenceServer server(config);
    ModelConfig mc;
    mc.max_batch = 2;
    const ModelHandle handle = server.load("stop", net, mc);

    std::atomic<std::size_t> answered{0};
    std::vector<std::thread> callers;
    std::vector<std::string> failures(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        Workspace ws;
        Tensor out;
        for (std::size_t k = 0; k < kRequests; ++k) {
          const std::size_t i = (c + k * kCallers) % samples.size();
          try {
            if (c % 2 == 0) {
              server.infer(handle, samples[i], out, ws);
            } else {
              server.submit(handle, samples[i], out).get();
            }
          } catch (const ServerStoppedError&) {
            return;
          } catch (const std::exception& e) {
            failures[c] = e.what();
            return;
          }
          if (!row_bytes_equal(out, reference, i)) {
            failures[c] = "sample " + std::to_string(i) + " diverged";
            return;
          }
          answered.fetch_add(1);
        }
      });
    }
    wait_until([&] { return answered.load() >= kCallers; });
    if (repeat % 2 == 0) server.drain();
    server.shutdown();
    for (std::thread& caller : callers) caller.join();
    for (const std::string& failure : failures) {
      EXPECT_TRUE(failure.empty()) << "repeat " << repeat << ": " << failure;
    }
    EXPECT_EQ(server.busy_slots(), 0u) << "repeat " << repeat;
    EXPECT_EQ(server.queue_depth(), 0u) << "repeat " << repeat;
  }
}

TEST(ServeInferTest, HotSwapUnderInferTrafficStaysBitIdenticalPerVersion) {
  // Callers resolve the current version for every request while v2 is
  // published mid-traffic: each reply is bit-identical to the forward of
  // the version its handle pinned, and both versions serve traffic.
  auto model = make_mixed_model();
  hw::IntegerNetwork v1 = hw::IntegerNetwork::compile(model);
  hw::IntegerNetwork v2 = make_uniform_network();
  const Tensor x = make_inputs(24);
  const Tensor ref_v1 = v1.forward_reference(x);
  const Tensor ref_v2 = v2.forward_reference(x);
  ASSERT_NE(max_abs_diff(ref_v1, ref_v2), 0.0f);
  const std::vector<Tensor> samples = split_samples(x);

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 3;
  server.load("canary", std::move(v1), mc);

  // Each caller runs until it has been served by v2 a few times.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kOnV2 = 8;
  struct Reply {
    std::size_t sample = 0;
    std::uint64_t version = 0;
    Tensor out;
  };
  std::vector<std::vector<Reply>> replies(kCallers);
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Workspace ws;
      for (std::size_t k = 0, on_v2 = 0; on_v2 < kOnV2; ++k) {
        Reply reply;
        reply.sample = (c + k * kCallers) % samples.size();
        const ModelHandle handle = server.resolve("canary");
        reply.version = handle.version();
        server.infer(handle, samples[reply.sample], reply.out, ws);
        if (reply.version == 2) ++on_v2;
        replies[c].push_back(std::move(reply));
        served.fetch_add(1);
      }
    });
  }
  wait_until([&] { return served.load() >= 4 * kCallers; });
  server.load("canary", std::move(v2), mc);
  for (std::thread& caller : callers) caller.join();

  std::set<std::uint64_t> seen;
  for (const auto& per_caller : replies) {
    for (const Reply& reply : per_caller) {
      seen.insert(reply.version);
      const Tensor& ref = reply.version == 1 ? ref_v1 : ref_v2;
      EXPECT_TRUE(row_bytes_equal(reply.out, ref, reply.sample))
          << "sample " << reply.sample << " pinned v" << reply.version;
    }
  }
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace ccq::serve
