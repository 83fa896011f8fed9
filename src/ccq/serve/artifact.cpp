#include "ccq/serve/artifact.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "ccq/common/fileio.hpp"

namespace ccq::serve {

namespace {

// ---- code packing ----------------------------------------------------------

std::uint32_t offsets_gcd(const std::vector<std::int32_t>& codes,
                          std::int32_t min_code) {
  std::uint64_t g = 0;
  for (std::int32_t c : codes) {
    g = std::gcd(g, static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(c) - min_code));
    if (g == 1) break;
  }
  return g == 0 ? 1 : static_cast<std::uint32_t>(g);
}

// ---- little-endian byte stream ---------------------------------------------

class ByteWriter {
 public:
  template <typename T>
  void pod(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const char*>(&v);
    buf_.append(p, sizeof(T));
  }
  /// LEB128: 7 value bits per byte, high bit = continuation.  Counts and
  /// geometry dims are almost always < 128, so they cost one byte instead
  /// of a fixed-width field — the slack that pays for the per-channel
  /// requant record inside the artifact's 4× compression budget.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      pod(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    pod(static_cast<std::uint8_t>(v));
  }
  /// Zigzag-mapped varint for small signed values (0, −1, 1, −2, …).
  void zigzag(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }
  void str(const std::string& s) {
    varint(s.size());
    buf_.append(s.data(), s.size());
  }
  void floats(const std::vector<float>& v) {
    varint(v.size());
    buf_.append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(float));
  }
  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Cursor over the checksummed payload.  Every read is bounds-checked and
/// failures name the file plus the layer being parsed, so a malformed
/// artifact reports *where* it broke, not just "bad stream".
class ByteReader {
 public:
  ByteReader(std::string data, std::string path)
      : data_(std::move(data)), path_(std::move(path)) {}

  void set_context(const std::string& layer) { layer_ = layer; }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), "a " + std::to_string(sizeof(T)) + "-byte field");
    T v{};
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const auto b = pod<std::uint8_t>();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
    }
    fail("varint runs past 10 bytes");
  }
  std::int64_t zigzag() {
    const std::uint64_t u = varint();
    return static_cast<std::int64_t>(u >> 1) ^
           -static_cast<std::int64_t>(u & 1);
  }
  std::string str() {
    const auto n = static_cast<std::size_t>(varint());
    need(n, "a " + std::to_string(n) + "-byte name");
    std::string s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  std::vector<float> floats() {
    const auto n = varint();
    // Divide rather than multiply: n · sizeof(float) wraps for hostile n.
    if (n > remaining() / sizeof(float)) {
      fail("payload truncated while reading " + std::to_string(n) +
           " floats");
    }
    std::vector<float> v(static_cast<std::size_t>(n));
    if (n != 0) {
      std::memcpy(v.data(), data_.data() + pos_, v.size() * sizeof(float));
    }
    pos_ += v.size() * sizeof(float);
    return v;
  }
  std::vector<std::uint8_t> raw(std::size_t n) {
    need(n, std::to_string(n) + " packed bytes");
    std::vector<std::uint8_t> v(n);
    if (n != 0) std::memcpy(v.data(), data_.data() + pos_, n);
    pos_ += n;
    return v;
  }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("artifact " + path_ +
                (layer_.empty() ? "" : " (layer '" + layer_ + "')") + ": " +
                what);
  }

 private:
  void need(std::size_t n, const std::string& what) const {
    if (remaining() < n) {
      fail("payload truncated while reading " + what);
    }
  }

  std::string data_;
  std::string path_;
  std::string layer_;
  std::size_t pos_ = 0;
};

// ---- layer (de)serialisation -----------------------------------------------

const char* kind_str(hw::IntLayerPlan::Kind kind) {
  using Kind = hw::IntLayerPlan::Kind;
  switch (kind) {
    case Kind::kConv: return "conv";
    case Kind::kLinear: return "linear";
    case Kind::kMaxPool: return "maxpool";
    case Kind::kAvgPool: return "avgpool";
    case Kind::kGlobalAvgPool: return "globalavgpool";
    case Kind::kFlatten: return "flatten";
  }
  return "?";
}

void write_packed_codes(ByteWriter& w, const std::vector<std::int32_t>& codes) {
  const PackedCodes packed = pack_codes(codes);
  w.zigzag(packed.min_code);
  w.varint(packed.divisor);
  w.pod(packed.bits);
  w.varint(packed.count);
  w.varint(packed.bytes.size());
  w.raw(packed.bytes.data(), packed.bytes.size());
}

/// Read a packed code stream that must hold exactly `expect_count`
/// codes, without expanding it (see expand_codes).  Count, bit width and
/// byte count are untrusted bytes, so they are checked against the
/// layer's geometry (and for overflow) before anything is sized by them.
PackedCodes read_packed_codes(ByteReader& r, std::uint64_t expect_count) {
  PackedCodes packed;
  packed.min_code = static_cast<std::int32_t>(r.zigzag());
  packed.divisor = static_cast<std::uint32_t>(r.varint());
  packed.bits = r.pod<std::uint8_t>();
  packed.count = r.varint();
  const auto byte_count = r.varint();
  if (packed.count != expect_count) {
    r.fail("packed code stream holds " + std::to_string(packed.count) +
           " codes, but the layer's geometry needs " +
           std::to_string(expect_count));
  }
  // Offsets of int32 codes span at most 2^32 − 1, so 32 bits suffice.
  if (packed.bits > 32) {
    r.fail("packed code width " + std::to_string(int(packed.bits)) +
           " bits exceeds 32");
  }
  if (packed.bits != 0 &&
      packed.count > (std::numeric_limits<std::uint64_t>::max() - 7) /
                         packed.bits) {
    r.fail("packed code stream of " + std::to_string(packed.count) +
           " codes at " + std::to_string(int(packed.bits)) +
           " bits overflows its bit count");
  }
  const std::uint64_t expect_bytes = (packed.count * packed.bits + 7) / 8;
  if (byte_count != expect_bytes) {
    r.fail("packed code stream holds " + std::to_string(byte_count) +
           " bytes, but " + std::to_string(packed.count) + " codes at " +
           std::to_string(int(packed.bits)) + " bits need " +
           std::to_string(expect_bytes));
  }
  packed.bytes = r.raw(static_cast<std::size_t>(byte_count));
  return packed;
}

/// Deepest weight row a constant code stream may declare.
constexpr std::uint64_t kMaxConstantDepth = std::uint64_t{1} << 16;

/// Expand a layer's code stream into its weight codes.  A stream of
/// nonzero width is backed by its payload bytes.  A constant stream
/// (0 bits: every code equal) is backed by none, so geometry alone would
/// size the vector: its rows must first match the scales and biases
/// already read, each backed by payload bytes, and its depth is capped.
std::vector<std::int32_t> expand_codes(ByteReader& r,
                                       const hw::IntLayerPlan& plan,
                                       const PackedCodes& packed) {
  if (packed.bits == 0 && packed.count != 0) {
    const std::size_t rows = plan.kind == hw::IntLayerPlan::Kind::kConv
                                 ? plan.out_channels
                                 : plan.out_features;
    if (plan.channel_scale.size() != rows || plan.bias.size() != rows) {
      r.fail("has " + std::to_string(plan.channel_scale.size()) +
             " scales / " + std::to_string(plan.bias.size()) +
             " biases, expected " + std::to_string(rows) +
             " output channels for its constant code stream");
    }
    if (packed.count / rows > kMaxConstantDepth) {
      r.fail("constant code stream declares rows of " +
             std::to_string(packed.count / rows) + " codes, more than " +
             std::to_string(kMaxConstantDepth));
    }
  }
  return unpack_codes(packed);
}

// The fused fixed-point requantization record.  Only the per-channel
// parameters are stored; `out_qmax` and `acc_bound` are exact integer
// functions of the serialized act_bits / weight codes / geometry, so
// `finalize_plans` rederives them at load time and the exporter and
// loader always agree.
void write_requant(ByteWriter& w, const hw::IntLayerPlan& plan) {
  w.pod(static_cast<std::uint8_t>(plan.requant_fused ? 1 : 0));
  if (plan.requant_fused) {
    w.varint(plan.requant.size());
    for (const Requant& rq : plan.requant) {
      w.pod(rq.multiplier);
      w.pod(static_cast<std::uint8_t>(rq.shift));
      w.zigzag(rq.bias);
    }
  }
}

void read_requant(ByteReader& r, hw::IntLayerPlan& plan) {
  plan.requant.clear();
  plan.requant_fused = r.pod<std::uint8_t>() != 0;
  if (plan.requant_fused) {
    // Each channel takes at least 6 bytes (i32, u8, one-byte zigzag).
    const auto channels = r.varint();
    if (channels > r.remaining() / 6) {
      r.fail("payload truncated while reading " + std::to_string(channels) +
             " requant channels");
    }
    plan.requant.resize(static_cast<std::size_t>(channels));
    for (Requant& rq : plan.requant) {
      rq.multiplier = r.pod<std::int32_t>();
      rq.shift = r.pod<std::uint8_t>();
      rq.bias = r.zigzag();
    }
  }
}

void write_plan(ByteWriter& w, const hw::IntLayerPlan& plan) {
  w.str(plan.name);
  w.pod(static_cast<std::uint8_t>(plan.kind));
  w.pod(static_cast<std::uint8_t>(plan.weight_bits));
  w.pod(static_cast<std::uint8_t>(plan.has_act ? 1 : 0));
  w.pod(static_cast<std::uint8_t>(plan.act_bits));
  w.pod(plan.act_clip);
  for (std::size_t dim : {plan.in_channels, plan.out_channels, plan.kernel,
                          plan.stride, plan.pad, plan.in_features,
                          plan.out_features, plan.pool_kernel,
                          plan.pool_stride}) {
    w.varint(dim);
  }
  write_packed_codes(w, plan.weight_codes);
  w.floats(plan.channel_scale);
  w.floats(plan.bias);
  write_requant(w, plan);
}

/// Weight codes a plan's geometry calls for: rows × depth for conv and
/// linear layers, none for pooling and reshape.  The dims are untrusted
/// bytes, so the product is overflow-checked.
std::uint64_t expected_codes(ByteReader& r, const hw::IntLayerPlan& plan) {
  using Kind = hw::IntLayerPlan::Kind;
  std::vector<std::uint64_t> dims;
  if (plan.kind == Kind::kConv) {
    dims = {plan.out_channels, plan.in_channels, plan.kernel, plan.kernel};
  } else if (plan.kind == Kind::kLinear) {
    dims = {plan.out_features, plan.in_features};
  } else {
    return 0;
  }
  std::uint64_t count = 1;
  for (const std::uint64_t d : dims) {
    if (d != 0 && count > std::numeric_limits<std::uint64_t>::max() / d) {
      r.fail("layer geometry overflows its weight-code count");
    }
    count *= d;
  }
  return count;
}

hw::IntLayerPlan read_plan(ByteReader& r) {
  hw::IntLayerPlan plan;
  plan.name = r.str();
  r.set_context(plan.name);
  const auto kind = r.pod<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(hw::IntLayerPlan::Kind::kFlatten)) {
    r.fail("unknown layer kind " + std::to_string(kind));
  }
  plan.kind = static_cast<hw::IntLayerPlan::Kind>(kind);
  plan.weight_bits = r.pod<std::uint8_t>();
  plan.has_act = r.pod<std::uint8_t>() != 0;
  plan.act_bits = r.pod<std::uint8_t>();
  plan.act_clip = r.pod<float>();
  for (std::size_t* dim : {&plan.in_channels, &plan.out_channels, &plan.kernel,
                           &plan.stride, &plan.pad, &plan.in_features,
                           &plan.out_features, &plan.pool_kernel,
                           &plan.pool_stride}) {
    *dim = static_cast<std::size_t>(r.varint());
  }
  const PackedCodes codes = read_packed_codes(r, expected_codes(r, plan));
  plan.channel_scale = r.floats();
  plan.bias = r.floats();
  read_requant(r, plan);
  plan.weight_codes = expand_codes(r, plan, codes);
  // out_qmax / acc_bound are not serialized: finalize_plans rederives
  // them from act_bits and the unpacked weight codes.
  return plan;
}

/// Structural validation with expected-vs-found messages per layer.
void validate_plan(ByteReader& r, const hw::IntLayerPlan& plan,
                   std::size_t index) {
  using Kind = hw::IntLayerPlan::Kind;
  r.set_context(plan.name);
  const std::string at = "layer index " + std::to_string(index) + ", kind " +
                         kind_str(plan.kind);
  if (plan.kind == Kind::kConv || plan.kind == Kind::kLinear) {
    // The integer engine's 8-bit ceiling (hw/integer_engine.hpp).
    if (plan.weight_bits < 2 || plan.weight_bits > 8) {
      r.fail("weight bits " + std::to_string(plan.weight_bits) +
             " outside the engine's range [2, 8] (" + at + ")");
    }
    // Doubled codes of a b-bit grid lie in ±2^b (hw::encode_doubled).
    const std::int32_t envelope = std::int32_t{1} << plan.weight_bits;
    for (const std::int32_t code : plan.weight_codes) {
      if (code < -envelope || code > envelope) {
        r.fail("weight code " + std::to_string(code) + " outside the " +
               std::to_string(plan.weight_bits) + "-bit envelope of +/-" +
               std::to_string(envelope) + " (" + at + ")");
      }
    }
    // The code count was checked against the geometry when read.
    const std::size_t rows =
        plan.kind == Kind::kConv ? plan.out_channels : plan.out_features;
    if (plan.channel_scale.size() != rows || plan.bias.size() != rows) {
      r.fail("has " + std::to_string(plan.channel_scale.size()) +
             " scales / " + std::to_string(plan.bias.size()) +
             " biases, expected " + std::to_string(rows) +
             " output channels (" + at + ")");
    }
    // A quantized grid of 1-8 bits, or 16+ for the unquantized head.
    if (plan.has_act && (plan.act_bits < 1 || plan.act_bits > 32 ||
                         (plan.act_bits > 8 && plan.act_bits < 16))) {
      r.fail("activation bits " + std::to_string(plan.act_bits) +
             " outside the engine's quantized range [1, 8] and the "
             "unquantized head's [16, 32] (" + at + ")");
    }
    if (plan.requant_fused) {
      if (plan.requant.size() != rows) {
        r.fail("fused requant record holds " +
               std::to_string(plan.requant.size()) +
               " channels, expected " + std::to_string(rows) + " (" + at +
               ")");
      }
      if (!plan.has_act || plan.act_bits >= 16) {
        r.fail("fused requant record on a layer without a quantized "
               "activation grid (" + at + ")");
      }
      for (const Requant& rq : plan.requant) {
        if (rq.shift < 1 || rq.shift > 62) {
          r.fail("fused requant shift " + std::to_string(rq.shift) +
                 " outside [1, 62] (" + at + ")");
        }
      }
    } else if (!plan.requant.empty()) {
      r.fail("unfused layer carries " + std::to_string(plan.requant.size()) +
             " requant channels (" + at + ")");
    }
  }
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

PackedCodes pack_codes(const std::vector<std::int32_t>& codes) {
  PackedCodes packed;
  packed.count = codes.size();
  if (codes.empty()) return packed;
  const auto [min_it, max_it] = std::minmax_element(codes.begin(), codes.end());
  packed.min_code = *min_it;
  packed.divisor = offsets_gcd(codes, packed.min_code);
  const std::uint64_t range =
      (static_cast<std::uint64_t>(static_cast<std::int64_t>(*max_it) -
                                  packed.min_code)) /
      packed.divisor;
  packed.bits = static_cast<std::uint8_t>(std::bit_width(range));
  if (packed.bits == 0) return packed;  // all codes equal: nothing to store
  packed.bytes.assign((codes.size() * packed.bits + 7) / 8, 0);
  std::size_t bit_pos = 0;
  for (std::int32_t c : codes) {
    std::uint64_t v = static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(c) - packed.min_code) /
                      packed.divisor;
    for (int b = 0; b < packed.bits; ++b, ++bit_pos) {
      if ((v >> b) & 1u) {
        packed.bytes[bit_pos / 8] |=
            static_cast<std::uint8_t>(1u << (bit_pos % 8));
      }
    }
  }
  return packed;
}

std::vector<std::int32_t> unpack_codes(const PackedCodes& packed) {
  std::vector<std::int32_t> codes(static_cast<std::size_t>(packed.count),
                                  packed.min_code);
  if (packed.bits == 0) return codes;
  CCQ_CHECK(packed.bytes.size() * 8 >= packed.count * packed.bits,
            "packed code stream shorter than its declared bit count");
  std::size_t bit_pos = 0;
  for (auto& code : codes) {
    std::uint64_t v = 0;
    for (int b = 0; b < packed.bits; ++b, ++bit_pos) {
      v |= static_cast<std::uint64_t>((packed.bytes[bit_pos / 8] >>
                                       (bit_pos % 8)) &
                                      1u)
           << b;
    }
    code = static_cast<std::int32_t>(
        packed.min_code +
        static_cast<std::int64_t>(v * packed.divisor));
  }
  return codes;
}

namespace {

/// The payload: a one-entry rung table, then one record per layer (see
/// artifact.hpp).
std::string encode_payload(const hw::IntegerNetwork& net) {
  ByteWriter payload;
  payload.varint(1);
  payload.zigzag(-1);
  payload.pod(0.0f);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    write_plan(payload, net.plan(i));
  }
  return payload.bytes();
}

/// Fixed header size: 4-byte magic, u32 version, u32 layer count,
/// u64 payload length, u64 checksum.
constexpr std::size_t kHeaderBytes = 28;

void write_artifact_file(const std::string& path, std::size_t layer_count,
                         const std::string& body) {
  const std::uint64_t checksum = fnv1a(body.data(), body.size());
  atomic_write_file(path, [&](std::ostream& os) {
    ByteWriter header;
    header.raw(kArtifactMagic, sizeof(kArtifactMagic));
    header.pod(kArtifactVersion);
    header.pod(static_cast<std::uint32_t>(layer_count));
    header.pod(static_cast<std::uint64_t>(body.size()));
    header.pod(checksum);
    os.write(header.bytes().data(),
             static_cast<std::streamsize>(header.bytes().size()));
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
  });
}

/// Everything a CCQA file holds, decoded and validated but not yet
/// compiled into kernels — shared by load_artifact and inspect_artifact.
struct ParsedArtifact {
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<hw::IntLayerPlan> plans;
};

ParsedArtifact parse_artifact(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CCQ_CHECK(static_cast<bool>(is), "cannot open artifact: " + path);

  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || !std::equal(magic, magic + 4, kArtifactMagic)) {
    throw Error("artifact " + path + ": bad magic (not a ccq::serve artifact)");
  }
  auto read_u32 = [&] {
    std::uint32_t v{};
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  auto read_u64 = [&] {
    std::uint64_t v{};
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  const std::uint32_t version = read_u32();
  const std::uint32_t layer_count = read_u32();
  const std::uint64_t payload_bytes = read_u64();
  const std::uint64_t checksum = read_u64();
  if (!is) throw Error("artifact " + path + ": truncated header");
  // Version negotiation happens here, before a single payload byte is
  // read: the header layout is shared by every version, so an old
  // reader meeting a new file (and vice versa) always reaches this
  // diagnostic rather than a parse error deep inside a payload it was
  // never built to understand.
  if (version != kArtifactVersion) {
    throw Error(
        "artifact " + path + ": unsupported version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kArtifactVersion) +
        "); regenerate it with this build: ccq export --snapshot "
        "<snapshot.bin> --out " + path);
  }

  std::string body(static_cast<std::size_t>(payload_bytes), '\0');
  is.read(body.data(), static_cast<std::streamsize>(body.size()));
  if (!is || static_cast<std::uint64_t>(is.gcount()) != payload_bytes) {
    throw Error("artifact " + path + ": payload truncated (header declares " +
                std::to_string(payload_bytes) + " bytes, file holds " +
                std::to_string(is ? is.gcount() : 0) +
                ") — was the export interrupted?");
  }
  const std::uint64_t computed = fnv1a(body.data(), body.size());
  if (computed != checksum) {
    throw Error("artifact " + path + ": checksum mismatch (header " +
                hex(checksum) + ", payload hashes to " + hex(computed) +
                ") — file is corrupt");
  }
  // Reject bytes past the declared payload, like the payload-internal
  // exhaustion check below: an artifact with trailing garbage was not
  // written by this exporter, however plausible its prefix.
  if (is.peek() != std::ifstream::traits_type::eof()) {
    throw Error("artifact " + path + ": file holds bytes past the declared " +
                std::to_string(payload_bytes) +
                "-byte payload — truncated or concatenated write?");
  }

  ParsedArtifact parsed;
  parsed.payload_bytes = payload_bytes;
  parsed.file_bytes = payload_bytes + kHeaderBytes;
  ByteReader reader(std::move(body), path);

  // A file of an earlier build may carry lower-precision rungs as delta
  // records: refuse it before any layer record is parsed.
  const auto rungs = reader.varint();
  if (rungs != 1) {
    reader.fail("payload declares " + std::to_string(rungs) +
                " rungs; multi-point artifacts are no longer served (this "
                "build reads 1 rung); re-export it with this build: ccq "
                "export --snapshot <snapshot.bin> --out " + path);
  }
  reader.zigzag();      // trail step: −1
  reader.pod<float>();  // validation accuracy: unused
  for (std::uint32_t i = 0; i < layer_count; ++i) {
    parsed.plans.push_back(read_plan(reader));
    validate_plan(reader, parsed.plans.back(), i);
  }
  reader.set_context("");
  if (!reader.exhausted()) {
    reader.fail("trailing bytes after the declared " +
                std::to_string(layer_count) + " layers");
  }
  return parsed;
}

}  // namespace

void export_artifact(const hw::IntegerNetwork& net, const std::string& path) {
  write_artifact_file(path, net.layer_count(), encode_payload(net));
}

void export_artifact(models::QuantModel& model, const std::string& path) {
  export_artifact(hw::IntegerNetwork::compile(model), path);
}

hw::IntegerNetwork load_artifact(const std::string& path) {
  ParsedArtifact parsed = parse_artifact(path);
  // from_plans re-finalizes: every layer selects its igemm kernel
  // (honouring $CCQ_IGEMM_KERNEL) and re-packs its weight panel in that
  // kernel's layout, so a loaded artifact
  // serves with the same per-layer kernel choices a freshly compiled
  // network would get on this host.  Re-throw with the artifact path so
  // a bad kernel override at load time names what was being loaded.
  try {
    return hw::IntegerNetwork::from_plans(std::move(parsed.plans));
  } catch (const Error& e) {
    throw Error("artifact " + path + ": " + e.what());
  }
}

ArtifactInfo inspect_artifact(const std::string& path) {
  const ParsedArtifact parsed = parse_artifact(path);
  ArtifactInfo info;
  info.version = kArtifactVersion;
  info.layer_count = parsed.plans.size();
  info.file_bytes = parsed.file_bytes;
  info.payload_bytes = parsed.payload_bytes;
  info.layers.reserve(info.layer_count);
  for (const hw::IntLayerPlan& plan : parsed.plans) {
    const bool weighted = plan.kind == hw::IntLayerPlan::Kind::kConv ||
                          plan.kind == hw::IntLayerPlan::Kind::kLinear;
    info.layers.push_back(ArtifactLayerInfo{
        .name = plan.name,
        .kind = kind_str(plan.kind),
        .weight_bits = weighted ? plan.weight_bits : 0,
        .act_bits = plan.has_act ? plan.act_bits : 0,
        .requant_fused = plan.requant_fused});
    // fp32-equivalent of the serialized tensors (weights, per-channel
    // scales, folded biases).
    info.float_bytes += 4 * (plan.weight_codes.size() +
                             plan.channel_scale.size() + plan.bias.size());
  }
  return info;
}

}  // namespace ccq::serve
