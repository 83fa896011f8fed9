#include "ccq/serve/protocol.hpp"

#include <cstring>

namespace ccq::serve::wire {

namespace {

// Local LEB128 writer/reader over std::string buffers — same encoding
// family as the .ccqa payload (artifact.cpp keeps its own copy: the two
// formats version independently and neither wants a shared header to
// couple them).

void put_u8(std::string& buf, std::uint8_t v) {
  buf.push_back(static_cast<char>(v));
}

void put_varint(std::string& buf, std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(buf, static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  put_u8(buf, static_cast<std::uint8_t>(v));
}

void put_str(std::string& buf, const std::string& s) {
  put_varint(buf, s.size());
  buf.append(s);
}

void put_floats(std::string& buf, const std::vector<float>& v) {
  put_varint(buf, v.size());
  if (!v.empty()) {
    buf.append(reinterpret_cast<const char*>(v.data()),
               v.size() * sizeof(float));
  }
}

/// Bounds-checked cursor over one decoded frame body.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1, "a tag byte");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1, "a varint byte");
      const auto b = static_cast<std::uint8_t>(data_[pos_++]);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
    }
    throw ProtocolError("varint runs past 10 bytes");
  }
  std::string str() {
    const std::uint64_t n = varint();
    need(n, "a " + std::to_string(n) + "-byte string");
    std::string s(data_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  std::vector<float> floats() {
    const std::uint64_t n = varint();
    // Divide, don't multiply: n * sizeof(float) wraps for a hostile
    // count near 2^64 and would sail past the bounds check below.
    if (n > data_.size() / sizeof(float)) {
      throw ProtocolError("body truncated while reading " + std::to_string(n) +
                          " floats");
    }
    need(n * sizeof(float), std::to_string(n) + " floats");
    std::vector<float> v(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(v.data(), data_.data() + pos_, v.size() * sizeof(float));
      pos_ += v.size() * sizeof(float);
    }
    return v;
  }
  /// True once the body is fully consumed — how optional trailing
  /// fields detect their own absence.
  bool done() const { return pos_ == data_.size(); }
  void finish(const char* what) const {
    if (pos_ != data_.size()) {
      throw ProtocolError(std::string(what) + " carries " +
                          std::to_string(data_.size() - pos_) +
                          " trailing bytes");
    }
  }

 private:
  void need(std::uint64_t n, const std::string& what) const {
    if (data_.size() - pos_ < n) {
      throw ProtocolError("body truncated while reading " + what);
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---- framing ---------------------------------------------------------------

void append_frame(std::string& buffer, std::string_view body) {
  if (body.size() > kMaxFrameBytes) {
    throw ProtocolError("frame body of " + std::to_string(body.size()) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFrameBytes) + "-byte cap");
  }
  const auto len = static_cast<std::uint32_t>(body.size());
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  buffer.append(prefix, 4);
  buffer.append(body);
}

bool extract_frame(std::string& buffer, std::string& body) {
  if (buffer.size() < 4) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buffer[i]))
           << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    throw ProtocolError("declared frame length " + std::to_string(len) +
                        " exceeds the " + std::to_string(kMaxFrameBytes) +
                        "-byte cap");
  }
  if (buffer.size() - 4 < len) return false;
  body.assign(buffer, 4, len);
  buffer.erase(0, 4 + static_cast<std::size_t>(len));
  return true;
}

// ---- messages --------------------------------------------------------------

namespace {

// Optional trailing fields: {u8 field tag, value} pairs after the fixed
// fields.  Old decoders treat any trailing byte as garbage (their
// `finish` fires), and new decoders reject unknown tags the same way —
// extensibility without weakening the trailing-garbage rejection the
// codec tests lock in.  Tag 1 (an operating-point override, echoed in
// the reply) is retired: it is an unknown tag now, and replies carry no
// trailing fields.
constexpr std::uint8_t kFieldPriority = 2;  ///< InferRequest: varint class
constexpr std::uint8_t kFieldDeadline = 3;  ///< InferRequest: varint budget us

constexpr std::uint64_t kMaxPriority = 2;  ///< highest service class on the wire

}  // namespace

std::string encode_request(const InferRequest& request) {
  std::string body;
  put_u8(body, static_cast<std::uint8_t>(MessageType::kInferRequest));
  put_str(body, request.model);
  put_varint(body, request.version);
  put_varint(body, request.channels);
  put_varint(body, request.height);
  put_varint(body, request.width);
  put_floats(body, request.data);
  if (request.has_priority) {
    put_u8(body, kFieldPriority);
    put_varint(body, request.priority);
  }
  if (request.has_deadline) {
    put_u8(body, kFieldDeadline);
    put_varint(body, request.deadline_us);
  }
  return body;
}

InferRequest decode_request(std::string_view body) {
  Cursor c(body);
  const auto tag = c.u8();
  if (tag != static_cast<std::uint8_t>(MessageType::kInferRequest)) {
    throw ProtocolError("expected an InferRequest (tag 1), got tag " +
                        std::to_string(tag));
  }
  InferRequest request;
  request.model = c.str();
  request.version = c.varint();
  request.channels = static_cast<std::size_t>(c.varint());
  request.height = static_cast<std::size_t>(c.varint());
  request.width = static_cast<std::size_t>(c.varint());
  request.data = c.floats();
  while (!c.done()) {
    const auto field = c.u8();
    if (field == kFieldPriority && !request.has_priority) {
      const std::uint64_t priority = c.varint();
      if (priority > kMaxPriority) {
        throw ProtocolError("InferRequest priority " +
                            std::to_string(priority) +
                            " out of range (0 low … 2 high)");
      }
      request.has_priority = true;
      request.priority = static_cast<std::uint8_t>(priority);
    } else if (field == kFieldDeadline && !request.has_deadline) {
      const std::uint64_t deadline_us = c.varint();
      if (deadline_us == 0) {
        // A zero budget would mean "no deadline" while claiming one —
        // reject the ambiguity instead of guessing (omit the tag).
        throw ProtocolError(
            "InferRequest deadline_us must be positive (omit the tag for "
            "no deadline)");
      }
      request.has_deadline = true;
      request.deadline_us = deadline_us;
    } else {
      throw ProtocolError("InferRequest carries unknown trailing field tag " +
                          std::to_string(field));
    }
  }
  c.finish("InferRequest");
  const std::string geometry = std::to_string(request.channels) + "x" +
                               std::to_string(request.height) + "x" +
                               std::to_string(request.width);
  // Checked geometry product: a hostile frame can declare dims whose
  // product wraps std::size_t (e.g. 2^32 x 2^32 x 1 "equals" zero
  // floats) and would otherwise be admitted with garbage dimensions.
  // Every dim is capped by the most floats one frame can carry, so the
  // staged products below never exceed kMaxFloats^2 < 2^45 — no wrap.
  constexpr std::uint64_t kMaxFloats = kMaxFrameBytes / sizeof(float);
  if (request.channels == 0 || request.height == 0 || request.width == 0 ||
      request.channels > kMaxFloats || request.height > kMaxFloats ||
      request.width > kMaxFloats) {
    throw ProtocolError("InferRequest geometry " + geometry +
                        " has a zero dimension or exceeds the " +
                        std::to_string(kMaxFloats) + "-float frame cap");
  }
  std::uint64_t numel =
      static_cast<std::uint64_t>(request.channels) * request.height;
  if (numel <= kMaxFloats) numel *= request.width;
  if (numel > kMaxFloats) {
    throw ProtocolError("InferRequest geometry " + geometry + " exceeds the " +
                        std::to_string(kMaxFloats) + "-float frame cap");
  }
  if (request.data.size() != numel) {
    throw ProtocolError("InferRequest geometry " + geometry + " wants " +
                        std::to_string(numel) + " floats, got " +
                        std::to_string(request.data.size()));
  }
  return request;
}

std::string encode_reply(const InferReply& reply) {
  std::string body;
  if (reply.ok) {
    put_u8(body, static_cast<std::uint8_t>(MessageType::kReplyOk));
    put_varint(body, reply.version);
    put_floats(body, reply.logits);
  } else {
    put_u8(body, static_cast<std::uint8_t>(MessageType::kReplyError));
    put_str(body, reply.error);
  }
  return body;
}

InferReply decode_reply(std::string_view body) {
  Cursor c(body);
  const auto tag = c.u8();
  InferReply reply;
  if (tag == static_cast<std::uint8_t>(MessageType::kReplyOk)) {
    reply.ok = true;
    reply.version = c.varint();
    reply.logits = c.floats();
    c.finish("InferReply");
  } else if (tag == static_cast<std::uint8_t>(MessageType::kReplyError)) {
    reply.ok = false;
    reply.error = c.str();
    c.finish("InferReply");
  } else {
    throw ProtocolError("expected an InferReply (tag 2 or 3), got tag " +
                        std::to_string(tag));
  }
  return reply;
}

}  // namespace ccq::serve::wire
