// Wire protocol for the TCP serving front end.
//
// A deliberately minimal binary protocol — the serving story (ROADMAP
// item 1) needs a socket boundary, not a general RPC stack.  Two layers,
// both socket-free and unit-testable on plain byte buffers:
//
//   * Framing — every message travels as a length-prefixed frame:
//     a u32 little-endian body length followed by the body bytes.
//     `append_frame` emits one, `extract_frame` consumes one from a
//     receive buffer (returning false while the frame is still partial,
//     so callers can feed sockets chunk by chunk).  Declared lengths
//     beyond `kMaxFrameBytes` are rejected up front — a garbage or
//     hostile length never allocates.
//   * Body codec — one tag byte (`MessageType`) then LEB128
//     varint-delimited fields, the same encoding family as the .ccqa
//     artifact payload.  Floats travel as raw little-endian IEEE-754
//     bits, so a logit row round-trips the socket bit-identically to an
//     in-process `InferenceServer::submit` — the property
//     serve_net_test locks in.
//
// Messages:
//   InferRequest : model name, version (0 = the name's current version),
//                  C/H/W sample geometry, sample floats
//   InferReply   : ok + served version + logits, or an error string
//                  (the server-side exception message, so admission
//                  errors keep their types' diagnostics across the wire)
//
// Decoding failures — bad tag, truncated field, trailing bytes,
// oversized declared counts — throw `ProtocolError` naming what broke.
// serve/net.hpp binds this codec to POSIX sockets; docs/SERVING.md
// documents the protocol for non-C++ clients.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ccq/common/error.hpp"

namespace ccq::serve::wire {

/// Hard cap on a frame body.  A CHW float sample at 16 MiB is a
/// ~2M-element input — far beyond any CCQ model — so anything larger is
/// a corrupt or hostile length prefix, rejected before allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Malformed bytes on the wire: bad frame length, unknown message tag,
/// truncated or oversized field, trailing garbage.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& message)
      : Error("wire protocol: " + message) {}
};

// ---- framing ---------------------------------------------------------------

/// Append one frame (u32 LE length + body) to `buffer`.  Throws
/// ProtocolError when `body` exceeds kMaxFrameBytes.
void append_frame(std::string& buffer, std::string_view body);

/// Consume one complete frame from the front of `buffer` into `body`.
/// Returns false (buffer untouched) while the frame is still partial.
/// Throws ProtocolError when the declared length exceeds kMaxFrameBytes.
bool extract_frame(std::string& buffer, std::string& body);

// ---- messages --------------------------------------------------------------

enum class MessageType : std::uint8_t {
  kInferRequest = 1,
  kReplyOk = 2,
  kReplyError = 3,
};

/// One inference call: route `data` (a C×H×W sample, row-major) to
/// `model` at `version` (0 = whatever version is current server-side).
///
/// The priority and deadline travel as *optional trailing fields*
/// ({u8 field tag, varint value} after `data`) — tag 2 = priority,
/// tag 3 = deadline_us.  A frame with neither is byte-identical to the
/// pre-SLA protocol revisions (golden-frame-tested).  Unknown or
/// duplicate tags are rejected — among them tag 1, the retired
/// operating-point override — and an old server receiving a tag
/// rejects the frame with its existing trailing-bytes ProtocolError
/// instead of silently ignoring it: a request asking for a QoS the
/// server cannot honour must not be served at an arbitrary one.  Hostile values are rejected at decode:
/// a priority beyond the enum, a deadline of 0 (the tag would claim a
/// budget while meaning "none" — omit it instead).  A u64-max deadline
/// is legal and saturates server-side instead of wrapping.
struct InferRequest {
  std::string model;
  std::uint64_t version = 0;
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::vector<float> data;
  bool has_priority = false;    ///< priority tag present
  std::uint8_t priority = 1;    ///< service class (0 low, 1 normal, 2 high)
  bool has_deadline = false;    ///< deadline tag present
  std::uint64_t deadline_us = 0;  ///< queueing budget from admission
};

/// The answer: logits plus the version that actually served the request
/// (so clients observe hot-swaps), or the server-side error message.
/// Replies carry no trailing fields.
struct InferReply {
  bool ok = false;
  std::uint64_t version = 0;    ///< served version (ok replies)
  std::vector<float> logits;    ///< ok replies
  std::string error;            ///< error replies
};

std::string encode_request(const InferRequest& request);
InferRequest decode_request(std::string_view body);

std::string encode_reply(const InferReply& reply);
InferReply decode_reply(std::string_view body);

}  // namespace ccq::serve::wire
