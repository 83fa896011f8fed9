// Wire protocol and TCP front-end tests.
//
// Layer by layer: framing round-trips through arbitrarily chunked
// receive buffers and rejects hostile lengths before allocating; the
// body codec round-trips every float bit pattern exactly and throws
// named `ProtocolError`s on garbage; and the socket stack end to end
// returns logits bit-identical to an in-process `submit` from many
// concurrent clients — the property that makes the TCP boundary
// transparent to the serving contract.
//
// The SLA wire fields (priority tag 2, deadline tag 3) get the same
// treatment: round-trips in every combination, rejection of hostile
// values (priority past the enum, zero deadlines), truncation at every
// byte of a fully-tagged frame, and golden byte-for-byte checks that
// untagged, priority-tagged and deadline-tagged requests encode exactly
// as they always have — old clients and new servers interoperate.  Tag
// 1, the retired operating-point override, is rejected like any unknown
// tag, and over TCP it drops the connection unanswered.
//
// Connection threads serve through the blocking `InferenceServer::infer`,
// so the TCP tests also cover a request that runs its own batch on the
// connection thread, one that waits for a worker, and the typed errors
// that reach a waiting connection from another thread (a shed, a
// deadline expiry) and cross the wire.
//
// Labelled `serve` and run under the TSan quick tier
// (`CCQ_THREADS=4 ctest -L "parallel|telemetry|serve|igemm|engine|sla"`).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ccq/models/simple.hpp"
#include "ccq/serve/harness.hpp"
#include "ccq/serve/net.hpp"

namespace ccq::serve {
namespace {

Tensor make_inputs(std::size_t n) {
  Tensor x({n, 3, 8, 8});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

hw::IntegerNetwork make_network() {
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
  return hw::IntegerNetwork::compile(model);
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ---- framing ---------------------------------------------------------------

TEST(WireFramingTest, RoundTripsThroughByteWiseFeeds) {
  std::string stream;
  wire::append_frame(stream, "first body");
  wire::append_frame(stream, "");  // empty bodies are legal frames
  wire::append_frame(stream, std::string(1000, 'x'));

  // Feed the receive buffer one byte at a time, the worst fragmentation
  // a socket can produce.
  std::string receive, body;
  std::vector<std::string> bodies;
  for (const char c : stream) {
    receive.push_back(c);
    while (wire::extract_frame(receive, body)) bodies.push_back(body);
  }
  EXPECT_TRUE(receive.empty());
  ASSERT_EQ(bodies.size(), 3u);
  EXPECT_EQ(bodies[0], "first body");
  EXPECT_EQ(bodies[1], "");
  EXPECT_EQ(bodies[2], std::string(1000, 'x'));
}

TEST(WireFramingTest, PartialFrameLeavesBufferUntouched) {
  std::string stream;
  wire::append_frame(stream, "payload");
  std::string receive = stream.substr(0, stream.size() - 1);
  const std::string before = receive;
  std::string body;
  EXPECT_FALSE(wire::extract_frame(receive, body));
  EXPECT_EQ(receive, before);
}

TEST(WireFramingTest, HostileLengthRejectedBeforeAllocation) {
  // A declared length just past the cap must throw, not allocate 4 GiB.
  const std::uint32_t declared = wire::kMaxFrameBytes + 1;
  std::string receive(4, '\0');
  std::memcpy(receive.data(), &declared, sizeof(declared));
  std::string body;
  const std::string message =
      error_message([&] { wire::extract_frame(receive, body); });
  EXPECT_NE(message.find("wire protocol"), std::string::npos) << message;
  EXPECT_NE(message.find("frame"), std::string::npos) << message;

  std::string out;
  EXPECT_THROW(
      wire::append_frame(out, std::string(wire::kMaxFrameBytes + 1, 'x')),
      wire::ProtocolError);
}

// ---- body codec ------------------------------------------------------------

TEST(WireCodecTest, RequestRoundTripsBitIdentically) {
  wire::InferRequest request;
  request.model = "resnet20-cifar";
  request.version = 7;
  request.channels = 2;
  request.height = 2;
  request.width = 3;
  // Adversarial float bit patterns: ±0, denormal, inf, NaN payloads —
  // the codec ships raw IEEE-754 bits and must preserve every one.
  request.data = {0.0f,
                  -0.0f,
                  1e-42f,
                  std::numeric_limits<float>::infinity(),
                  std::numeric_limits<float>::quiet_NaN(),
                  -1.5f,
                  3.25f,
                  255.0f,
                  -1e38f,
                  1e-38f,
                  0.1f,
                  42.0f};
  const std::string body = wire::encode_request(request);
  const wire::InferRequest decoded = wire::decode_request(body);
  EXPECT_EQ(decoded.model, request.model);
  EXPECT_EQ(decoded.version, request.version);
  EXPECT_EQ(decoded.channels, request.channels);
  EXPECT_EQ(decoded.height, request.height);
  EXPECT_EQ(decoded.width, request.width);
  EXPECT_TRUE(bits_equal(decoded.data, request.data));
}

TEST(WireCodecTest, ReplyRoundTripsBothArms) {
  wire::InferReply ok;
  ok.ok = true;
  ok.version = 3;
  ok.logits = {-0.0f, 1.25f, std::numeric_limits<float>::quiet_NaN()};
  const wire::InferReply ok2 = wire::decode_reply(wire::encode_reply(ok));
  EXPECT_TRUE(ok2.ok);
  EXPECT_EQ(ok2.version, 3u);
  EXPECT_TRUE(bits_equal(ok2.logits, ok.logits));
  EXPECT_TRUE(ok2.error.empty());

  wire::InferReply err;
  err.ok = false;
  err.error = "serve queue for model m full (capacity 4): request rejected";
  const wire::InferReply err2 = wire::decode_reply(wire::encode_reply(err));
  EXPECT_FALSE(err2.ok);
  EXPECT_EQ(err2.error, err.error);
  EXPECT_TRUE(err2.logits.empty());
}

TEST(WireCodecTest, GarbageRejectedWithNamedErrors) {
  wire::InferRequest request;
  request.model = "m";
  request.channels = 1;
  request.height = 1;
  request.width = 2;
  request.data = {1.0f, 2.0f};
  const std::string body = wire::encode_request(request);

  // Wrong tag: a reply body handed to the request decoder (and vice
  // versa), plus an outright unknown tag.
  const std::string bad_tag_msg = error_message(
      [&] { wire::decode_request(wire::encode_reply(wire::InferReply{})); });
  EXPECT_NE(bad_tag_msg.find("tag"), std::string::npos) << bad_tag_msg;
  std::string unknown = body;
  unknown[0] = static_cast<char>(0x7f);
  EXPECT_THROW(wire::decode_request(unknown), wire::ProtocolError);
  EXPECT_THROW(wire::decode_reply(unknown), wire::ProtocolError);

  // Truncation at every byte boundary must throw, never read past the
  // end or silently succeed.
  for (std::size_t cut = 1; cut < body.size(); ++cut) {
    EXPECT_THROW(wire::decode_request(body.substr(0, cut)),
                 wire::ProtocolError)
        << "cut at " << cut;
  }

  // Trailing garbage after a valid message.
  EXPECT_THROW(wire::decode_request(body + "z"), wire::ProtocolError);

  // Geometry that disagrees with the float count.
  wire::InferRequest skewed = request;
  skewed.width = 3;  // declares 3 floats, carries 2
  skewed.data = {1.0f, 2.0f};
  const std::string skew_msg = error_message([&] {
    wire::decode_request(wire::encode_request(skewed));
  });
  EXPECT_NE(skew_msg.find("geometry"), std::string::npos) << skew_msg;
}

TEST(WireCodecTest, OverflowingGeometryRejected) {
  // channels × height wraps std::size_t to 0: the unchecked multiply
  // used to admit this zero-float frame with 2^32-sized dims, handing
  // the engine garbage loop bounds over an empty buffer.
  wire::InferRequest hostile;
  hostile.model = "m";
  hostile.channels = std::size_t{1} << 32;
  hostile.height = std::size_t{1} << 32;
  hostile.width = 1;
  const std::string wrap_msg = error_message(
      [&] { wire::decode_request(wire::encode_request(hostile)); });
  EXPECT_NE(wrap_msg.find("frame cap"), std::string::npos) << wrap_msg;

  // Zero dims reject even though the (empty) float count "matches".
  wire::InferRequest zero;
  zero.model = "m";
  zero.channels = 0;
  zero.height = 4;
  zero.width = 4;
  EXPECT_THROW(wire::decode_request(wire::encode_request(zero)),
               wire::ProtocolError);

  // One dim past the frame's float capacity rejects before any multiply.
  wire::InferRequest wide;
  wide.model = "m";
  wide.channels = 1;
  wide.height = 1;
  wide.width = wire::kMaxFrameBytes / sizeof(float) + 1;
  EXPECT_THROW(wire::decode_request(wire::encode_request(wide)),
               wire::ProtocolError);
}

TEST(WireCodecTest, HostileFloatCountRejectedBeforeWrap) {
  // A declared float count of 2^62 makes n·sizeof(float) wrap to zero;
  // the decoder must reject it as truncation, not read past the end or
  // try to allocate.
  std::string body;
  body.push_back('\x01');  // tag: InferRequest
  body.push_back('\x01');  // model name length 1 …
  body.push_back('m');     // … "m"
  body.push_back('\x00');  // version 0
  body.push_back('\x01');  // channels 1
  body.push_back('\x01');  // height 1
  body.push_back('\x01');  // width 1
  std::uint64_t n = std::uint64_t{1} << 62;  // float count varint
  while (n >= 0x80) {
    body.push_back(static_cast<char>(n | 0x80));
    n >>= 7;
  }
  body.push_back(static_cast<char>(n));
  const std::string message =
      error_message([&] { wire::decode_request(body); });
  EXPECT_NE(message.find("truncated"), std::string::npos) << message;
}

// ---- SLA wire fields -------------------------------------------------------

wire::InferRequest small_request() {
  wire::InferRequest request;
  request.model = "m";
  request.channels = 1;
  request.height = 1;
  request.width = 2;
  request.data = {1.0f, 2.0f};
  return request;
}

/// `small_request()` encoded with the high-priority tag (tag 2).
std::string small_request_with_priority() {
  wire::InferRequest request = small_request();
  request.has_priority = true;
  request.priority = 2;
  return wire::encode_request(request);
}

TEST(WireSlaFieldTest, TagsRoundTripInEveryCombination) {
  // Each optional field independently, then both together — the decoder
  // must not care which subset is present.
  for (const bool with_priority : {false, true}) {
    for (const bool with_deadline : {false, true}) {
      wire::InferRequest request = small_request();
      if (with_priority) {
        request.has_priority = true;
        request.priority = 2;
      }
      if (with_deadline) {
        request.has_deadline = true;
        request.deadline_us = 1500;
      }
      const wire::InferRequest decoded =
          wire::decode_request(wire::encode_request(request));
      EXPECT_EQ(decoded.has_priority, with_priority);
      EXPECT_EQ(decoded.has_deadline, with_deadline);
      if (with_priority) EXPECT_EQ(decoded.priority, 2);
      if (with_deadline) EXPECT_EQ(decoded.deadline_us, 1500u);
    }
  }
}

TEST(WireSlaFieldTest, RequestBytesNeverChanged) {
  // Golden bytes: a request with no optional fields must encode exactly
  // as it did before the SLA tags existed, so pre-SLA clients and
  // servers interoperate with tagged ones, and each SLA field appends
  // its tag byte and its varint value.  Any byte here changing is a wire
  // break, not a refactor.
  std::string golden;
  golden.push_back('\x01');  // tag: InferRequest
  golden.push_back('\x01');  // model name length 1 …
  golden.push_back('m');     // … "m"
  golden.push_back('\x00');  // version 0
  golden.push_back('\x01');  // channels 1
  golden.push_back('\x01');  // height 1
  golden.push_back('\x02');  // width 2
  golden.push_back('\x02');  // float count 2
  const float floats[2] = {1.0f, 2.0f};
  golden.append(reinterpret_cast<const char*>(floats), sizeof(floats));
  EXPECT_EQ(wire::encode_request(small_request()), golden);

  EXPECT_EQ(small_request_with_priority(),
            golden + std::string("\x02\x02", 2));
  wire::InferRequest budgeted = small_request();
  budgeted.has_deadline = true;
  budgeted.deadline_us = 300;  // varint 0xac 0x02
  EXPECT_EQ(wire::encode_request(budgeted),
            golden + std::string("\x03\xac\x02", 3));
}

TEST(WireSlaFieldTest, HostilePriorityAndDeadlineValuesRejected) {
  // Priority past the highest service class.
  wire::InferRequest loud = small_request();
  loud.has_priority = true;
  loud.priority = 3;
  const std::string range_msg = error_message(
      [&] { wire::decode_request(wire::encode_request(loud)); });
  EXPECT_NE(range_msg.find("out of range"), std::string::npos) << range_msg;

  // A zero deadline claims a budget while meaning "none": rejected.
  wire::InferRequest zero = small_request();
  zero.has_deadline = true;
  zero.deadline_us = 0;
  // The encoder would skip a zero via has_deadline, so force the bytes.
  std::string body = wire::encode_request(small_request());
  body.push_back('\x03');  // deadline tag …
  body.push_back('\x00');  // … budget 0
  const std::string zero_msg =
      error_message([&] { wire::decode_request(body); });
  EXPECT_NE(zero_msg.find("must be positive"), std::string::npos) << zero_msg;

  // A u64-max budget is legal on the wire (admission saturates it).
  wire::InferRequest forever = small_request();
  forever.has_deadline = true;
  forever.deadline_us = std::numeric_limits<std::uint64_t>::max();
  const wire::InferRequest decoded =
      wire::decode_request(wire::encode_request(forever));
  EXPECT_EQ(decoded.deadline_us, std::numeric_limits<std::uint64_t>::max());
}

TEST(WireSlaFieldTest, DuplicateAndUnknownTagsRejected) {
  const std::string base = wire::encode_request(small_request());
  for (const char tag : {'\x02', '\x03'}) {
    // Two copies of the same optional field: the second falls through
    // to the unknown-tag arm — a frame states each fact at most once.
    std::string body = base;
    for (int copy = 0; copy < 2; ++copy) {
      body.push_back(tag);
      body.push_back('\x01');  // a valid value for both fields
    }
    const std::string message =
        error_message([&] { wire::decode_request(body); });
    EXPECT_NE(message.find("unknown trailing field"), std::string::npos)
        << "tag " << static_cast<int>(tag) << ": " << message;
  }
  // Tags outside the known set reject outright, naming the tag, alone
  // and after a known field: one past the set, a high one, and tag 1 —
  // an operating-point override in earlier revisions, which a server
  // serving one precision per model must refuse, not serve at another.
  for (const std::string& prefix : {base, small_request_with_priority()}) {
    for (const int tag : {1, 4, 7}) {
      std::string body = prefix;
      body.push_back(static_cast<char>(tag));
      body.push_back('\x00');
      const std::string message =
          error_message([&] { wire::decode_request(body); });
      EXPECT_NE(message.find("unknown trailing field tag " +
                             std::to_string(tag)),
                std::string::npos)
          << message;
    }
  }
}

TEST(WireSlaFieldTest, FullyTaggedFrameTruncationLegalOnlyAtFieldBoundaries) {
  // Optional trailing fields make some truncations *legal*: a cut at a
  // field boundary is just a shorter valid message (that is the
  // backward-compatibility property).  Every other cut — anywhere
  // inside a field, including between a tag byte and its value — must
  // reject.  Build the boundary set by encoding with progressively
  // more fields so the test cannot drift from the encoder.
  wire::InferRequest request = small_request();
  std::set<std::size_t> boundaries;
  boundaries.insert(wire::encode_request(request).size());
  request.has_priority = true;
  request.priority = 2;
  boundaries.insert(wire::encode_request(request).size());
  request.has_deadline = true;
  request.deadline_us = 300;  // two varint bytes: cuts land mid-field
  const std::string body = wire::encode_request(request);

  for (std::size_t cut = 1; cut <= body.size(); ++cut) {
    const std::string prefix = body.substr(0, cut);
    if (boundaries.count(cut) > 0 || cut == body.size()) {
      EXPECT_NO_THROW(wire::decode_request(prefix)) << "cut at " << cut;
    } else {
      EXPECT_THROW(wire::decode_request(prefix), wire::ProtocolError)
          << "cut at " << cut;
    }
  }
}

// ---- TCP end to end --------------------------------------------------------

wire::InferRequest request_for(const Tensor& x, std::size_t i,
                               std::string model) {
  wire::InferRequest request;
  request.model = std::move(model);
  request.channels = x.dim(1);
  request.height = x.dim(2);
  request.width = x.dim(3);
  const std::size_t numel = x.dim(1) * x.dim(2) * x.dim(3);
  const auto src = x.data().subspan(i * numel, numel);
  request.data.assign(src.begin(), src.end());
  return request;
}

/// Sample `i` of an NCHW batch as its own CHW tensor.
Tensor sample_of(const Tensor& x, std::size_t i) {
  const std::size_t numel = x.dim(1) * x.dim(2) * x.dim(3);
  const auto src = x.data().subspan(i * numel, numel);
  return Tensor({x.dim(1), x.dim(2), x.dim(3)},
                std::vector<float>(src.begin(), src.end()));
}

TEST(TcpServeTest, ConcurrentClientsBitIdenticalToInProcess) {
  hw::IntegerNetwork net = make_network();
  const Tensor x = make_inputs(24);
  const Tensor reference = net.forward(x);

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 5;
  mc.max_delay_us = 200;
  server.load("tcp", std::move(net), mc);
  TcpServer front(server, 0);  // ephemeral port
  ASSERT_NE(front.port(), 0);

  constexpr std::size_t kClients = 4;
  std::vector<wire::InferReply> replies(x.dim(0));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpClient client("127.0.0.1", front.port());
      for (std::size_t i = c; i < x.dim(0); i += kClients) {
        replies[i] = client.infer(request_for(x, i, "tcp"));
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < x.dim(0); ++i) {
    ASSERT_TRUE(replies[i].ok) << "sample " << i << ": " << replies[i].error;
    EXPECT_EQ(replies[i].version, 1u);
    ASSERT_EQ(replies[i].logits.size(), reference.dim(1));
    for (std::size_t k = 0; k < replies[i].logits.size(); ++k) {
      EXPECT_EQ(replies[i].logits[k], reference(i, k))
          << "sample " << i << " logit " << k;
    }
  }
}

TEST(TcpServeTest, ErrorRepliesCarryServerDiagnostics) {
  InferenceServer server;
  server.load("known", make_network());
  TcpServer front(server, 0);
  TcpClient client("127.0.0.1", front.port());
  const Tensor x = make_inputs(1);

  // Unknown model: the registry's diagnostic crosses the wire.
  wire::InferReply reply = client.infer(request_for(x, 0, "missing"));
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("missing"), std::string::npos) << reply.error;

  // Unknown version of a known model.
  wire::InferRequest versioned = request_for(x, 0, "known");
  versioned.version = 99;
  reply = client.infer(versioned);
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("known"), std::string::npos) << reply.error;

  // The connection survived both errors: a good request still works.
  reply = client.infer(request_for(x, 0, "known"));
  EXPECT_TRUE(reply.ok) << reply.error;
}

TEST(TcpServeTest, RetiredPointTagDropsTheConnectionUnanswered) {
  // TcpClient only encodes known fields, so the frame goes out over a
  // raw socket: a valid request plus tag 1 (rung 0).
  InferenceServer server;
  server.load("m", make_network());
  TcpServer front(server, 0);
  std::string body = wire::encode_request(request_for(make_inputs(1), 0, "m"));
  body.push_back('\x01');
  body.push_back('\x00');
  std::string frame;
  wire::append_frame(frame, body);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{.tv_sec = 30, .tv_usec = 0};  // a hang fails, not stalls
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(front.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // orderly close, no reply frame
  ::close(fd);

  // The server itself keeps serving well-formed requests.
  TcpClient client("127.0.0.1", front.port());
  EXPECT_TRUE(client.infer(request_for(make_inputs(1), 0, "m")).ok);
}

TEST(TcpServeTest, HarnessTcpModeMatchesDirectForward) {
  hw::IntegerNetwork net = make_network();
  const Tensor x = make_inputs(12);
  const Tensor reference = net.forward(x);

  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 3;
  mc.max_delay_us = 200;
  server.load("bench", std::move(net), mc);
  TcpServer front(server, 0);

  ServeHarness harness("127.0.0.1", front.port(), "bench");
  const HarnessReport report = harness.run(x, {.producers = 3});
  EXPECT_EQ(report.requests, x.dim(0));
  ASSERT_EQ(report.outputs.size(), x.dim(0));
  EXPECT_EQ(report.latency_ns.size(), x.dim(0));  // TCP mode is exact
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    EXPECT_EQ(report.versions[i], 1u);
    ASSERT_EQ(report.outputs[i].dim(0), reference.dim(1));
    for (std::size_t k = 0; k < reference.dim(1); ++k) {
      EXPECT_EQ(report.outputs[i](k), reference(i, k))
          << "sample " << i << " logit " << k;
    }
  }
}

TEST(TcpServeTest, DeadlineMissCrossesTheWireAsTypedError) {
  // One worker, a queue that never flushes on fill or age: the only
  // event that can wake the worker is the request's own deadline, so
  // the miss is deterministic — and it must come back over the wire as
  // the typed diagnostic, not a generic failure.
  ServeConfig config;
  config.workers = 1;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = std::numeric_limits<std::uint64_t>::max();
  server.load("slow", make_network(), mc);
  TcpServer front(server, 0);
  TcpClient client("127.0.0.1", front.port());
  const Tensor x = make_inputs(1);

  wire::InferRequest request = request_for(x, 0, "slow");
  request.has_deadline = true;
  request.deadline_us = 1;  // expires while queued, guaranteed
  wire::InferReply reply = client.infer(request);
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("missed its 1us deadline"), std::string::npos)
      << reply.error;

  // The connection survived the miss: the next request works the same.
  reply = client.infer(request);
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("missed its"), std::string::npos) << reply.error;
}

TEST(TcpServeTest, HighPriorityEvictsQueuedLowOverTcp) {
  // A tagged high-priority request arriving over TCP must displace an
  // in-process low-priority request from a full queue — the wire field
  // reaches the same admission policy as a direct submit.
  ServeConfig config;
  config.workers = 1;
  InferenceServer server(config);
  ModelConfig mc;
  mc.queue_capacity = 1;
  mc.max_batch = 4;  // > capacity: nothing flushes until shutdown forces it
  mc.max_delay_us = std::numeric_limits<std::uint64_t>::max();
  const ModelHandle handle = server.load("contested", make_network(), mc);
  TcpServer front(server, 0);

  const Tensor x = make_inputs(2);
  const Tensor low_sample = make_inputs(1).reshaped({3, 8, 8});
  Tensor low_out;
  SubmitOptions low;
  low.priority = Priority::kLow;
  std::future<void> low_reply =
      server.submit(handle, low_sample, low_out, low);

  wire::InferReply high_reply;
  std::thread tcp_client([&] {
    TcpClient client("127.0.0.1", front.port());
    wire::InferRequest request = request_for(x, 1, "contested");
    request.has_priority = true;
    request.priority = 2;  // high
    high_reply = client.infer(request);
  });

  // The eviction happens synchronously inside the high's admission, so
  // waiting on the low's future cannot hang: it fails the moment the
  // TCP request is admitted.
  EXPECT_THROW(low_reply.get(), RequestShedError);

  // Shutdown force-flushes the queue; the high-priority request is the
  // one that got served.
  server.shutdown();
  tcp_client.join();
  ASSERT_TRUE(high_reply.ok) << high_reply.error;
  EXPECT_EQ(high_reply.logits.size(), 5u);
}

TEST(TcpServeTest, TcpAndInProcessTrafficMixBitIdenticalAtAnyWorkerCount) {
  // TCP connections (each request runs inline when a slot is free) and
  // in-process submitters share the slots at 1, 2 and 4 workers; every
  // reply is byte-equal to the naive int64 reference.
  hw::IntegerNetwork net = make_network();
  const Tensor x = make_inputs(24);
  const Tensor reference = net.forward_reference(x);
  const std::size_t classes = reference.dim(1);

  for (std::size_t workers : {1u, 2u, 4u}) {
    ServeConfig config;
    config.workers = workers;
    InferenceServer server(config);
    ModelConfig mc;
    mc.max_batch = 3;
    const ModelHandle handle = server.load("mix", net, mc);
    TcpServer front(server, 0);

    constexpr std::size_t kTcp = 3, kLocal = 2, kThreads = kTcp + kLocal;
    std::vector<std::vector<float>> replies(x.dim(0));
    std::vector<std::string> errors(x.dim(0));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        if (t < kTcp) {
          TcpClient client("127.0.0.1", front.port());
          for (std::size_t i = t; i < x.dim(0); i += kThreads) {
            const wire::InferReply reply =
                client.infer(request_for(x, i, "mix"));
            errors[i] = reply.error;
            replies[i] = reply.logits;
          }
          return;
        }
        for (std::size_t i = t; i < x.dim(0); i += kThreads) {
          const Tensor sample = sample_of(x, i);
          Tensor out;
          server.submit(handle, sample, out).get();
          replies[i].assign(out.data().begin(), out.data().end());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (std::size_t i = 0; i < x.dim(0); ++i) {
      ASSERT_TRUE(errors[i].empty()) << "sample " << i << ": " << errors[i];
      const std::vector<float> expected(
          reference.data().begin() + static_cast<std::ptrdiff_t>(i * classes),
          reference.data().begin() +
              static_cast<std::ptrdiff_t>((i + 1) * classes));
      EXPECT_TRUE(bits_equal(replies[i], expected))
          << "sample " << i << " with " << workers << " workers";
    }
    // A reply can reach its caller before the worker that ran it hands
    // its slot back; drain() returns only once that has happened.
    server.drain();
    EXPECT_EQ(server.busy_slots(), 0u);
  }
}

TEST(TcpServeTest, ErrorsRaisedOnOtherThreadsReachAWaitingTcpCaller) {
  // A low-priority TCP request finds its batch held, so its connection
  // thread waits on it.  A second connection's equal-priority request is
  // refused at the door (queue full), then an in-process high-priority
  // submit sheds the waiting request: the shed, raised on the submitting
  // thread, comes back over the first connection as its typed message.
  ServeConfig config;
  config.workers = 1;
  InferenceServer server(config);
  ModelConfig mc;
  mc.queue_capacity = 1;
  mc.max_batch = 4;  // > capacity: nothing flushes until shutdown forces it
  mc.max_delay_us = std::numeric_limits<std::uint64_t>::max();
  const ModelHandle handle = server.load("contested", make_network(), mc);
  TcpServer front(server, 0);
  const Tensor x = make_inputs(2);

  wire::InferReply parked_reply;
  std::thread parked([&] {
    TcpClient client("127.0.0.1", front.port());
    wire::InferRequest request = request_for(x, 0, "contested");
    request.has_priority = true;
    request.priority = 0;  // low
    parked_reply = client.infer(request);
  });
  while (server.queue_depth("contested") == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  TcpClient second("127.0.0.1", front.port());
  wire::InferRequest refused = request_for(x, 1, "contested");
  refused.has_priority = true;
  refused.priority = 0;
  const wire::InferReply full = second.infer(refused);
  EXPECT_FALSE(full.ok);
  EXPECT_NE(full.error.find("capacity 1"), std::string::npos) << full.error;

  const Tensor high_sample = sample_of(x, 1);
  Tensor high_out;
  SubmitOptions high;
  high.priority = Priority::kHigh;
  std::future<void> high_reply =
      server.submit(handle, high_sample, high_out, high);
  parked.join();
  EXPECT_FALSE(parked_reply.ok);
  EXPECT_NE(parked_reply.error.find("shed to admit higher-priority traffic"),
            std::string::npos)
      << parked_reply.error;

  // After shutdown the queued high is served and the wire refuses more.
  server.shutdown();
  high_reply.get();
  EXPECT_EQ(high_out.rank(), 1u);
  const wire::InferReply stopped = second.infer(request_for(x, 0, "contested"));
  EXPECT_FALSE(stopped.ok);
  EXPECT_NE(stopped.error.find("stopped"), std::string::npos) << stopped.error;
}

}  // namespace
}  // namespace ccq::serve
