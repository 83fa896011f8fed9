// TCP front end: the serve/protocol codec bound to POSIX sockets.
//
// `TcpServer` puts an `InferenceServer` on a port: an accept loop hands
// each connection to its own thread, which reads length-prefixed
// `InferRequest` frames, routes them through the registry
// (`resolve(model, version)` + the blocking `infer`), and writes back an
// `InferReply` frame — logits plus the version that served the request,
// or the server-side error message (admission errors like a full queue
// or an unloaded model keep their diagnostics across the wire instead
// of dropping the connection).  Only malformed bytes (ProtocolError) or
// a peer hang-up close a connection.  `infer` shares `submit`'s
// admission and the worker pool's batch step, so socket replies are
// bit-identical to in-process results — serve_net_test locks that in
// across concurrent clients.  A request that finds a batch slot free
// runs its batch on the connection thread, with a `Workspace` the
// connection owns, so an idle server answers it with no thread
// hand-off; after its first such batch a connection holds one batch's
// buffers.
//
// `TcpClient` is the matching blocking client (one in-flight request
// per connection), used by the harness's TCP mode, the `ccq serve-bench
// --tcp` load generator, and tests.  The wire format is documented in
// serve/protocol.hpp and docs/SERVING.md for non-C++ clients.
//
// Threading: thread-per-connection is deliberate at this scale — the
// server's `workers` batch slots are the throughput bottleneck,
// connections are few (load generators, not the open internet), and the
// blocking read loop keeps per-connection state trivial.  Each
// connection keeps at most one request in flight, so replies go out in
// request order.  `stop()` (or the destructor) closes the listener and
// every open connection, then joins all threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ccq/serve/protocol.hpp"

namespace ccq::serve {

class InferenceServer;

/// Listener failures (bind/listen) and client connect/IO failures.
class NetError : public Error {
 public:
  explicit NetError(const std::string& message) : Error(message) {}
};

class TcpServer {
 public:
  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port — tests) and start
  /// accepting.  Throws NetError when the bind fails.  `server` must
  /// outlive this front end.
  TcpServer(InferenceServer& server, std::uint16_t port);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (the kernel's pick when constructed with port 0).
  std::uint16_t port() const;

  /// Close the listener and all connections, join every thread.
  /// Idempotent.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking client for one connection: `infer` writes a request frame
/// and waits for the reply frame.  Throws NetError on connect/IO
/// failure, wire::ProtocolError on malformed reply bytes.
class TcpClient {
 public:
  TcpClient(const std::string& host, std::uint16_t port);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  wire::InferReply infer(const wire::InferRequest& request);

  void close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ccq::serve
