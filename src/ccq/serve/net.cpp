#include "ccq/serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "ccq/serve/server.hpp"

namespace ccq::serve {

namespace {

std::string errno_str() { return std::strerror(errno); }

/// write() until the buffer is gone; false on a broken peer.
bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one frame body, buffering partial reads.  Returns false on a
/// clean or broken hang-up; ProtocolError propagates on malformed bytes.
bool recv_frame(int fd, std::string& buffer, std::string& body) {
  char chunk[4096];
  for (;;) {
    if (wire::extract_frame(buffer, body)) return true;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // peer closed
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

// ---- TcpServer -------------------------------------------------------------

struct TcpServer::Impl {
  InferenceServer& server;
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::atomic<bool> stopping{false};
  std::thread accept_thread;

  /// One live connection.  Keyed by a monotonic id, never by the raw fd:
  /// a closed fd number is recycled by the next descriptor the process
  /// opens, so an fd-keyed table would let stop() shut down an unrelated
  /// socket through a stale entry.
  struct Conn {
    int fd = -1;
    std::thread thread;
  };

  std::mutex conn_mutex;  ///< guards conns/finished/next_conn_id
  std::uint64_t next_conn_id = 0;
  std::map<std::uint64_t, Conn> conns;  ///< live connections
  /// Threads of connections that already exited, awaiting a (near-
  /// instant) join — the accept loop reaps these per accept, stop()
  /// reaps the rest, so the server never accumulates one un-reaped
  /// thread object per connection over its lifetime.
  std::vector<std::thread> finished;

  explicit Impl(InferenceServer& server_in) : server(server_in) {}

  void serve_connection(std::uint64_t id, int fd) {
    std::string buffer;
    std::string frame;
    std::string out_bytes;
    Tensor output;
    // A request that finds a batch slot free runs its batch on this
    // thread, with this workspace (InferenceServer::infer).
    Workspace ws;
    try {
      while (!stopping.load(std::memory_order_relaxed) &&
             recv_frame(fd, buffer, frame)) {
        wire::InferReply reply;
        try {
          wire::InferRequest request = wire::decode_request(frame);
          const ModelHandle model =
              server.resolve(request.model, request.version);
          const Tensor sample(
              {request.channels, request.height, request.width},
              std::move(request.data));
          SubmitOptions options;
          if (request.has_priority) {
            // Range-checked by the decoder (0..2).
            options.priority = static_cast<Priority>(request.priority);
          }
          if (request.has_deadline) options.deadline_us = request.deadline_us;
          server.infer(model, sample, output, ws, options);
          reply.ok = true;
          reply.version = model.version();
          reply.logits.assign(output.data().begin(), output.data().end());
        } catch (const wire::ProtocolError&) {
          throw;  // malformed bytes: drop the connection, not just the call
        } catch (const std::exception& error) {
          reply.ok = false;
          reply.error = error.what();
        }
        out_bytes.clear();
        wire::append_frame(out_bytes, wire::encode_reply(reply));
        if (!send_all(fd, out_bytes)) break;
      }
    } catch (const wire::ProtocolError&) {
      // Unframeable stream — nothing sane to reply to; close below.
    }
    // Deregister before closing: past the close() the fd number is up
    // for recycling, and stop() must never find it in the table.  The
    // thread handle moves to the reap list (a thread cannot join
    // itself); if stop() already emptied the table it owns the handle
    // and will join it directly.
    {
      std::lock_guard<std::mutex> lock(conn_mutex);
      const auto it = conns.find(id);
      if (it != conns.end()) {
        finished.push_back(std::move(it->second.thread));
        conns.erase(it);
      }
    }
    ::close(fd);
  }

  void reap_finished() {
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(conn_mutex);
      done.swap(finished);
    }
    for (std::thread& thread : done) thread.join();
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed by stop()
      }
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      reap_finished();  // joins only already-exited connection threads
      // Hold conn_mutex across thread start: the connection's own
      // deregistration takes the same mutex, so its entry is always
      // installed before it can exit.
      std::lock_guard<std::mutex> lock(conn_mutex);
      const std::uint64_t id = next_conn_id++;
      Conn& conn = conns[id];
      conn.fd = fd;
      conn.thread = std::thread([this, id, fd] { serve_connection(id, fd); });
    }
  }
};

TcpServer::TcpServer(InferenceServer& server, std::uint16_t port)
    : impl_(std::make_unique<Impl>(server)) {
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    throw NetError("tcp listener: socket failed: " + errno_str());
  }
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const std::string why = errno_str();
    ::close(impl_->listen_fd);
    throw NetError("tcp listener: bind to port " + std::to_string(port) +
                   " failed: " + why);
  }
  if (::listen(impl_->listen_fd, 64) < 0) {
    const std::string why = errno_str();
    ::close(impl_->listen_fd);
    throw NetError("tcp listener: listen failed: " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  impl_->port = ntohs(addr.sin_port);
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

std::uint16_t TcpServer::port() const { return impl_->port; }

void TcpServer::stop() {
  if (impl_->stopping.exchange(true)) return;
  // shutdown() unblocks accept(); connection reads unblock when their
  // fds shut down below.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  ::close(impl_->listen_fd);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    // Every fd still in the table is still owned by its connection
    // thread (deregistration precedes close under this mutex), so the
    // shutdown() can never hit a recycled descriptor.  Closing stays
    // with the connection thread — exactly one close per fd.
    for (auto& [id, conn] : impl_->conns) {
      ::shutdown(conn.fd, SHUT_RDWR);
      threads.push_back(std::move(conn.thread));
    }
    impl_->conns.clear();
    for (std::thread& thread : impl_->finished) {
      threads.push_back(std::move(thread));
    }
    impl_->finished.clear();
  }
  for (auto& thread : threads) thread.join();
}

// ---- TcpClient -------------------------------------------------------------

struct TcpClient::Impl {
  int fd = -1;
  std::string buffer;
};

TcpClient::TcpClient(const std::string& host, std::uint16_t port)
    : impl_(std::make_unique<Impl>()) {
  impl_->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->fd < 0) {
    throw NetError("tcp client: socket failed: " + errno_str());
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(impl_->fd);
    impl_->fd = -1;
    throw NetError("tcp client: bad IPv4 address " + host);
  }
  if (::connect(impl_->fd, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const std::string why = errno_str();
    ::close(impl_->fd);
    impl_->fd = -1;
    throw NetError("tcp client: connect to " + host + ":" +
                   std::to_string(port) + " failed: " + why);
  }
  const int one = 1;
  ::setsockopt(impl_->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpClient::~TcpClient() { close(); }

void TcpClient::close() {
  if (impl_->fd >= 0) {
    ::close(impl_->fd);
    impl_->fd = -1;
  }
}

wire::InferReply TcpClient::infer(const wire::InferRequest& request) {
  CCQ_CHECK(impl_->fd >= 0, "tcp client is closed");
  std::string out;
  wire::append_frame(out, wire::encode_request(request));
  if (!send_all(impl_->fd, out)) {
    throw NetError("tcp client: send failed: " + errno_str());
  }
  std::string frame;
  if (!recv_frame(impl_->fd, impl_->buffer, frame)) {
    throw NetError("tcp client: server closed the connection");
  }
  return wire::decode_reply(frame);
}

}  // namespace ccq::serve
