// TCP shell around server::Service — plain sockets, newline framing (see
// protocol.h), one thread per connection.
//
// Lifecycle:
//
//   Server server(options);
//   server.Start(&error);        // bind 127.0.0.1, listen, spawn acceptor
//   ... server.port() ...        // resolved port (options.port 0 = pick)
//   server.Wait();               // blocks until shutdown, then drains
//
// Shutdown arrives three ways and converges on one path: a SHUTDOWN
// statement from any session, RequestShutdown() from another thread, or
// RequestShutdown() from a signal handler — it only writes one byte to a
// self-pipe, the async-signal-safe subset. The acceptor wakes on the
// pipe, stops accepting, half-closes every live connection (which wakes
// their blocked reads), joins the session threads, and — when a
// checkpoint path is configured — persists the server-state snapshot
// before Wait() returns. The checkpoint-on-shutdown invariant: a server
// with a checkpoint path never exits the serving loop without writing a
// loadable snapshot of its final state.
//
// Resource bounds: a finished session is reaped (thread joined, fd
// closed) by the acceptor before it stores the next connection, so a
// long-lived server holds one fd and one thread per *open* connection,
// not per connection ever accepted. A request line longer than
// kMaxLineBytes (protocol.h) gets an ERR reply and closes its session.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/service.h"

namespace fdevolve::server {

class Server {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
    Service::Options service;
    /// Load the checkpoint at service.checkpoint_path before serving.
    bool resume = false;
  };

  explicit Server(Options opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor thread. On failure (bind
  /// error, resume failure) returns false + error and owns no resources.
  bool Start(std::string* error);

  /// Port actually bound (valid after Start succeeds).
  uint16_t port() const { return port_; }

  /// Blocks until shutdown is requested, then drains connections, joins
  /// threads, and checkpoints if configured. Returns false + error only
  /// for a failed shutdown checkpoint.
  bool Wait(std::string* error);

  /// Initiates shutdown. Async-signal-safe: writes one byte to the
  /// self-pipe and nothing else. Idempotent.
  void RequestShutdown();

  Service& service() { return service_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mutex;  ///< replies vs. drift pushes on one socket
    std::thread thread;
    /// Set as the session thread's last act: the thread is about to exit
    /// and no push can reach the socket any more, so join + close is safe.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Joins and closes the connections whose sessions have ended.
  void ReapFinished();
  void SessionLoop(Connection* conn);
  bool WriteLine(Connection* conn, const std::string& line);

  Options opts_;
  Service service_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< [0] read end (poll), [1] write end
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> shutting_down_{false};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace fdevolve::server
