#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iterator>

#include "server/protocol.h"

namespace fdevolve::server {
namespace {

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// send() the whole buffer, riding out EINTR. MSG_NOSIGNAL turns a
/// vanished peer into an EPIPE return instead of a process-killing
/// SIGPIPE; the caller then drops the session.
bool WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(Options opts) : opts_(std::move(opts)), service_(opts_.service) {}

Server::~Server() {
  RequestShutdown();
  if (acceptor_.joinable()) Wait(nullptr);
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);
  CloseFd(listen_fd_);
}

bool Server::Start(std::string* error) {
  if (opts_.resume) {
    if (!service_.Resume(error)) return false;
  }
  if (::pipe(wake_pipe_) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error) *error = std::string("bind: ") + std::strerror(errno);
    CloseFd(listen_fd_);
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    if (error) *error = std::string("listen: ") + std::strerror(errno);
    CloseFd(listen_fd_);
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void Server::RequestShutdown() {
  // Only async-signal-safe operations: this runs from SIGTERM handlers.
  // (A lock-free atomic store qualifies; writing to an unopened pipe
  // (fd -1) fails harmlessly with EBADF.)
  shutting_down_.store(true);
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::AcceptLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // shutdown byte (or pipe error)
    if (fds[0].revents == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    if (shutting_down_.load()) {
      ::close(client);
      break;
    }
    ReapFinished();
    auto conn = std::make_unique<Connection>();
    conn->fd = client;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { SessionLoop(raw); });
  }
}

void Server::ReapFinished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto live = std::partition(
        connections_.begin(), connections_.end(),
        [](const std::unique_ptr<Connection>& c) { return !c->done.load(); });
    std::move(live, connections_.end(), std::back_inserter(finished));
    connections_.erase(live, connections_.end());
  }
  for (auto& conn : finished) {
    conn->thread.join();
    CloseFd(conn->fd);
  }
}

bool Server::WriteLine(Connection* conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  std::string framed = line + "\n";
  return WriteAll(conn->fd, framed.data(), framed.size());
}

void Server::SessionLoop(Connection* conn) {
  // The push sink shares the connection's write mutex with replies, so a
  // DRIFT line from another session's insert never tears a reply frame.
  Service::SessionId session = service_.OpenSession(
      [this, conn](const std::string& line) { return WriteLine(conn, line); });

  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error (including shutdown()'s wake-up)
    // Everything already buffered is one partial line: scan only the new
    // bytes for '\n', so a long line costs linear, not quadratic, time.
    const size_t scan = buffer.size();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', scan); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      // An overlong line stays buffered and trips the cap check below.
      if (nl - start > kMaxLineBytes) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      Service::Result result = service_.ExecuteLine(session, line);
      if (!WriteLine(conn, result.reply)) {
        open = false;
        break;
      }
      if (result.shutdown) {
        RequestShutdown();
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (open && buffer.size() > kMaxLineBytes) {
      WriteLine(conn, FormatError("request line exceeds " +
                                  std::to_string(kMaxLineBytes) + " bytes"));
      open = false;
    }
  }
  service_.CloseSession(session);
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true);
}

bool Server::Wait(std::string* error) {
  if (acceptor_.joinable()) acceptor_.join();
  // Half-close every connection: blocked reads return 0 and the session
  // threads unwind through their normal close path.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  std::vector<std::unique_ptr<Connection>> drained;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    drained.swap(connections_);
  }
  for (auto& conn : drained) {
    if (conn->thread.joinable()) conn->thread.join();
    CloseFd(conn->fd);
  }
  if (!opts_.service.checkpoint_path.empty()) {
    return service_.SaveCheckpoint(error);
  }
  return true;
}

}  // namespace fdevolve::server
