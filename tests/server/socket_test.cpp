// End-to-end TCP tests: real sockets, real threads, the same Client the
// bench driver and smoke script use.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace fdevolve::server {
namespace {

/// Open file descriptors of this process, or -1 without /proc/self/fd.
int OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n - 1;  // the directory stream's own fd
}

/// A bare TCP connection to the server, for bytes Client cannot send.
int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerSocketTest, ScriptedSessionOverTcp) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  EXPECT_TRUE(client.Request("CREATE TABLE t (a INT64, b INT64)").ok);
  auto ins = client.Request("INSERT INTO t VALUES (1, 1), (2, 2)");
  EXPECT_TRUE(ins.ok);
  EXPECT_EQ(ins.value, 2u);
  auto count = client.Request("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(count.ok);
  EXPECT_EQ(count.value, 2u);
  auto bad = client.Request("SELECT COUNT(*) FROM ghost");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("ghost"), std::string::npos);

  auto bye = client.Request("SHUTDOWN");
  EXPECT_TRUE(bye.ok);
  EXPECT_TRUE(server.Wait(&error)) << error;
}

TEST(ServerSocketTest, DriftPushReachesSubscribedClient) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client writer, listener;
  ASSERT_TRUE(writer.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(listener.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(writer.Request("CREATE TABLE t (a INT64, b INT64)").ok);
  ASSERT_TRUE(writer.Request("DECLARE FD a -> b ON t").ok);
  ASSERT_TRUE(listener.Request("SUBSCRIBE DRIFT ON t").ok);

  // The violating insert: the listener gets an async DRIFT line.
  auto ins = writer.Request("INSERT INTO t VALUES (1, 1), (1, 2)");
  EXPECT_TRUE(ins.ok);
  auto drift = listener.PollDrift(5000);
  ASSERT_TRUE(drift.has_value()) << "no DRIFT push within 5s";
  EXPECT_NE(drift->find("table=t"), std::string::npos) << *drift;
  EXPECT_NE(drift->find("fd=[a] -> [b]"), std::string::npos) << *drift;

  // A subscriber that also writes sees its own drift before the OK —
  // Request() drains it into Reply::drift.
  ASSERT_TRUE(writer.Request("SUBSCRIBE DRIFT ON t").ok);
  // b -> a is exact over the current rows (1,1),(1,2); the next insert
  // gives b=1 a second consequent and drifts it.
  ASSERT_TRUE(writer.Request("DECLARE FD b -> a ON t").ok);
  auto ins2 = writer.Request("INSERT INTO t VALUES (2, 1)");
  EXPECT_TRUE(ins2.ok);
  ASSERT_EQ(ins2.drift.size(), 1u) << "expected b -> a drift with the OK";
  EXPECT_NE(ins2.drift[0].find("fd=[b] -> [a]"), std::string::npos);

  writer.Request("SHUTDOWN");
  EXPECT_TRUE(server.Wait(&error)) << error;
}

TEST(ServerSocketTest, ShutdownCheckpointAndResume) {
  const std::string path =
      testing::TempDir() + "/fdevolve_socket_ckpt.fdev";
  std::remove(path.c_str());
  Server::Options opts;
  opts.service.checkpoint_path = path;
  std::string error;
  uint64_t count_before = 0;
  {
    Server server(opts);
    ASSERT_TRUE(server.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
    ASSERT_TRUE(client.Request("CREATE TABLE t (a INT64, b INT64)").ok);
    ASSERT_TRUE(client.Request("DECLARE FD a -> b ON t EVERY 2").ok);
    ASSERT_TRUE(client.Request("INSERT INTO t VALUES (1, 1), (1, 2)").ok);
    count_before = client.Request("SELECT COUNT(*) FROM t").value;
    ASSERT_TRUE(client.Request("SHUTDOWN").ok);
    // Checkpoint-on-shutdown invariant: Wait() persists before returning.
    ASSERT_TRUE(server.Wait(&error)) << error;
  }
  {
    Server::Options resume_opts = opts;
    resume_opts.resume = true;
    Server server(resume_opts);
    ASSERT_TRUE(server.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
    auto count = client.Request("SELECT COUNT(*) FROM t");
    EXPECT_TRUE(count.ok);
    EXPECT_EQ(count.value, count_before);
    // The monitor resumed too: the FD was already checked (EVERY 2) and
    // violated, so no further drift fires, but the drift log survives in
    // the next checkpoint cycle.
    EXPECT_EQ(server.service().DriftLog("t").size(), 1u);
    ASSERT_TRUE(client.Request("SHUTDOWN").ok);
    ASSERT_TRUE(server.Wait(&error)) << error;
  }
}

TEST(ServerSocketTest, RequestShutdownFromAnotherThreadUnblocksWait) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.Request("CREATE TABLE t (a INT64)").ok);

  std::thread killer([&server] {
    // Same entry point a SIGTERM handler uses.
    server.RequestShutdown();
  });
  EXPECT_TRUE(server.Wait(&error)) << error;
  killer.join();
  // The half-close reached the client: its next read sees EOF.
  auto reply = client.Request("SELECT COUNT(*) FROM t");
  EXPECT_FALSE(reply.ok);
}

TEST(ServerSocketTest, ManyConcurrentClientsOverTcp) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  {
    Client admin;
    ASSERT_TRUE(admin.Connect(server.port(), &error)) << error;
    ASSERT_TRUE(admin.Request("CREATE TABLE t (a INT64, b INT64)").ok);
    ASSERT_TRUE(admin.Request("DECLARE FD a -> b ON t EVERY 5").ok);
  }
  constexpr int kClients = 8;
  constexpr int kInsertsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  uint16_t port = server.port();
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([port, i, &failures] {
      Client c;
      std::string err;
      if (!c.Connect(port, &err)) {
        ++failures;
        return;
      }
      for (int n = 0; n < kInsertsEach; ++n) {
        auto reply = c.Request("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", " + std::to_string(n % 3) + ")");
        if (!reply.ok) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  Client check;
  ASSERT_TRUE(check.Connect(server.port(), &error)) << error;
  auto count = check.Request("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(count.ok);
  EXPECT_EQ(count.value,
            static_cast<uint64_t>(kClients * kInsertsEach));
  check.Request("SHUTDOWN");
  EXPECT_TRUE(server.Wait(&error)) << error;
}

TEST(ServerSocketTest, FinishedSessionsAreReaped) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  {
    Client admin;
    ASSERT_TRUE(admin.Connect(server.port(), &error)) << error;
    ASSERT_TRUE(admin.Request("CREATE TABLE t (a INT64)").ok);
  }
  const int start_fds = OpenFdCount();
  if (start_fds < 0) GTEST_SKIP() << "no /proc/self/fd";
  constexpr int kSessions = 200;
  for (int i = 0; i < kSessions; ++i) {
    Client client;
    ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
    ASSERT_TRUE(client.Request("SELECT COUNT(*) FROM t").ok);
  }
  // Each accept reaps every session that had ended by then, so only the
  // last few sessions can still hold their socket.
  EXPECT_LE(OpenFdCount(), start_fds + 8);

  Client last;
  ASSERT_TRUE(last.Connect(server.port(), &error)) << error;
  EXPECT_TRUE(last.Request("SHUTDOWN").ok);
  EXPECT_TRUE(server.Wait(&error)) << error;
  last.Close();
  EXPECT_LE(OpenFdCount(), start_fds);
}

TEST(ServerSocketTest, OverlongRequestLineGetsErrAndClose) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client other;
  ASSERT_TRUE(other.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(other.Request("CREATE TABLE t (a INT64)").ok);

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;  // a server that never answers fails, not hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string line(kMaxLineBytes + 1, 'x');  // no newline
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "send failed after " << sent << " bytes";
    sent += static_cast<size_t>(n);
  }
  std::string received;
  bool eof = false;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof = n == 0;
      break;
    }
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(received.rfind("ERR ", 0), 0u) << received;
  EXPECT_EQ(std::count(received.begin(), received.end(), '\n'), 1)
      << received;
  EXPECT_TRUE(eof) << "the session stayed open";

  auto count = other.Request("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(count.ok) << count.error;
  other.Request("SHUTDOWN");
  EXPECT_TRUE(server.Wait(&error)) << error;
}

}  // namespace
}  // namespace fdevolve::server
