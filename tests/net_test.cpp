// Real-socket integration tests. Environments without loopback networking
// skip gracefully (GTEST_SKIP on bind failure).
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "net/cluster.hpp"
#include "net/soak.hpp"
#include "net/options.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "stats/cdf.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

bool loopback_available() {
  try {
    const TcpListener listener = TcpListener::bind_loopback(0);
    return listener.valid();
  } catch (const TransportError&) {
    return false;
  }
}

#define REQUIRE_LOOPBACK()                                     \
  do {                                                          \
    if (!loopback_available()) {                                \
      GTEST_SKIP() << "loopback networking unavailable";        \
    }                                                           \
  } while (0)

TEST(SocketTest, ListenerGetsEphemeralPort) {
  REQUIRE_LOOPBACK();
  const TcpListener a = TcpListener::bind_loopback(0);
  const TcpListener b = TcpListener::bind_loopback(0);
  EXPECT_GT(a.port(), 0);
  EXPECT_GT(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

TEST(SocketTest, ConnectSendReceive) {
  REQUIRE_LOOPBACK();
  TcpListener listener = TcpListener::bind_loopback(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.port());
  // Accept may need a moment for the non-blocking handshake.
  std::optional<TcpConnection> serverside;
  for (int i = 0; i < 100 && !serverside; ++i) {
    serverside = listener.accept();
    if (!serverside) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(serverside.has_value());
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  // Queue once, then flush until the kernel accepts everything (retrying
  // only the flush, so an in-progress connect cannot duplicate bytes).
  client.queue(payload);
  for (int i = 0; i < 100 && client.flush() == IoStatus::would_block; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::vector<std::uint8_t> received;
  for (int i = 0; i < 200 && received.size() < payload.size(); ++i) {
    serverside->read_available(received);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received, payload);
}

TEST(SocketTest, InvalidAddressThrows) {
  REQUIRE_LOOPBACK();
  EXPECT_THROW(TcpConnection::connect("not-an-ip", 1234), TransportError);
}

TEST(SocketTest, WakePipeWakesAndDrains) {
  // drain() reads 256 bytes at a time and stops after a short read, so a
  // backlog of several full reads must still empty completely.
  for (const int wakes : {2, 1000}) {
    WakePipe pipe;
    for (int i = 0; i < wakes; ++i) pipe.wake();
    std::uint8_t buf[8];
    // After draining, the read end is empty (non-blocking read returns <= 0).
    pipe.drain();
    EXPECT_LE(::read(pipe.read_fd(), buf, sizeof(buf)), 0) << wakes;
  }
}

TEST(ServerTest, ConcurrentStopIsIdempotent) {
  // Regression: stop() used to check running_ with a plain load before
  // joining, so two concurrent callers could both reach thread_.join().
  // The exchange(false) guarantees exactly one caller performs the join;
  // the rest return immediately.
  REQUIRE_LOOPBACK();
  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  ReplicaServer server(std::move(cfg));
  server.start();
  server.write("k", "v");
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_FALSE(server.running());
  server.stop();  // and again after it is already stopped
  EXPECT_FALSE(server.running());
}

TEST(ServerTest, LocalWriteIsReadable) {
  REQUIRE_LOOPBACK();
  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  ReplicaServer server(std::move(cfg));
  server.start();
  server.write("city", "tokyo");
  std::optional<std::string> value;
  for (int i = 0; i < 200 && !value; ++i) {
    value = server.read("city");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "tokyo");
}

TEST(ServerTest, TwoServersSyncViaSessions) {
  REQUIRE_LOOPBACK();
  Rng rng(1);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {1.0, 5.0};
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(0).write("k", "v");
  const bool converged = cluster.wait_for_convergence(10.0);
  const auto value = cluster.server(1).read("k");
  cluster.stop();
  ASSERT_TRUE(converged);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "v");
}

TEST(ServerTest, FiveNodeClusterConvergesWithMultipleWriters) {
  REQUIRE_LOOPBACK();
  Rng rng(2);
  const Graph g = make_ring(5, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {4.0, 6.0, 3.0, 8.0, 7.0};
  cfg.seed = 3;
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(0).write("a", "1");
  cluster.server(2).write("b", "2");
  cluster.server(4).write("c", "3");
  const bool converged = cluster.wait_for_convergence(15.0, 3);
  std::vector<std::optional<std::string>> values;
  for (NodeId n = 0; n < 5; ++n) values.push_back(cluster.server(n).read("a"));
  cluster.stop();
  ASSERT_TRUE(converged);
  for (NodeId n = 0; n < 5; ++n) {
    ASSERT_TRUE(values[n].has_value()) << "node " << n;
    EXPECT_EQ(*values[n], "1");
  }
}

TEST(ServerTest, FastPushBeatsSessionsToHighDemandPeer) {
  REQUIRE_LOOPBACK();
  // Writer with one very-high-demand neighbour: the fast push should land
  // well before the first session period elapses.
  Rng rng(3);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.session_period = 1.0;
  cfg.seconds_per_unit = 0.5;  // one session = 500ms of wall clock
  cfg.demands = {1.0, 100.0};
  LocalCluster cluster(g, cfg);
  cluster.start();
  // Give adverts a moment to prime the demand tables.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto started = std::chrono::steady_clock::now();
  cluster.server(0).write("hot", "content");
  std::optional<std::string> value;
  while (!value &&
         std::chrono::steady_clock::now() - started < std::chrono::seconds(5)) {
    value = cluster.server(1).read("hot");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  const auto stats = cluster.server(0).stats();
  cluster.stop();
  ASSERT_TRUE(value.has_value());
  EXPECT_GE(stats.offers_sent, 1u);
  // Arrived via push (milliseconds), not via a session (>= ~250ms).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            250);
}

TEST(ServerTest, SurvivesPeerRestart) {
  REQUIRE_LOOPBACK();
  // Peer goes away mid-run; the survivor keeps running and re-syncs when a
  // new peer appears at the same port... (we approximate by stopping and
  // asserting the survivor stays healthy and writable).
  ServerConfig a_cfg;
  a_cfg.self = 0;
  a_cfg.protocol = ProtocolConfig::fast();
  a_cfg.seconds_per_unit = 0.02;
  ReplicaServer a(std::move(a_cfg));

  ServerConfig b_cfg;
  b_cfg.self = 1;
  b_cfg.protocol = ProtocolConfig::fast();
  b_cfg.seconds_per_unit = 0.02;
  auto b = std::make_unique<ReplicaServer>(std::move(b_cfg));

  a.set_peers({PeerAddress{1, "127.0.0.1", b->port()}});
  b->set_peers({PeerAddress{0, "127.0.0.1", a.port()}});
  a.start();
  b->start();
  a.write("k1", "v1");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  b->stop();
  b.reset();  // peer gone: sends now fail, server must tolerate it
  a.write("k2", "v2");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(a.read("k2"), "v2");
  EXPECT_TRUE(a.running());
  a.stop();
}

TEST(ClusterTest, DemandVectorSizeValidated) {
  REQUIRE_LOOPBACK();
  Rng rng(4);
  const Graph g = make_line(3, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.demands = {1.0};  // wrong size
  EXPECT_THROW(LocalCluster(g, cfg), ConfigError);
}

// ---------------------------------------------------------------- bind ----

// Regression: bind_loopback used to be the only entry point and hard-bound
// INADDR_LOOPBACK, so the daemon's documented multi-host mesh could never
// accept a non-local peer. A wildcard bind must accept connections.
TEST(SocketTest, NonLoopbackBindAcceptsConnection) {
  REQUIRE_LOOPBACK();
  TcpListener listener = TcpListener::bind("0.0.0.0", 0);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(listener.port(), 0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.port());
  std::optional<TcpConnection> serverside;
  for (int i = 0; i < 100 && !serverside; ++i) {
    serverside = listener.accept();
    if (!serverside) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(serverside.has_value());
}

TEST(SocketTest, BindRejectsInvalidAddress) {
  EXPECT_THROW(TcpListener::bind("not-an-address", 0), TransportError);
  EXPECT_THROW(TcpListener::bind("", 0), TransportError);
}

TEST(ServerTest, WildcardBindServersConverge) {
  REQUIRE_LOOPBACK();
  Rng rng(9);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.bind_address = "0.0.0.0";
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(0).write("k", "v");
  const bool converged = cluster.wait_for_convergence(10.0);
  const auto value = cluster.server(1).read("k");
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(value, "v");
}

// ------------------------------------------------------- empty cluster ----

// Regression: converged() called servers_.front() — UB on a cluster built
// from an empty topology.
TEST(ClusterTest, EmptyTopologyDoesNotCrash) {
  const Graph empty;
  ClusterConfig cfg;
  LocalCluster cluster(empty, cfg);
  cluster.start();
  EXPECT_FALSE(cluster.converged());     // one update required, none exist
  EXPECT_TRUE(cluster.converged(0));     // vacuously consistent
  EXPECT_TRUE(cluster.wait_for_convergence(0.05, 0));
  EXPECT_FALSE(cluster.wait_for_convergence(0.05, 1));
  cluster.stop();
}

// --------------------------------------------------------- backpressure ----

// Regression: flush() erased sent bytes from the front of the outbox —
// O(n^2) under backpressure. Queue multi-MB of frames against a reader
// that is not draining, then drain and check every byte arrives in order.
TEST(SocketTest, BackpressuredOutboxDeliversEverything) {
  REQUIRE_LOOPBACK();
  TcpListener listener = TcpListener::bind_loopback(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.port());
  std::optional<TcpConnection> serverside;
  for (int i = 0; i < 100 && !serverside; ++i) {
    serverside = listener.accept();
    if (!serverside) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(serverside.has_value());

  // 4 MiB in 64 KiB frames of a deterministic byte pattern, sent while
  // nobody reads: the socket buffers fill and the outbox backs up.
  constexpr std::size_t kFrame = 64 * 1024;
  constexpr std::size_t kFrames = 64;
  std::vector<std::uint8_t> frame(kFrame);
  std::size_t sent_index = 0;
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (auto& b : frame) {
      b = static_cast<std::uint8_t>(sent_index * 31 + 7);
      ++sent_index;
    }
    client.queue(frame);
    ASSERT_NE(client.flush(), IoStatus::error);
  }
  EXPECT_GT(client.pending_output_bytes(), 0u)
      << "expected the stalled reader to backpressure the sender";

  // Drain: alternate reads and flushes until everything lands.
  std::vector<std::uint8_t> received;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.size() < kFrame * kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_NE(client.flush(), IoStatus::error);
    ASSERT_NE(serverside->read_available(received), IoStatus::error);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(received.size(), kFrame * kFrames);
  EXPECT_FALSE(client.has_pending_output());
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], static_cast<std::uint8_t>(i * 31 + 7))
        << "corrupt byte at offset " << i;
  }
}

// Accepts the pending half of a loopback connection, waiting for the
// non-blocking handshake.
std::optional<TcpConnection> accept_within(TcpListener& listener) {
  std::optional<TcpConnection> accepted;
  for (int i = 0; i < 200 && !accepted; ++i) {
    accepted = listener.accept();
    if (!accepted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return accepted;
}

// Waits until `fd` is readable (data or EOF), at most one second.
bool wait_readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, 1000) == 1;
}

// A few frames of each shape the live path sends.
std::vector<std::vector<std::uint8_t>> sample_frames(std::size_t count) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    const auto seq = static_cast<SeqNo>(i + 1);
    Message msg;
    switch (i % 4) {
      case 0:
        msg = FastOffer{i, {OfferedId{UpdateId{1, seq}, 0.5}}};
        break;
      case 1:
        msg = FastAck{i, true, {UpdateId{1, seq}}};
        break;
      case 2:
        msg = FastData{i, {Update{UpdateId{1, seq}, 0.5,
                                  "k/" + std::to_string(i), "v"}}};
        break;
      default:
        msg = DemandAdvert{static_cast<double>(i)};
        break;
    }
    frames.push_back(encode_frame(static_cast<NodeId>(i % 3), msg));
  }
  return frames;
}

// Single-pass reads: a short read returns at once, and the EOF queued
// behind the data shows on the next call instead of being probed for.
TEST(SocketTest, ReadAvailableReturnsDataThenClosed) {
  REQUIRE_LOOPBACK();
  TcpListener listener = TcpListener::bind_loopback(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.port());
  std::optional<TcpConnection> serverside = accept_within(listener);
  ASSERT_TRUE(serverside.has_value());

  std::vector<std::uint8_t> sent;
  for (const auto& frame : sample_frames(3)) {
    sent.insert(sent.end(), frame.begin(), frame.end());
    client.queue(frame);
  }
  ASSERT_EQ(client.flush(), IoStatus::ok);
  client.close();

  ASSERT_TRUE(wait_readable(serverside->fd()));
  std::vector<std::uint8_t> received;
  EXPECT_EQ(serverside->read_available(received), IoStatus::ok);
  EXPECT_EQ(received, sent);
  EXPECT_EQ(serverside->read_available(received), IoStatus::closed);
  EXPECT_EQ(received, sent);
}

// The server's per-peer batching: frames queued on one connection leave
// through a single flush() and arrive whole and in order.
TEST(SocketTest, QueuedFramesLeaveInOneFlushAndDecodeInOrder) {
  REQUIRE_LOOPBACK();
  TcpListener listener = TcpListener::bind_loopback(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.port());
  std::optional<TcpConnection> serverside = accept_within(listener);
  ASSERT_TRUE(serverside.has_value());

  const auto frames = sample_frames(32);
  std::size_t total = 0;
  for (const auto& frame : frames) {
    client.queue(frame);
    total += frame.size();
  }
  EXPECT_EQ(client.pending_output_bytes(), total);
  ASSERT_EQ(client.flush(), IoStatus::ok);
  EXPECT_FALSE(client.has_pending_output());

  FrameReader reader;
  std::vector<WireFrame> decoded;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 200 && decoded.size() < frames.size(); ++i) {
    ASSERT_TRUE(wait_readable(serverside->fd()));
    bytes.clear();
    ASSERT_EQ(serverside->read_available(bytes), IoStatus::ok);
    reader.feed(bytes);
    while (auto frame = reader.next()) decoded.push_back(std::move(*frame));
  }
  ASSERT_EQ(decoded.size(), frames.size());
  EXPECT_EQ(reader.buffered(), 0u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(encode_frame(decoded[i].sender, decoded[i].msg), frames[i])
        << "frame " << i;
  }
}

TEST(SocketTest, QueueHoldsBytesUntilFlush) {
  // queue() only stages: nothing reaches the peer until flush(), and the
  // outbox reports exactly what is still owed.
  REQUIRE_LOOPBACK();
  TcpListener listener = TcpListener::bind_loopback(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.port());
  std::optional<TcpConnection> serverside = accept_within(listener);
  ASSERT_TRUE(serverside.has_value());

  const std::vector<std::uint8_t> first{1, 2, 3};
  const std::vector<std::uint8_t> second{4, 5};
  client.queue(first);
  client.queue(second);
  EXPECT_EQ(client.pending_output_bytes(), first.size() + second.size());
  pollfd p{serverside->fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 50), 0) << "queued bytes left before flush()";

  ASSERT_EQ(client.flush(), IoStatus::ok);
  EXPECT_FALSE(client.has_pending_output());
  const std::vector<std::uint8_t> expected{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> received;
  for (int i = 0; i < 200 && received.size() < expected.size(); ++i) {
    ASSERT_TRUE(wait_readable(serverside->fd()));
    ASSERT_EQ(serverside->read_available(received), IoStatus::ok);
  }
  EXPECT_EQ(received, expected);
}

// ----------------------------------------------------------- arg parsing ----

TEST(OptionsTest, ParsePeerAddressValid) {
  const PeerAddress peer = parse_peer_address("3:10.0.0.7:7001");
  EXPECT_EQ(peer.id, 3u);
  EXPECT_EQ(peer.host, "10.0.0.7");
  EXPECT_EQ(peer.port, 7001);
}

// Regression: strtoul without error checking turned "--peer abc:host:port"
// into replica id 0 silently.
TEST(OptionsTest, ParsePeerAddressRejectsMalformedSpecs) {
  EXPECT_THROW(parse_peer_address("abc:127.0.0.1:7001"), ConfigError);
  EXPECT_THROW(parse_peer_address("1x:127.0.0.1:7001"), ConfigError);
  EXPECT_THROW(parse_peer_address("1:127.0.0.1:70x1"), ConfigError);
  EXPECT_THROW(parse_peer_address("1:127.0.0.1:0"), ConfigError);
  EXPECT_THROW(parse_peer_address("1:127.0.0.1:99999"), ConfigError);
  EXPECT_THROW(parse_peer_address("1::7001"), ConfigError);
  EXPECT_THROW(parse_peer_address("1:127.0.0.1"), ConfigError);
  EXPECT_THROW(parse_peer_address("no-colons-at-all"), ConfigError);
  EXPECT_THROW(parse_peer_address(":host:1"), ConfigError);
}

TEST(OptionsTest, ParseDaemonArgsFullCommandLine) {
  DaemonOptions options;
  const auto error = parse_daemon_args(
      {"--id", "2", "--port", "7002", "--bind", "0.0.0.0", "--peer",
       "0:10.0.0.5:7000", "--peer", "1:10.0.0.6:7001", "--demand", "8.5",
       "--algorithm", "weak", "--period-ms", "250", "--write", "k=v",
       "--run-seconds", "3", "--load-writes-per-sec", "100",
       "--load-seconds", "2", "--verbose"},
      options);
  ASSERT_FALSE(error.has_value()) << *error;
  EXPECT_EQ(options.server.self, 2u);
  EXPECT_EQ(options.server.listen_port, 7002);
  EXPECT_EQ(options.server.bind_address, "0.0.0.0");
  ASSERT_EQ(options.server.peers.size(), 2u);
  EXPECT_EQ(options.server.peers[1].host, "10.0.0.6");
  EXPECT_DOUBLE_EQ(options.server.demand, 8.5);
  EXPECT_FALSE(options.server.protocol.fast_push);  // weak preset
  EXPECT_DOUBLE_EQ(options.server.seconds_per_unit, 0.25);
  ASSERT_EQ(options.writes.size(), 1u);
  EXPECT_EQ(options.writes[0].first, "k");
  EXPECT_DOUBLE_EQ(options.run_seconds, 3.0);
  EXPECT_DOUBLE_EQ(options.load_writes_per_sec, 100.0);
  EXPECT_DOUBLE_EQ(options.load_seconds, 2.0);
  EXPECT_TRUE(options.verbose);
}

TEST(OptionsTest, ParseDaemonArgsRejectsBadInput) {
  const auto parse = [](std::vector<std::string> args) {
    DaemonOptions options;
    return parse_daemon_args(args, options);
  };
  EXPECT_TRUE(parse({"--port", "7000"}).has_value());            // missing id
  EXPECT_TRUE(parse({"--id", "0"}).has_value());                 // missing port
  EXPECT_TRUE(parse({"--id", "x", "--port", "1"}).has_value());
  EXPECT_TRUE(parse({"--id", "0", "--port", "x"}).has_value());
  EXPECT_TRUE(parse({"--id", "0", "--port", "1", "--peer",
                     "abc:h:1"}).has_value());
  EXPECT_TRUE(parse({"--id", "0", "--port", "1", "--algorithm",
                     "turbo"}).has_value());
  EXPECT_TRUE(parse({"--id", "0", "--port", "1", "--write",
                     "novalue"}).has_value());
  EXPECT_TRUE(parse({"--id", "0", "--port", "1",
                     "--load-writes-per-sec", "5"}).has_value());
  EXPECT_TRUE(parse({"--id", "0", "--port", "1", "--period-ms",
                     "0"}).has_value());
  EXPECT_TRUE(parse({"--id", "0", "--port", "1", "--bogus"}).has_value());
  EXPECT_EQ(parse({"--help"}), "help");
  EXPECT_FALSE(parse({"--id", "0", "--port", "1"}).has_value());
}

// ------------------------------------------------- lock discipline / IO ----

// Socket work must never run under the engine mutex: with a peer that is
// unreachable (blackhole or refusing), client read() latency has to stay
// bounded by engine compute while the server keeps writing and the
// transport layer churns through connect attempts.
TEST(ServerTest, ReadLatencyBoundedWhilePeerUnreachable) {
  REQUIRE_LOOPBACK();
  // A loopback port with no listener: connects fail fast (ECONNREFUSED).
  const std::uint16_t dead_port = [] {
    const TcpListener probe = TcpListener::bind_loopback(0);
    return probe.port();
  }();  // listener destroyed; port closed

  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.005;  // aggressive timers -> constant send churn
  cfg.reconnect_backoff_min = 0.001;
  ReplicaServer server(std::move(cfg));
  server.set_peers({PeerAddress{1, "127.0.0.1", dead_port}});
  server.start();

  EmpiricalCdf read_ms;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  std::uint64_t i = 0;
  while (std::chrono::steady_clock::now() < until) {
    server.write("key" + std::to_string(i), "v");
    const auto before = std::chrono::steady_clock::now();
    (void)server.read("key" + std::to_string(i));
    read_ms.add(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - before)
                    .count());
    ++i;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const NetStats net = server.net_stats();
  server.stop();
  EXPECT_TRUE(server.running() == false);
  // Generous bound on a robust statistic: reads copy a value under the
  // engine mutex and must never wait on connect/send syscalls to a dead
  // peer. The p95 (not the max) keeps an unlucky scheduler preemption of
  // the *client* thread from failing the test on a loaded CI box.
  ASSERT_GE(read_ms.count(), 20u);
  EXPECT_LT(read_ms.quantile(0.95), 50.0);
  EXPECT_GE(net.connect_attempts, 1u);
  ASSERT_EQ(net.peers.size(), 1u);
  EXPECT_EQ(net.peers[0].peer, 1u);
  EXPECT_FALSE(net.peers[0].connected);
}

// Consecutive connect failures must back the link off (doubling toward the
// max) and drop frames instead of buffering unboundedly.
TEST(ServerTest, BackoffGrowsWhilePeerRefusesConnections) {
  REQUIRE_LOOPBACK();
  const std::uint16_t dead_port = [] {
    const TcpListener probe = TcpListener::bind_loopback(0);
    return probe.port();
  }();

  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.005;
  cfg.reconnect_backoff_min = 0.002;
  cfg.reconnect_backoff_max = 0.5;
  ReplicaServer server(std::move(cfg));
  server.set_peers({PeerAddress{1, "127.0.0.1", dead_port}});
  server.start();

  NetStats net;
  for (int i = 0; i < 200; ++i) {
    server.write(numbered("k", i), "v");
    net = server.net_stats();
    if (net.connect_failures >= 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();
  ASSERT_GE(net.connect_failures, 3u);
  ASSERT_EQ(net.peers.size(), 1u);
  EXPECT_GT(net.peers[0].current_backoff_seconds, 0.002);
  EXPECT_LE(net.peers[0].current_backoff_seconds, 0.5);
  EXPECT_GE(net.frames_dropped, 1u);
}

// After a peer restarts at the same address, the link must reconnect and
// the fresh inbound connection must decode frames from a clean boundary
// (each connection gets its own FrameReader).
TEST(ServerTest, ReconnectsAfterPeerRestartAndResyncs) {
  REQUIRE_LOOPBACK();
  ServerConfig a_cfg;
  a_cfg.self = 0;
  a_cfg.protocol = ProtocolConfig::fast();
  a_cfg.seconds_per_unit = 0.02;
  a_cfg.reconnect_backoff_min = 0.005;
  ReplicaServer a(std::move(a_cfg));

  const auto make_b = [&a] {
    ServerConfig b_cfg;
    b_cfg.self = 1;
    b_cfg.protocol = ProtocolConfig::fast();
    b_cfg.seconds_per_unit = 0.02;
    auto b = std::make_unique<ReplicaServer>(std::move(b_cfg));
    b->set_peers({PeerAddress{0, "127.0.0.1", a.port()}});
    return b;
  };

  auto b = make_b();
  const std::uint16_t b_port = b->port();
  a.set_peers({PeerAddress{1, "127.0.0.1", b_port}});
  a.start();
  b->start();
  a.write("before", "restart");
  // Wait until b holds the first write.
  for (int i = 0; i < 500 && !b->read("before"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(b->read("before").has_value());

  b->stop();
  b.reset();
  // Let a notice: sends fail, the link cycles through failures.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // New process at the same port (fresh engine, fresh frame reader).
  ServerConfig b2_cfg;
  b2_cfg.self = 1;
  b2_cfg.protocol = ProtocolConfig::fast();
  b2_cfg.seconds_per_unit = 0.02;
  b2_cfg.listen_port = b_port;
  auto b2 = std::make_unique<ReplicaServer>(std::move(b2_cfg));
  b2->set_peers({PeerAddress{0, "127.0.0.1", a.port()}});
  b2->start();

  a.write("after", "restart");
  std::optional<std::string> before;
  std::optional<std::string> after;
  for (int i = 0; i < 1000 && (!before || !after); ++i) {
    before = b2->read("before");
    after = b2->read("after");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const NetStats net = a.net_stats();
  b2->stop();
  a.stop();
  // The restarted peer recovered the old write (anti-entropy) and saw the
  // new one; a's link survived the disconnect/reconnect cycle.
  EXPECT_EQ(before, "restart");
  EXPECT_EQ(after, "restart");
  EXPECT_GE(net.connect_attempts, 2u);
}

TEST(ServerTest, NetStatsCountTraffic) {
  REQUIRE_LOOPBACK();
  Rng rng(12);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(0).write("k", "v");
  ASSERT_TRUE(cluster.wait_for_convergence(10.0));
  // Let at least one full session round-trip accumulate counters on both
  // sides.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const NetStats n0 = cluster.server(0).net_stats();
  const NetStats n1 = cluster.server(1).net_stats();
  cluster.stop();
  EXPECT_GT(n0.frames_sent, 0u);
  EXPECT_GT(n0.bytes_sent, 0u);
  EXPECT_GT(n1.frames_received, 0u);
  EXPECT_GT(n1.bytes_received, 0u);
  EXPECT_GE(n1.inbound_accepted, 1u);
  EXPECT_EQ(n0.codec_errors, 0u);
  ASSERT_EQ(n0.peers.size(), 1u);
  EXPECT_TRUE(n0.peers[0].connected);
  EXPECT_EQ(n0.peers[0].peer, 1u);
}

TEST(ServerTest, RestartResetsInboundAndLinkCountersTogether) {
  REQUIRE_LOOPBACK();
  // Timers off (no adverts, no sessions in test time), so traffic flows
  // only when the test causes it and a restarted cluster stays silent.
  Rng rng(13);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.0;
  cfg.protocol.session_period = 1e9;
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {1.0, 9.0};
  LocalCluster cluster(g, cfg);
  cluster.start();
  // Prime node 0's demand table with an advert "from" node 1 over a test
  // connection, so a write fast-pushes: link counters on both nodes, and
  // inbound counters from the test connection and the peer.
  {
    TcpConnection prime =
        TcpConnection::connect("127.0.0.1", cluster.server(0).port());
    prime.queue(encode_frame(1, Message{DemandAdvert{100.0}}));
    for (int i = 0; i < 200 && prime.flush() == IoStatus::would_block; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (int i = 0; i < 2000 && cluster.server(0).net_stats().frames_received == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  cluster.server(0).write("k", "v");
  const bool converged = cluster.wait_for_convergence(10.0, 1);
  const NetStats before0 = cluster.server(0).net_stats();
  const NetStats before1 = cluster.server(1).net_stats();
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_GT(before0.frames_sent, 0u);
  EXPECT_GT(before0.frames_received, 0u);
  EXPECT_GT(before0.inbound_accepted, 0u);
  EXPECT_GT(before1.frames_sent, 0u);
  EXPECT_GT(before1.frames_received, 0u);

  cluster.start();
  const NetStats after0 = cluster.server(0).net_stats();
  const NetStats after1 = cluster.server(1).net_stats();
  cluster.stop();
  for (const NetStats& after : {after0, after1}) {
    EXPECT_EQ(after.frames_sent, 0u);
    EXPECT_EQ(after.bytes_sent, 0u);
    EXPECT_EQ(after.frames_dropped, 0u);
    EXPECT_EQ(after.bytes_abandoned, 0u);
    EXPECT_EQ(after.connect_attempts, 0u);
    EXPECT_EQ(after.connect_failures, 0u);
    EXPECT_EQ(after.disconnects, 0u);
    EXPECT_EQ(after.frames_received, 0u);
    EXPECT_EQ(after.bytes_received, 0u);
    EXPECT_EQ(after.inbound_accepted, 0u);
    EXPECT_EQ(after.inbound_closed, 0u);
    EXPECT_EQ(after.codec_errors, 0u);
    ASSERT_EQ(after.peers.size(), 1u);
    const PeerNetStats& peer = after.peers[0];
    EXPECT_EQ(peer.frames_sent, 0u);
    EXPECT_EQ(peer.bytes_sent, 0u);
    EXPECT_EQ(peer.frames_dropped, 0u);
    EXPECT_EQ(peer.bytes_abandoned, 0u);
    EXPECT_EQ(peer.connect_attempts, 0u);
    EXPECT_EQ(peer.connect_failures, 0u);
    EXPECT_EQ(peer.disconnects, 0u);
    EXPECT_EQ(peer.frames_shed, 0u);
  }
}

// What one snapshot must satisfy on its own: the totals are the sum over
// `peers`, and `peers` is sorted by id. Returns the first violation.
std::string net_stats_violation(const NetStats& s) {
  NetStats sum;
  for (const PeerNetStats& p : s.peers) {
    sum.frames_sent += p.frames_sent;
    sum.bytes_sent += p.bytes_sent;
    sum.frames_dropped += p.frames_dropped;
    sum.bytes_abandoned += p.bytes_abandoned;
    sum.connect_attempts += p.connect_attempts;
    sum.connect_failures += p.connect_failures;
    sum.disconnects += p.disconnects;
  }
  if (sum.frames_sent != s.frames_sent || sum.bytes_sent != s.bytes_sent ||
      sum.frames_dropped != s.frames_dropped ||
      sum.bytes_abandoned != s.bytes_abandoned ||
      sum.connect_attempts != s.connect_attempts ||
      sum.connect_failures != s.connect_failures ||
      sum.disconnects != s.disconnects) {
    return "totals differ from the sum over peers";
  }
  for (std::size_t i = 1; i < s.peers.size(); ++i) {
    if (s.peers[i - 1].peer >= s.peers[i].peer) return "peers not sorted by id";
  }
  return {};
}

// Every NetStats field that only grows within one start(), flattened.
std::vector<std::uint64_t> growing_counters(const NetStats& s) {
  std::vector<std::uint64_t> c{
      s.frames_sent,      s.bytes_sent,       s.frames_dropped,
      s.bytes_abandoned,  s.connect_attempts, s.connect_failures,
      s.disconnects,      s.frames_received,  s.bytes_received,
      s.inbound_accepted, s.inbound_closed,   s.codec_errors};
  for (const PeerNetStats& p : s.peers) {
    c.insert(c.end(), {p.frames_sent, p.bytes_sent, p.frames_dropped,
                       p.bytes_abandoned, p.connect_attempts,
                       p.connect_failures, p.disconnects, p.frames_shed});
  }
  return c;
}

// net_stats() reads the loop thread's own link records without a lock.
// Two readers poll all three servers of a 0-1-2 line while it carries
// load and node 2 is killed and restarted; every snapshot must be
// self-consistent, and no counter may go down between one reader's
// successive snapshots of the same server object.
TEST(ServerTest, NetStatsConsistentUnderConcurrentReads) {
  REQUIRE_LOOPBACK();
  Rng rng(47);
  const Graph g = make_line(3, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.health.enabled = true;  // net_stats() also reads the engine
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {1.0, 5.0, 9.0};
  LocalCluster cluster(g, cfg);
  cluster.start();

  // Nodes 0 and 1 live throughout. Node 2 is read under `node2_mutex` so
  // the main thread can retire it before kill(); `node2_life` tells the
  // readers a restarted server's counters begin again at zero.
  const std::array<const ReplicaServer*, 2> survivors{&cluster.server(0),
                                                      &cluster.server(1)};
  std::mutex node2_mutex;
  const ReplicaServer* node2 = &cluster.server(2);
  int node2_life = 0;
  std::atomic<bool> done{false};

  const auto reader = [&](std::string& failure, std::uint64_t& snapshots) {
    std::array<std::vector<std::uint64_t>, 2> last_survivor;
    std::vector<std::uint64_t> last_node2;
    int last_life = -1;
    const auto check = [&](const NetStats& s,
                           std::vector<std::uint64_t>& last) {
      ++snapshots;
      if (!failure.empty()) return;
      failure = net_stats_violation(s);
      std::vector<std::uint64_t> now = growing_counters(s);
      if (failure.empty() && !last.empty()) {
        for (std::size_t i = 0; i < now.size(); ++i) {
          if (now[i] < last[i]) failure = "counter went down";
        }
      }
      last = std::move(now);
    };
    while (!done.load()) {
      for (std::size_t i = 0; i < survivors.size(); ++i) {
        check(survivors[i]->net_stats(), last_survivor[i]);
      }
      {
        const std::lock_guard<std::mutex> lock(node2_mutex);
        if (node2 != nullptr) {
          if (node2_life != last_life) last_node2.clear();
          last_life = node2_life;
          check(node2->net_stats(), last_node2);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  std::array<std::string, 2> failures;
  std::array<std::uint64_t, 2> snapshots{};
  std::thread r0(reader, std::ref(failures[0]), std::ref(snapshots[0]));
  std::thread r1(reader, std::ref(failures[1]), std::ref(snapshots[1]));

  const LoadReport before = cluster.run_load(0, 200.0, 0.3, 10.0);
  {
    const std::lock_guard<std::mutex> lock(node2_mutex);
    node2 = nullptr;
  }
  cluster.kill(2);
  // Node 1's link to the dead node fails and backs off meanwhile.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  cluster.restart(2);
  {
    const std::lock_guard<std::mutex> lock(node2_mutex);
    node2 = &cluster.server(2);
    ++node2_life;
  }
  const LoadReport after = cluster.run_load(1, 200.0, 0.3, 15.0);
  done.store(true);
  r0.join();
  r1.join();
  const NetStats n1 = cluster.server(1).net_stats();
  cluster.stop();

  EXPECT_EQ(before.writes_confirmed, before.writes_issued);
  EXPECT_EQ(after.writes_confirmed, after.writes_issued);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i], "") << "reader " << i;
    EXPECT_GT(snapshots[i], 0u) << "reader " << i;
  }
  ASSERT_EQ(n1.peers.size(), 2u);
  EXPECT_GE(n1.peers[1].disconnects, 1u);  // the kill reached the reader's view
}

// Coalesced wakes: write() and set_demand() wake the loop only when they
// make the command queue non-empty. Four clients race each other and a
// reader that takes engine_mutex_ in a tight loop. The timers are days
// away, so an idle loop sleeps in poll for its full 50 ms cap: a lost wake
// shows as a burst whose last write waits out that cap instead of landing
// at once. Keys cycle over a small set so the engine's per-write cost stays
// flat (and small under sanitizers); every write has a distinct value.
TEST(ServerTest, CoalescedWakesLoseNoWrite) {
  REQUIRE_LOOPBACK();
  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 1e5;
  ReplicaServer server(std::move(cfg));
  server.start();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) server.read("c0/0");
  });

  constexpr int kClients = 4;
  constexpr int kWrites = 2000;
  constexpr int kBurst = 100;
  constexpr int kKeys = 64;
  const auto key_of = [](int client, int i) {
    return numbered(numbered("c", client) + "/", i % kKeys);
  };
  std::vector<std::vector<double>> burst_ms(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &burst_ms, &key_of, c] {
      for (int i = 0; i < kWrites; ++i) {
        server.write(key_of(c, i), std::to_string(i));
        if (i % 7 == 0) {
          server.set_demand(static_cast<double>(c * kWrites + i));
        }
        if ((i + 1) % kBurst != 0) continue;
        // The burst's last write must become readable with no later write
        // of this client to wake the loop for it.
        const auto t0 = std::chrono::steady_clock::now();
        while (server.read(key_of(c, i)) != std::to_string(i) &&
               std::chrono::steady_clock::now() - t0 <
                   std::chrono::seconds(10)) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        burst_ms[c].push_back(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every write was applied (one update each) and every key holds the
  // value of its client's last write to it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.summary().total() < std::uint64_t{kClients * kWrites} &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(server.summary().total(), std::uint64_t{kClients * kWrites});
  for (int c = 0; c < kClients; ++c) {
    for (int i = kWrites - kKeys; i < kWrites; ++i) {
      EXPECT_EQ(server.read(key_of(c, i)), std::to_string(i)) << key_of(c, i);
    }
  }
  server.stop();

  // A typical burst lands well inside one poll cap.
  EmpiricalCdf waits;
  for (const auto& per_client : burst_ms) {
    for (const double ms : per_client) waits.add(ms);
  }
  ASSERT_EQ(waits.count(),
            static_cast<std::size_t>(kClients * kWrites / kBurst));
  EXPECT_LT(waits.quantile(0.5), 25.0);
}

// ------------------------------------------------------------- run_load ----

TEST(ClusterTest, RunLoadReportsThroughputAndVisibility) {
  REQUIRE_LOOPBACK();
  Rng rng(21);
  const Graph g = make_line(3, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {1.0, 5.0, 9.0};
  LocalCluster cluster(g, cfg);
  cluster.start();
  const LoadReport report = cluster.run_load(0, 100.0, 0.4, 20.0);
  cluster.stop();
  EXPECT_GT(report.writes_issued, 10u);
  EXPECT_EQ(report.writes_confirmed, report.writes_issued);
  EXPECT_GT(report.achieved_writes_per_sec, 0.0);
  EXPECT_GT(report.issue_seconds, 0.0);
  ASSERT_EQ(report.visibility_latency_ms.count(), report.writes_confirmed);
  EXPECT_GT(report.visibility_latency_ms.quantile(0.5), 0.0);
  EXPECT_GE(report.visibility_latency_ms.quantile(0.99),
            report.visibility_latency_ms.quantile(0.5));
}

TEST(ClusterTest, RunLoadValidatesArguments) {
  REQUIRE_LOOPBACK();
  Rng rng(22);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.seconds_per_unit = 0.02;
  LocalCluster cluster(g, cfg);
  cluster.start();
  EXPECT_THROW(cluster.run_load(0, 0.0, 1.0), ConfigError);
  EXPECT_THROW(cluster.run_load(0, 10.0, 0.0), ConfigError);
  cluster.stop();
}

// ----------------------------------------------------------- fault hooks ----
// Live mirror of the simulator's FaultPlan: kill/restart a server (crash
// with state wipe — live state is in-memory only) and drop outbound frames
// through the transport shim. The TSan CI leg runs the crash/restart test
// specifically, so keep its name stable.

TEST(ClusterTest, KillRestartRecoversAcknowledgedWrites) {
  REQUIRE_LOOPBACK();
  Rng rng(31);
  const Graph g = make_ring(3, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {2.0, 5.0, 3.0};
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(0).write("before", "crash");
  ASSERT_TRUE(cluster.wait_for_convergence(10.0));

  cluster.kill(1);
  EXPECT_FALSE(cluster.alive(1));
  // A write acknowledged while the node is down must reach it after the
  // restart all the same.
  cluster.server(0).write("during", "crash");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  cluster.restart(1);
  EXPECT_TRUE(cluster.alive(1));
  // The reborn node starts empty (a live crash is always a wipe) and must
  // anti-entropy both writes back from its peers.
  const bool converged = cluster.wait_for_convergence(15.0, 2);
  const auto before = cluster.server(1).read("before");
  const auto during = cluster.server(1).read("during");
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(before, "crash");
  EXPECT_EQ(during, "crash");
}

TEST(ClusterTest, RunLoadConfirmsOnLiveNodesWhileOneIsKilled) {
  REQUIRE_LOOPBACK();
  // A killed replica cannot confirm anything; run_load must wait for the
  // replicas that exist, as converged() does, not dereference the dead one.
  Rng rng(32);
  const Graph g = make_line(3, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {1.0, 5.0, 9.0};
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.kill(2);
  const LoadReport report = cluster.run_load(0, 100.0, 0.1, 10.0);
  cluster.stop();
  EXPECT_GT(report.writes_issued, 0u);
  EXPECT_EQ(report.writes_confirmed, report.writes_issued);
  EXPECT_EQ(report.visibility_latency_ms.count(), report.writes_confirmed);
}

// ------------------------------------------------------- durable clusters ----
// Crash-consistency over real sockets and a real data directory: a durable
// node killed mid-burst must come back with its pre-crash state from
// checkpoint + WAL and end byte-equal (kv digest) with a surviving peer.

namespace fsys = std::filesystem;

/// Scratch directory in the build tree, wiped on both ends of the test.
struct DurableScratch {
  explicit DurableScratch(const std::string& name)
      : path(fsys::path("net-test-durable-scratch") / name) {
    fsys::remove_all(path);
    fsys::create_directories(path);
  }
  ~DurableScratch() { fsys::remove_all(path); }
  fsys::path path;
};

TEST(ClusterTest, DurableKillRestartRecoversFromDiskMidBurst) {
  REQUIRE_LOOPBACK();
  const DurableScratch scratch("mid-burst");
  Rng rng(33);
  const Graph g = make_line(3, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {5.0, 2.0, 4.0};
  cfg.durability_dir = scratch.path.string();
  cfg.checkpoint_every = 0;  // pure WAL: recovery must replay every record
  LocalCluster cluster(g, cfg);
  cluster.start();

  // A write burst through the soon-to-die node; kill it mid-stream.
  for (int i = 0; i < 20; ++i) {
    cluster.server(1).write("burst/" + std::to_string(i), "v");
  }
  ASSERT_TRUE(cluster.wait_for_convergence(10.0, 20));
  for (int i = 20; i < 30; ++i) {
    cluster.server(1).write("burst/" + std::to_string(i), "v");
  }
  cluster.kill(1);
  // A write acknowledged elsewhere while the node is down. write() only
  // enqueues — wait until node 0 has applied it, or the convergence check
  // below could be satisfied by a pre-write state that omits it.
  cluster.server(0).write("while-down", "w");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (!cluster.server(0).read("while-down").has_value()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  cluster.restart(1, RestartMode::recover);
  const RecoveryInfo& rec = cluster.server(1).recovery_info();
  EXPECT_TRUE(rec.attempted);
  EXPECT_TRUE(rec.recovered_from_disk);
  // Everything durably logged before the kill is back WITHOUT a resync:
  // at minimum the 20 converged writes (the burst tail may or may not have
  // hit the log before the crash — that window is what anti-entropy fills).
  EXPECT_GE(rec.restored_updates, 20u);
  EXPECT_GE(rec.wal_records, 20u);

  // The burst tail was buried in node 1's command queue at kill time and
  // died with it; only updates that reached another replica (or the WAL)
  // can exist afterwards. Converge on what survived and compare digests.
  std::uint64_t survivors = cluster.server(0).summary().total();
  survivors = std::max(survivors, cluster.server(1).summary().total());
  const bool converged = cluster.wait_for_convergence(15.0, survivors);
  const std::uint64_t victim_digest = cluster.server(1).kv_digest();
  const std::uint64_t peer_digest = cluster.server(0).kv_digest();
  const auto recovered = cluster.server(1).read("burst/0");
  const auto while_down = cluster.server(1).read("while-down");
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(victim_digest, peer_digest);
  EXPECT_EQ(recovered, "v");
  EXPECT_EQ(while_down, "w");
}

TEST(ClusterTest, RestartModePinsRecoverVersusWipe) {
  // Pins the LocalCluster::restart contract both ways: recover reloads the
  // durable directory, wipe deletes it and comes back empty (the
  // pre-durability behaviour, kept as the full-resync control).
  REQUIRE_LOOPBACK();
  const DurableScratch scratch("restart-mode");
  Rng rng(34);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {1.0, 2.0};
  cfg.durability_dir = scratch.path.string();
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(1).write("k", "v");
  ASSERT_TRUE(cluster.wait_for_convergence(10.0));

  cluster.kill(1);
  cluster.restart(1, RestartMode::recover);
  EXPECT_TRUE(cluster.server(1).recovery_info().recovered_from_disk);
  EXPECT_EQ(cluster.server(1).recovery_info().restored_updates, 1u);
  EXPECT_EQ(cluster.server(1).read("k"), "v");  // no peer help needed

  cluster.kill(1);
  cluster.restart(1, RestartMode::wipe);
  const RecoveryInfo& wiped = cluster.server(1).recovery_info();
  EXPECT_TRUE(wiped.attempted);
  EXPECT_FALSE(wiped.recovered_from_disk);
  EXPECT_EQ(wiped.restored_updates, 0u);
  // Empty after the wipe, repopulated only by anti-entropy.
  const bool converged = cluster.wait_for_convergence(15.0);
  const auto value = cluster.server(1).read("k");
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(value, "v");
}

// A restart that loses a node's state keeps its origin write counter: the
// reborn node must not reissue the id of a write its peers still hold,
// whether anti-entropy has already handed that write back or not.

TEST(ClusterTest, WipeRestartedNodeWritesAfterResync) {
  REQUIRE_LOOPBACK();
  Rng rng(35);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {2.0, 1.0};
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(1).write("old", "1");
  ASSERT_TRUE(cluster.wait_for_convergence(10.0, 1));

  cluster.kill(1);
  cluster.restart(1);
  // Anti-entropy gives the reborn node its own old write back first.
  ASSERT_TRUE(cluster.wait_for_convergence(15.0, 1));
  cluster.server(1).write("new", "2");
  const bool converged = cluster.wait_for_convergence(15.0, 2);
  const auto at_peer = cluster.server(0).read("new");
  const std::uint64_t peer_digest = cluster.server(0).kv_digest();
  const std::uint64_t reborn_digest = cluster.server(1).kv_digest();
  const SeqNo write_seq = cluster.server(1).write_seq();
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(at_peer, "2");
  EXPECT_EQ(peer_digest, reborn_digest);
  EXPECT_EQ(write_seq, 2u);
}

TEST(ClusterTest, WipeRestartedNodeWritesBeforeResync) {
  REQUIRE_LOOPBACK();
  Rng rng(36);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  // Node 0's frames are held back until the reborn node has written, so
  // its old write cannot come back first.
  auto mute_peer = std::make_shared<std::atomic<bool>>(false);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {2.0, 1.0};
  cfg.outbound_fault = [mute_peer](NodeId from, NodeId) {
    return from == 0 && mute_peer->load();
  };
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(1).write("old", "1");
  ASSERT_TRUE(cluster.wait_for_convergence(10.0, 1));

  mute_peer->store(true);
  cluster.kill(1);
  cluster.restart(1);
  cluster.server(1).write("new", "2");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cluster.server(1).read("new").has_value()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(cluster.server(1).read("old").has_value());
  mute_peer->store(false);

  const bool converged = cluster.wait_for_convergence(15.0, 2);
  const auto new_at_peer = cluster.server(0).read("new");
  const auto old_at_reborn = cluster.server(1).read("old");
  const std::uint64_t peer_digest = cluster.server(0).kv_digest();
  const std::uint64_t reborn_digest = cluster.server(1).kv_digest();
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(new_at_peer, "2");
  EXPECT_EQ(old_at_reborn, "1");
  EXPECT_EQ(peer_digest, reborn_digest);
}

TEST(ClusterTest, OutboundFaultShimDropsAndRecovers) {
  REQUIRE_LOOPBACK();
  Rng rng(32);
  const Graph g = make_line(2, {0.0, 0.0}, rng);
  auto drop_all = std::make_shared<std::atomic<bool>>(true);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.02;
  cfg.demands = {1.0, 5.0};
  cfg.outbound_fault = [drop_all](NodeId, NodeId) { return drop_all->load(); };
  LocalCluster cluster(g, cfg);
  cluster.start();
  cluster.server(0).write("k", "v");
  // With every frame dropped on both servers, nothing can spread.
  EXPECT_FALSE(cluster.wait_for_convergence(0.4));
  const NetStats lossy = cluster.server(0).net_stats();
  EXPECT_GT(lossy.frames_dropped, 0u);
  EXPECT_FALSE(cluster.server(1).read("k").has_value());

  drop_all->store(false);  // the network heals
  const bool converged = cluster.wait_for_convergence(10.0);
  const auto value = cluster.server(1).read("k");
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(value, "v");
}

// ------------------------------------------------ peer health & jitter ----

// Two servers with different seeds retrying the same dead port must settle
// on different backoff waits: decorrelated jitter decorrelates the retry
// storm a deterministic doubling schedule would synchronize.
TEST(ServerTest, ReconnectBackoffSchedulesDiverge) {
  REQUIRE_LOOPBACK();
  const std::uint16_t dead_port = [] {
    const TcpListener probe = TcpListener::bind_loopback(0);
    return probe.port();
  }();

  auto make_server = [&](NodeId self, std::uint64_t seed) {
    ServerConfig cfg;
    cfg.self = self;
    cfg.protocol = ProtocolConfig::fast();
    cfg.seconds_per_unit = 0.005;
    cfg.reconnect_backoff_min = 0.002;
    cfg.reconnect_backoff_max = 0.5;
    cfg.seed = seed;
    auto server = std::make_unique<ReplicaServer>(std::move(cfg));
    server->set_peers({PeerAddress{9, "127.0.0.1", dead_port}});
    return server;
  };
  const auto a = make_server(0, 1);
  const auto b = make_server(1, 2);
  a->start();
  b->start();

  NetStats na, nb;
  for (int i = 0; i < 400; ++i) {
    a->write(numbered("k", i), "v");
    b->write(numbered("k", i), "v");
    na = a->net_stats();
    nb = b->net_stats();
    if (na.connect_failures >= 4 && nb.connect_failures >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  a->stop();
  b->stop();
  ASSERT_GE(na.connect_failures, 4u);
  ASSERT_GE(nb.connect_failures, 4u);
  ASSERT_EQ(na.peers.size(), 1u);
  ASSERT_EQ(nb.peers.size(), 1u);
  // Both grew past the floor and stayed under the cap...
  EXPECT_GT(na.peers[0].current_backoff_seconds, 0.002);
  EXPECT_GT(nb.peers[0].current_backoff_seconds, 0.002);
  EXPECT_LE(na.peers[0].current_backoff_seconds, 0.5);
  EXPECT_LE(nb.peers[0].current_backoff_seconds, 0.5);
  // ...but on different schedules: each draw is uniform over a widening
  // interval from a per-server seeded stream, so two servers agreeing to
  // the last bit would need a 1-in-2^52 collision.
  EXPECT_NE(na.peers[0].current_backoff_seconds,
            nb.peers[0].current_backoff_seconds);
}

// Graceful stop writes a final checkpoint, so the next start recovers from
// the checkpoint alone: zero WAL records to replay (satellite pin for the
// clean-shutdown path; LocalCluster::kill keeps exercising real replay).
TEST(ServerTest, GracefulStopRecoversWithZeroWalReplay) {
  REQUIRE_LOOPBACK();
  const DurableScratch scratch("graceful-stop");
  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.005;
  cfg.durability.dir = (scratch.path / "node-0").string();
  cfg.durability.checkpoint_every = 1000;  // far beyond this test's writes

  {
    ReplicaServer server(cfg);
    server.start();
    for (int i = 0; i < 20; ++i) {
      server.write(numbered("k", i), numbered("v", i));
    }
    // Wait until the writes are applied (and thus WAL-bound).
    for (int i = 0; i < 400 && !server.read("k19").has_value(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(server.read("k19").has_value());
    server.stop();  // graceful: flush + final checkpoint
  }

  ReplicaServer reborn(cfg);
  reborn.start();
  const RecoveryInfo& rec = reborn.recovery_info();
  EXPECT_TRUE(rec.recovered_from_disk);
  EXPECT_TRUE(rec.had_checkpoint);
  EXPECT_EQ(rec.wal_records, 0u);  // the checkpoint already covers everything
  EXPECT_EQ(rec.restored_updates, 20u);
  EXPECT_EQ(reborn.read("k7"), "v7");
  reborn.stop();
}

// Reads `conn` until the peer closes it or `deadline_ms` passes; returns the
// last read status.
IoStatus read_until_closed(TcpConnection& conn, int deadline_ms) {
  std::vector<std::uint8_t> bytes;
  IoStatus status = IoStatus::would_block;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (status != IoStatus::closed && status != IoStatus::error &&
         std::chrono::steady_clock::now() < deadline) {
    status = conn.read_available(bytes);
    if (status == IoStatus::would_block) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return status;
}

// stop() closes every connection: an accepted inbound one and the outbound
// link to a peer both read EOF while the stopped server still exists.
TEST(ServerTest, StopClosesPeerConnections) {
  REQUIRE_LOOPBACK();
  TcpListener peer = TcpListener::bind_loopback(0);
  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.25;  // adverts open the outbound link
  cfg.seconds_per_unit = 0.005;
  ReplicaServer server(std::move(cfg));
  server.set_peers({PeerAddress{1, "127.0.0.1", peer.port()}});
  server.start();
  std::optional<TcpConnection> outbound = accept_within(peer);
  ASSERT_TRUE(outbound.has_value());
  TcpConnection inbound = TcpConnection::connect("127.0.0.1", server.port());
  for (int i = 0; i < 400 && server.net_stats().inbound_accepted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.net_stats().inbound_accepted, 1u);

  server.stop();
  EXPECT_EQ(read_until_closed(inbound, 2000), IoStatus::closed);
  EXPECT_EQ(read_until_closed(*outbound, 2000), IoStatus::closed);
  EXPECT_FALSE(server.net_stats().peers[0].connected);
}

// Live health lifecycle: kill -> peers mark the node suspect then down ->
// restart -> first contact re-promotes it and demand pushes resume.
TEST(ClusterTest, KilledPeerTurnsSuspectAndRepromotesOnRestart) {
  REQUIRE_LOOPBACK();
  Rng rng(35);
  const Graph g = make_ring(3, {0.0, 0.0}, rng);
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.25;
  cfg.protocol.health.enabled = true;
  cfg.seconds_per_unit = 0.005;
  cfg.demands = {1.0, 2.0, 50.0};  // node 2 is everyone's push target
  LocalCluster cluster(g, cfg);
  cluster.start();
  ASSERT_TRUE(cluster.wait_for_peer_health(10.0));

  cluster.kill(2);
  // Node 0 must degrade its view of peer 2 on silence alone (suspect at
  // 1.5 units = 7.5ms here, down at 4). Poll health introspection, not
  // sleeps.
  PeerHealth seen = PeerHealth::up;
  for (int i = 0; i < 2000 && seen != PeerHealth::down; ++i) {
    for (const PeerNetStats& peer : cluster.server(0).net_stats().peers) {
      if (peer.peer == 2 && peer.health > seen) {
        seen = peer.health;
        if (seen >= PeerHealth::suspect) {
          EXPECT_GT(peer.health_suspect_since_units, 0.0);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(seen, PeerHealth::down);

  cluster.restart(2);
  // Health introspection replaces fixed post-restart sleeps: the advert
  // channel is not health-gated, so the reborn node's first advert
  // re-promotes it everywhere.
  EXPECT_TRUE(cluster.wait_for_peer_health(10.0));
  EXPECT_TRUE(cluster.all_peers_up());

  // Demand pushes resume toward the re-promoted peer: a fresh write must
  // reach node 2 again.
  cluster.server(0).write("after-revival", "yes");
  const bool converged = cluster.wait_for_convergence(10.0);
  const auto read_back = cluster.server(2).read("after-revival");
  cluster.stop();
  ASSERT_TRUE(converged);
  EXPECT_EQ(read_back, "yes");
}

// SIGTERM against a real durable fastconsd process must shut down
// gracefully: exit 0, WAL flushed, final checkpoint written — so the next
// start replays zero WAL records (the satellite-2 end-to-end pin; the
// in-process half is GracefulStopRecoversWithZeroWalReplay above).
#ifdef FASTCONS_FASTCONSD_BIN
TEST(DaemonTest, SigtermShutsDownGracefullyWithFinalCheckpoint) {
  REQUIRE_LOOPBACK();
  const DurableScratch scratch("fastconsd-sigterm");
  const std::string data_dir = (scratch.path / "node-0").string();
  const std::string port = [] {
    const TcpListener probe = TcpListener::bind_loopback(0);
    return std::to_string(probe.port());
  }();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: a writing durable daemon that would run for a minute if the
    // signal did not stop it first.
    execl(FASTCONS_FASTCONSD_BIN, FASTCONS_FASTCONSD_BIN, "--id", "0",
          "--port", port.c_str(), "--data-dir", data_dir.c_str(),
          "--period-ms", "50", "--run-seconds", "60", "--write", "stable=yes",
          "--write", "k2=v2", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Wait until the daemon has applied its startup writes to disk: the WAL
  // file appears once the first record is group-committed.
  const fsys::path wal = fsys::path(data_dir) / "wal.log";
  bool wal_written = false;
  for (int i = 0; i < 1000; ++i) {
    std::error_code ec;
    if (fsys::exists(wal, ec) && fsys::file_size(wal, ec) > 0) {
      wal_written = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(wal_written) << "daemon never wrote its WAL";

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "daemon did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Recover in-process from the daemon's directory: the final checkpoint
  // must cover everything, leaving nothing in the WAL to replay.
  ServerConfig cfg;
  cfg.self = 0;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seconds_per_unit = 0.005;
  cfg.durability.dir = data_dir;
  ReplicaServer reborn(std::move(cfg));
  reborn.start();
  const RecoveryInfo& rec = reborn.recovery_info();
  EXPECT_TRUE(rec.recovered_from_disk);
  EXPECT_TRUE(rec.had_checkpoint);
  EXPECT_EQ(rec.wal_records, 0u);
  EXPECT_EQ(reborn.read("stable"), "yes");
  EXPECT_EQ(reborn.read("k2"), "v2");
  reborn.stop();
}
#endif  // FASTCONS_FASTCONSD_BIN

// A short chaos soak is part of tier-1: seeded nemesis over a durable
// cluster with continuous invariant checks (net/soak.hpp). CI runs the
// long version via fastcons_soak; this pins the harness itself.
TEST(SoakTest, ShortSoakPassesAllInvariants) {
  REQUIRE_LOOPBACK();
  const DurableScratch scratch("soak-smoke");
  SoakConfig config;
  config.nodes = 4;
  config.seed = 11;
  config.duration_seconds = 1.5;
  config.seconds_per_unit = 0.01;
  config.write_rate = 40.0;
  config.nemesis_period_seconds = 0.2;
  config.data_dir = scratch.path.string();
  config.quiesce_timeout_seconds = 20.0;
  const SoakReport report = run_soak(config);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "soak violation: " << violation;
  }
  EXPECT_TRUE(report.all_peers_up);
  EXPECT_TRUE(report.converged);
  EXPECT_TRUE(report.digests_agree);
  EXPECT_GT(report.writes_issued, 0u);
  EXPECT_GT(report.checks, 0u);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace fastcons
