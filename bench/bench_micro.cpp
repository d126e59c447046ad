// Experiment E11 — substrate microbenchmarks (google-benchmark): the data
// structures and hot paths everything else stands on.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "core/policy.hpp"
#include "demand/demand_model.hpp"
#include "demand/demand_table.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "replication/summary_vector.hpp"
#include "replication/write_log.hpp"
#include "sim/simulator.hpp"
#include "sim_runtime/sim_network.hpp"
#include "topology/generators.hpp"
#include "topology/metrics.hpp"

namespace {

using namespace fastcons;

SummaryVector make_summary(std::size_t updates, Rng& rng) {
  SummaryVector sv;
  for (std::size_t i = 0; i < updates; ++i) {
    sv.add(UpdateId{static_cast<NodeId>(rng.index(16)),
                    rng.uniform_u64(1, updates)});
  }
  return sv;
}

void BM_SummaryVectorAdd(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    SummaryVector sv;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      sv.add(UpdateId{static_cast<NodeId>(i % 8),
                      static_cast<SeqNo>(i / 8 + 1)});
    }
    benchmark::DoNotOptimize(sv);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SummaryVectorAdd)->Arg(64)->Arg(1024);

void BM_SummaryVectorMerge(benchmark::State& state) {
  Rng rng(2);
  const SummaryVector a = make_summary(static_cast<std::size_t>(state.range(0)), rng);
  const SummaryVector b = make_summary(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    SummaryVector merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_SummaryVectorMerge)->Arg(16)->Arg(256)->Arg(4096);

/// A summary with one contiguous prefix per origin — the shape summaries
/// converge to, and the shape every anti-entropy message carries.
SummaryVector make_watermark_summary(std::size_t origins, SeqNo depth) {
  SummaryVector sv;
  for (NodeId origin = 0; origin < origins; ++origin) {
    for (SeqNo s = 1; s <= depth; ++s) sv.add(UpdateId{origin, s});
  }
  return sv;
}

void BM_SummaryVectorMergeWide(benchmark::State& state) {
  // merge() across many origins (64/512/4096): the session hot path on a
  // converged network, where both sides are pure watermark vectors.
  const auto origins = static_cast<std::size_t>(state.range(0));
  const SummaryVector mine = make_watermark_summary(origins, 4);
  const SummaryVector theirs = make_watermark_summary(origins, 5);
  for (auto _ : state) {
    SummaryVector merged = mine;
    merged.merge(theirs);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(origins));
}
BENCHMARK(BM_SummaryVectorMergeWide)->Arg(64)->Arg(512)->Arg(4096);

void BM_SummaryVectorMissingFrom(benchmark::State& state) {
  // Step 7/10 of every session: diff two summaries that differ in one seq
  // per origin, at 64/512/4096 origins.
  const auto origins = static_cast<std::size_t>(state.range(0));
  const SummaryVector mine = make_watermark_summary(origins, 5);
  const SummaryVector theirs = make_watermark_summary(origins, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mine.missing_from(theirs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(origins));
}
BENCHMARK(BM_SummaryVectorMissingFrom)->Arg(64)->Arg(512)->Arg(4096);

void BM_SummaryVectorCovers(benchmark::State& state) {
  const auto origins = static_cast<std::size_t>(state.range(0));
  const SummaryVector big = make_watermark_summary(origins, 5);
  const SummaryVector small = make_watermark_summary(origins, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.covers(small));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(origins));
}
BENCHMARK(BM_SummaryVectorCovers)->Arg(64)->Arg(512)->Arg(4096);

void BM_WriteLogUpdatesFor(benchmark::State& state) {
  Rng rng(3);
  WriteLog log;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    log.apply(Update{UpdateId{static_cast<NodeId>(i % 8),
                              static_cast<SeqNo>(i / 8 + 1)},
                     0.0, "key", "value"});
  }
  const SummaryVector half = make_summary(static_cast<std::size_t>(state.range(0) / 2), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.updates_for(half));
  }
}
BENCHMARK(BM_WriteLogUpdatesFor)->Arg(128)->Arg(2048);

void BM_WriteLogNewKeys(benchmark::State& state) {
  // A burst of writes to new keys, named k/<i> so they arrive out of
  // lexicographic order: the start of every live-saturate cluster epoch.
  // Each new key must cost O(log n), not a move of the whole map.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Update> updates;
  updates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    updates.push_back(Update{UpdateId{0, static_cast<SeqNo>(i + 1)},
                             static_cast<double>(i), "k/" + std::to_string(i),
                             "v"});
  }
  for (auto _ : state) {
    WriteLog log;
    for (const Update& u : updates) log.apply(u);
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WriteLogNewKeys)->Arg(16384);

void BM_PartnerChoose(benchmark::State& state, PartnerSelection selection) {
  // One session's partner pick over a table of state.range(0) neighbours:
  // once per session timer in every simulated trial. Must not allocate.
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<NodeId> neighbours(n);
  for (std::size_t i = 0; i < n; ++i) neighbours[i] = static_cast<NodeId>(i);
  DemandTable table(neighbours);
  for (const NodeId peer : neighbours) {
    table.set_demand(table.slot_of(peer), rng.uniform(0.0, 100.0));
  }
  const std::unique_ptr<PartnerPolicy> policy = make_policy(selection);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->choose(table, 0.0, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PartnerChoose, random, PartnerSelection::uniform_random)
    ->Arg(8)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_PartnerChoose, demand, PartnerSelection::demand_dynamic)
    ->Arg(8)
    ->Arg(64);

void BM_DemandTableUpdate(benchmark::State& state) {
  // Every message the engine handles resolves its sender to a slot once
  // (the table's one peer-keyed search); a DemandAdvert then writes that
  // slot's row. Must stay near O(1) in the neighbour count (it was a
  // linear scan once; the Args show the scaling).
  Rng rng(7);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<NodeId> neighbours(n);
  for (std::size_t i = 0; i < n; ++i) neighbours[i] = static_cast<NodeId>(i);
  DemandTable table(neighbours);
  std::vector<NodeId> probe(1024);
  for (auto& p : probe) p = static_cast<NodeId>(rng.index(n));
  double demand = 0.0;
  for (auto _ : state) {
    for (const NodeId peer : probe) {
      demand += 1e-6;
      table.set_demand(table.slot_of(peer), demand);
    }
    benchmark::DoNotOptimize(table.row(0).demand);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probe.size()));
}
BENCHMARK(BM_DemandTableUpdate)->Arg(8)->Arg(256)->Arg(4096);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventChurn)->Arg(1000)->Arg(10000);

void BM_SimulatorDeliveryPayload(benchmark::State& state) {
  // Events that carry a protocol message in their closure, like
  // SimNetwork::dispatch schedules: the capture must stay within EventFn's
  // inline buffer or every simulated message costs an allocation.
  Rng rng(8);
  SessionPush payload;
  payload.session_id = 9;
  payload.summary = make_summary(32, rng);
  payload.updates.push_back(
      Update{UpdateId{1, 1}, 0.25, "key", std::string(32, 'v')});
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t seen = 0;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      sim.schedule_at(static_cast<double>(i % 97),
                      [msg = Message{payload}, &seen]() mutable {
                        seen += std::get<SessionPush>(msg).updates.size();
                      });
    }
    sim.run();
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorDeliveryPayload)->Arg(1000);

void BM_SimulatorSessionShape(benchmark::State& state) {
  // The heap shape of a ba-1024 trial: 1024 self-rescheduling session
  // timers with exponential gaps, each firing four message deliveries of
  // 0.01-0.05 time units that carry a Message, so about 128 messages are in
  // flight beside the timers. items_per_second counts executed events.
  struct Shape {
    Simulator sim;
    Rng rng{13};
    std::uint64_t delivered = 0;

    void tick(NodeId node) {
      for (std::uint64_t i = 0; i < 4; ++i) {
        sim.schedule_in(rng.uniform(0.01, 0.05),
                        [this, msg = Message{SessionRequest{i}}]() mutable {
                          delivered += std::get<SessionRequest>(msg).session_id;
                        });
      }
      sim.schedule_in(rng.exponential(1.0), [this, node] { tick(node); });
    }
  };
  Shape shape;
  for (NodeId node = 0; node < 1024; ++node) {
    shape.sim.schedule_at(shape.rng.exponential(1.0),
                          [&shape, node] { shape.tick(node); });
  }
  shape.sim.run_until(2.0);  // reach the steady in-flight count
  const std::uint64_t before = shape.sim.events_executed();
  for (auto _ : state) {
    shape.sim.run_until(shape.sim.now() + 0.1);
  }
  benchmark::DoNotOptimize(shape.delivered);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(shape.sim.events_executed() - before));
}
BENCHMARK(BM_SimulatorSessionShape);

void BM_SimulatorPopPushRandom(benchmark::State& state) {
  // The case that punishes a branchy sift most: about 1150 pending events
  // (a ba-1024 trial's count), each rescheduling itself a uniformly random
  // time ahead, so every step pops the least key and pushes a random one
  // and each least-of-four pick is a coin flip. Uniform keys are a
  // synthetic worst case, not a measured model of a trial's traffic. One
  // iteration is one event.
  struct Churn {
    Simulator sim;
    Rng rng{29};

    void fire() {
      sim.schedule_in(rng.uniform(0.0, 1.0), [this] { fire(); });
    }
  };
  Churn churn;
  for (int i = 0; i < 1150; ++i) {
    churn.sim.schedule_at(churn.rng.uniform(0.0, 1.0),
                          [&churn] { churn.fire(); });
  }
  for (auto _ : state) benchmark::DoNotOptimize(churn.sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorPopPushRandom);

void BM_BarabasiAlbertGeneration(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_barabasi_albert(
        static_cast<std::size_t>(state.range(0)), 2, {0.01, 0.05}, rng));
  }
}
BENCHMARK(BM_BarabasiAlbertGeneration)->Arg(100)->Arg(1000);

void BM_DiameterBfs(benchmark::State& state) {
  Rng rng(5);
  const Graph g = make_barabasi_albert(
      static_cast<std::size_t>(state.range(0)), 2, {0.01, 0.05}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diameter(g));
  }
}
BENCHMARK(BM_DiameterBfs)->Arg(100)->Arg(400);

void BM_SessionHandshake(benchmark::State& state) {
  // Full 4-message anti-entropy exchange between two engines with
  // state.range(0) updates of skew.
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.advert_period = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    ReplicaEngine a(0, {1}, cfg, 1);
    ReplicaEngine b(1, {0}, cfg, 2);
    a.prime_neighbour_demand(1, 1.0, 0.0);
    b.prime_neighbour_demand(0, 1.0, 0.0);
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      a.local_write(numbered("k", i), "v", 0.0);
    }
    state.ResumeTiming();
    auto m1 = a.on_session_timer(0.0);
    auto m2 = b.handle(0, m1[0].msg, 0.0);
    auto m3 = a.handle(1, m2[0].msg, 0.0);
    auto m4 = b.handle(0, m3[0].msg, 0.0);
    auto m5 = a.handle(1, m4[0].msg, 0.0);
    benchmark::DoNotOptimize(m5);
  }
}
BENCHMARK(BM_SessionHandshake)->Arg(1)->Arg(64);

void BM_WireEncodeDecodePush(benchmark::State& state) {
  Rng rng(6);
  SessionPush msg;
  msg.session_id = 7;
  msg.summary = make_summary(64, rng);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    msg.updates.push_back(Update{UpdateId{1, static_cast<SeqNo>(i + 1)}, 0.5,
                                 "key-" + std::to_string(i),
                                 std::string(64, 'x')});
  }
  const Message m{msg};
  for (auto _ : state) {
    const auto frame = encode_frame(3, m);
    benchmark::DoNotOptimize(decode_body(std::span(frame).subspan(4)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(encode_frame(3, m).size()));
}
BENCHMARK(BM_WireEncodeDecodePush)->Arg(1)->Arg(64);

/// One end of a connected loopback TCP pair plus the accepted other end.
struct LoopbackPair {
  TcpConnection sender;
  TcpConnection receiver;
};

std::optional<LoopbackPair> make_loopback_pair() {
  try {
    TcpListener listener = TcpListener::bind_loopback(0);
    LoopbackPair pair;
    pair.sender = TcpConnection::connect("127.0.0.1", listener.port());
    for (int i = 0; i < 200; ++i) {
      if (auto accepted = listener.accept()) {
        pair.receiver = std::move(*accepted);
        return pair;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  } catch (const TransportError&) {
  }
  return std::nullopt;
}

/// Sends a turn's worth of frames (16 frames of 45 B, the live path's mean
/// frame size) from one end of a loopback pair and reads them at the other.
/// `batched` queues all 16 and flushes once, as ReplicaServer does per peer
/// per loop turn; otherwise each frame is flushed on its own, one send(2)
/// per frame. The receive side costs the same in both: the bytes are in the
/// socket buffer before it reads, so one recv takes them all.
void run_loopback_flush(benchmark::State& state, bool batched) {
  std::optional<LoopbackPair> pair = make_loopback_pair();
  if (!pair) {
    state.SkipWithError("loopback networking unavailable");
    return;
  }
  constexpr std::size_t kFrames = 16;
  constexpr std::size_t kFrameBytes = 45;
  Rng rng(11);
  std::vector<std::uint8_t> frame(kFrameBytes);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.index(256));
  std::vector<std::uint8_t> received;
  received.reserve(kFrames * kFrameBytes);
  for (auto _ : state) {
    for (std::size_t f = 0; f < kFrames; ++f) {
      pair->sender.queue(frame);
      if (!batched && pair->sender.flush() == IoStatus::error) {
        state.SkipWithError("send failed");
        return;
      }
    }
    while (pair->sender.flush() == IoStatus::would_block) {
    }
    received.clear();
    while (received.size() < kFrames * kFrameBytes) {
      if (pair->receiver.read_available(received) == IoStatus::error) {
        state.SkipWithError("recv failed");
        return;
      }
    }
    benchmark::DoNotOptimize(received.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFrames));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFrames * kFrameBytes));
}

void BM_LoopbackFlushPerFrame(benchmark::State& state) {
  run_loopback_flush(state, /*batched=*/false);
}
BENCHMARK(BM_LoopbackFlushPerFrame);

void BM_LoopbackFlushBatched(benchmark::State& state) {
  run_loopback_flush(state, /*batched=*/true);
}
BENCHMARK(BM_LoopbackFlushBatched);

void BM_FastPushChain(benchmark::State& state) {
  // Offer/ack/data across a demand gradient line of engines.
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.advert_period = 0.0;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<ReplicaEngine>> engines;
    for (NodeId i = 0; i < n; ++i) {
      std::vector<NodeId> neighbours;
      if (i > 0) neighbours.push_back(i - 1);
      if (i + 1 < n) neighbours.push_back(i + 1);
      engines.push_back(
          std::make_unique<ReplicaEngine>(i, neighbours, cfg, i + 1));
      engines.back()->set_own_demand(static_cast<double>(i));
      if (i > 0) {
        engines.back()->prime_neighbour_demand(i - 1, static_cast<double>(i - 1), 0.0);
        engines[i - 1]->prime_neighbour_demand(i, static_cast<double>(i), 0.0);
      }
    }
    state.ResumeTiming();
    std::vector<std::pair<NodeId, Outbound>> queue;
    for (auto& out : engines[0]->local_write("k", "v", 0.0)) {
      queue.emplace_back(0, std::move(out));
    }
    while (!queue.empty()) {
      auto [from, out] = std::move(queue.back());
      queue.pop_back();
      for (auto& next : engines[out.to]->handle(from, out.msg, 0.0)) {
        queue.emplace_back(out.to, std::move(next));
      }
    }
    benchmark::DoNotOptimize(engines.back()->summary());
  }
}
BENCHMARK(BM_FastPushChain)->Arg(8)->Arg(64);

void BM_SimNetworkEventsPerSec(benchmark::State& state) {
  // End-to-end simulated events/sec: a 100-node BA network running the fast
  // protocol for 10 session periods after one write. items_per_second is
  // the headline number docs/performance.md tracks.
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(11);
    Graph graph = make_barabasi_albert(100, 2, {0.01, 0.05}, rng);
    auto demand = std::make_shared<StaticDemand>(
        make_uniform_random_demand(graph.size(), 1.0, 9.0, rng));
    SimConfig cfg;
    cfg.protocol = ProtocolConfig::fast();
    cfg.protocol.advert_period = 0.0;
    cfg.seed = rng.next_u64();
    SimNetwork net(std::move(graph), std::move(demand), cfg);
    net.schedule_write(0, "key", "value", 0.5);
    state.ResumeTiming();
    net.run_until(10.0);
    events += net.events_executed();
    benchmark::DoNotOptimize(net.total_stats().updates_applied);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimNetworkEventsPerSec);

void BM_SimNetworkEventsPerSecReset(benchmark::State& state) {
  // The reset-path twin of BM_SimNetworkEventsPerSec: the network is
  // acquired from a pool (rewired, not rebuilt, between iterations),
  // exactly how harness workers run scenario trials. Construction sits in
  // the paused region of both benchmarks, so the items/sec delta isolates
  // the reset path's effect on event execution itself (reused slab and
  // vector storage staying cache-warm); the construction tax itself is
  // what BM_TrialConstructionFresh/Pooled measure.
  std::uint64_t events = 0;
  SimNetworkPool pool;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(11);
    Graph graph = make_barabasi_albert(100, 2, {0.01, 0.05}, rng);
    auto demand = std::make_shared<StaticDemand>(
        make_uniform_random_demand(graph.size(), 1.0, 9.0, rng));
    SimConfig cfg;
    cfg.protocol = ProtocolConfig::fast();
    cfg.protocol.advert_period = 0.0;
    cfg.seed = rng.next_u64();
    SimNetwork& net = pool.acquire(std::move(graph), std::move(demand), cfg);
    net.schedule_write(0, "key", "value", 0.5);
    state.ResumeTiming();
    net.run_until(10.0);
    events += net.events_executed();
    benchmark::DoNotOptimize(net.total_stats().updates_applied);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimNetworkEventsPerSecReset);

void BM_TrialConstructionFresh(benchmark::State& state) {
  // The per-trial construction tax at 16/100/1024 nodes: BA topology,
  // uniform demand, full SimNetwork wiring — everything a propagation
  // trial builds before its first event, constructed from scratch the way
  // trials did before context pooling.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  for (auto _ : state) {
    Graph graph = make_barabasi_albert(n, 2, {0.01, 0.05}, rng);
    auto demand = std::make_shared<StaticDemand>(
        make_uniform_random_demand(n, 0.0, 100.0, rng));
    SimConfig cfg;
    cfg.protocol = ProtocolConfig::fast();
    cfg.protocol.advert_period = 0.0;
    cfg.seed = rng.next_u64();
    SimNetwork net(std::move(graph), std::move(demand), cfg);
    benchmark::DoNotOptimize(net.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TrialConstructionFresh)->Arg(16)->Arg(100)->Arg(1024);

void BM_TrialConstructionPooled(benchmark::State& state) {
  // Same construction work through a pooled network: topology and demand
  // are still built per iteration (random per trial, as in the fig5/fig6
  // sweeps), but engines/simulator/tracker storage is rewired in place.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  SimNetworkPool pool;
  for (auto _ : state) {
    Graph graph = make_barabasi_albert(n, 2, {0.01, 0.05}, rng);
    auto demand = std::make_shared<StaticDemand>(
        make_uniform_random_demand(n, 0.0, 100.0, rng));
    SimConfig cfg;
    cfg.protocol = ProtocolConfig::fast();
    cfg.protocol.advert_period = 0.0;
    cfg.seed = rng.next_u64();
    SimNetwork& net = pool.acquire(std::move(graph), std::move(demand), cfg);
    benchmark::DoNotOptimize(net.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TrialConstructionPooled)->Arg(16)->Arg(100)->Arg(1024);

void BM_TrialConstructionPooledShared(benchmark::State& state) {
  // The deterministic-topology fast path: the graph is built once and
  // shared immutably across iterations, so per-trial construction is just
  // the demand model plus the rewire — the floor the harness reaches on
  // shared-topology sweep points (fig3, the large-scale grids).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  const auto graph = std::make_shared<const Graph>(
      make_barabasi_albert(n, 2, {0.01, 0.05}, rng));
  SimNetworkPool pool;
  for (auto _ : state) {
    auto demand = std::make_shared<StaticDemand>(
        make_uniform_random_demand(n, 0.0, 100.0, rng));
    SimConfig cfg;
    cfg.protocol = ProtocolConfig::fast();
    cfg.protocol.advert_period = 0.0;
    cfg.seed = rng.next_u64();
    SimNetwork& net = pool.acquire(graph, std::move(demand), cfg);
    benchmark::DoNotOptimize(net.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TrialConstructionPooledShared)->Arg(16)->Arg(100)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
