// Sharded event-loop tests (DESIGN.md §16): the parallel runner must
// produce the SAME wire bytes as the sequential loop — not statistically
// close, byte-identical — across shard counts, seeds, loss, and crash
// schedules.  Plus the failure modes: the lookahead-violation abort
// (an unsound horizon must die loudly, not corrupt the digest) and
// cross-shard handoffs that grow a wheel's outbox, counted and still in
// key order.  Direct cross-shard EventLoop::schedule_routed calls from
// node callbacks take the same outbox handoff as frames.  Control and
// shard events that tie at one tick run in the same order at every
// shard count, control first.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "sim/switch_node.hpp"
#include "sim/topology.hpp"
#include "core/cluster.hpp"

namespace objrpc {
namespace {

class SinkHost : public NetworkNode {
 public:
  SinkHost(Network& net, NodeId id, std::string name)
      : NetworkNode(net, id, std::move(name)) {}
  void on_packet(PortId, Packet pkt) override {
    ++delivered;
    bytes += pkt.data.size();
  }
  void transmit(PortId port, Packet pkt) { send(port, std::move(pkt)); }
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  // Relay ledger (direct schedule_routed test): written only by events
  // that execute as this host, so only on its own shard.
  std::uint64_t ledger = 0;
  std::uint64_t hops = 0;
};

/// Exact-match destination routing over a small leaf-spine (8 leaves so
/// an 8-shard plan gets a non-trivial partition).
struct TestFabric {
  Network net;
  LeafSpineTopology topo;
};

struct FabricOpts {
  double loss_rate = 0.0;
  bool crash_spine = false;
  SimDuration horizon_override = 0;
  bool arm_tracer = false;
  bool attach_tap = false;         // order-sensitive tap digest
  bool snapshot_each_epoch = false;
};

constexpr std::uint32_t kPackets = 200;

void build_test_fabric(TestFabric& f, const FabricOpts& o) {
  LeafSpineParams params;
  params.spines = 4;
  params.leaves = 8;
  params.hosts_per_leaf = 4;
  params.fabric_link.loss_rate = o.loss_rate;
  params.host_link.loss_rate = o.loss_rate;
  SwitchConfig scfg;
  scfg.key_bits = 64;
  f.topo = build_leaf_spine(
      f.net, params,
      [&](const std::string& n) {
        return f.net.add_node<SwitchNode>(n, scfg).id();
      },
      [&](const std::string& n) { return f.net.add_node<SinkHost>(n).id(); });
  auto extractor = [](const Packet& pkt) -> std::optional<ParsedKey> {
    if (pkt.data.size() < 8) return std::nullopt;
    std::uint64_t dst = 0;
    for (int i = 0; i < 8; ++i) {
      dst |= std::uint64_t{pkt.data[static_cast<std::size_t>(i)]} << (8 * i);
    }
    return ParsedKey(U128{0, dst}, false);
  };
  for (std::uint32_t s = 0; s < params.spines; ++s) {
    auto& sw = static_cast<SwitchNode&>(f.net.node(f.topo.spines[s]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < f.topo.host_count(); ++h) {
      sw.table().insert(U128{0, h}, Action::forward_to(static_cast<PortId>(
                                        h / params.hosts_per_leaf)));
    }
  }
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    auto& sw = static_cast<SwitchNode&>(f.net.node(f.topo.leaves[l]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < f.topo.host_count(); ++h) {
      const auto leaf_of =
          static_cast<std::uint32_t>(h / params.hosts_per_leaf);
      const PortId out =
          leaf_of == l
              ? static_cast<PortId>(params.spines + h % params.hosts_per_leaf)
              : static_cast<PortId>(h % params.spines);
      sw.table().insert(U128{0, h}, Action::forward_to(out));
    }
  }
}

struct RunResult {
  std::uint64_t digest = 0;
  std::uint64_t digest_events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t overflow = 0;
  std::uint64_t cross_frames = 0;
  std::uint32_t shards = 0;
  bool concurrent = false;  // the runner drove at least one BSP epoch
  std::uint64_t epochs = 0;
  std::uint64_t tap_digest = 0;
  std::uint64_t tap_events = 0;
  std::uint64_t pool_acquires = 0;  // payload_pool() fresh + reused
  std::string trace_json;
  std::vector<std::uint64_t> epoch_frames;  // barrier-hook snapshots
  bool operator==(const RunResult&) const = default;
};

/// One step of the order-sensitive folds below.
std::uint64_t relay_mix(std::uint64_t a, std::uint64_t b) {
  a ^= b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2);
  return a;
}

/// Hash of one tap observation: endpoints, size and every payload byte.
std::uint64_t tap_hash(NodeId from, NodeId to, const Packet& pkt) {
  std::uint64_t h = relay_mix(relay_mix(relay_mix(0, from), to),
                              pkt.data.size());
  for (std::uint8_t b : pkt.data) h = relay_mix(h, b);
  return h;
}

RunResult run_fabric(std::uint64_t seed, std::uint32_t shards,
                     const FabricOpts& o = {}) {
  RunResult r;
  TestFabric f{Network(seed), {}};
  build_test_fabric(f, o);
  if (o.arm_tracer) f.net.tracer().arm();
  if (o.attach_tap) {
    // The tap contract (sim/network.hpp): hash the frame inline on the
    // delivering lane, journal only the fold.  The fold is order-
    // sensitive, so if the journal's order differs from the 1-shard
    // run's delivery order by even one swap, the digests diverge.
    Network& net = f.net;
    f.net.add_tap([&r, &net](NodeId from, NodeId to, const Packet& pkt) {
      const std::uint64_t h = tap_hash(from, to, pkt);
      net.observer_journal().run_or_defer([&r, h] {
        r.tap_digest = relay_mix(r.tap_digest, h);
        ++r.tap_events;
      });
    });
  }
  if (shards > 1) {
    f.net.enable_sharding(ShardPlan::leaf_spine(f.net, f.topo, shards));
  }
  if (ShardRunner* run = f.net.runner()) {
    if (o.horizon_override != 0) {
      run->set_horizon_override_for_test(o.horizon_override);
    }
  }
  if (o.snapshot_each_epoch) {
    // Mid-run metrics reads at every epoch barrier: the SHARD_LANED
    // counters must merge coherently while workers are parked.
    f.net.set_barrier_hook([&r, &f] {
      const auto snap = f.net.metrics().snapshot();
      for (const auto& [name, v] : snap.counters) {
        if (name == "net/frames_delivered") r.epoch_frames.push_back(v);
      }
    });
  }
  f.net.arm_wire_digest();
  if (o.crash_spine) {
    f.net.schedule_crash(f.topo.spines[1], 40 * kMicrosecond);
    f.net.schedule_revive(f.topo.spines[1], 140 * kMicrosecond);
  }
  Rng workload(seed ^ 0xBEEF);
  const std::uint64_t n = f.topo.host_count();
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    const auto src = static_cast<std::uint32_t>(workload.next_below(n));
    std::uint64_t dst = workload.next_below(n - 1);
    if (dst >= src) ++dst;
    Packet pkt;
    pkt.data.assign(64 + workload.next_below(600), 0x5A);
    for (int b = 0; b < 8; ++b) {
      pkt.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(dst >> (8 * b));
    }
    const SimTime at = (i / 4) * kMicrosecond + workload.next_below(999);
    auto* host = static_cast<SinkHost*>(&f.net.node(f.topo.hosts[src]));
    f.net.schedule_on(f.topo.hosts[src], at,
                      [host, pkt = std::move(pkt)]() mutable {
                        host->transmit(0, std::move(pkt));
                      });
  }
  f.net.loop().run();
  r.digest = f.net.wire_digest();
  r.digest_events = f.net.wire_digest_events();
  r.shards = f.net.shard_count();
  const BufferPool::Stats pool = f.net.payload_pool().stats();
  r.pool_acquires = pool.fresh + pool.reused;
  for (NodeId h : f.topo.hosts) {
    r.delivered += static_cast<const SinkHost&>(f.net.node(h)).delivered;
  }
  if (const ShardRunner* runner = f.net.runner()) {
    r.overflow = runner->overflow_count();
    r.cross_frames = runner->cross_frames();
    r.epochs = runner->epochs();
    r.concurrent = r.epochs > 0;
  }
  if (o.arm_tracer) r.trace_json = f.net.tracer().chrome_trace_json();
  return r;
}

// --- digest identity --------------------------------------------------------

class ShardDigest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDigest, CleanRunByteIdentical) {
  const RunResult base = run_fabric(GetParam(), 1);
  EXPECT_EQ(base.delivered, kPackets);
  EXPECT_GT(base.digest_events, 0u);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards);
    EXPECT_EQ(p.shards, shards);
    EXPECT_EQ(p.digest, base.digest) << shards << " shards, seed "
                                     << GetParam();
    EXPECT_EQ(p.digest_events, base.digest_events);
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

TEST_P(ShardDigest, LossyRunByteIdentical) {
  FabricOpts lossy;
  lossy.loss_rate = 0.1;
  const RunResult base = run_fabric(GetParam(), 1, lossy);
  EXPECT_LT(base.delivered, kPackets);  // loss must actually bite
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards, lossy);
    EXPECT_EQ(p.digest, base.digest) << shards << " shards, seed "
                                     << GetParam();
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

TEST_P(ShardDigest, CrashScheduleByteIdentical) {
  FabricOpts chaos;
  chaos.loss_rate = 0.05;
  chaos.crash_spine = true;
  const RunResult base = run_fabric(GetParam(), 1, chaos);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards, chaos);
    EXPECT_EQ(p.digest, base.digest) << shards << " shards, seed "
                                     << GetParam();
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDigest,
                         ::testing::Values(3, 17, 1234));

// --- armed observers stay concurrent (DESIGN.md §17) ------------------------

/// Tracer + tap armed on the parallel driver: each observer journals
/// its own records per shard, and the barrier replays them in
/// canonical key order.  The trace file, the tap's order-sensitive fold,
/// and the wire digest must all be byte-identical to the 1-shard armed
/// run — while the run really executes concurrently.
class ShardArmed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardArmed, TracerAndTapByteIdenticalWhileConcurrent) {
  FabricOpts armed;
  armed.arm_tracer = true;
  armed.attach_tap = true;
  const RunResult base = run_fabric(GetParam(), 1, armed);
  EXPECT_FALSE(base.concurrent);
  EXPECT_GT(base.tap_events, 0u);
  ASSERT_FALSE(base.trace_json.empty());
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards, armed);
    EXPECT_EQ(p.shards, shards);
    // The whole point: observers armed AND the parallel driver engaged.
    EXPECT_TRUE(p.concurrent) << shards << " shards";
    EXPECT_GT(p.epochs, 0u) << shards << " shards";
    EXPECT_EQ(p.digest, base.digest) << shards << " shards";
    EXPECT_EQ(p.tap_events, base.tap_events) << shards << " shards";
    EXPECT_EQ(p.tap_digest, base.tap_digest) << shards << " shards";
    EXPECT_EQ(p.trace_json, base.trace_json) << shards << " shards";
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

TEST_P(ShardArmed, TracerOnlyByteIdentical) {
  FabricOpts armed;
  armed.arm_tracer = true;
  const RunResult base = run_fabric(GetParam(), 1, armed);
  for (std::uint32_t shards : {2u, 4u}) {
    const RunResult p = run_fabric(GetParam(), shards, armed);
    EXPECT_TRUE(p.concurrent);
    EXPECT_EQ(p.digest, base.digest);
    EXPECT_EQ(p.trace_json, base.trace_json) << shards << " shards";
  }
}

TEST_P(ShardArmed, TapOnlyByteIdentical) {
  FabricOpts armed;
  armed.attach_tap = true;
  const RunResult base = run_fabric(GetParam(), 1, armed);
  for (std::uint32_t shards : {2u, 4u}) {
    const RunResult p = run_fabric(GetParam(), shards, armed);
    EXPECT_TRUE(p.concurrent);
    EXPECT_EQ(p.digest, base.digest);
    EXPECT_EQ(p.tap_digest, base.tap_digest) << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardArmed, ::testing::Values(3, 17, 1234));

TEST(ShardArmedTest, LossAndCrashWithObserversByteIdentical) {
  FabricOpts chaos;
  chaos.loss_rate = 0.05;
  chaos.crash_spine = true;
  chaos.arm_tracer = true;
  chaos.attach_tap = true;
  const RunResult base = run_fabric(17, 1, chaos);
  const RunResult p = run_fabric(17, 4, chaos);
  EXPECT_TRUE(p.concurrent);
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.tap_digest, base.tap_digest);
  EXPECT_EQ(p.trace_json, base.trace_json);
}

TEST(ShardArmedTest, RingOverflowWithObserversByteIdentical) {
  // overflow_count() (shard/ring_overflow) counts the handoffs that had
  // to grow a wheel's outbox.  Every outbox starts empty, so the first
  // handoffs of a run must grow it, never more often than there are
  // handoffs, and growing changes nothing about order — the digest,
  // deliveries, tap fold and trace match the 1-shard run.
  FabricOpts armed;
  armed.arm_tracer = true;
  armed.attach_tap = true;
  const RunResult base = run_fabric(11, 1, armed);
  const RunResult p = run_fabric(11, 4, armed);
  EXPECT_TRUE(p.concurrent);
  EXPECT_GT(p.overflow, 0u);
  EXPECT_LE(p.overflow, p.cross_frames);
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.delivered, base.delivered);
  EXPECT_EQ(p.tap_events, base.tap_events);
  EXPECT_EQ(p.tap_digest, base.tap_digest);
  EXPECT_EQ(p.trace_json, base.trace_json);
}

TEST(ShardArmedTest, TapCopiesNoPayload) {
  // Taps run inline on the delivering lane at every shard count, so an
  // attached tap acquires no payload buffer: the pool serves exactly
  // the acquires of the untapped run.
  FabricOpts tapped;
  tapped.attach_tap = true;
  const RunResult bare = run_fabric(17, 4);
  const RunResult p = run_fabric(17, 4, tapped);
  EXPECT_TRUE(p.concurrent);
  EXPECT_GT(p.tap_events, 0u);
  EXPECT_EQ(p.pool_acquires, bare.pool_acquires);
  EXPECT_EQ(p.digest, bare.digest);
}

// --- mid-run metrics snapshots ----------------------------------------------

TEST(ShardMetrics, SnapshotAtEveryEpochBarrierIsCoherent) {
  // snapshot() during a 4-shard run: taken at the barrier (workers
  // parked), SHARD_LANED counters merged.  frames_delivered must be
  // monotone across epochs and land exactly on the 1-shard total.
  const RunResult base = run_fabric(13, 1);
  FabricOpts snap;
  snap.snapshot_each_epoch = true;
  const RunResult p = run_fabric(13, 4, snap);
  EXPECT_TRUE(p.concurrent);
  EXPECT_GT(p.epoch_frames.size(), 4u) << "hook saw too few epochs";
  std::uint64_t prev = 0;
  for (std::uint64_t v : p.epoch_frames) {
    EXPECT_GE(v, prev) << "frames_delivered went backwards mid-run";
    prev = v;
  }
  EXPECT_GT(prev, 0u);
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.delivered, base.delivered);
}

// --- direct cross-shard schedule_routed ------------------------------------

struct RelayRun {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::vector<std::uint64_t> ledgers;
  std::vector<std::uint64_t> hops;
  std::uint64_t cross_frames = 0;
  bool concurrent = false;
};

/// One hop of a relay that crosses shards WITHOUT a frame.  It runs as
/// host `idx`, folds (now, token) into that host's ledger, sends one
/// frame, then calls EventLoop::schedule_routed directly for a host
/// under another leaf (so, at 2 or 4 shards, usually another shard),
/// at least one lookahead ahead — the bound every handoff relies on.
void relay_hop(TestFabric* f, std::uint32_t idx, std::uint32_t left,
               std::uint64_t token) {
  Network& net = f->net;
  const LeafSpineParams& p = f->topo.params;
  const auto n = static_cast<std::uint32_t>(f->topo.host_count());
  auto& host = static_cast<SinkHost&>(net.node(f->topo.hosts[idx]));
  host.ledger = relay_mix(
      relay_mix(host.ledger, static_cast<std::uint64_t>(net.now())), token);
  ++host.hops;
  const std::uint32_t to =
      (idx + 1 + static_cast<std::uint32_t>(token % (n - 1))) % n;
  Packet pkt;
  pkt.data.assign(64 + token % 200, static_cast<std::uint8_t>(token));
  for (int b = 0; b < 8; ++b) {
    pkt.data[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(std::uint64_t{to} >> (8 * b));
  }
  host.transmit(0, std::move(pkt));
  if (left == 0) return;
  const std::uint32_t leaf = idx / p.hosts_per_leaf;
  const std::uint32_t next_leaf =
      (leaf + 1 + static_cast<std::uint32_t>(token % (p.leaves - 1))) %
      p.leaves;
  const std::uint32_t next =
      next_leaf * p.hosts_per_leaf +
      static_cast<std::uint32_t>((token >> 8) % p.hosts_per_leaf);
  const std::uint64_t next_token = relay_mix(token, idx);
  const SimTime at =
      net.now() + p.fabric_link.latency + static_cast<SimTime>(token % 500);
  net.loop().schedule_routed(f->topo.hosts[next], at,
                             [f, next, left, next_token] {
                               relay_hop(f, next, left - 1, next_token);
                             });
}

RelayRun run_relay(std::uint32_t shards) {
  TestFabric f{Network(29), {}};
  build_test_fabric(f, {});
  if (shards > 1) {
    f.net.enable_sharding(ShardPlan::leaf_spine(f.net, f.topo, shards));
  }
  f.net.arm_wire_digest();
  const auto n = static_cast<std::uint32_t>(f.topo.host_count());
  for (std::uint32_t c = 0; c < 16; ++c) {
    const std::uint32_t idx = (c * 5) % n;
    TestFabric* fp = &f;
    f.net.schedule_on(f.topo.hosts[idx], c * 300, [fp, idx, c] {
      relay_hop(fp, idx, /*left=*/40, /*token=*/c + 1);
    });
  }
  f.net.loop().run();
  RelayRun r;
  r.digest = f.net.wire_digest();
  for (NodeId h : f.topo.hosts) {
    const auto& host = static_cast<const SinkHost&>(f.net.node(h));
    r.delivered += host.delivered;
    r.ledgers.push_back(host.ledger);
    r.hops.push_back(host.hops);
  }
  if (const ShardRunner* runner = f.net.runner()) {
    r.cross_frames = runner->cross_frames();
    r.concurrent = runner->epochs() > 0;
  }
  return r;
}

TEST(ShardRoutedTest, DirectCrossShardScheduleRoutedByteIdentical) {
  const RelayRun base = run_relay(1);
  std::uint64_t total_hops = 0;
  for (std::uint64_t h : base.hops) total_hops += h;
  EXPECT_EQ(total_hops, 16u * 41u);
  EXPECT_EQ(base.delivered, total_hops);
  for (std::uint32_t shards : {2u, 4u}) {
    const RelayRun p = run_relay(shards);
    EXPECT_TRUE(p.concurrent) << shards << " shards";
    EXPECT_GT(p.cross_frames, 0u) << shards << " shards";
    EXPECT_EQ(p.ledgers, base.ledgers) << shards << " shards";
    EXPECT_EQ(p.hops, base.hops) << shards << " shards";
    EXPECT_EQ(p.digest, base.digest) << shards << " shards";
    EXPECT_EQ(p.delivered, base.delivered) << shards << " shards";
  }
}

// --- horizon arithmetic -----------------------------------------------------

constexpr SimTime kFarFuture = std::numeric_limits<SimTime>::max() - 5;

/// Two hosts on a 1 us link, one timer near the end of SimTime.  The
/// runner's epoch horizon (M + L - 1) must clamp to the deadline without
/// overflowing, and the timer must fire exactly as on the serial loop.
SimTime fire_far_future_timer(std::uint32_t shards) {
  Network net(7);
  const NodeId a = net.add_node<SinkHost>("a").id();
  const NodeId b = net.add_node<SinkHost>("b").id();
  LinkParams link;
  link.latency = kMicrosecond;
  net.connect(a, b, link);
  if (shards > 1) {
    ShardPlan plan;
    plan.shards = shards;
    plan.shard_of = {0, 1};
    plan.lookahead = ShardPlan::min_cross_latency(net, plan.shard_of);
    EXPECT_EQ(net.enable_sharding(plan), shards);
  }
  SimTime fired = -1;
  net.schedule_on(a, kFarFuture, [&net, &fired] { fired = net.now(); });
  net.loop().run();
  if (shards > 1) {
    EXPECT_GT(net.runner()->epochs(), 0u) << shards << " shards";
  }
  return fired;
}

TEST(ShardRunnerTest, FarFutureTimerFiresAtEveryShardCount) {
  EXPECT_EQ(fire_far_future_timer(1), kFarFuture);
  EXPECT_EQ(fire_far_future_timer(2), kFarFuture);
}

// --- control/shard tie ------------------------------------------------------

struct TieRun {
  /// One log per leaf 0..3: control events append to every log, shard
  /// events to their host's leaf.  A leaf's hosts share a shard at every
  /// K (leaf l -> shard l % K), so each log is written by one thread at a
  /// time (workers mid-epoch, the coordinator between epochs).
  std::vector<std::vector<std::string>> logs;
  SimTime now_after_tick = 0;
  SimTime now_after_deadline = 0;
  bool concurrent = false;
};

constexpr SimTime kTick = 10 * kMicrosecond;

/// Control events, pre-scheduled shard events and shard work that a
/// control event schedules at its own tick, all at one tick T.
TieRun run_tie(std::uint32_t shards) {
  constexpr std::uint32_t kLeaves = 4;
  TestFabric f{Network(3), {}};
  build_test_fabric(f, {});
  if (shards > 1) {
    EXPECT_EQ(f.net.enable_sharding(ShardPlan::leaf_spine(f.net, f.topo,
                                                          shards)),
              shards);
  }
  EventLoop& loop = f.net.loop();
  TieRun r;
  r.logs.resize(kLeaves);
  auto host = [&f](std::uint32_t leaf, std::uint32_t j) {
    return f.topo.hosts[leaf * f.topo.params.hosts_per_leaf + j];
  };
  auto control = [&r, &loop](std::string label) {
    EXPECT_EQ(loop.now(), kTick) << label;
    for (auto& log : r.logs) log.push_back(label);
  };
  auto shard_event = [&r, &loop](std::uint32_t leaf, std::string label) {
    return [&r, &loop, leaf, label] {
      EXPECT_EQ(loop.now(), kTick) << label;
      r.logs[leaf].push_back(label);
    };
  };
  // A shard event one tick earlier: at K > 1 an epoch ends just before
  // the control time, so the tie is met at a segment boundary.
  f.net.schedule_on(host(0, 2), kTick - 1, [] {});
  for (std::uint32_t l = 0; l < kLeaves; ++l) {
    for (std::uint32_t j = 0; j < 2; ++j) {
      f.net.schedule_on(host(l, j), kTick,
                        shard_event(l, "S" + std::to_string(l) + "." +
                                           std::to_string(j)));
    }
  }
  loop.schedule_at(kTick, [&] {
    control("C0");
    loop.schedule_at(kTick, [&] { control("C0.child"); });
    for (std::uint32_t l = 0; l < kLeaves; ++l) {
      f.net.schedule_on(host(l, 3), kTick,
                        shard_event(l, "W" + std::to_string(l)));
    }
  });
  loop.schedule_at(kTick, [&] { control("C1"); });
  loop.run_until(kTick);
  r.now_after_tick = loop.now();
  loop.run_until(kTick + 3 * kMicrosecond);
  r.now_after_deadline = loop.now();
  if (const ShardRunner* runner = f.net.runner()) {
    r.concurrent = runner->epochs() > 0;
  }
  return r;
}

TEST(ShardRunnerTest, ControlLaneWinsSameTickTieAtEveryShardCount) {
  const TieRun base = run_tie(1);
  EXPECT_FALSE(base.concurrent);
  // Control first (lane 0), its same-tick child included; then shard
  // events in key order: pre-scheduled ones (stamped at time 0) before
  // the control event's work (stamped at T).
  for (std::uint32_t l = 0; l < base.logs.size(); ++l) {
    const std::string leaf = std::to_string(l);
    const std::vector<std::string> expected = {
        "C0", "C1", "C0.child", "S" + leaf + ".0", "S" + leaf + ".1",
        "W" + leaf};
    EXPECT_EQ(base.logs[l], expected) << "leaf " << l;
  }
  EXPECT_EQ(base.now_after_tick, kTick);
  EXPECT_EQ(base.now_after_deadline, kTick + 3 * kMicrosecond);
  for (std::uint32_t shards : {2u, 4u}) {
    const TieRun p = run_tie(shards);
    EXPECT_TRUE(p.concurrent) << shards << " shards";
    EXPECT_EQ(p.logs, base.logs) << shards << " shards";
    EXPECT_EQ(p.now_after_tick, base.now_after_tick) << shards << " shards";
    EXPECT_EQ(p.now_after_deadline, base.now_after_deadline)
        << shards << " shards";
  }
}

// --- lookahead soundness ----------------------------------------------------

/// A horizon far past the real lookahead is UNSOUND: shards run ahead
/// of the frames other shards are about to hand them.  Strict mode must
/// catch the first behind-clock arrival and abort.
void run_with_unsound_horizon() {
  TestFabric f{Network(5), {}};
  FabricOpts o;
  build_test_fabric(f, o);
  f.net.enable_sharding(ShardPlan::leaf_spine(f.net, f.topo, 4));
  f.net.runner()->set_horizon_override_for_test(5 * kMillisecond);
  f.net.loop().set_strict_past_schedules(true);
  f.net.arm_wire_digest();
  Rng workload(5 ^ 0xBEEF);
  const std::uint64_t n = f.topo.host_count();
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    const auto src = static_cast<std::uint32_t>(workload.next_below(n));
    std::uint64_t dst = workload.next_below(n - 1);
    if (dst >= src) ++dst;
    Packet pkt;
    pkt.data.assign(64, 0x5A);
    for (int b = 0; b < 8; ++b) {
      pkt.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(dst >> (8 * b));
    }
    auto* host = static_cast<SinkHost*>(&f.net.node(f.topo.hosts[src]));
    f.net.schedule_on(f.topo.hosts[src],
                      static_cast<SimTime>(i) * kMicrosecond,
                      [host, pkt = std::move(pkt)]() mutable {
                        host->transmit(0, std::move(pkt));
                      });
  }
  f.net.loop().run();
}

TEST(ShardDeathTest, OversizedHorizonAbortsUnderStrict) {
  // The runner spawns worker threads; fork-style death tests need the
  // threadsafe re-exec mode to be reliable.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_with_unsound_horizon(), "lookahead violation");
}

// --- cluster-level opt-in (OBJRPC_SHARDS) -----------------------------------

struct ClusterRun {
  std::uint64_t wire_digest = 0;
  std::uint64_t checker_digest = 0;
  std::uint64_t checker_events = 0;
  std::uint64_t pool_acquires = 0;  // payload_pool() fresh + reused
  std::string trace_json;
  bool concurrent = false;  // the runner drove at least one BSP epoch
};

/// Full-stack workload (create / write / fetch / move over the RPC
/// layers).  With `armed`, the invariant checker rides its taps and the
/// tracer records, deferring through the shard journal (§17).
ClusterRun run_cluster_workload(const char* shards_env, bool armed = false) {
  if (shards_env != nullptr) {
    setenv("OBJRPC_SHARDS", shards_env, 1);
  } else {
    unsetenv("OBJRPC_SHARDS");
  }
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;
  cfg.fabric.seed = 21;
  cfg.check_invariants = armed ? 1 : 0;
  auto cluster = Cluster::build(cfg);
  if (armed) cluster->tracer().arm();
  cluster->fabric().network().arm_wire_digest();
  ClusterRun out;
  auto obj = cluster->create_object(1, 4096);
  EXPECT_TRUE(obj.has_value());
  const ObjectId id = (*obj)->id();
  auto off = (*obj)->alloc(8);
  EXPECT_TRUE(off.has_value() && (*obj)->write_u64(*off, 100));
  cluster->settle();
  bool fetched = false;
  cluster->fetcher(0).fetch(id, [&](Status s) { fetched = s.is_ok(); });
  cluster->settle();
  EXPECT_TRUE(fetched);
  bool moved = false;
  cluster->move_object(id, 1, 2, [&](Status s) { moved = s.is_ok(); });
  cluster->settle();
  EXPECT_TRUE(moved);
  out.wire_digest = cluster->fabric().network().wire_digest();
  const BufferPool::Stats pool =
      cluster->fabric().network().payload_pool().stats();
  out.pool_acquires = pool.fresh + pool.reused;
  if (const ShardRunner* runner = cluster->fabric().network().runner()) {
    out.concurrent = runner->epochs() > 0;
  }
  if (armed) {
    EXPECT_NE(cluster->checker(), nullptr);
    if (cluster->checker() != nullptr) {
      out.checker_digest = cluster->checker()->digest();
      out.checker_events = cluster->checker()->events_observed();
    }
    out.trace_json = cluster->tracer().chrome_trace_json();
  }
  unsetenv("OBJRPC_SHARDS");
  return out;
}

/// OBJRPC_SHARDS=`value` applied to `net`; returns the shard count.
std::uint32_t shards_from_env(Network& net, const std::string& value) {
  setenv("OBJRPC_SHARDS", value.c_str(), 1);
  const std::uint32_t applied = net.maybe_shard_from_env();
  unsetenv("OBJRPC_SHARDS");
  EXPECT_EQ(applied, net.shard_count()) << value;
  EXPECT_EQ(net.runner() != nullptr, applied > 1) << value;
  return applied;
}

/// The same value against a fresh copy of the 44-node test fabric.
std::uint32_t shards_from_env(const std::string& value) {
  TestFabric f{Network(1), {}};
  build_test_fabric(f, {});
  return shards_from_env(f.net, value);
}

TEST(ShardEnv, WholeNumbersWithinTheFabricApply) {
  EXPECT_EQ(shards_from_env("1"), 1u);
  EXPECT_EQ(shards_from_env("4"), 4u);
  EXPECT_EQ(shards_from_env("004"), 4u);
}

TEST(ShardEnv, MalformedValuesRunSingleShard) {
  for (const char* bad : {"4x", "0", "-2", "+2", " 2", "2 ", "2.0", "x"}) {
    EXPECT_EQ(shards_from_env(bad), 1u) << "OBJRPC_SHARDS=" << bad;
  }
}

TEST(ShardEnv, CountsPastTheNodeCountClampToIt) {
  // Three hosts: a 1 us link a<->b, c on its own, so every node can
  // take its own shard.  No count may wrap (4294967298 is 2 as a
  // uint32) or spawn more workers than there are nodes.
  for (const char* big : {"4", "100000", "4294967298",
                          "99999999999999999999999"}) {
    Network net(1);
    const NodeId a = net.add_node<SinkHost>("a").id();
    const NodeId b = net.add_node<SinkHost>("b").id();
    net.add_node<SinkHost>("c");
    LinkParams link;
    link.latency = kMicrosecond;
    net.connect(a, b, link);
    EXPECT_EQ(shards_from_env(net, big), 3u) << "OBJRPC_SHARDS=" << big;
  }
}

TEST(ShardCluster, EnvOptInByteIdenticalAcrossShardCounts) {
  const std::uint64_t serial = run_cluster_workload(nullptr).wire_digest;
  EXPECT_NE(serial, 0u);
  for (const char* n : {"1", "2", "4", "8"}) {
    EXPECT_EQ(run_cluster_workload(n).wire_digest, serial)
        << "OBJRPC_SHARDS=" << n;
  }
}

TEST(ShardCluster, ArmedCheckerAndTracerByteIdenticalAcrossShardCounts) {
  // The §17 acceptance matrix at the full-stack level: same seed,
  // 1 vs 2/4/8 shards, checker + tracer armed.  Wire digest,
  // checker fold, and trace JSON must agree byte-for-byte — and the
  // sharded legs must actually run the concurrent driver.
  const ClusterRun base = run_cluster_workload(nullptr, /*armed=*/true);
  EXPECT_FALSE(base.concurrent);
  EXPECT_NE(base.wire_digest, 0u);
  EXPECT_GT(base.checker_events, 0u);
  ASSERT_FALSE(base.trace_json.empty());
  for (const char* n : {"2", "4", "8"}) {
    const ClusterRun p = run_cluster_workload(n, /*armed=*/true);
    EXPECT_TRUE(p.concurrent) << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.wire_digest, base.wire_digest) << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.checker_events, base.checker_events)
        << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.checker_digest, base.checker_digest)
        << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.trace_json, base.trace_json) << "OBJRPC_SHARDS=" << n;
  }
}

TEST(ShardCluster, ArmedCheckerCopiesNoPayload) {
  // The checker's tap decodes inline and journals a WireEvent: at 4
  // shards the armed run acquires exactly the payload buffers of the
  // unarmed one.
  const ClusterRun bare = run_cluster_workload("4");
  const ClusterRun armed = run_cluster_workload("4", /*armed=*/true);
  EXPECT_TRUE(armed.concurrent);
  EXPECT_GT(armed.checker_events, 0u);
  EXPECT_EQ(armed.pool_acquires, bare.pool_acquires);
  EXPECT_EQ(armed.wire_digest, bare.wire_digest);
}

}  // namespace
}  // namespace objrpc
