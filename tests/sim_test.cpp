// Tests for the discrete-event simulator: event loop, links, switches,
// match-action tables, topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sim/pipeline.hpp"
#include "sim/shard.hpp"
#include "sim/switch_node.hpp"
#include "sim/topology.hpp"

namespace objrpc {
namespace {

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, StableTieBreaking) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, ScheduleAfterUsesNow) {
  EventLoop loop;
  SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventLoop, PastSchedulingClamps) {
  EventLoop loop;
  // This test exercises the lenient clamp path on purpose; under
  // CHECK_INVARIANTS=1 the constructor default would abort instead.
  loop.set_strict_past_schedules(false);
  SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [&] { fired_at = loop.now(); });  // in the past
  });
  EXPECT_EQ(loop.clamped_past_schedules(), 0u);
  loop.run();
  EXPECT_EQ(fired_at, 100);
  // The causality bug is visible in the counter even though the event
  // still ran (clamped to now).
  EXPECT_EQ(loop.clamped_past_schedules(), 1u);
}

TEST(EventLoop, PastSchedulingAbortsWhenStrict) {
  EventLoop loop;
  loop.set_strict_past_schedules(true);
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [] {});  // causality violation
  });
  EXPECT_DEATH(loop.run(), "in the past");
}

TEST(EventLoop, MoveOnlyCallbacksRunOnceInOrder) {
  // The old std::function queue required copyable callbacks and moved
  // them out of priority_queue::top() via const_cast; the intrusive heap
  // owns each callback exactly once.  Move-only captures prove no copy
  // happens, and the sentinel counts prove no double-invocation.
  EventLoop loop;
  std::vector<int> order;
  std::vector<int> invocations(3, 0);
  for (int i = 2; i >= 0; --i) {
    auto token = std::make_unique<int>(i);
    loop.schedule_at(static_cast<SimTime>(10 * (i + 1)),
                     [&order, &invocations, token = std::move(token)] {
                       ++invocations[static_cast<std::size_t>(*token)];
                       order.push_back(*token);
                     });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(invocations, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(loop.events_executed(), 3u);
}

TEST(EventLoop, CallbacksDestroyedAfterRun) {
  // Pool nodes must release the callback (and its captures) as soon as
  // it runs, not when the loop dies — captured shared state would
  // otherwise linger for the whole simulation.
  EventLoop loop;
  auto shared = std::make_shared<int>(42);
  std::weak_ptr<int> watch = shared;
  loop.schedule_at(5, [keep = std::move(shared)] { (void)*keep; });
  loop.run();
  EXPECT_TRUE(watch.expired());
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(10, [&] { ++count; });
  loop.schedule_at(20, [&] { ++count; });
  loop.schedule_at(30, [&] { ++count; });
  loop.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) loop.schedule_after(1, recurse);
  };
  loop.schedule_at(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.events_executed(), 100u);
}

// --- MatchActionTable ---------------------------------------------------------

TEST(MatchActionTable, InsertLookupErase) {
  MatchActionTable t(128, 10);
  EXPECT_TRUE(t.insert(U128{1, 2}, Action::forward_to(3)));
  auto a = t.lookup(U128{1, 2});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, ActionKind::forward);
  EXPECT_EQ(a->port, 3u);
  EXPECT_TRUE(t.erase(U128{1, 2}));
  EXPECT_FALSE(t.lookup(U128{1, 2}).has_value());
  EXPECT_FALSE(t.erase(U128{1, 2}));
}

TEST(MatchActionTable, CapacityEnforced) {
  MatchActionTable t(128, 2);
  EXPECT_TRUE(t.insert(U128{0, 1}, Action::drop()));
  EXPECT_TRUE(t.insert(U128{0, 2}, Action::drop()));
  EXPECT_EQ(t.insert(U128{0, 3}, Action::drop()).error().code,
            Errc::capacity_exceeded);
  // Updates to existing keys always succeed.
  EXPECT_TRUE(t.insert(U128{0, 1}, Action::flood()));
  EXPECT_EQ(t.lookup(U128{0, 1})->kind, ActionKind::flood);
}

TEST(MatchActionTable, HitMissCounters) {
  MatchActionTable t(128, 10);
  ASSERT_TRUE(t.insert(U128{0, 1}, Action::drop()));
  (void)t.lookup(U128{0, 1});
  (void)t.lookup(U128{0, 2});
  (void)t.lookup(U128{0, 1});
  EXPECT_EQ(t.hits(), 2u);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(TofinoCapacity, CalibratedToPaperPoints) {
  // §3.2: "With 64-bit ID fields, we could store ~1.8M exact entries and
  // with 128-bit IDs, we could fit ~850K."
  EXPECT_EQ(tofino_exact_capacity(64), 1'800'000u);
  EXPECT_EQ(tofino_exact_capacity(128), 850'000u);
}

TEST(TofinoCapacity, MonotoneNonIncreasingInWidth) {
  std::uint64_t prev = tofino_exact_capacity(8);
  for (std::uint32_t bits = 16; bits <= 256; bits += 8) {
    const std::uint64_t cap = tofino_exact_capacity(bits);
    EXPECT_LE(cap, prev) << bits;
    prev = cap;
  }
}

// --- Network / links ----------------------------------------------------------

/// Minimal sink node recording arrivals.
class SinkNode : public NetworkNode {
 public:
  SinkNode(Network& net, NodeId id, std::string name)
      : NetworkNode(net, id, std::move(name)) {}
  void on_packet(PortId in_port, Packet pkt) override {
    arrivals.push_back({in_port, std::move(pkt), loop().now()});
  }
  void transmit(PortId port, Packet pkt) { send(port, std::move(pkt)); }
  struct Arrival {
    PortId port;
    Packet pkt;
    SimTime at;
  };
  std::vector<Arrival> arrivals;
};

Packet make_packet(std::size_t payload_size) {
  Packet p;
  p.data.assign(payload_size, 0xAB);
  return p;
}

TEST(Network, DeliversWithLatencyAndTxDelay) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 10 * kMicrosecond;
  lp.bandwidth_bps = 8e9;  // 1 byte/ns
  net.connect(a.id(), b.id(), lp);

  a.transmit(0, make_packet(1000));
  net.loop().run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  // tx = 1024 bytes at 1 B/ns = 1024ns; then 10us propagation.
  EXPECT_EQ(b.arrivals[0].at, 1024 + 10 * kMicrosecond);
  EXPECT_EQ(net.stats().frames_delivered, 1u);
}

TEST(Network, SerializationDelayQueuesFrames) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 0;
  lp.bandwidth_bps = 8e9;
  net.connect(a.id(), b.id(), lp);

  a.transmit(0, make_packet(1000));  // 1024ns on the wire
  a.transmit(0, make_packet(1000));
  net.loop().run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].at, 1024);
  EXPECT_EQ(b.arrivals[1].at, 2048);  // waited for the first
}

TEST(Network, QueueBoundDropsExcess) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 0;
  lp.bandwidth_bps = 8e6;  // slow: 1 byte per us
  lp.queue_bytes = 2100;   // fits two 1024B frames, not three
  net.connect(a.id(), b.id(), lp);

  for (int i = 0; i < 3; ++i) a.transmit(0, make_packet(1000));
  net.loop().run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(net.stats().frames_dropped_queue, 1u);
}

TEST(Network, LossRateDropsDeterministically) {
  Network net(42);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.loss_rate = 0.5;
  net.connect(a.id(), b.id(), lp);
  for (int i = 0; i < 1000; ++i) a.transmit(0, make_packet(10));
  net.loop().run();
  const auto delivered = b.arrivals.size();
  EXPECT_GT(delivered, 400u);
  EXPECT_LT(delivered, 600u);
  EXPECT_EQ(net.stats().frames_dropped_loss, 1000u - delivered);

  // Determinism: a rerun with the same seed gives identical results.
  Network net2(42);
  auto& a2 = net2.add_node<SinkNode>("a");
  auto& b2 = net2.add_node<SinkNode>("b");
  net2.connect(a2.id(), b2.id(), lp);
  for (int i = 0; i < 1000; ++i) a2.transmit(0, make_packet(10));
  net2.loop().run();
  EXPECT_EQ(b2.arrivals.size(), delivered);
}

TEST(Network, TtlDropsLoopingFrames) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a.id(), b.id(), LinkParams{});
  Packet p = make_packet(10);
  p.hops = Packet::kMaxHops;
  a.transmit(0, std::move(p));
  net.loop().run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(net.stats().frames_dropped_ttl, 1u);
}

TEST(Network, PeerOfReportsTopology) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");
  auto [pa, pb] = net.connect(a.id(), b.id());
  net.connect(b.id(), c.id());
  EXPECT_EQ(net.peer_of(a.id(), pa), b.id());
  EXPECT_EQ(net.peer_of(b.id(), pb), a.id());
  EXPECT_EQ(net.peer_of(b.id(), 1), c.id());
  EXPECT_EQ(net.peer_of(a.id(), 9), kInvalidNode);
}

TEST(Network, TapSeesDeliveredFrames) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a.id(), b.id());
  int taps = 0;
  net.add_tap([&](NodeId from, NodeId to, const Packet&) {
    EXPECT_EQ(from, a.id());
    EXPECT_EQ(to, b.id());
    ++taps;
  });
  a.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(taps, 1);
}

TEST(NetworkDeathTest, NodeUpFromNodeCallbackAbortsWithStrictOff) {
  // Crash/revive is control-plane only at every strictness: a node
  // callback that calls set_node_up dies even with strict mode off.
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a.id(), b.id());
  net.loop().set_strict_past_schedules(false);
  net.schedule_on(a.id(), 10, [&net, &b] { net.set_node_up(b.id(), false); });
  EXPECT_DEATH(net.loop().run(), "control-plane only");
}

// --- TimingWheel: differential against an ordered reference -----------------

/// A canonical event key: (at, key_a, key_b).
using WheelKey = std::tuple<SimTime, std::uint64_t, std::uint64_t>;

/// Delays on every level edge of the wheel (level 0 holds deltas below
/// 2^14, level l >= 1 below 2^(14 + 10 l), 2^54 is the horizon), plus
/// the edges a 2^10-slot level 0 would have.
const std::vector<SimTime>& wheel_edge_delays() {
  static const std::vector<SimTime> delays = [] {
    std::vector<SimTime> v = {0, 1, 63, 64, 65};
    for (unsigned bits : {10u, 14u, 20u, 24u, 34u, 44u, 54u, 55u}) {
      const SimTime e = SimTime{1} << bits;
      v.insert(v.end(), {e - 1, e, e + 1});
    }
    return v;
  }();
  return delays;
}

/// One standalone wheel driven with explicit keys beside a reference
/// set ordered by (at, key_a, key_b).  Every pop must be the reference
/// minimum, at its own time.  key_b is a global counter, so keys are
/// unique and a same-tick child's key is above its parent's.  The wheel
/// is advanced one reference time at a time and the harness stops at
/// the first mismatch, so a wheel that lost an event fails before it
/// can spend the rest of the run scanning toward a far timer.
class WheelDifferential {
 public:
  explicit WheelDifferential(std::uint64_t seed) : rng_(seed) {}

  bool failed() const { return failed_; }

  /// One round at clock `t`: schedule a batch; maybe peek at the next
  /// event (which parks the cursor on it, however far ahead, as the
  /// parallel runner's M-peek does) and schedule behind the cursor;
  /// maybe extract and re-insert everything; then run to a limit on a
  /// window edge.  Returns the new clock.
  SimTime round(SimTime t) {
    for (int i = 0; i < 24; ++i) add(t + random_delay(), rng_.next_u64(), t);
    if (const SimTime head = min_time(); rng_.next_below(3) == 0) {
      expect(wheel_.next_time(head) == head, "peek");
      // Handoffs re-homed at a barrier carry floor = at.
      for (int i = 0; i < 8 && head > t; ++i) {
        const SimTime at =
            t + static_cast<SimTime>(rng_.next_below(
                    static_cast<std::uint64_t>(head - t)));
        add(at, rng_.next_u64(), at);
      }
    }
    if (rng_.next_below(8) == 0) {
      // Lift everything out and put it back, keys intact, as a
      // partition change does.
      std::vector<TimingWheel::Extracted> out;
      wheel_.extract_all(out);
      expect(out.size() == ref_.size() && wheel_.empty() &&
                 wheel_.occupancy_consistent_for_test(),
             "extract_all");
      for (auto& e : out) {
        wheel_.schedule(e.at, e.key_a, e.key_b, e.exec_src, e.at,
                        std::move(e.fn));
      }
    }
    const SimTime edge = SimTime{1} << (rng_.next_below(2) == 0 ? 14 : 24);
    const SimTime limit =
        rng_.next_below(2) == 0
            ? (t / edge + 1) * edge - 1 +
                  static_cast<SimTime>(rng_.next_below(3))
            : t + random_delay();
    run_to(limit);
    expect(failed_ || wheel_.next_time(limit) == kNoEventTime, "limit");
    expect(wheel_.pending() == ref_.size(), "pending count");
    wheel_.set_now(limit);
    return limit;
  }

  void finish() {
    run_to(std::numeric_limits<SimTime>::max());
    expect(ref_.empty() && wheel_.empty(), "drained");
    expect(wheel_.events_executed() == last_key_b_, "executed count");
  }

 private:
  /// Schedule at `at` from a scheduler whose clock reads `floor`.
  void add(SimTime at, std::uint64_t key_a, SimTime floor) {
    const WheelKey k{at, key_a, ++last_key_b_};
    ref_.insert(k);
    wheel_.schedule(at, key_a, std::get<2>(k), kExternalSource, floor,
                    [this, k] { ran(k); });
  }

  SimTime random_delay() {
    const auto& edges = wheel_edge_delays();
    if (rng_.next_below(2) == 0) return edges[rng_.next_below(edges.size())];
    const unsigned bits = 4 + 5 * static_cast<unsigned>(rng_.next_below(5));
    return static_cast<SimTime>(rng_.next_below(std::uint64_t{1} << bits));
  }

  /// Run every event up to `limit`, one reference time at a time.
  void run_to(SimTime limit) {
    for (SimTime m = min_time(); !failed_ && m != kNoEventTime && m <= limit;
         m = min_time()) {
      expect(wheel_.next_time(m) == m, "next event time");
      if (failed_) return;
      wheel_.run_until(m);
      expect(min_time() == kNoEventTime || min_time() > m, "ran every due");
      expect(wheel_.occupancy_consistent_for_test(), "occupancy bits");
    }
  }

  void ran(const WheelKey& k) {
    expect(!ref_.empty() && k == *ref_.begin(), "key order");
    expect(wheel_.now() == std::get<0>(k), "execution time");
    ref_.erase(k);
    const SimTime now = std::get<0>(k);
    switch (rng_.next_below(8)) {
      case 0:  // same tick, same key_a: right behind its parent
        add(now, std::get<1>(k), now);
        break;
      case 1:  // same tick, later key_a: possibly behind its siblings
        add(now, std::get<1>(k) + 1 + rng_.next_below(1u << 20), now);
        break;
      case 2:
        add(now + random_delay(), rng_.next_u64(), now);
        break;
      default:
        break;
    }
  }

  void expect(bool ok, const char* what) {
    if (ok || failed_) return;
    failed_ = true;
    ADD_FAILURE() << what << " diverged from the reference at "
                  << wheel_.now();
  }

  SimTime min_time() const {
    return ref_.empty() ? kNoEventTime : std::get<0>(*ref_.begin());
  }

  Rng rng_;
  EventLoop loop_;  // owner of the scheduling context the wheel sets
  TimingWheel wheel_{&loop_, 0};
  std::set<WheelKey> ref_;
  std::uint64_t last_key_b_ = 0;
  bool failed_ = false;
};

TEST(TimingWheel, MatchesOrderedReferenceOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto h = std::make_unique<WheelDifferential>(seed);
    SimTime t = 0;
    for (int r = 0; r < 40 && !h->failed(); ++r) t = h->round(t);
    if (!h->failed()) h->finish();
    ASSERT_FALSE(h->failed()) << "seed " << seed;
  }
}

/// Node a routes events to node b; b's wheel is idle except for one far
/// timer.  At K = 2 the runner's M-peek parks b's cursor on that timer,
/// so every handoff lands behind the cursor at the barrier (a cursor
/// rollback).  Returns b's execution log.
std::vector<WheelKey> routed_into_idle_wheel(std::uint32_t shards) {
  Network net(5);
  const NodeId a = net.add_node<SinkNode>("a").id();
  const NodeId b = net.add_node<SinkNode>("b").id();
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
  std::vector<WheelKey> log;
  auto record = [&net, &log] {
    std::uint64_t ka = 0, kb = 0;
    EventLoop::current_event_key(ka, kb);
    log.emplace_back(net.now(), ka, kb);
  };
  // Shares its level-0 slot, one window later, with the first send's
  // delivery (at 77 + L + 4 * 2^14).
  const SimTime far = 5 * (SimTime{1} << 14) + 77 + kMicrosecond;
  net.schedule_on(b, far, record);
  Rng rng(11);
  const auto& edges = wheel_edge_delays();
  for (std::size_t i = 0; i < 96; ++i) {
    // Sends collide on a few ticks, so deliveries do too.
    const SimTime send =
        i == 0 ? 77 : static_cast<SimTime>(rng.next_below(8)) * 4093;
    const SimTime d = i < edges.size() && edges[i] < (SimTime{1} << 20)
                          ? edges[i]
                          : static_cast<SimTime>(rng.next_below(1u << 18));
    const SimTime delay = kMicrosecond + (i == 0 ? 4 * (SimTime{1} << 14) : d);
    net.schedule_on(a, send, [&net, &record, b, delay] {
      net.loop().schedule_routed(b, net.now() + delay, record);
    });
  }
  net.loop().run();
  if (shards > 1) {
    EXPECT_GT(net.runner()->epochs(), 0u);
  }
  return log;
}

TEST(TimingWheel, RollbackOfAnIdleWheelKeepsKeyOrderAtTwoShards) {
  const std::vector<WheelKey> base = routed_into_idle_wheel(1);
  EXPECT_EQ(base.size(), 97u);
  EXPECT_TRUE(std::is_sorted(base.begin(), base.end()));
  EXPECT_TRUE(std::adjacent_find(base.begin(), base.end()) == base.end());
  EXPECT_EQ(routed_into_idle_wheel(2), base);
}

// --- Wire digest ----------------------------------------------------------------

/// The wire digest after one a -> b delivery of `payload`, sent at
/// `send_at` with `hops` switch hops already on the frame.
std::uint64_t one_delivery_digest(const Bytes& payload, std::uint32_t hops = 0,
                                  SimTime send_at = 0) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a.id(), b.id());
  net.arm_wire_digest();
  Packet p;
  p.data = payload;
  p.hops = hops;
  net.loop().schedule_at(send_at, [&] { a.transmit(0, std::move(p)); });
  net.loop().run();
  EXPECT_EQ(net.wire_digest_events(), 1u);
  return net.wire_digest();
}

TEST(WireDigest, EveryByteItsPositionAndTheLengthChangeIt) {
  // Lengths 0-100 cross every boundary of the payload fold: 16-byte
  // blocks dealt to four lanes (64-byte stripes), the 0-15 byte tail,
  // and the 8-byte word inside a block and inside the tail.
  for (std::size_t len = 0; len <= 100; ++len) {
    Bytes base(len);
    for (std::size_t i = 0; i < len; ++i) {
      base[i] = static_cast<std::uint8_t>(i * 37 + 11);  // all distinct
    }
    const std::uint64_t ref = one_delivery_digest(base);
    ASSERT_EQ(one_delivery_digest(base), ref) << "len " << len;

    for (std::size_t i = 0; i < len; ++i) {
      for (std::uint8_t bit : {0x01, 0x80}) {
        Bytes flipped = base;
        flipped[i] ^= bit;
        EXPECT_NE(one_delivery_digest(flipped), ref)
            << "len " << len << " byte " << i << " bit " << int{bit};
      }
    }
    // Every pair of whole 8-byte words: in one block, in one lane, and
    // in different lanes.
    for (std::size_t x = 0; x + 8 <= len; x += 8) {
      for (std::size_t y = x + 8; y + 8 <= len; y += 8) {
        Bytes swapped = base;
        std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(x),
                         swapped.begin() + static_cast<std::ptrdiff_t>(x + 8),
                         swapped.begin() + static_cast<std::ptrdiff_t>(y));
        EXPECT_NE(one_delivery_digest(swapped), ref)
            << "len " << len << " words at " << x << " and " << y;
      }
    }
    Bytes longer = base;
    longer.push_back(0);
    EXPECT_NE(one_delivery_digest(longer), ref) << "len " << len;
    EXPECT_NE(one_delivery_digest(base, 1), ref) << "len " << len;
    EXPECT_NE(one_delivery_digest(base, 0, 1), ref) << "len " << len;
  }
}

// --- SwitchNode ----------------------------------------------------------------

/// Gives every packet the same key so table actions can be tested.
std::optional<ParsedKey> const_key(const Packet&) {
  return ParsedKey{U128{0, 7}, false};
}

TEST(SwitchNode, ForwardsOnTableHit) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());  // sw port 0
  net.connect(sw.id(), h2.id());  // sw port 1
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(h2.arrivals.size(), 1u);
  EXPECT_EQ(sw.counters().forwarded, 1u);
}

TEST(SwitchNode, DefaultDropOnMiss) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().dropped, 1u);
}

TEST(SwitchNode, FloodReachesAllButIngress) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  auto& h3 = net.add_node<SinkNode>("h3");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  net.connect(sw.id(), h3.id());
  sw.set_key_extractor(
      [](const Packet&) { return ParsedKey{U128{}, true}; });

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(h2.arrivals.size(), 1u);
  EXPECT_EQ(h3.arrivals.size(), 1u);
  EXPECT_TRUE(h1.arrivals.empty());
  EXPECT_EQ(sw.counters().flooded, 1u);
}

TEST(SwitchNode, PreMatchHookConsumes) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));
  sw.set_pre_match_hook(
      [](SwitchNode&, PortId, const Packet&) { return true; });

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().consumed_by_hook, 1u);
}

TEST(SwitchNode, PuntGoesToConfiguredPort) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& ctrl = net.add_node<SinkNode>("ctrl");
  net.connect(h1.id(), sw.id());    // port 0
  net.connect(sw.id(), ctrl.id());  // port 1
  sw.set_key_extractor(const_key);
  sw.set_default_action(Action::punt());
  sw.set_punt_port(1);

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(ctrl.arrivals.size(), 1u);
  EXPECT_EQ(sw.counters().punted, 1u);
}

TEST(SwitchNode, TableExhaustionDegradesToDefaultAction) {
  // A switch whose table filled up keeps forwarding installed keys but
  // applies the default action to everything that no longer fits.
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  SwitchConfig cfg;
  cfg.table_capacity = 1;
  auto& sw = net.add_node<SwitchNode>("sw", cfg);
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  // Keys alternate per frame; only the first could be installed.
  int frame_no = 0;
  sw.set_key_extractor([&frame_no](const Packet&) {
    return ParsedKey{U128{0, static_cast<std::uint64_t>(frame_no++ % 2)},
                     false};
  });
  ASSERT_TRUE(sw.table().insert(U128{0, 0}, Action::forward_to(1)));
  EXPECT_EQ(sw.table().insert(U128{0, 1}, Action::forward_to(1)).error().code,
            Errc::capacity_exceeded);
  EXPECT_EQ(sw.table().size(), sw.table().capacity());

  for (int i = 0; i < 4; ++i) h1.transmit(0, make_packet(10));
  net.loop().run();
  // Frames 0 and 2 matched the installed key; frames 1 and 3 fell to the
  // default action (drop).
  EXPECT_EQ(h2.arrivals.size(), 2u);
  EXPECT_EQ(sw.counters().forwarded, 2u);
  EXPECT_EQ(sw.counters().dropped, 2u);
}

TEST(SwitchNode, PuntWithoutPuntPortDrops) {
  // ActionKind::punt with punt_port == kInvalidPort cannot reach a
  // control plane: the frame is accounted as dropped, never as punted.
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);
  sw.set_default_action(Action::punt());
  ASSERT_EQ(sw.config().punt_port, kInvalidPort);

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().punted, 0u);
  EXPECT_EQ(sw.counters().dropped, 1u);
}

TEST(SwitchNode, HookConsumedFramesCountedExactly) {
  // Consumed frames increment received + consumed_by_hook and nothing
  // else; frames the hook passes through are accounted by their action.
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));
  // Consume every other frame.
  int seen = 0;
  sw.set_pre_match_hook([&seen](SwitchNode&, PortId, const Packet&) {
    return seen++ % 2 == 0;
  });

  for (int i = 0; i < 6; ++i) h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(sw.counters().received, 6u);
  EXPECT_EQ(sw.counters().consumed_by_hook, 3u);
  EXPECT_EQ(sw.counters().forwarded, 3u);
  EXPECT_EQ(sw.counters().flooded, 0u);
  EXPECT_EQ(sw.counters().dropped, 0u);
  EXPECT_EQ(h2.arrivals.size(), 3u);
}

TEST(SwitchNode, PipelineDelayApplied) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  SwitchConfig cfg;
  cfg.pipeline_delay = 7 * kMicrosecond;
  auto& sw = net.add_node<SwitchNode>("sw", cfg);
  auto& h2 = net.add_node<SinkNode>("h2");
  LinkParams lp;
  lp.latency = 1 * kMicrosecond;
  lp.bandwidth_bps = 1e12;  // negligible tx time
  net.connect(h1.id(), sw.id(), lp);
  net.connect(sw.id(), h2.id(), lp);
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));

  h1.transmit(0, make_packet(10));
  net.loop().run();
  ASSERT_EQ(h2.arrivals.size(), 1u);
  // ~1us in + 7us pipeline + ~1us out (plus sub-us tx times).
  EXPECT_GE(h2.arrivals[0].at, 9 * kMicrosecond);
  EXPECT_LT(h2.arrivals[0].at, 10 * kMicrosecond);
}

// --- topologies -----------------------------------------------------------------

TEST(Topology, LineRingStarMeshPortCounts) {
  Network net(1);
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_line(net, ids);
  EXPECT_EQ(net.port_count(ids[0]), 1u);
  EXPECT_EQ(net.port_count(ids[1]), 2u);

  Network net2(1);
  ids.clear();
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net2.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_ring(net2, ids);
  for (auto id : ids) EXPECT_EQ(net2.port_count(id), 2u);

  Network net3(1);
  ids.clear();
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net3.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_full_mesh(net3, ids);
  for (auto id : ids) EXPECT_EQ(net3.port_count(id), 3u);

  Network net4(1);
  ids.clear();
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net4.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_star(net4, ids[0], {ids[1], ids[2], ids[3]});
  EXPECT_EQ(net4.port_count(ids[0]), 3u);
  EXPECT_EQ(net4.port_count(ids[1]), 1u);
}

TEST(Network, RejectsDuplicateAndSelfLinks) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");

  auto first = net.try_connect(a.id(), b.id());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, 0u);
  EXPECT_EQ(first->second, 0u);

  // A second link between the same pair (either orientation) would
  // silently shadow the first in forwarding tables keyed by peer.
  auto dup = net.try_connect(a.id(), b.id());
  ASSERT_FALSE(dup.has_value());
  EXPECT_EQ(dup.error().code, Errc::invalid_argument);
  auto dup_rev = net.try_connect(b.id(), a.id());
  ASSERT_FALSE(dup_rev.has_value());
  EXPECT_EQ(dup_rev.error().code, Errc::invalid_argument);

  auto self = net.try_connect(c.id(), c.id());
  ASSERT_FALSE(self.has_value());
  EXPECT_EQ(self.error().code, Errc::invalid_argument);

  auto missing = net.try_connect(a.id(), 99);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, Errc::not_found);

  // The rejections left no ports behind, and distinct pairs still work.
  EXPECT_EQ(net.port_count(a.id()), 1u);
  EXPECT_EQ(net.port_count(b.id()), 1u);
  EXPECT_EQ(net.port_count(c.id()), 0u);
  EXPECT_TRUE(net.try_connect(b.id(), c.id()).has_value());
}

// --- datacenter topology generators ------------------------------------------

namespace {

/// Longest shortest-path over the fabric graph (BFS from every node).
std::uint32_t graph_diameter(const Network& net) {
  const std::size_t n = net.node_count();
  std::uint32_t diameter = 0;
  for (NodeId src = 0; src < n; ++src) {
    std::vector<std::uint32_t> dist(n, UINT32_MAX);
    std::vector<NodeId> frontier{src};
    dist[src] = 0;
    while (!frontier.empty()) {
      std::vector<NodeId> next;
      for (NodeId u : frontier) {
        for (PortId p = 0; p < net.port_count(u); ++p) {
          const NodeId v = net.peer_of(u, p);
          if (v != kInvalidNode && dist[v] == UINT32_MAX) {
            dist[v] = dist[u] + 1;
            next.push_back(v);
          }
        }
      }
      frontier = std::move(next);
    }
    for (std::uint32_t d : dist) {
      if (d == UINT32_MAX) {
        ADD_FAILURE() << "fabric is disconnected";
        return 0;
      }
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

/// Links with endpoints on different sides of `side` (true/false).
std::uint64_t crossing_links(const Network& net,
                             const std::vector<bool>& side) {
  std::uint64_t endpoints = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (PortId p = 0; p < net.port_count(u); ++p) {
      const NodeId v = net.peer_of(u, p);
      if (v != kInvalidNode && side[u] != side[v]) ++endpoints;
    }
  }
  return endpoints / 2;  // each link seen from both ends
}

std::uint64_t total_ports(const Network& net) {
  std::uint64_t ports = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) ports += net.port_count(u);
  return ports;
}

}  // namespace

TEST(Topology, LeafSpineMatchesClosedForms) {
  Network net(1);
  LeafSpineParams params;
  params.spines = 4;
  params.leaves = 6;
  params.hosts_per_leaf = 5;
  auto topo = build_leaf_spine(
      net, params,
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); },
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); });

  EXPECT_EQ(topo.hosts.size(), topo.host_count());
  EXPECT_EQ(topo.host_count(), 30u);
  // Trace files carry node names, so their format is pinned.
  EXPECT_EQ(net.node(topo.spines[3]).name(), "spine3");
  EXPECT_EQ(net.node(topo.leaves[5]).name(), "leaf5");
  EXPECT_EQ(net.node(topo.hosts[13]).name(), "h2-3");
  for (NodeId s : topo.spines) {
    EXPECT_EQ(net.port_count(s), topo.spine_degree());
  }
  for (NodeId l : topo.leaves) {
    EXPECT_EQ(net.port_count(l), topo.leaf_degree());
  }
  for (NodeId h : topo.hosts) EXPECT_EQ(net.port_count(h), 1u);
  EXPECT_EQ(total_ports(net), 2 * topo.total_links());

  // The documented port map.
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    for (std::uint32_t s = 0; s < params.spines; ++s) {
      EXPECT_EQ(net.peer_of(topo.leaves[l], s), topo.spines[s]);
      EXPECT_EQ(net.peer_of(topo.spines[s], l), topo.leaves[l]);
    }
    for (std::uint32_t h = 0; h < params.hosts_per_leaf; ++h) {
      const NodeId host = topo.hosts[l * params.hosts_per_leaf + h];
      EXPECT_EQ(net.peer_of(topo.leaves[l], params.spines + h), host);
      EXPECT_EQ(net.peer_of(host, 0), topo.leaves[l]);
    }
  }

  EXPECT_EQ(graph_diameter(net), topo.diameter_links());

  // Canonical bisection: low leaves + their hosts + low spines vs rest.
  std::vector<bool> side(net.node_count(), false);
  for (std::uint32_t s = 0; s < params.spines / 2; ++s) {
    side[topo.spines[s]] = true;
  }
  for (std::uint32_t l = 0; l < params.leaves / 2; ++l) {
    side[topo.leaves[l]] = true;
    for (std::uint32_t h = 0; h < params.hosts_per_leaf; ++h) {
      side[topo.hosts[l * params.hosts_per_leaf + h]] = true;
    }
  }
  EXPECT_EQ(crossing_links(net, side), topo.bisection_links());
}

TEST(Topology, FatTreeMatchesClosedForms) {
  Network net(1);
  FatTreeParams params;
  params.k = 4;
  auto topo = build_fat_tree(
      net, params,
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); },
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); });
  const std::uint32_t k = params.k;
  const std::uint32_t m = k / 2;

  EXPECT_EQ(topo.hosts.size(), topo.host_count());
  EXPECT_EQ(topo.host_count(), 16u);
  EXPECT_EQ(net.node(topo.cores[3]).name(), "core1-1");
  EXPECT_EQ(net.node(topo.aggs[5]).name(), "agg2-1");
  EXPECT_EQ(net.node(topo.edges[6]).name(), "edge3-0");
  EXPECT_EQ(net.node(topo.hosts[11]).name(), "h2-1-1");
  EXPECT_EQ(topo.cores.size() + topo.aggs.size() + topo.edges.size(),
            topo.switch_count());
  for (NodeId sw : topo.cores) EXPECT_EQ(net.port_count(sw), k);
  for (NodeId sw : topo.aggs) EXPECT_EQ(net.port_count(sw), k);
  for (NodeId sw : topo.edges) EXPECT_EQ(net.port_count(sw), k);
  for (NodeId h : topo.hosts) EXPECT_EQ(net.port_count(h), 1u);
  EXPECT_EQ(total_ports(net), 2 * topo.total_links());

  // Port-map spot checks across all pods.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < m; ++e) {
      const NodeId edge = topo.edges[p * m + e];
      for (std::uint32_t h = 0; h < m; ++h) {
        EXPECT_EQ(net.peer_of(edge, h), topo.hosts[(p * m + e) * m + h]);
      }
      for (std::uint32_t a = 0; a < m; ++a) {
        EXPECT_EQ(net.peer_of(edge, m + a), topo.aggs[p * m + a]);
        EXPECT_EQ(net.peer_of(topo.aggs[p * m + a], e), edge);
      }
    }
    for (std::uint32_t a = 0; a < m; ++a) {
      for (std::uint32_t j = 0; j < m; ++j) {
        EXPECT_EQ(net.peer_of(topo.aggs[p * m + a], m + j),
                  topo.cores[a * m + j]);
        EXPECT_EQ(net.peer_of(topo.cores[a * m + j], p), topo.aggs[p * m + a]);
      }
    }
  }

  EXPECT_EQ(graph_diameter(net), topo.diameter_links());

  // Canonical bisection: low pods on one side, cores + high pods on the
  // other; only the low pods' agg->core uplinks cross.
  std::vector<bool> side(net.node_count(), false);
  for (std::uint32_t p = 0; p < k / 2; ++p) {
    for (std::uint32_t i = 0; i < m; ++i) {
      side[topo.aggs[p * m + i]] = true;
      side[topo.edges[p * m + i]] = true;
      for (std::uint32_t h = 0; h < m; ++h) {
        side[topo.hosts[(p * m + i) * m + h]] = true;
      }
    }
  }
  EXPECT_EQ(crossing_links(net, side), topo.bisection_links());
}

namespace {

/// One routed leaf-spine run at 1024 hosts: every switch forwards on a
/// 64-bit destination-host key using the generator's documented port
/// map; returns the full delivery trace.
struct BigFabricTrace {
  std::vector<std::tuple<std::uint32_t, SimTime, std::size_t>> arrivals;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  bool operator==(const BigFabricTrace&) const = default;
};

BigFabricTrace run_big_leaf_spine(std::uint64_t seed) {
  Network net(seed);
  LeafSpineParams params;
  params.spines = 32;
  params.leaves = 32;
  params.hosts_per_leaf = 32;
  SwitchConfig scfg;
  scfg.key_bits = 64;
  auto topo = build_leaf_spine(
      net, params,
      [&](const std::string& n) {
        return net.add_node<SwitchNode>(n, scfg).id();
      },
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); });

  auto extractor = [](const Packet& pkt) -> std::optional<ParsedKey> {
    if (pkt.data.size() < 8) return std::nullopt;
    std::uint64_t dst = 0;
    for (int i = 0; i < 8; ++i) {
      dst |= std::uint64_t{pkt.data[static_cast<std::size_t>(i)]} << (8 * i);
    }
    return ParsedKey(U128{0, dst}, false);
  };
  // Routes follow the documented port map: spines reach host h through
  // leaf h / hosts_per_leaf; leaves deliver local hosts directly and
  // spread remote traffic over spines by destination index.
  for (std::uint32_t s = 0; s < params.spines; ++s) {
    auto& sw = static_cast<SwitchNode&>(net.node(topo.spines[s]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < topo.host_count(); ++h) {
      EXPECT_TRUE(sw.table().insert(
          U128{0, h}, Action::forward_to(static_cast<PortId>(
                          h / params.hosts_per_leaf))));
    }
  }
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    auto& sw = static_cast<SwitchNode&>(net.node(topo.leaves[l]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < topo.host_count(); ++h) {
      const auto leaf_of = static_cast<std::uint32_t>(h / params.hosts_per_leaf);
      const PortId out =
          leaf_of == l
              ? static_cast<PortId>(params.spines + h % params.hosts_per_leaf)
              : static_cast<PortId>(h % params.spines);
      EXPECT_TRUE(sw.table().insert(U128{0, h}, Action::forward_to(out)));
    }
  }

  Rng workload(seed ^ 0xBEEF);
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<std::uint32_t>(
        workload.next_below(topo.host_count()));
    std::uint64_t dst = workload.next_below(topo.host_count() - 1);
    if (dst >= src) ++dst;  // never self
    Packet pkt = make_packet(64 + workload.next_below(512));
    for (int b = 0; b < 8; ++b) {
      pkt.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(dst >> (8 * b));
    }
    static_cast<SinkNode&>(net.node(topo.hosts[src])).transmit(0, pkt);
  }
  net.loop().run();

  BigFabricTrace trace;
  for (std::uint32_t h = 0; h < topo.host_count(); ++h) {
    const auto& sink = static_cast<const SinkNode&>(net.node(topo.hosts[h]));
    for (const auto& arr : sink.arrivals) {
      trace.arrivals.emplace_back(h, arr.at, arr.pkt.data.size());
    }
  }
  trace.frames_sent = net.stats().frames_sent;
  trace.frames_delivered = net.stats().frames_delivered;
  trace.bytes_delivered = net.stats().bytes_delivered;
  return trace;
}

}  // namespace

TEST(Topology, LeafSpine1024HostsSameSeedByteIdentical) {
  const BigFabricTrace first = run_big_leaf_spine(42);
  const BigFabricTrace second = run_big_leaf_spine(42);
  EXPECT_GT(first.frames_delivered, 0u);
  EXPECT_EQ(first.arrivals.size(), 400u);  // routed fabric: no frame lost
  EXPECT_TRUE(first == second);
}

// Property: simulator determinism — same seed, same trace.
class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDeterminism, IdenticalTraces) {
  auto run = [&](std::uint64_t seed) {
    Network net(seed);
    auto& a = net.add_node<SinkNode>("a");
    auto& b = net.add_node<SinkNode>("b");
    LinkParams lp;
    lp.loss_rate = 0.2;
    lp.latency = 3 * kMicrosecond;
    net.connect(a.id(), b.id(), lp);
    Rng workload(seed ^ 0x777);
    for (int i = 0; i < 200; ++i) {
      a.transmit(0, make_packet(workload.next_below(500)));
    }
    net.loop().run();
    std::vector<std::pair<SimTime, std::size_t>> trace;
    for (const auto& arr : b.arrivals) {
      trace.emplace_back(arr.at, arr.pkt.data.size());
    }
    return trace;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism,
                         ::testing::Values(1, 7, 99, 12345));


// --- link failure injection -----------------------------------------------------

TEST(LinkFailure, DownLinkDropsAndCounts) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto [pa, pb] = net.connect(a.id(), b.id());
  (void)pb;
  net.set_link_up(a.id(), pa, false);
  EXPECT_FALSE(net.link_up(a.id(), pa));
  a.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(net.stats().frames_dropped_down, 1u);
}

TEST(LinkFailure, CutAffectsBothDirections) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto [pa, pb] = net.connect(a.id(), b.id());
  net.set_link_up(a.id(), pa, false);
  b.transmit(pb, make_packet(10));  // reverse direction also dead
  net.loop().run();
  EXPECT_TRUE(a.arrivals.empty());
  EXPECT_EQ(net.stats().frames_dropped_down, 1u);
}

TEST(LinkFailure, RestoreResumesDelivery) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto [pa, pb] = net.connect(a.id(), b.id());
  (void)pb;
  net.set_link_up(a.id(), pa, false);
  a.transmit(0, make_packet(10));
  net.loop().run();
  net.set_link_up(a.id(), pa, true);
  a.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(LinkFailure, InFlightFramesStillArrive) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 100 * kMicrosecond;
  auto [pa, pb] = net.connect(a.id(), b.id(), lp);
  (void)pb;
  a.transmit(0, make_packet(10));
  // Cut the link while the frame is mid-flight: it left before the cut.
  net.loop().schedule_at(10 * kMicrosecond,
                         [&] { net.set_link_up(a.id(), pa, false); });
  net.loop().run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

// --- two-stage (fallback) matching ------------------------------------------------

TEST(SwitchNode, FallbackKeyUsedOnExactMiss) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor([](const Packet&) {
    ParsedKey k{U128{0, 1}, false};
    k.fallback = U128{0, 2};
    return std::optional<ParsedKey>(k);
  });
  // Only the AGGREGATE rule exists.
  ASSERT_TRUE(sw.table().insert(U128{0, 2}, Action::forward_to(1)));
  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(h2.arrivals.size(), 1u);
}

TEST(SwitchNode, ExactRuleShadowsFallback) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  auto& h3 = net.add_node<SinkNode>("h3");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());  // port 1
  net.connect(sw.id(), h3.id());  // port 2
  sw.set_key_extractor([](const Packet&) {
    ParsedKey k{U128{0, 1}, false};
    k.fallback = U128{0, 2};
    return std::optional<ParsedKey>(k);
  });
  ASSERT_TRUE(sw.table().insert(U128{0, 1}, Action::forward_to(2)));  // exact
  ASSERT_TRUE(sw.table().insert(U128{0, 2}, Action::forward_to(1)));  // agg
  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(h3.arrivals.size(), 1u);  // exact rule won
}

TEST(SwitchNode, FallbackMissFallsToDefault) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor([](const Packet&) {
    ParsedKey k{U128{0, 1}, false};
    k.fallback = U128{0, 2};
    return std::optional<ParsedKey>(k);
  });
  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().dropped, 1u);
}

}  // namespace
}  // namespace objrpc
