// Sharded multi-core execution of the event loop (DESIGN.md §16).
//
// The fabric is partitioned by topology subtree: every event source
// (node) is assigned to one of K shards, each shard owns one timing
// wheel, and K worker threads drive the wheels concurrently under
// conservative-lookahead synchronization.  The lookahead L is the
// minimum latency of any link whose endpoints live on different shards:
// if every shard has executed all events with time < M, then any
// cross-shard frame still unsent leaves at some t >= M and arrives at
// t + serialization + L > M + L — so all shards may run freely up to
// the horizon H = min(M + L, segment limit + 1) without ever receiving a
// frame behind their clock; the event loop's segment loop sets the limit
// just before the next control time (or at the deadline).  Epochs are
// BSP rounds: release workers to H-1, park them at a barrier, re-home
// every wheel's outbox of cross-wheel handoffs
// (EventLoop::schedule_routed parks them there mid-epoch), replay the
// observer journal (obs/journal.hpp — the wire digest folds through it
// too).  The loop calls run_epoch again until no shard event is due.
//
// Determinism (the non-negotiable): event ORDER is a pure function of
// the canonical key set (see sim/event_loop.hpp), and every key is
// assigned by its sender's own clock and seq counter — identical in
// 1-shard and K-shard runs.  A cross-shard delivery is stamped once by
// its sender, crosses between wheels once (outbox, then barrier) and is
// inserted with its key intact, so a 1-, 2-, 4- and 8-shard run of the
// same seed produces a byte-identical wire digest.
// tests/shard_test.cpp and the bench sweep enforce this.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "sim/event_loop.hpp"
#include "sim/topology.hpp"

namespace objrpc {

class Network;

/// A partition of the fabric's event sources over K shards, plus the
/// conservative lookahead the partition supports.  Produce one with the
/// topology-aware planners below (or by hand in tests) and apply it
/// with Network::enable_sharding.
struct ShardPlan {
  std::uint32_t shards = 1;
  /// shard_of[node] in [0, shards).  Must cover every node.
  std::vector<std::uint32_t> shard_of;
  /// Minimum latency of any cross-shard link (ns).  A plan with
  /// lookahead < 1 is rejected (zero-latency cross-shard links admit no
  /// conservative horizon).
  SimDuration lookahead = 0;

  /// The trivial plan: everything on one shard (serial execution).
  static ShardPlan single();

  /// Leaf-spine subtree partition: leaf l (and every host hanging off
  /// it) goes to shard l % shards; spines — which touch every leaf —
  /// are spread round-robin.  Cross-shard links are exactly the
  /// leaf<->spine fabric links, so lookahead = fabric_link.latency.
  static ShardPlan leaf_spine(Network& net, const LeafSpineTopology& topo,
                              std::uint32_t shards);

  /// Fat-tree pod partition: pod p (edges, aggs, hosts) goes to shard
  /// p % shards; cores are spread round-robin.  Cross-shard links are
  /// agg<->core (and, when shards does not divide k, some intra-tier
  /// fabric links), never host links.
  static ShardPlan fat_tree(Network& net, const FatTreeTopology& topo,
                            std::uint32_t shards);

  /// Generic planner for arbitrary fabrics (the OBJRPC_SHARDS path):
  /// multi-port nodes (switches, controllers) are treated as subtree
  /// anchors and dealt round-robin across shards; single-port nodes
  /// (hosts) follow the shard of their only peer, keeping every
  /// host<->switch link intra-shard.
  static ShardPlan by_switch_groups(Network& net, std::uint32_t shards);

  /// Minimum latency over links whose endpoints land on different
  /// shards under `shard_of` (0 when no link crosses — which also
  /// rejects the plan, conservatively: such a partition means the
  /// fabric is disconnected across shards and a single shard loses
  /// nothing).
  static SimDuration min_cross_latency(Network& net,
                                       const std::vector<std::uint32_t>& shard_of);
};

/// Drives K shard wheels on K worker threads in conservative-lookahead
/// epochs.  Installed by Network::enable_sharding as the event loop's
/// ParallelDriver for every K > 1 run, observed or not: armed observers
/// defer into the shard journal and replay at the barrier (§17).
class ShardRunner final : public EventLoop::ParallelDriver {
 public:
  ShardRunner(Network& net, SimDuration lookahead, std::uint32_t shards);
  ~ShardRunner() override;
  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// EventLoop::ParallelDriver: peek M, run one epoch to the horizon,
  /// and merge the barrier.
  bool run_epoch(SimTime limit) override;

  /// Handoffs that had to grow a wheel's outbox — the cross-shard
  /// handoff's one allocation point (read at barriers or quiesce).
  std::uint64_t overflow_count() const;
  /// Completed epochs (BSP rounds) so far.
  std::uint64_t epochs() const { return epochs_; }
  /// Cross-shard events re-homed from the outboxes so far.
  std::uint64_t cross_frames() const { return cross_frames_; }

  // --- test hooks ----------------------------------------------------
  /// Replace the computed lookahead with `h` (an h larger than the real
  /// lookahead makes the runner UNSOUND: cross-shard frames can arrive
  /// behind the destination wheel's clock, which the wheel reports as a
  /// lookahead violation — the abort path shard_test exercises).
  void set_horizon_override_for_test(SimDuration h) { horizon_override_ = h; }

 private:
  /// Release the workers: each drives its wheel to `limit` (inclusive),
  /// then parks.  Caller drains the outboxes and replays the observer
  /// journal.
  void run_workers(SimTime limit);
  void worker_main(std::uint32_t lane);

  Network& net_;
  const SimDuration lookahead_;
  const std::uint32_t shards_;
  SimDuration horizon_override_ = 0;

  // Epoch barrier.  epoch_seq_ bumps to release workers; running_
  // counts them back in.  All worker<->coordinator visibility (the
  // epoch limit, the loop's epoch flag, outbox contents) is ordered by
  // mu_.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_seq_ = 0;
  SimTime epoch_limit_ = 0;
  std::uint32_t running_ = 0;
  bool stop_ = false;

  std::uint64_t epochs_ = 0;
  std::uint64_t cross_frames_ = 0;
  std::vector<std::thread> threads_;
};

}  // namespace objrpc
