#include "sim/shard.hpp"

#include <algorithm>

#include "common/exec_lane.hpp"
#include "common/log.hpp"
#include "sim/network.hpp"

namespace objrpc {

// --- ShardPlan -------------------------------------------------------

ShardPlan ShardPlan::single() { return ShardPlan{}; }

SimDuration ShardPlan::min_cross_latency(
    Network& net, const std::vector<std::uint32_t>& shard_of) {
  SimDuration best = 0;
  bool any = false;
  const auto n = static_cast<NodeId>(net.node_count());
  for (NodeId id = 0; id < n; ++id) {
    const auto ports = static_cast<PortId>(net.port_count(id));
    for (PortId p = 0; p < ports; ++p) {
      const NodeId peer = net.peer_of(id, p);
      if (peer == kInvalidNode) continue;
      if (shard_of[id] == shard_of[peer]) continue;
      const SimDuration lat = net.link_params(id, p).latency;
      if (!any || lat < best) {
        best = lat;
        any = true;
      }
    }
  }
  return any ? best : 0;
}

ShardPlan ShardPlan::leaf_spine(Network& net, const LeafSpineTopology& topo,
                                std::uint32_t shards) {
  ShardPlan plan;
  plan.shards = shards < 1 ? 1 : shards;
  plan.shard_of.assign(net.node_count(), 0);
  if (plan.shards == 1) return plan;
  for (std::size_t s = 0; s < topo.spines.size(); ++s) {
    plan.shard_of[topo.spines[s]] =
        static_cast<std::uint32_t>(s) % plan.shards;
  }
  const std::uint32_t hpl = topo.params.hosts_per_leaf;
  for (std::size_t l = 0; l < topo.leaves.size(); ++l) {
    const std::uint32_t s = static_cast<std::uint32_t>(l) % plan.shards;
    plan.shard_of[topo.leaves[l]] = s;
    for (std::uint32_t h = 0; h < hpl; ++h) {
      plan.shard_of[topo.hosts[l * hpl + h]] = s;
    }
  }
  plan.lookahead = min_cross_latency(net, plan.shard_of);
  return plan;
}

ShardPlan ShardPlan::fat_tree(Network& net, const FatTreeTopology& topo,
                              std::uint32_t shards) {
  ShardPlan plan;
  plan.shards = shards < 1 ? 1 : shards;
  plan.shard_of.assign(net.node_count(), 0);
  if (plan.shards == 1) return plan;
  const std::uint32_t m = topo.params.k / 2;
  for (std::size_t c = 0; c < topo.cores.size(); ++c) {
    plan.shard_of[topo.cores[c]] = static_cast<std::uint32_t>(c) % plan.shards;
  }
  for (std::uint32_t p = 0; p < topo.params.k; ++p) {
    const std::uint32_t s = p % plan.shards;
    for (std::uint32_t a = 0; a < m; ++a) {
      plan.shard_of[topo.aggs[p * m + a]] = s;
      plan.shard_of[topo.edges[p * m + a]] = s;
    }
    for (std::uint32_t e = 0; e < m; ++e) {
      for (std::uint32_t h = 0; h < m; ++h) {
        plan.shard_of[topo.hosts[(p * m + e) * m + h]] = s;
      }
    }
  }
  plan.lookahead = min_cross_latency(net, plan.shard_of);
  return plan;
}

ShardPlan ShardPlan::by_switch_groups(Network& net, std::uint32_t shards) {
  ShardPlan plan;
  plan.shards = shards < 1 ? 1 : shards;
  const auto n = static_cast<NodeId>(net.node_count());
  plan.shard_of.assign(n, 0);
  if (plan.shards == 1) return plan;
  // Pass 1: multi-port nodes are subtree anchors, dealt round-robin.
  std::vector<bool> anchored(n, false);
  std::uint32_t next = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (net.port_count(id) >= 2) {
      plan.shard_of[id] = next++ % plan.shards;
      anchored[id] = true;
    }
  }
  // Pass 2: single-port nodes (hosts) follow their only peer, keeping
  // the host<->switch link intra-shard.
  for (NodeId id = 0; id < n; ++id) {
    if (anchored[id] || net.port_count(id) == 0) continue;
    const NodeId peer = net.peer_of(id, 0);
    if (peer != kInvalidNode && anchored[peer]) {
      plan.shard_of[id] = plan.shard_of[peer];
      anchored[id] = true;
    }
  }
  // Pass 3: whatever is left (isolated nodes, point-to-point pairs with
  // no switch) is dealt round-robin.
  for (NodeId id = 0; id < n; ++id) {
    if (!anchored[id]) plan.shard_of[id] = next++ % plan.shards;
  }
  plan.lookahead = min_cross_latency(net, plan.shard_of);
  return plan;
}

// --- ShardRunner -----------------------------------------------------

ShardRunner::ShardRunner(Network& net, SimDuration lookahead,
                         std::uint32_t shards)
    : net_(net),
      lookahead_(lookahead < 1 ? 1 : lookahead),
      shards_(shards) {
  threads_.reserve(shards_);
  for (std::uint32_t i = 0; i < shards_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ShardRunner::~ShardRunner() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ShardRunner::run_epoch(SimTime limit) {
  EventLoop& loop = net_.loop_;
  // M: the earliest pending shard event.  next_time's min_bound fast
  // path makes this scan cheap for idle wheels.
  SimTime ms = kNoEventTime;
  for (auto& w : loop.wheels_) {
    const SimTime t = w->next_time(limit);
    if (t != kNoEventTime && (ms == kNoEventTime || t < ms)) ms = t;
  }
  if (ms == kNoEventTime) return false;
  // Conservative horizon: every shard may run events in [M, M + L)
  // without receiving behind its clock — a cross-shard frame sent at
  // t >= M arrives at t + serialization + L > M + L.  The override
  // hook widens L past the proof for the violation-abort test.
  const SimDuration la =
      horizon_override_ > 0 ? horizon_override_ : lookahead_;
  // Inclusive epoch limit, clamped to `limit` without computing
  // ms + la - 1 when it would overflow (ms <= limit, la >= 1).
  const SimTime run_to = ms > limit - (la - 1) ? limit : ms + la - 1;
  obs::ShardProfiler& prof = net_.shard_profiler_;
  if (prof.armed()) prof.begin_epoch(epoch_seq_ + 1);
  run_workers(run_to);
  // Barrier work, workers parked: land cross-shard handoffs (keys
  // intact) and replay journaled observer records — digest folds
  // included — in canonical order.
  if (prof.armed()) {
    prof.end_epoch();
    for (std::uint32_t i = 0; i < shards_; ++i) {
      prof.sample_outbox(i, loop.wheel(i).outbox_depth());
    }
    prof.begin_drain();
  }
  cross_frames_ += loop.drain_outboxes();
  net_.replay_observer_journal();
  // Barrier hooks read now(): merge the wheel clocks first.
  for (auto& w : loop.wheels_) {
    if (w->now() > loop.global_now_) loop.global_now_ = w->now();
  }
  if (prof.armed()) prof.end_drain(cross_frames_, overflow_count());
  net_.on_epoch_barrier();
  return true;
}

void ShardRunner::run_workers(SimTime limit) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    epoch_limit_ = limit;
    net_.loop_.concurrent_epoch_ = true;
    // Observer records (digest folds included) journal during the
    // epoch and run inline everywhere else.
    net_.journal_.set_deferring(true);
    running_ = shards_;
    ++epoch_seq_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return running_ == 0; });
    net_.loop_.concurrent_epoch_ = false;
    net_.journal_.set_deferring(false);
  }
  ++epochs_;
}

void ShardRunner::worker_main(std::uint32_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime limit;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || epoch_seq_ != seen; });
      if (stop_) return;
      seen = epoch_seq_;
      limit = epoch_limit_;
    }
    ExecLane::idx = lane;
    obs::ShardProfiler& prof = net_.shard_profiler_;
    if (prof.armed()) prof.begin_exec(lane);
    TimingWheel& w = net_.loop_.wheel(lane);
    {
      ShardGuard guard(w.shard());
      w.run_until(limit);
    }
    if (prof.armed()) prof.end_exec(lane);
    bool last = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      last = --running_ == 0;
    }
    if (last) cv_done_.notify_all();
  }
}

std::uint64_t ShardRunner::overflow_count() const {
  std::uint64_t n = 0;
  for (const auto& w : net_.loop_.wheels_) n += w->outbox_grows();
  return n;
}

}  // namespace objrpc
