// ShardJournal: the shard-safe observer plane (DESIGN.md §17).
//
// The sharded event loop (DESIGN.md §16) executes events concurrently,
// which is exactly the regime observers must not perturb.  The journal
// is the fabric's one barrier merge, under one rule: an observer hook
// runs inline on the executing lane, and the owner of the observed
// state journals its own small record through run_or_defer.  During an
// epoch each worker appends those closures to its OWN lane (SPSC, no
// synchronization), each stamped with the executing event's canonical
// key (at, key_a, key_b).  At the BSP barrier, workers parked, the
// coordinator sorts the records by key and replays them in canonical
// order — the order the serial driver executes them in — so every
// client (the wire digest fold, the tracer, packet taps such as the
// checker's wire feed, the checker's component hooks) sees the same
// fabric-global sequence and armed parallel runs produce byte-identical
// digests and traces.  The fabric never journals on an observer's behalf.
//
// Why the sort reconstructs serial order (proof sketch in §17): the
// serial driver executes events in ascending (at, key_a, key_b), each
// executed event's key is globally unique, and all records of one
// event land contiguously in exactly one lane in program order — so
// sorting by (key, lane, index within lane) both interleaves events
// canonically and preserves each event's internal program order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/exec_lane.hpp"
#include "common/small_fn.hpp"
#include "common/time.hpp"

namespace objrpc::obs {

class ShardJournal {
 public:
  /// Fills in the executing event's delivery time and canonical key.
  /// Installed by the Network (which can see the event loop); called on
  /// worker threads, so it must read only thread-local/lane-local state.
  using StampFn =
      std::function<void(SimTime& at, std::uint64_t& ka, std::uint64_t& kb)>;

  void set_stamp(StampFn fn) { stamp_ = std::move(fn); }

  /// One lane per execution lane (shards + control).  Called by
  /// Network::enable_sharding before any worker thread exists.
  void configure_lanes(std::uint32_t n) {
    if (n == 0) n = 1;
    lanes_.resize(n);
  }

  /// Toggled by the parallel driver around each epoch (workers parked
  /// both times); everywhere else records run inline.
  void set_deferring(bool on) { deferring_ = on; }

  /// Run `f` now (serial driver, control context, or disarmed run) or
  /// journal it for barrier replay.  `f` must capture everything it
  /// needs by value: by the time a deferred record replays, the
  /// triggering event's stack is long gone.
  template <typename F>
  void run_or_defer(F&& f) {
    if (!deferring_) {
      f();
      return;
    }
    defer(std::forward<F>(f));
  }

  /// Any records pending?  Coordinator-only, workers parked.
  bool empty() const {
    for (const Lane& l : lanes_) {
      if (!l.keys.empty()) return false;
    }
    return true;
  }

  /// Records replayed over the journal's lifetime (profiler/tests).
  std::uint64_t replayed_total() const { return replayed_total_; }

  /// Sort every lane's records by canonical key and invoke each one.
  /// `clock(at)` runs before each record so observers that read the
  /// simulation clock see the record's delivery time, exactly as they
  /// would have inline.  Coordinator-only, workers parked.
  void replay(const std::function<void(SimTime)>& clock);

 private:
  /// Append `f` to the current lane, stamped with the executing
  /// event's canonical key; the closure is built in place in the lane.
  /// MAY_ALLOC: lane vector growth — amortized, and only when the digest
  /// or an observer is armed.
  template <typename F>
  HOT_PATH MAY_ALLOC void defer(F&& f) {
    const std::uint32_t l =
        exec_lane_below(static_cast<std::uint32_t>(lanes_.size()));
    Lane& lane = lanes_[l];
    Key k{0, 0, 0, l, static_cast<std::uint32_t>(lane.fns.size())};
    stamp_(k.at, k.ka, k.kb);
    lane.keys.push_back(k);
    lane.fns.emplace_back(std::forward<F>(f));
  }

  /// A record's sort key: the canonical event key, then the record's
  /// position (lane, index into that lane's fns) as the tie-break that
  /// keeps one event's records in program order.  Kept apart from the
  /// closures so the barrier gathers and sorts 32-byte keys and touches
  /// each closure only to run it.
  struct Key {
    SimTime at;
    std::uint64_t ka;
    std::uint64_t kb;
    std::uint32_t lane;
    std::uint32_t idx;
  };
  /// Padded: each lane is written by its owning worker during an epoch.
  /// keys[i] stamps fns[i].
  struct alignas(64) Lane {
    std::vector<Key> keys;
    std::vector<SmallFn> fns;
  };

  /// SHARD_LANED: lanes_[ExecLane::idx] is the only element a worker
  /// touches; configure_lanes sizes it before threads exist.
  SHARD_LANED std::vector<Lane> lanes_{1};
  std::vector<Key> order_;
  bool deferring_ = false;
  StampFn stamp_;
  std::uint64_t replayed_total_ = 0;
};

}  // namespace objrpc::obs
