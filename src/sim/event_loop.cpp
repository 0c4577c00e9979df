#include "sim/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/env_flag.hpp"
#include "common/exec_lane.hpp"

namespace objrpc {

namespace {

SimTime clamp_bound(std::uint64_t b) {
  const auto mx =
      static_cast<std::uint64_t>(std::numeric_limits<SimTime>::max());
  return static_cast<SimTime>(b < mx ? b : mx);
}

}  // namespace

thread_local EventLoop::SchedCtx EventLoop::tls_ctx_;

// ---------------------------------------------------------------- wheel

TimingWheel::TimingWheel(EventLoop* owner, std::uint32_t lane)
    : owner_(owner), lane_(lane) {
  shard_.assert_held();  // construction is shard-local by definition
  entries_.reserve(kChunk);
}

std::uint32_t TimingWheel::alloc_node(SimTime at, std::uint64_t key_a,
                                      std::uint64_t key_b,
                                      std::uint32_t exec_src, Callback&& fn) {
  if (free_head_ != kNoNode) {
    const std::uint32_t idx = free_head_;
    Entry& n = entries_[idx];
    free_head_ = n.next;
    n.at = at;
    n.key_a = key_a;
    n.key_b = key_b;
    n.exec_src = exec_src;
    fn_at(idx) = std::move(fn);
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  if ((idx & (kChunk - 1)) == 0) {
    fn_chunks_.push_back(std::make_unique<Callback[]>(kChunk));
  }
  entries_.push_back(Entry{at, key_a, key_b, kNoNode, exec_src});
  fn_at(idx) = std::move(fn);
  return idx;
}

SimTime TimingWheel::clamp_past(SimTime at, SimTime floor) {
  ++clamped_past_schedules_;
  if (strict_past_schedules_) {
    std::fprintf(stderr,
                 "EventLoop: schedule_at(%lld) is in the past (now=%lld); "
                 "caller violates causality\n",
                 static_cast<long long>(at), static_cast<long long>(floor));
    std::abort();
  }
  return floor;  // never execute into the past
}

void TimingWheel::schedule(SimTime at, std::uint64_t key_a,
                           std::uint64_t key_b, std::uint32_t exec_src,
                           SimTime floor, Callback&& fn) {
  shard_.assert_held();
  if (at < floor) at = clamp_past(at, floor);
  if (at < now_) {
    // The scheduler's clock passed the floor check but this wheel has
    // already executed past `at`: only the parallel runner can cause
    // this, by re-homing a cross-wheel handoff with less delay than
    // the lookahead bound it promised.
    ++clamped_past_schedules_;
    if (strict_past_schedules_) {
      std::fprintf(stderr,
                   "EventLoop: lookahead violation: cross-shard event at "
                   "%lld is behind shard clock %lld\n",
                   static_cast<long long>(at), static_cast<long long>(now_));
      std::abort();
    }
    at = now_;
  }
  if (at < min_bound_) min_bound_ = at;
  place(alloc_node(at, key_a, key_b, exec_src, std::move(fn)),
        /*cascading=*/false);
  ++size_;
}

void TimingWheel::place(std::uint32_t idx, bool cascading) {
  const auto at = static_cast<std::uint64_t>(entries_[idx].at);
  if (!cascading && at < tick_) {
    // Cursor rollback: the parallel runner peeks every wheel's next
    // event (the epoch's M), which can park an idle wheel's cursor well
    // past the global execution point; a cross-wheel handoff may then
    // land behind it at the barrier.
    // Moving the cursor back is safe — nothing between `at` and the old
    // cursor has executed — but level-0 slots become window-ambiguous,
    // which next_time resolves by checking entry times (and place by
    // sorting on (at, key)).
    tick_ = at;
    sorted_tick_ = kNoTick;
  }
  const std::uint64_t delta = at - tick_;  // at >= tick_ by invariant
  std::size_t level = 0;
  while (level + 1 < kLevels && (delta >> level_shift(level + 1)) != 0) {
    ++level;
  }
  std::size_t slot;
  if ((delta >> kHorizonBits) != 0) {
    // Beyond the wheel horizon (~208 sim-days): park in the farthest
    // top-level bucket; each cascade re-examines it.
    constexpr std::size_t kTop = kLevels - 1;
    slot = ((tick_ >> level_shift(kTop)) + level_slots(kTop) - 1) &
           (level_slots(kTop) - 1);
  } else {
    slot = (at >> level_shift(level)) & (level_slots(level) - 1);
  }
  const std::size_t bi = level_base(level) + slot;
  Bucket& b = buckets_[bi];
  Entry& n = entries_[idx];
  if (level == 0 && at == tick_ && sorted_tick_ == tick_) {
    // Same-tick child landing in the bucket the cursor is draining
    // (schedule_at(now) from a running callback, including past-time
    // clamps).  Insert in key order so execution order stays a pure
    // function of the event-key set — the property every shard count
    // must agree on.  The walk is short: only the not-yet-executed
    // remainder of one tick.
    std::uint32_t prev = kNoNode;
    std::uint32_t cur = b.head;
    while (cur != kNoNode) {
      const Entry& e = entries_[cur];
      if (e.at > n.at ||
          (e.at == n.at &&
           (e.key_a > n.key_a ||
            (e.key_a == n.key_a && e.key_b > n.key_b)))) {
        break;
      }
      prev = cur;
      cur = e.next;
    }
    n.next = cur;
    if (prev == kNoNode) {
      b.head = idx;
    } else {
      entries_[prev].next = idx;
    }
    if (cur == kNoNode) b.tail = idx;
    mark(bi);
    return;
  }
  if (cascading) {
    n.next = b.head;
    b.head = idx;
    if (b.tail == kNoNode) b.tail = idx;
  } else {
    n.next = kNoNode;
    if (b.tail == kNoNode) {
      b.head = b.tail = idx;
    } else {
      entries_[b.tail].next = idx;
      b.tail = idx;
    }
  }
  mark(bi);
}

void TimingWheel::mark(std::size_t b) {
  bits_[b >> 6] |= std::uint64_t{1} << (b & 63);
  summary_[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
}

void TimingWheel::unmark(std::size_t b) {
  if ((bits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63))) == 0) {
    summary_[b >> 12] &= ~(std::uint64_t{1} << ((b >> 6) & 63));
  }
}

void TimingWheel::cascade(std::size_t level, std::size_t slot) {
  const std::size_t bi = level_base(level) + slot;
  Bucket& b = buckets_[bi];
  std::uint32_t head = b.head;
  if (head == kNoNode) return;
  b.head = b.tail = kNoNode;
  unmark(bi);
  // Reverse the list, then re-place front-first: every target bucket
  // receives its share as a prepended block in the original order.
  // Arrival order within a bucket no longer matters for execution (the
  // per-tick key sort decides), but keeping it stable keeps the sort's
  // input deterministic.
  std::uint32_t rev = kNoNode;
  while (head != kNoNode) {
    const std::uint32_t nxt = entries_[head].next;
    entries_[head].next = rev;
    rev = head;
    head = nxt;
  }
  while (rev != kNoNode) {
    const std::uint32_t nxt = entries_[rev].next;
    place(rev, /*cascading=*/true);
    rev = nxt;
  }
}

void TimingWheel::sort_bucket(std::size_t slot) {
  Bucket& b = buckets_[slot];  // level 0 starts at bucket 0
  if (b.head == kNoNode || entries_[b.head].next == kNoNode) return;
  // Copy the keys out so the comparator touches no guarded state (and
  // no pointer-chased memory).
  sort_scratch_.clear();
  for (std::uint32_t i = b.head; i != kNoNode; i = entries_[i].next) {
    const Entry& e = entries_[i];
    sort_scratch_.push_back(SortRec{e.at, e.key_a, e.key_b, i});
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.end(),
            [](const SortRec& x, const SortRec& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.key_a != y.key_a) return x.key_a < y.key_a;
              return x.key_b < y.key_b;
            });
  for (std::size_t i = 0; i + 1 < sort_scratch_.size(); ++i) {
    entries_[sort_scratch_[i].idx].next = sort_scratch_[i + 1].idx;
  }
  entries_[sort_scratch_.back().idx].next = kNoNode;
  b.head = sort_scratch_.front().idx;
  b.tail = sort_scratch_.back().idx;
}

std::size_t TimingWheel::next_occupied(std::size_t from,
                                       std::size_t end) const {
  if (from >= end) return kNoBucket;
  std::size_t w = from >> 6;
  std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (from & 63));
  if (word == 0) {
    // The rest of the range, one summary word (64 bitmap words) at a
    // time.
    const std::size_t wend = end >> 6;
    std::size_t found = kNoBucket;
    for (std::size_t sw = w + 1; sw < wend; sw = (sw | 63) + 1) {
      std::uint64_t m = summary_[sw >> 6] & (~std::uint64_t{0} << (sw & 63));
      const std::size_t left = wend - (sw & ~std::size_t{63});
      if (left < 64) m &= (std::uint64_t{1} << left) - 1;
      if (m != 0) {
        found = (sw & ~std::size_t{63}) +
                static_cast<std::size_t>(std::countr_zero(m));
        break;
      }
    }
    if (found == kNoBucket) return kNoBucket;
    w = found;
    word = bits_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
}

std::uint64_t TimingWheel::first_set_from(std::size_t level,
                                          std::size_t from) const {
  const std::size_t base = level_base(level);
  const std::size_t end = level_base(level + 1);
  std::size_t b = next_occupied(base + from, end);
  // Nothing at or after `from`: wrap, so the first hit lies below it.
  if (b == kNoBucket) b = next_occupied(base, end);
  if (b == kNoBucket) return kNoDist;
  return (b - base + level_slots(level) - from) & (level_slots(level) - 1);
}

SimTime TimingWheel::next_time(SimTime limit) {
  shard_.assert_held();
  if (size_ == 0 || limit < 0 || limit < min_bound_) return kNoEventTime;
  const auto ulimit = static_cast<std::uint64_t>(limit);
  // Earliest event seen in a skipped (future-window) slot: keeps
  // min_bound_ honest when the scan comes up empty.
  std::uint64_t min_skip = ~std::uint64_t{0};
  for (;;) {
    // Scan level 0 from the cursor slot to the end of the window, one
    // occupied slot at a time.  Slots behind the cursor belong to the
    // NEXT window (a delta below the window can wrap), so they are
    // correctly out of scope until the advance below.
    constexpr std::size_t kSlots0 = level_slots(0);
    const std::uint64_t window = tick_ & ~std::uint64_t{kSlots0 - 1};
    for (std::size_t slot = next_occupied(tick_ & (kSlots0 - 1), kSlots0);
         slot != kNoBucket; slot = next_occupied(slot + 1, kSlots0)) {
      const std::uint64_t at = window + slot;
      if (at > ulimit) {
        // Everything still pending is at `at` or later, except events
        // in slots we skipped below.
        min_bound_ = clamp_bound(std::min(ulimit + 1, min_skip));
        return kNoEventTime;
      }
      // A slot can hold events of a later window after a cursor
      // rollback; they fire only when the cursor wraps around to
      // their window, so check the bucket's earliest real time.
      // Once the bucket is sorted for this tick its head holds that
      // minimum (sorted by `at` first, and every later insert goes
      // through place()'s ordered fast path), so only the FIRST
      // touch pays the walk: next_time runs once per pop, and a
      // full re-scan here would turn a k-event tick into O(k^2).
      std::uint64_t mn;
      if (sorted_tick_ == at) {
        mn = static_cast<std::uint64_t>(entries_[buckets_[slot].head].at);
      } else {
        // One walk doubles as a sortedness probe: schedule order
        // usually IS key order (parents execute in key order and
        // append their children in turn), and a bucket that arrives
        // sorted skips sort_bucket wholesale — the difference
        // between paying O(k log k) per tick and paying one
        // comparison per event.
        mn = ~std::uint64_t{0};
        bool in_order = true;
        const Entry* prev = nullptr;
        for (std::uint32_t i = buckets_[slot].head; i != kNoNode;
             i = entries_[i].next) {
          const Entry& e = entries_[i];
          mn = std::min(mn, static_cast<std::uint64_t>(e.at));
          if (prev != nullptr &&
              (prev->at > e.at ||
               (prev->at == e.at &&
                (prev->key_a > e.key_a ||
                 (prev->key_a == e.key_a && prev->key_b > e.key_b))))) {
            in_order = false;
          }
          prev = &e;
        }
        if (in_order && mn == at) sorted_tick_ = at;
      }
      if (mn == at) {
        if (sorted_tick_ != at) {
          sort_bucket(slot);
          sorted_tick_ = at;
        }
        tick_ = at;
        min_bound_ = static_cast<SimTime>(at);
        return static_cast<SimTime>(at);
      }
      min_skip = std::min(min_skip, mn);  // future-window slot
    }
    // Window exhausted: jump to the next tick where anything can
    // happen — the earliest of (a) the cursor reaching an occupied
    // level-0 slot in a later window, (b) a cascade boundary whose
    // higher-level bucket is occupied.  Boundaries in between are
    // no-ops by construction (their buckets are empty), so skipping
    // them wholesale is exact, and a far-future timer costs O(levels)
    // bitmap scans instead of one iteration per empty window.
    const std::uint64_t next_window = window + kSlots0;
    std::uint64_t target = ~std::uint64_t{0};
    const std::uint64_t d0 = first_set_from(0, 0);
    if (d0 != kNoDist) target = next_window + d0;
    for (std::size_t lv = 1; lv < kLevels; ++lv) {
      std::uint64_t c0 = next_window >> level_shift(lv);
      if ((c0 << level_shift(lv)) != next_window) ++c0;
      const std::uint64_t d = first_set_from(
          lv, static_cast<std::size_t>(c0 & (level_slots(lv) - 1)));
      if (d == kNoDist) continue;
      target = std::min(target, (c0 + d) << level_shift(lv));
    }
    if (target > ulimit) {
      min_bound_ = clamp_bound(std::min(ulimit + 1, min_skip));
      return kNoEventTime;
    }
    tick_ = target;
    for (std::size_t lv = kLevels - 1; lv >= 1; --lv) {
      const std::uint64_t mask = (std::uint64_t{1} << level_shift(lv)) - 1;
      if ((tick_ & mask) == 0) {
        cascade(lv, (tick_ >> level_shift(lv)) & (level_slots(lv) - 1));
      }
    }
  }
}

void TimingWheel::pop_run_raw() {
  shard_.assert_held();
  const std::size_t slot = tick_ & (level_slots(0) - 1);
  Bucket& b = buckets_[slot];
  const std::uint32_t idx = b.head;
  b.head = entries_[idx].next;
  if (b.head == kNoNode) {
    b.tail = kNoNode;
    unmark(slot);
  } else {
    // Hide the next node's cache miss behind this callback's execution.
    __builtin_prefetch(&entries_[b.head]);
    __builtin_prefetch(&fn_at(b.head));
  }
  --size_;
  now_ = static_cast<SimTime>(tick_);
  ++executed_;
  // Point the scheduling context at this event: schedules from inside
  // the callback inherit the wheel, the source identity (for seq
  // stamping), and the lane (for SHARD_LANED allocators).
  const Entry& e = entries_[idx];
  EventLoop::tls_ctx_ =
      EventLoop::SchedCtx{owner_, this, e.exec_src, e.key_a, e.key_b};
  ExecLane::idx = lane_;
  // Invoke in place: the chunked storage never moves, the node is the
  // callback's sole owner, and the node is only recycled AFTER the call
  // returns, so a callback that schedules new events (growing the entry
  // array) cannot invalidate or reuse its own storage.
  Callback& fn = fn_at(idx);
  fn();
  fn.reset();
  entries_[idx].next = free_head_;
  free_head_ = idx;
}

void TimingWheel::drain_current_tick_raw() {
  shard_.assert_held();
  while (sorted_tick_ == tick_) {
    const std::uint32_t h = buckets_[tick_ & (level_slots(0) - 1)].head;
    if (h == kNoNode ||
        static_cast<std::uint64_t>(entries_[h].at) != tick_) {
      break;
    }
    pop_run_raw();
  }
}

void TimingWheel::run_until(SimTime limit) {
  const EventLoop::SchedCtx saved = EventLoop::tls_ctx_;
  const std::uint32_t saved_lane = ExecLane::idx;
  while (next_time(limit) != kNoEventTime) {
    pop_run_raw();
    drain_current_tick_raw();
  }
  ExecLane::idx = saved_lane;
  EventLoop::tls_ctx_ = saved;
}

void TimingWheel::hand_off(SimTime at, std::uint64_t key_a,
                           std::uint64_t key_b, std::uint32_t exec_src,
                           SimTime floor, Callback&& fn) {
  shard_.assert_held();
  if (at < floor) at = clamp_past(at, floor);
  if (outbox_.size() == outbox_.capacity()) ++outbox_grows_;
  outbox_.push_back(Extracted{at, key_a, key_b, exec_src, std::move(fn)});
}

std::size_t TimingWheel::outbox_depth() const {
  shard_.assert_held();
  return outbox_.size();
}

bool TimingWheel::occupancy_consistent_for_test() const {
  shard_.assert_held();
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const bool bit = ((bits_[b >> 6] >> (b & 63)) & 1) != 0;
    if (bit != (buckets_[b].head != kNoNode)) return false;
  }
  for (std::size_t w = 0; w < kWords; ++w) {
    const bool bit = ((summary_[w >> 6] >> (w & 63)) & 1) != 0;
    if (bit != (bits_[w] != 0)) return false;
  }
  return true;
}

std::size_t TimingWheel::drain_outbox() {
  shard_.assert_held();  // workers parked: the coordinator holds every wheel
  const std::size_t n = outbox_.size();
  owner_->rehome(outbox_);
  return n;
}

void TimingWheel::extract_all(std::vector<Extracted>& out) {
  shard_.assert_held();
  for (Bucket& b : buckets_) {
    for (std::uint32_t i = b.head; i != kNoNode; i = entries_[i].next) {
      const Entry& e = entries_[i];
      out.push_back(
          Extracted{e.at, e.key_a, e.key_b, e.exec_src, std::move(fn_at(i))});
    }
    b = Bucket{};
  }
  for (auto& word : bits_) word = 0;
  for (auto& word : summary_) word = 0;
  entries_.clear();
  fn_chunks_.clear();
  free_head_ = kNoNode;
  size_ = 0;
  sorted_tick_ = kNoTick;
  min_bound_ = 0;
}

// --------------------------------------------------------------- facade

EventLoop::EventLoop() : control_(this, /*lane=*/1) {
  wheels_.push_back(std::make_unique<TimingWheel>(this, /*lane=*/0));
  set_strict_past_schedules(env_flag("CHECK_INVARIANTS"));
}

EventLoop::~EventLoop() = default;

SimTime EventLoop::now() const {
  const SchedCtx& c = tls_ctx_;
  if (c.owner == this && c.wheel != nullptr) return c.wheel->now();
  return global_now_;
}

void EventLoop::set_strict_past_schedules(bool strict) {
  strict_past_schedules_ = strict;
  control_.set_strict_past_schedules(strict);
  for (auto& w : wheels_) w->set_strict_past_schedules(strict);
}

void EventLoop::schedule_at(SimTime at, Callback fn) {
  SchedCtx& c = tls_ctx_;
  if (c.owner == this && c.wheel != &control_) {
    // Node context: the event is this node's own timer — it stays on
    // the node's wheel, stamped from the node's seq counter.
    TimingWheel* w = c.wheel;
    const SimTime sched_now = w->now();
    w->schedule(at,
                kShardLaneBit | static_cast<std::uint64_t>(sched_now),
                stamp(c.src), c.src, sched_now, std::move(fn));
    return;
  }
  // External or control-lane context: control wheel, lane-0 key (runs
  // before any shard event at the same tick, in every mode).
  control_.set_now(global_now_);
  const SimTime sched_now = control_.now();
  control_.schedule(at, static_cast<std::uint64_t>(sched_now),
                    stamp(kExternalSource), kExternalSource, sched_now,
                    std::move(fn));
}

void EventLoop::schedule_routed(std::uint32_t dst, SimTime at, Callback fn) {
  SchedCtx& c = tls_ctx_;
  std::uint32_t stamp_src = kExternalSource;
  SimTime sched_now = global_now_;
  if (c.owner == this && c.wheel != nullptr) {
    sched_now = c.wheel->now();
    if (c.wheel != &control_) stamp_src = c.src;
  }
  const std::uint64_t key_a =
      kShardLaneBit | static_cast<std::uint64_t>(sched_now);
  const std::uint64_t key_b = stamp(stamp_src);
  TimingWheel* to = wheel_of_source(dst);
  if (concurrent_epoch_ && to != c.wheel) {
    // Inside an epoch every caller is a worker executing its own wheel,
    // and dst's wheel belongs to another worker: park the event in the
    // executing wheel's outbox until the barrier.
    c.wheel->hand_off(at, key_a, key_b, dst, sched_now, std::move(fn));
    return;
  }
  to->schedule(at, key_a, key_b, dst, sched_now, std::move(fn));
}

void EventLoop::schedule_on_source(std::uint32_t src, SimTime at,
                                   Callback fn) {
  const SimTime sched_now = now();
  wheel_of_source(src)->schedule(
      at, kShardLaneBit | static_cast<std::uint64_t>(sched_now), stamp(src),
      src, sched_now, std::move(fn));
}

void EventLoop::register_source(std::uint32_t src) {
  if (src >= source_seq_.size()) {
    source_seq_.resize(src + 1, 0);
    wheel_of_.resize(src + 1, 0);
  }
}

void EventLoop::configure_shards(std::uint32_t shards,
                                 const std::vector<std::uint32_t>& shard_of) {
  if (shards == 0) shards = 1;
  // Re-home pending shard events: keys travel with them, so a
  // partition change never reorders anything.
  std::vector<TimingWheel::Extracted> moved;
  for (auto& w : wheels_) w->extract_all(moved);
  wheels_.clear();
  for (std::uint32_t i = 0; i < shards; ++i) {
    auto w = std::make_unique<TimingWheel>(this, i);
    w->set_strict_past_schedules(strict_past_schedules_);
    w->set_now(global_now_);
    wheels_.push_back(std::move(w));
  }
  control_.set_lane(shards);
  wheel_of_.assign(source_seq_.size(), 0);
  for (std::size_t src = 0; src < wheel_of_.size(); ++src) {
    if (src < shard_of.size() && shard_of[src] < shards) {
      wheel_of_[src] = shard_of[src];
    }
  }
  rehome(moved);
}

void EventLoop::rehome(std::vector<TimingWheel::Extracted>& recs) {
  for (auto& e : recs) {
    TimingWheel* w = e.exec_src == kExternalSource
                         ? wheels_[0].get()
                         : wheel_of_source(e.exec_src);
    w->schedule(e.at, e.key_a, e.key_b, e.exec_src, /*floor=*/e.at,
                std::move(e.fn));
  }
  recs.clear();
}

std::uint64_t EventLoop::drain_outboxes() {
  // Insertion order across outboxes is irrelevant: key order decides
  // execution order.
  std::uint64_t moved = 0;
  for (auto& w : wheels_) moved += w->drain_outbox();
  return moved;
}

EventLoop::ObserverReplayScope::ObserverReplayScope(EventLoop& loop)
    : loop_(loop), saved_ctx_(tls_ctx_), saved_lane_(ExecLane::idx) {
  tls_ctx_ = SchedCtx{&loop, &loop.control_, kExternalSource, 0, 0};
  ExecLane::idx = loop.control_.lane();
}

EventLoop::ObserverReplayScope::~ObserverReplayScope() {
  ExecLane::idx = saved_lane_;
  tls_ctx_ = saved_ctx_;
}

void EventLoop::ObserverReplayScope::advance(SimTime at) {
  // set_now never moves a clock backward, so a record time below the
  // control wheel's clock (possible when control events already ran
  // inside the window) degrades gracefully: now() stays put.
  loop_.control_.set_now(at);
}

void EventLoop::run_segments(SimTime deadline) {
  for (;;) {
    // Control events (lane 0) precede shard events (lane 1) at the same
    // tick, so a shard segment covers only times strictly before the
    // next control time.
    const SimTime tc = control_.next_time(deadline);
    const SimTime limit = tc == kNoEventTime ? deadline : tc - 1;
    // A segment can schedule control events (an epoch's barrier replay
    // runs as the control lane), so look again after each one.
    if (limit >= 0 && run_shard_segment(limit)) continue;
    if (tc == kNoEventTime) return;
    // Drain every control event at exactly tc (children at tc included:
    // they sort after their parents by seq).
    if (tc > global_now_) global_now_ = tc;
    control_.set_now(tc);
    control_.run_until(tc);
  }
}

bool EventLoop::run_shard_segment(SimTime limit) {
  if (driver_ != nullptr) return driver_->run_epoch(limit);
  if (wheels_.size() != 1) {
    std::fprintf(stderr,
                 "EventLoop: %zu shard wheels but no parallel driver "
                 "(Network::enable_sharding installs one)\n",
                 wheels_.size());
    std::abort();
  }
  TimingWheel& w = *wheels_[0];
  const std::uint64_t before = w.events_executed();
  w.run_until(limit);
  if (w.now() > global_now_) global_now_ = w.now();
  return w.events_executed() != before;
}

void EventLoop::settle(SimTime t) {
  if (t > global_now_) global_now_ = t;
  control_.set_now(global_now_);
  for (auto& w : wheels_) w->set_now(global_now_);
  if (drain_hook_ && pending() == 0) drain_hook_();
}

void EventLoop::run() {
  run_segments(std::numeric_limits<SimTime>::max());
  settle(global_now_);
}

void EventLoop::run_until(SimTime deadline) {
  run_segments(deadline);
  settle(deadline);
}

}  // namespace objrpc
