// Host-speed calibration for the benchmark's host-time metrics.
//
// The benchmark runs on shared hosts whose speed drifts, for every CPU
// at once, by tens of percent over tens of seconds; a 20 s run can sit
// wholly in a slow or a fast spell.  So every host-time sample the
// benchmark reports (a block of completions, a setup) is paired with a
// pass of a fixed loop timed right beside it, and reported in reference
// seconds: host seconds * kRefSeconds / loop seconds.  On a host where
// the loop takes kRefSeconds the two agree.
//
// The loop maps fresh memory, fills ~1,500 small blocks in it and reads
// them back in shuffled order: page faults, stores and dependent loads,
// the shape of the simulator's allocation-heavy run phase.  A loop of
// that shape (then through malloc) cut the run-to-run spread of
// kv_mix's host throughput on a 4-vCPU VM from 0.14 to 0.02; compute-
// or cache-only loops tracked the drift far worse.  It runs on a helper
// thread, on memory of its own, after evicting the caller's working set
// from the private caches, so the state the program under test leaves
// behind does not change its time; only the host does.
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>

namespace objbench {

inline constexpr double kRefSeconds = 1e-3;

class Calibrator {
 public:
  Calibrator();
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Runs one timed pass of the loop on the helper thread and returns
  /// its host seconds.  The caller blocks meanwhile.
  double sample();

 private:
  void serve();

  std::mutex m_;
  std::condition_variable cv_;
  unsigned requested_ = 0, served_ = 0;
  bool stop_ = false;
  double last_s_ = 0;
  std::thread worker_;  // last: starts once the fields above exist
};

}  // namespace objbench
