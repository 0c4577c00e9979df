// Turns what a traced run records into the benchmark's lat.* and
// shard.* metrics.  Pure functions over plain records, so the self-test
// can check them against a small fixture (fixtures/split.txt).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace objbench {

/// Simulated-latency split over the traced operations' span trees.
/// A root is a span with parent 0 that closed (fetch:*, reliable_send:*);
/// its leaf spans share its trace id.  Each instant of a root's interval
/// is charged to at most one class, by precedence host (tx:/rx:) >
/// pipeline > wire > queue, so the classes never sum past the root.
struct LatSplit {
  std::uint64_t roots = 0;
  double queue_us = 0, wire_us = 0, pipeline_us = 0, host_us = 0;  ///< per root
  double coverage = 0;  ///< classified time / root time
};
LatSplit split_latency(const std::vector<objrpc::obs::SpanRecord>& spans);

/// Host-time split of a sharded run, from the shard profiler's
/// shard/* histograms.
struct ShardSplit {
  double exec_share = 0;         ///< lane exec time / (lanes x epoch time)
  double barrier_wait_share = 0; ///< lane wait time / (lanes x epoch time)
  double drain_ns_per_epoch = 0;
  double lane_utilization_pct = 0;  ///< mean over lane-epochs
};
ShardSplit split_shards(const objrpc::obs::MetricsSnapshot& snap,
                        std::uint32_t lanes);

/// Check both parsers against a fixture file; returns an empty string on
/// success, else what differed.
std::string check_fixture(const std::string& path);

}  // namespace objbench
