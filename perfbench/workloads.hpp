// Workloads of the end-to-end benchmark (see README.md in this
// directory for why each one exists and which layers it loads).
//
// A workload is a fabric shape plus an open-loop op stream.  The stream
// is generated up front from the seed with src/load's ArrivalProcess and
// ZipfTable, split per client host, and injected through per-client
// event chains (Network::schedule_on for the first op, then the client's
// own lane), so the benchmark issues and completes every op itself and a
// sharded run never routes an arrival through the control lane.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "load/arrival.hpp"

namespace objbench {

using objrpc::SimDuration;
using objrpc::SimTime;

enum class OpKind : std::uint8_t { read, write, invoke };

/// One tenant of a workload.
struct TenantDef {
  std::uint32_t tag = 1;  ///< wire tenant tag
  std::string name;
  objrpc::load::ArrivalConfig arrival{};
  double zipf_s = 1.0;
  std::size_t objects = 64;
  std::uint64_t object_bytes = 4096;
  /// Object sizes draw uniformly from object_bytes * [1 - j, 1 + j).
  double size_jitter = 0.0;
  double read = 1.0, write = 0.0, invoke = 0.0;  ///< op mix weights
  /// Mean read/invoke size; each op draws uniformly from
  /// [op_bytes/2, 3*op_bytes/2), so latencies form a continuum rather
  /// than one value per path.
  std::uint32_t op_bytes = 256;
  std::uint32_t write_bytes = 256;
  std::vector<std::size_t> homes;    ///< object k lives on homes[k % n]
  std::vector<std::size_t> clients;  ///< op issued by clients[user % n]
  SimDuration timeout = 20 * objrpc::kMillisecond;
  int max_attempts = 4;
  bool sampled = false;  ///< latency samples come from this tenant
  /// An op that completes later than this after its intended arrival
  /// counts as late in fail_ratio (0 = no deadline).
  SimDuration deadline = 0;
  /// Invokes go through Cluster::invoke with a GlobalPtr to the object
  /// (placement decides; data may be pulled) instead of an echo at the
  /// object's home.  The invoker then evicts any pulled replica (edge
  /// clients without spare RAM).
  bool ref_invoke = false;
};

struct WorkloadDef {
  std::string name;
  objrpc::ClusterConfig cluster{};
  std::uint32_t shards = 1;
  SimDuration window = 1000 * objrpc::kMillisecond;
  std::vector<TenantDef> tenants;
  /// Shard count of the sharded twin a 1-shard workload's traced run
  /// measures the shard layer on (0 = none).
  std::uint32_t traced_shards = 0;
};

/// Named workload; window_scale shrinks the simulated window (self-test
/// and traced legs).  Returns false for an unknown name.
bool make_workload(const std::string& name, double window_scale,
                   WorkloadDef& out);

/// One generated operation.
struct Op {
  SimTime at = 0;               ///< intended arrival (relative to start)
  std::uint32_t index = 0;      ///< position in the global stream
  std::uint32_t object = 0;     ///< global object slot
  std::uint16_t client = 0;     ///< host index
  std::uint8_t tenant = 0;      ///< index into WorkloadDef::tenants
  OpKind kind = OpKind::read;
  std::uint8_t value = 0;       ///< byte pattern a write stores
  std::uint16_t len = 0;        ///< bytes a read/invoke asks for
};

/// The op stream and the objects it touches, a pure function of
/// (workload, seed).
struct OpStream {
  std::vector<Op> ops;  ///< sorted by (at, index)
  /// Global object slot -> (tenant index, home host, bytes, fill).
  struct Slot {
    std::uint8_t tenant;
    std::uint32_t home;
    std::uint64_t bytes;
    std::uint8_t initial;  ///< byte pattern written at populate
  };
  std::vector<Slot> slots;
  /// allowed[slot]: bit v set = byte value v may be read back (the
  /// initial pattern or any value a write in the stream stores).
  std::vector<std::array<std::uint64_t, 4>> allowed;
  std::uint64_t digest = 0;
};

OpStream generate_ops(const WorkloadDef& w, std::uint64_t seed);

/// Host-time phases of one setup, seconds.
struct SetupTimes {
  double build = 0, populate = 0, warm = 0;
  double total() const { return build + populate + warm; }
};

/// Knobs of one repetition.
struct RepOptions {
  bool checker = true;
  bool trace = false;       ///< arm the tracer (and shard profiler)
  bool setup_only = false;  ///< build, populate and warm, then stop
  /// Pair host-time samples with calibration passes (calib.hpp).  Off
  /// for a warm-up repetition, which also keeps the passes' own memory
  /// out of the peak RSS taken after it.
  bool calibrate = true;
  /// Switches that get an in-network cache stage (src/inc) with
  /// `grant`; empty in every workload (see README.md, "inc").
  std::vector<std::size_t> inc_switches;
  objrpc::CacheGrant grant{};
};

/// Outcome of one repetition (one fresh cluster, the whole stream).
struct RepResult {
  SetupTimes setup;
  double setup_calib_s = 0;    ///< calibration pass right after setup (0 = none)
  double run_s = 0;            ///< host time of the run phase, less calibration
  /// A 1-shard run phase is timed in blocks of `block_ops` consecutive
  /// completions, each followed by a calibration pass (calib.hpp):
  /// host seconds of each whole block and of the pass after it.  A
  /// sharded run completes ops on worker threads, so it has no blocks
  /// and `run_calib_s` is the median of passes after the run phase.
  /// All empty or 0 without RepOptions::calibrate.
  std::uint64_t block_ops = 0;
  std::vector<double> block_s, block_calib_s;
  double run_calib_s = 0;
  double quiesce_host_ns = 0;  ///< checker on_quiesce time in the run
  std::uint64_t issued = 0, completed = 0, failed = 0, refused = 0;
  std::uint64_t late = 0;        ///< succeeded past the tenant's deadline
  std::uint64_t bad_values = 0;  ///< reads that returned torn/unknown bytes
  /// Per tenant (WorkloadDef order): ops, failed, refused, late.
  std::vector<std::array<std::uint64_t, 4>> per_tenant;
  /// Latency samples (ns from intended arrival; failed = max), in
  /// stream order.
  std::vector<std::int64_t> samples;
  std::uint64_t samples_digest = 0;
  std::uint64_t wire_digest = 0;
  std::uint64_t check_digest = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  std::uint64_t events = 0;  ///< events executed in the run phase
  std::uint64_t invokes = 0, remote_invokes = 0;
  std::uint32_t shards = 1;
  std::uint64_t epochs = 0, cross_frames = 0, ring_overflow = 0;
  /// Registry counters summed by suffix ("switch/table_misses"), run
  /// phase only (after minus before).
  std::vector<std::pair<std::string, double>> counters;
  objrpc::obs::MetricsSnapshot end_snapshot;
  /// Armed-tracer span records (empty unless RepOptions::trace).
  std::vector<objrpc::obs::SpanRecord> spans;
};

/// Build, populate, warm and run one repetition of `w` over `stream`.
RepResult run_rep(const WorkloadDef& w, const OpStream& stream,
                  const RepOptions& opt);

/// A benchmark-side span (host time, ns since process start).
struct BenchSpan {
  std::string name;
  std::uint64_t begin_ns = 0, end_ns = 0;
  int parent = -1;
};
/// Spans recorded around the public calls run_rep makes.
std::vector<BenchSpan>& bench_spans();
std::uint64_t host_now_ns();

}  // namespace objbench
