// objbench: the repository's end-to-end benchmark.
//
//   objbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//            [--git-rev REV]
//   objbench --selftest FIXTURE
//   objbench --inc-repro stale_serve|invalidate_order [--seed N]
//
// One run builds the workload's fabric from scratch, issues the seeded
// open-loop op stream, checks the correctness gates, and repeats that
// (fresh cluster each time) until S host-seconds have passed.  The last
// stdout line is the result JSON; see README.md for every metric.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <tuple>
#include <string>
#include <vector>

#include "calib.hpp"
#include "split.hpp"
#include "workloads.hpp"

using namespace objbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
  std::string git_rev = "unknown";
  std::string selftest;
  std::string inc_repro;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Exact nearest-rank percentile of latency samples, in microseconds.
double percentile_us(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  const std::int64_t x = v[rank - 1];
  if (x == std::numeric_limits<std::int64_t>::max()) return INFINITY;
  return static_cast<double>(x) / 1000.0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Per-tenant outcomes of one repetition, for the info line.
std::string tenants_json(const WorkloadDef& w, const RepResult& r) {
  std::string s = "{";
  for (std::size_t t = 0; t < r.per_tenant.size(); ++t) {
    if (t) s += ",";
    s += json_str(w.tenants[t].name) + ":{\"ops\":" + std::to_string(r.per_tenant[t][0]) +
         ",\"failed\":" + std::to_string(r.per_tenant[t][1]) +
         ",\"refused\":" + std::to_string(r.per_tenant[t][2]) +
         ",\"late\":" + std::to_string(r.per_tenant[t][3]) + "}";
  }
  return s + "}";
}

/// Host facts every result carries: a number is only comparable with
/// one from the same kind of machine and build.  Cache sizes come from
/// the C library (CPUID on x86), the same values sysfs shows.
std::string host_facts_json(const Args& a) {
  std::string s = "{";
  s += "\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ",\"l1d_bytes\":" + std::to_string(sysconf(_SC_LEVEL1_DCACHE_SIZE));
  s += ",\"l2_bytes\":" + std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE));
  s += ",\"l3_bytes\":" + std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE));
  s += ",\"compiler\":" + json_str(__VERSION__);
  s += ",\"build_type\":" + json_str(OBJBENCH_BUILD_TYPE);
  s += ",\"git_rev\":" + json_str(a.git_rev);
  s += ",\"workload\":" + json_str(a.workload);
  s += ",\"seed\":" + std::to_string(a.seed);
  s += "}";
  return s;
}

double counter(const RepResult& r, const std::string& name) {
  for (const auto& [n, v] : r.counters) {
    if (n == name) return v;
  }
  return 0;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Gates every repetition must pass; returns the first failure or "".
std::string gate_rep(const RepResult& r) {
  if (!r.first_violation.empty() || r.violations != 0) {
    return "checker violations: " + std::to_string(r.violations) + " " +
           r.first_violation.substr(0, 400);
  }
  if (r.issued == 0) return "no op issued";
  if (r.completed != r.issued) {
    return "ops left in flight at quiesce: " +
           std::to_string(r.issued - r.completed);
  }
  if (r.bad_values != 0) {
    return "ops returned wrong bytes: " + std::to_string(r.bad_values);
  }
  return "";
}

/// Same seed, same simulation: every repetition must match the first.
std::string gate_same(const RepResult& a, const RepResult& b,
                      const char* what) {
  if (a.wire_digest != b.wire_digest) return std::string(what) + ": wire digest differs";
  if (a.samples_digest != b.samples_digest) {
    return std::string(what) + ": latency samples differ";
  }
  if (a.failed != b.failed || a.refused != b.refused || a.late != b.late) {
    return std::string(what) + ": op outcomes differ";
  }
  return "";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::tuple<std::string, double, std::string>>& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto& [name, v, unit] = m[i];
    if (i) s += ", ";
    s += json_str(name) + ": {\"value\": " + num(v) + ", \"unit\": " + json_str(unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

void write_spans(const Args& a, const std::string& tag) {
  if (a.out_dir.empty()) return;
  const std::string path = a.out_dir + "/spans-" + a.workload + "-" +
                           std::to_string(a.seed) + "-" + tag + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[\n");
  const auto& spans = bench_spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    std::fprintf(f, "%s{\"id\":%zu,\"name\":%s,\"begin_ns\":%" PRIu64
                    ",\"end_ns\":%" PRIu64 ",\"parent\":%d}\n",
                 i ? "," : "", i, json_str(s.name).c_str(), s.begin_ns,
                 s.end_ns, s.parent);
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

struct Prepared {
  WorkloadDef w;
  OpStream stream;
};

bool prepare(const std::string& name, double scale, std::uint64_t seed,
             Prepared& p) {
  if (!make_workload(name, scale, p.w)) return false;
  p.w.cluster.fabric.seed = seed;
  p.stream = generate_ops(p.w, seed);
  return true;
}

/// The 1-shard twin of a sharded workload, over the same stream.
RepResult reference_rep(const Prepared& p) {
  WorkloadDef single = p.w;
  single.shards = 1;
  return run_rep(single, p.stream, RepOptions{});
}

/// Pins the calling thread to each CPU it may use in turn, and restores
/// the full set on destruction.  On a shared host the CPUs run at
/// different and shifting speeds; rotating spreads one run's
/// repetitions over all of them instead of whichever one the scheduler
/// kept it on.  Only for 1-shard runs: shard workers inherit the
/// affinity of the thread that starts them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Run-phase throughput of one repetition, in ops per host-second
/// (`raw`) and per reference second (`ref`, calib.hpp): one sample per
/// block of a 1-shard repetition, one for a sharded one, none for the
/// uncalibrated warm-up.
void add_rates(const RepResult& r, std::vector<double>& ref, std::vector<double>& raw) {
  if (r.run_calib_s == 0) return;
  const double ops = static_cast<double>(r.block_ops);
  for (std::size_t i = 0; i < r.block_s.size(); ++i) {
    raw.push_back(ops / r.block_s[i]);
    ref.push_back(raw.back() * r.block_calib_s[i] / kRefSeconds);
  }
  if (r.block_ops == 0) {
    raw.push_back(static_cast<double>(r.completed) / r.run_s);
    ref.push_back(raw.back() * r.run_calib_s / kRefSeconds);
  }
}

/// Repetitions of the full stream until `seconds` of host time pass
/// (at least `min_reps`), gated as they go.  The first is an
/// uncalibrated warm-up that no host-time metric uses.
/// `rss_mib` gets the peak RSS as of the end of the first repetition:
/// later ones only add allocator churn and calibration passes, not
/// workload memory.
std::vector<RepResult> run_reps(const Prepared& p, double seconds,
                                int min_reps, std::string& fail,
                                double* rss_mib = nullptr) {
  std::vector<RepResult> reps;
  CpuRotation cpus;
  const std::uint64_t t0 = host_now_ns();
  while (static_cast<int>(reps.size()) < min_reps ||
         static_cast<double>(host_now_ns() - t0) / 1e9 < seconds) {
    if (p.w.shards == 1) cpus.pin(reps.size());
    RepOptions o;
    o.calibrate = !reps.empty();
    reps.push_back(run_rep(p.w, p.stream, o));
    if (rss_mib != nullptr && reps.size() == 1) *rss_mib = peak_rss_mib();
    if (fail.empty()) fail = gate_rep(reps.back());
    if (fail.empty() && reps.size() > 1) {
      fail = gate_same(reps.front(), reps.back(), "repetition");
      // Keep only what the summary needs, so peak RSS does not grow
      // with the number of repetitions.
      RepResult& r = reps.back();
      r.samples = {};
      r.counters = {};
      r.end_snapshot = {};
    }
    if (!fail.empty()) break;
    if (reps.size() >= 200) break;
  }
  return reps;
}

/// Setup-only builds so setup_s is a median over at least `n` setups;
/// each in reference seconds (calib.hpp).
std::vector<double> setup_times(const Prepared& p, const std::vector<RepResult>& reps,
                                std::size_t n) {
  auto ref_s = [](const RepResult& r) {
    return r.setup.total() * kRefSeconds / r.setup_calib_s;
  };
  std::vector<double> v;
  for (const RepResult& r : reps) {
    if (r.setup_calib_s > 0) v.push_back(ref_s(r));
  }
  RepOptions o;
  o.setup_only = true;
  CpuRotation cpus;
  while (v.size() < n) {
    if (p.w.shards == 1) cpus.pin(v.size());
    v.push_back(ref_s(run_rep(p.w, p.stream, o)));
  }
  return v;
}

int run_untraced(const Args& a) {
  Prepared p;
  if (!prepare(a.workload, 1.0, a.seed, p)) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::string fail;
  RepResult ref;
  if (p.w.shards > 1) {
    ref = reference_rep(p);
    fail = gate_rep(ref);
  }
  std::vector<RepResult> reps;
  double rss_mib = 0;
  // A sharded repetition can take tens of seconds on a busy host; the
  // warm-up and one timed one keep the run well inside its limit.
  const int min_reps = p.w.shards > 1 ? 2 : 3;
  if (fail.empty()) reps = run_reps(p, a.seconds, min_reps, fail, &rss_mib);
  const RepResult& r0 = reps.empty() ? ref : reps.front();
  if (fail.empty() && p.w.shards > 1) {
    fail = gate_same(ref, r0, "4-shard vs 1-shard");
    if (fail.empty() && (r0.shards != p.w.shards || r0.epochs == 0)) {
      fail = "sharded leg ran no concurrent epochs (shards=" +
             std::to_string(r0.shards) + ", epochs=" +
             std::to_string(r0.epochs) + ")";
    }
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    attempted += r.issued;
    failed += r.failed;
  }
  std::vector<double> rates, raw_rates, calib_s;
  for (const RepResult& r : reps) {
    add_rates(r, rates, raw_rates);
    if (r.run_calib_s > 0) calib_s.push_back(r.run_calib_s);
  }
  std::printf("{\"host\": %s, \"reps\": %zu, \"ops_per_s_raw\": %s, \"calib_us\": %s"
              ", \"ops_per_rep\": %" PRIu64
              ", \"lat_samples\": %zu, \"stream_digest\": \"%016" PRIx64
              "\", \"wire_digest\": \"%016" PRIx64 "\", \"refused\": %" PRIu64
              ", \"tenants\": %s, \"gate\": %s}\n",
              host_facts_json(a).c_str(), reps.size(), num(median(raw_rates)).c_str(),
              num(median(calib_s) * 1e6).c_str(), r0.issued,
              r0.samples.size(), p.stream.digest, r0.wire_digest, r0.refused,
              tenants_json(p.w, r0).c_str(),
              json_str(fail.empty() ? "pass" : fail).c_str());
  write_spans(a, "untraced");
  if (!fail.empty()) {
    std::fprintf(stderr, "gate failed: %s\n", fail.c_str());
    print_result(false, std::max<std::uint64_t>(attempted, 1), failed, {});
    return 1;
  }
  const double setup_s = median(setup_times(p, reps, 41));
  const std::vector<std::tuple<std::string, double, std::string>> metrics = {
      {"ops_per_s", median(rates), "1/s"},
      {"lat_p50_us", percentile_us(r0.samples, 0.50), "us"},
      {"lat_p99_us", percentile_us(r0.samples, 0.99), "us"},
      {"lat_p999_us", percentile_us(r0.samples, 0.999), "us"},
      {"fail_ratio", ratio(static_cast<double>(r0.failed + r0.refused + r0.late),
                           static_cast<double>(r0.issued)),
       "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", rss_mib, "MiB"}};
  for (const auto& [name, v, unit] : metrics) {
    if (!std::isfinite(v)) {
      // A failed sampled op is infinitely slow; past its percentile
      // there is no number to report.
      std::fprintf(stderr, "gate failed: %s is not finite\n", name.c_str());
      print_result(false, attempted, failed, {});
      return 1;
    }
  }
  print_result(true, attempted, failed, metrics);
  return 0;
}

/// Simulated window of the traced leg: the armed tracer keeps every
/// span in memory, so it sees a slice of the stream.
double traced_scale(const std::string& workload) {
  return workload == "ref_pull" ? 0.025 : 0.1;
}

int run_traced(const Args& a) {
  Prepared p;
  if (!prepare(a.workload, 1.0, a.seed, p)) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::string fail;
  std::vector<RepResult> reps = run_reps(p, a.seconds / 2, 2, fail);
  const RepResult& r = reps.front();
  RepResult ref;
  if (fail.empty() && p.w.shards > 1) {
    ref = reference_rep(p);
    fail = gate_rep(ref);
    if (fail.empty()) fail = gate_same(ref, r, "4-shard vs 1-shard");
    if (fail.empty() && r.epochs == 0) fail = "sharded leg ran no epochs";
  }
  // Checker cost: the same stream with the checker unarmed.
  RepResult unarmed;
  if (fail.empty()) {
    RepOptions o;
    o.checker = false;
    unarmed = run_rep(p.w, p.stream, o);
    if (unarmed.wire_digest != r.wire_digest) {
      fail = "unarmed checker changed the wire digest";
    }
  }
  // Traced leg on a slice of the stream, against an untraced twin.
  Prepared slice;
  prepare(a.workload, traced_scale(a.workload), a.seed, slice);
  RepResult plain, traced;
  if (fail.empty()) {
    plain = run_rep(slice.w, slice.stream, RepOptions{});
    RepOptions o;
    o.trace = true;
    traced = run_rep(slice.w, slice.stream, o);
    fail = gate_rep(traced);
    if (fail.empty()) fail = gate_same(plain, traced, "traced vs untraced");
  }
  // The shard layer: a sharded workload measures it on its own reps; a
  // 1-shard one on a sharded twin of the slice, which must reproduce
  // the 1-shard slice exactly.
  RepResult twin;
  if (fail.empty() && slice.w.traced_shards > 1) {
    WorkloadDef w = slice.w;
    w.shards = slice.w.traced_shards;
    RepOptions o;
    o.trace = true;
    twin = run_rep(w, slice.stream, o);
    fail = gate_rep(twin);
    if (fail.empty()) fail = gate_same(plain, twin, "sharded twin vs 1-shard");
    if (fail.empty() && (twin.shards != w.shards || twin.epochs == 0)) {
      fail = "sharded twin ran no concurrent epochs";
    }
  }
  const RepResult& shard_counts = p.w.shards > 1 ? r : twin;
  const RepResult& shard_profile = p.w.shards > 1 ? traced : twin;
  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& x : reps) {
    attempted += x.issued;
    failed += x.failed;
  }
  std::printf("{\"host\": %s, \"reps\": %zu, \"ops_per_rep\": %" PRIu64
              ", \"traced_ops\": %" PRIu64 ", \"traced_spans\": %zu, \"gate\": %s}\n",
              host_facts_json(a).c_str(), reps.size(), r.issued, traced.issued,
              traced.spans.size(),
              json_str(fail.empty() ? "pass" : fail).c_str());
  write_spans(a, "traced");
  if (!fail.empty()) {
    std::fprintf(stderr, "gate failed: %s\n", fail.c_str());
    print_result(false, std::max<std::uint64_t>(attempted, 1), failed, {});
    return 1;
  }

  const double ops = static_cast<double>(r.issued);
  std::vector<double> run_s, quiesce, rates, raw_rates, calib_s;
  for (const RepResult& x : reps) {
    run_s.push_back(x.run_s);
    quiesce.push_back(x.quiesce_host_ns);
    add_rates(x, rates, raw_rates);
    if (x.run_calib_s > 0) calib_s.push_back(x.run_calib_s);
  }
  const double frames = counter(r, "net/frames_sent");
  const double dropped =
      counter(r, "net/frames_dropped_dead") + counter(r, "net/frames_dropped_down") +
      counter(r, "net/frames_dropped_loss") + counter(r, "net/frames_dropped_queue") +
      counter(r, "net/frames_dropped_ttl");
  const double hits = counter(r, "switch/table_hits");
  const double misses = counter(r, "switch/table_misses");
  const double pool_fresh = counter(shard_counts, "simcore/pool_fresh");
  const double pool_reused = counter(shard_counts, "simcore/pool_reused");
  const double shard_frames = counter(shard_counts, "net/frames_sent");
  const double fetches = counter(r, "fetch/fetches_started");
  // Controller work happens mostly while the fabric settles, so these
  // two count the whole run, setup included.
  double rules = 0, punts = 0;
  for (const auto& [n, v] : r.end_snapshot.counters) {
    if (n.find("/controller/rules_installed") != std::string::npos) rules += static_cast<double>(v);
    if (n.find("/controller/punts_redirected") != std::string::npos) punts += static_cast<double>(v);
  }
  const LatSplit lat = split_latency(traced.spans);
  const ShardSplit sh = split_shards(shard_profile.end_snapshot, shard_profile.shards);
  std::vector<double> builds, pops, warms;
  for (const RepResult& x : reps) {
    builds.push_back(x.setup.build);
    pops.push_back(x.setup.populate);
    warms.push_back(x.setup.warm);
  }
  print_result(
      true, attempted, failed,
      {{"sim.events_per_op", ratio(static_cast<double>(r.events), ops), "events/op"},
       {"sim.host_ns_per_event", median(run_s) * 1e9 / static_cast<double>(r.events), "ns"},
       {"sim.frames_per_op", ratio(frames, ops), "frames/op"},
       {"sim.bytes_per_op", ratio(counter(r, "net/bytes_sent"), ops), "B/op"},
       {"sim.frames_dropped", dropped, "count"},
       {"sim.switch.table_miss_ratio", ratio(misses, hits + misses), "ratio"},
       {"sim.switch.punted", counter(r, "switch/punted"), "count"},
       {"sim.fq.rounds_per_frame", ratio(counter(r, "switch/fq_rounds"), counter(r, "switch/fq_sent")), "rounds/frame"},
       {"sim.fq.dropped", counter(r, "switch/fq_dropped_queue"), "count"},
       {"sim.admission.dropped", counter(r, "switch/dropped_admission"), "count"},
       {"shard.epochs", static_cast<double>(shard_counts.epochs), "count"},
       {"shard.events_per_epoch", ratio(static_cast<double>(shard_counts.events), static_cast<double>(shard_counts.epochs)), "events/epoch"},
       {"shard.cross_frames_per_frame", ratio(static_cast<double>(shard_counts.cross_frames), shard_frames), "ratio"},
       {"shard.ring_overflow", static_cast<double>(shard_counts.ring_overflow), "count"},
       {"pool.reuse_ratio", ratio(pool_reused, pool_reused + pool_fresh), "ratio"},
       {"pool.fresh_per_frame", ratio(pool_fresh, shard_frames), "allocs/frame"},
       {"net.reliable.fragments_per_message", ratio(counter(r, "reliable/fragments_sent"), counter(r, "reliable/messages_sent")), "frags/msg"},
       {"net.reliable.retransmissions", counter(r, "reliable/retransmissions"), "count"},
       {"net.reliable.failures", counter(r, "reliable/failures"), "count"},
       {"net.host.malformed", counter(r, "host/malformed"), "count"},
       {"net.controller.rules_installed", rules, "count"},
       {"net.controller.punts_redirected", punts, "count"},
       {"core.fetch.fetches_per_op", ratio(fetches, ops), "fetches/op"},
       {"core.fetch.chunks_per_fetch", ratio(counter(r, "fetch/chunks_requested"), fetches), "chunks/fetch"},
       {"core.fetch.bytes_pulled_per_op", ratio(counter(r, "fetch/bytes_pulled"), ops), "B/op"},
       {"core.fetch.stale_rejects", counter(r, "fetch/stale_rejects"), "count"},
       {"core.fetch.invalidates_sent", counter(r, "fetch/invalidates_sent"), "count"},
       {"core.fetch.failed", counter(r, "fetch/fetches_failed"), "count"},
       {"core.invoke.remote_ratio", ratio(static_cast<double>(r.remote_invokes), static_cast<double>(r.invokes)), "ratio"},
       {"check.violations", static_cast<double>(r.violations), "count"},
       {"check.quiesce_host_ns", median(quiesce), "ns"},
       {"check.cost_ratio", ratio(median(run_s), unarmed.run_s), "ratio"},
       {"setup.build_s", median(builds), "s"},
       {"setup.populate_s", median(pops), "s"},
       {"setup.warm_s", median(warms), "s"},
       {"shard.exec_share", sh.exec_share, "ratio"},
       {"shard.barrier_wait_share", sh.barrier_wait_share, "ratio"},
       {"shard.drain_host_ns_per_epoch", sh.drain_ns_per_epoch, "ns"},
       {"shard.lane_utilization_pct", sh.lane_utilization_pct, "%"},
       {"lat.queue_us", lat.queue_us, "us"},
       {"lat.wire_us", lat.wire_us, "us"},
       {"lat.pipeline_us", lat.pipeline_us, "us"},
       {"lat.host_us", lat.host_us, "us"},
       {"lat.split_coverage", lat.coverage, "ratio"},
       {"obs.trace_overhead_ratio", ratio(traced.run_s, plain.run_s), "ratio"},
       {"host.calib_us", median(calib_s) * 1e6, "us"},
       {"host.ops_per_s_raw", median(raw_rates), "1/s"}});
  return 0;
}

int selftest(const std::string& fixture) {
  int failures = 0;
  auto report = [&](const std::string& what, const std::string& fail) {
    std::printf("selftest %-40s %s\n", what.c_str(), fail.empty() ? "ok" : fail.c_str());
    if (!fail.empty()) ++failures;
  };
  report("split parsers vs fixture", check_fixture(fixture));
  const double tiny = 0.03;
  std::vector<Prepared> preps(3);
  const char* names[] = {"kv_mix", "kv_mix_4shard", "ref_pull"};
  RepResult kv;
  for (int i = 0; i < 3; ++i) {
    prepare(names[i], tiny, 7, preps[i]);
    const RepResult a = run_rep(preps[i].w, preps[i].stream, RepOptions{});
    const RepResult b = run_rep(preps[i].w, preps[i].stream, RepOptions{});
    std::string fail = gate_rep(a);
    if (fail.empty()) fail = gate_same(a, b, "same seed");
    if (fail.empty() && a.check_digest != b.check_digest) fail = "checker digest differs";
    if (fail.empty() && percentile_us(a.samples, 0.99) != percentile_us(b.samples, 0.99)) {
      fail = "p99 differs";
    }
    if (i == 0) kv = a;
    if (fail.empty() && i == 1) {
      fail = gate_same(kv, a, "4-shard vs 1-shard");
      if (fail.empty() && (a.shards != 4 || a.epochs == 0)) fail = "no concurrent epochs";
    }
    report(std::string(names[i]) + " tiny: gates + same-seed identity", fail);
  }
  // A different seed must give a different stream (the seed is used).
  Prepared other;
  prepare("kv_mix", tiny, 8, other);
  report("seed changes the op stream",
         other.stream.digest != preps[0].stream.digest ? "" : "same digest");
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

/// In-network-cache coherence repro (README.md, "inc"): ref_pull
/// traffic with IncCacheStage armed.  Exit 0 when the checker stays
/// clean, 1 when it reports a violation (printed).
int inc_repro(const Args& a) {
  Prepared p;
  // The 16 s window the results in README.md were recorded with.
  prepare("ref_pull", 0.5, a.seed, p);
  RepOptions o;
  o.grant.sram_budget_bytes = 512 * 1024;
  o.grant.max_entry_bytes = 32 * 1024;
  o.grant.admit_threshold = 2;
  if (a.inc_repro == "stale_serve") {
    o.inc_switches = {0, 1};
  } else if (a.inc_repro == "invalidate_order") {
    o.inc_switches = {0, 1, 2, 3};
    p.w.cluster.fabric.host_link.loss_rate = 0.001;
    p.w.cluster.fabric.switch_link.loss_rate = 0.001;
  } else {
    std::fprintf(stderr, "unknown repro %s\n", a.inc_repro.c_str());
    return 2;
  }
  const RepResult r = run_rep(p.w, p.stream, o);
  std::printf("inc-repro %s seed %" PRIu64 ": ops %" PRIu64 "/%" PRIu64
              " failed %" PRIu64 " bad %" PRIu64 " violations %" PRIu64 "\n",
              a.inc_repro.c_str(), a.seed, r.completed, r.issued, r.failed,
              r.bad_values, r.violations);
  if (!r.first_violation.empty()) std::printf("%s\n", r.first_violation.c_str());
  return gate_rep(r).empty() ? 0 : 1;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--out") a.out_dir = v;
    else if (k == "--git-rev") a.git_rev = v;
    else if (k == "--selftest") a.selftest = v;
    else if (k == "--inc-repro") a.inc_repro = v;
    else return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr, "usage: see the header of objbench.cpp\n");
    return 2;
  }
  if (!a.selftest.empty()) return selftest(a.selftest);
  if (!a.inc_repro.empty()) return inc_repro(a);
  if (a.workload.empty() || a.seconds <= 0) {
    std::fprintf(stderr, "need --workload and --seconds > 0\n");
    return 2;
  }
  return a.trace ? run_traced(a) : run_untraced(a);
}
