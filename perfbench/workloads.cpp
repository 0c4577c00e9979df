#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

#include "calib.hpp"
#include "check/wire.hpp"
#include "inc/cache_stage.hpp"
#include "load/zipf.hpp"
#include "sim/shard.hpp"

namespace objbench {

using namespace objrpc;

namespace {

constexpr std::int64_t kFailedLatency = std::numeric_limits<std::int64_t>::max();
/// Blocks a 1-shard run phase is timed in (RepResult::block_s).
constexpr std::uint64_t kBlocksPerRep = 64;
/// Calibration passes after a sharded run phase.
constexpr int kRunCalibPasses = 9;

std::vector<std::size_t> range(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t i = lo; i < hi; ++i) v.push_back(i);
  return v;
}

void kv_mix(WorkloadDef& w, double scale) {
  ClusterConfig& c = w.cluster;
  c.fabric.scheme = DiscoveryScheme::controller;
  c.fabric.topology = SwitchTopology::full_mesh;
  c.fabric.num_hosts = 16;
  c.fabric.num_switches = 8;  // host i attaches to switch i % 8
  c.fabric.host_link.bandwidth_bps = 1e9;
  c.fabric.switch_cfg.fair_queue.enabled = true;
  c.fabric.switch_cfg.fair_queue.quantum_bytes = 4500;
  c.fabric.switch_cfg.fair_queue.tenant_queue_bytes = 256 * 1024;
  c.fabric.switch_cfg.admission.enabled = true;
  c.fabric.switch_cfg.admission.tenant_rates[2] =
      TenantRate{/*bytes_per_sec=*/24e6, /*burst_bytes=*/256 * 1024};
  w.window = static_cast<SimDuration>(4000 * kMillisecond * scale);

  TenantDef web;
  web.tag = 1;
  web.name = "web";
  web.arrival.kind = load::ArrivalConfig::Kind::poisson;
  web.arrival.rate_per_sec = 20'000.0;
  web.zipf_s = 1.0;
  web.objects = 256;
  web.object_bytes = 4096;
  web.read = 0.85, web.write = 0.05, web.invoke = 0.10;
  web.op_bytes = 256;
  web.write_bytes = 256;
  web.homes = range(0, 4);
  web.clients = range(4, 12);
  web.sampled = true;
  web.deadline = 1 * kMillisecond;
  w.tenants.push_back(web);

  // The aggressor converges on two of the victim's home links.
  TenantDef batch;
  batch.tag = 2;
  batch.name = "batch";
  batch.arrival.kind = load::ArrivalConfig::Kind::on_off;
  batch.arrival.rate_per_sec = 40'000.0;
  batch.arrival.low_rate_per_sec = 100.0;
  batch.arrival.on_duration = 5 * kMillisecond;
  batch.arrival.off_duration = 25 * kMillisecond;
  batch.zipf_s = 0.8;
  batch.objects = 32;
  batch.object_bytes = 8192;
  batch.read = 0.0, batch.write = 1.0, batch.invoke = 0.0;
  batch.write_bytes = 4096;
  batch.homes = range(0, 2);
  batch.clients = range(12, 16);
  batch.max_attempts = 16;
  w.tenants.push_back(batch);

  TenantDef periodic;
  periodic.tag = 3;
  periodic.name = "periodic";
  periodic.arrival.kind = load::ArrivalConfig::Kind::diurnal;
  periodic.arrival.rate_per_sec = 6'000.0;
  periodic.arrival.low_rate_per_sec = 1'000.0;
  periodic.arrival.period = 600 * kMillisecond;
  periodic.zipf_s = 1.2;
  periodic.objects = 64;
  periodic.object_bytes = 4096;
  periodic.read = 0.6, periodic.write = 0.2, periodic.invoke = 0.2;
  periodic.op_bytes = 512;
  periodic.write_bytes = 512;
  periodic.homes = range(4, 8);
  periodic.clients = range(8, 16);
  w.tenants.push_back(periodic);
}

void ref_pull(WorkloadDef& w, double scale) {
  ClusterConfig& c = w.cluster;
  c.fabric.scheme = DiscoveryScheme::controller;
  c.fabric.num_hosts = 8;
  c.fabric.num_switches = 4;  // clients 0,1,4,5 sit on switches 0 and 1
  c.compute_rates = {4.0, 4.0, 0.25, 0.25, 4.0, 4.0, 0.25, 0.25};
  w.window = static_cast<SimDuration>(32000 * kMillisecond * scale);

  TenantDef pull;
  pull.tag = 1;
  pull.name = "pull";
  pull.arrival.kind = load::ArrivalConfig::Kind::poisson;
  pull.arrival.rate_per_sec = 4'000.0;
  pull.zipf_s = 1.0;
  pull.objects = 256;
  pull.object_bytes = 16 * 1024;
  pull.size_jitter = 0.1;  // pull latency then varies with the object
  pull.read = 0.0, pull.write = 0.1, pull.invoke = 0.9;
  pull.op_bytes = 256;
  pull.write_bytes = 256;
  pull.homes = {2, 3, 6, 7};
  pull.clients = {0, 1, 4, 5};
  pull.timeout = 100 * kMillisecond;
  pull.sampled = true;
  pull.deadline = 130 * kMicrosecond;
  pull.ref_invoke = true;
  w.tenants.push_back(pull);
}

/// Registry counters summed over instances: "sw3/switch/x" and
/// "sw5/switch/x" both land in "switch/x"; two-part names stay whole.
std::map<std::string, double> fold_counters(const obs::MetricsSnapshot& s) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : s.counters) {
    const auto first = name.find('/');
    const bool nested =
        first != std::string::npos && name.find('/', first + 1) != std::string::npos;
    out[nested ? name.substr(first + 1) : name] += static_cast<double>(v);
  }
  return out;
}

/// A read of `want` bytes at kDataStart must return one whole write:
/// the first min(want, write_bytes) bytes carry a single value the
/// stream may have stored there, the rest still the initial pattern.
bool image_ok(const Bytes& b, std::size_t want, std::size_t write_bytes,
              const std::array<std::uint64_t, 4>& allowed,
              std::uint8_t initial) {
  if (b.size() != want || b.empty()) return false;
  const std::size_t n = std::min(want, write_bytes);
  const std::uint8_t v = b[0];
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] != (i < n ? v : initial)) return false;
  }
  return (allowed[v >> 6] >> (v & 63)) & 1;
}

/// Per-client state.  A client host is pinned to one shard, so only its
/// own lane ever touches this (no locks in a concurrent run).
struct alignas(64) ClientState {
  std::vector<std::uint32_t> ops;  ///< indices into stream.ops, in order
  std::size_t next = 0;
  std::uint64_t issued = 0, completed = 0, failed = 0, refused = 0, late = 0;
  std::uint64_t bad_values = 0, invokes = 0, remote_invokes = 0;
  std::vector<std::pair<std::uint32_t, std::int64_t>> samples;
  std::vector<std::array<std::uint64_t, 4>> per_tenant;
};

struct RunCtx {
  const WorkloadDef* w = nullptr;
  const OpStream* stream = nullptr;
  Cluster* cluster = nullptr;
  FuncId echo_fn{}, scan_fn{};
  SimTime start = 0;
  std::vector<ObjectId> ids;        ///< per slot
  std::vector<HostAddr> home_addr;  ///< per slot
  std::vector<ClientState> clients;
  /// Block timing of a 1-shard run phase (block_ops 0 = off).
  Calibrator* calib = nullptr;
  std::uint64_t block_ops = 0, done = 0;
  std::uint64_t block_start_ns = 0;
  std::uint64_t paused_ns = 0;  ///< run-phase time spent in calibration
  std::vector<double> block_s, block_calib_s;

  void complete(std::size_t c, const Op& op, bool ok, bool refused) {
    ClientState& cs = clients[c];
    const TenantDef& t = w->tenants[op.tenant];
    const SimDuration elapsed = cluster->loop().now() - (start + op.at);
    const bool late = ok && t.deadline > 0 && elapsed > t.deadline;
    ++cs.completed;
    cs.failed += !ok;
    cs.refused += refused;
    cs.late += late;
    auto& pt = cs.per_tenant[op.tenant];
    ++pt[0];
    pt[1] += !ok;
    pt[2] += refused;
    pt[3] += late;
    if (t.sampled) cs.samples.emplace_back(op.index, ok ? elapsed : kFailedLatency);
    if (block_ops != 0 && ++done % block_ops == 0) end_block();
  }

  void end_block() {
    const std::uint64_t end_ns = host_now_ns();
    block_s.push_back(static_cast<double>(end_ns - block_start_ns) / 1e9);
    block_calib_s.push_back(calib->sample());
    block_start_ns = host_now_ns();
    paused_ns += block_start_ns - end_ns;
  }

  void issue(std::size_t c, const Op& op);
  bool image_ok_for(std::size_t slot, const Bytes& b, std::size_t want) const {
    const TenantDef& t = w->tenants[stream->slots[slot].tenant];
    return image_ok(b, want, t.write_bytes, stream->allowed[slot],
                    stream->slots[slot].initial);
  }

  /// Issue the client's next op and chain the one after it (same lane).
  void step(std::size_t c) {
    ClientState& cs = clients[c];
    const Op& op = stream->ops[cs.ops[cs.next++]];
    if (cs.next < cs.ops.size()) {
      const SimTime at = start + stream->ops[cs.ops[cs.next]].at;
      cluster->loop().schedule_at(at, [this, c] { step(c); });
    }
    issue(c, op);
  }
};

void RunCtx::issue(std::size_t c, const Op& op) {
  ClientState& cs = clients[c];
  ++cs.issued;
  const TenantDef& t = w->tenants[op.tenant];
  const std::size_t slot = op.object;
  const GlobalPtr ptr{ids[slot], Object::kDataStart};
  switch (op.kind) {
    case OpKind::read: {
      AccessOptions o;
      o.max_attempts = t.max_attempts;
      o.timeout = t.timeout;
      o.tenant = t.tag;
      cluster->service(c).read(
          ptr, op.len,
          [this, c, &op, slot](Result<Bytes> r, const AccessStats& st) {
            const bool ok = r.has_value();
            if (ok && !image_ok_for(slot, *r, op.len)) {
              ++clients[c].bad_values;
            }
            complete(c, op, ok, st.attempts > 1 || st.nacks > 0);
          },
          o);
      break;
    }
    case OpKind::write: {
      AccessOptions o;
      o.max_attempts = t.max_attempts;
      o.timeout = t.timeout;
      o.tenant = t.tag;
      cluster->service(c).write(
          ptr, Bytes(t.write_bytes, op.value),
          [this, c, &op](Status s, const AccessStats& st) {
            complete(c, op, s.is_ok(), st.attempts > 1 || st.nacks > 0);
          },
          o);
      break;
    }
    case OpKind::invoke: {
      InvokeOptions o;
      o.timeout = t.timeout;
      o.max_attempts = t.max_attempts;
      o.tenant = t.tag;
      ++cs.invokes;
      if (t.ref_invoke) {
        BufWriter arg(2);
        arg.put_u16(op.len);
        cluster->invoke(
            c, scan_fn, {ptr}, std::move(arg).take(),
            [this, c, &op, slot](Result<Bytes> r, const InvokeStats& st) {
              const bool ok = r.has_value();
              if (ok && !image_ok_for(slot, *r, op.len)) {
                ++clients[c].bad_values;
              }
              if (st.executor != cluster->addr_of(c)) ++clients[c].remote_invokes;
              if (cluster->fetcher(c).is_cached_replica(ids[slot])) {
                cluster->fetcher(c).evict(ids[slot]);
              }
              complete(c, op, ok, false);
            },
            o);
      } else {
        const std::uint8_t v = static_cast<std::uint8_t>(op.index * 31 + 7);
        cluster->invoke_at(
            c, home_addr[slot], echo_fn, {}, Bytes(op.len, v),
            [this, c, &op, v, len = op.len](Result<Bytes> r,
                                                 const InvokeStats& st) {
              const bool ok = r.has_value();
              if (ok && (r->size() != len ||
                         std::count(r->begin(), r->end(), v) !=
                             static_cast<std::ptrdiff_t>(len))) {
                ++clients[c].bad_values;
              }
              if (st.executor != cluster->addr_of(c)) ++clients[c].remote_invokes;
              complete(c, op, ok, false);
            },
            o);
      }
      break;
    }
  }
}

struct SpanScope {
  explicit SpanScope(const char* name, int parent = -1) {
    auto& v = bench_spans();
    idx = static_cast<int>(v.size());
    v.push_back(BenchSpan{name, host_now_ns(), 0, parent});
  }
  ~SpanScope() { close(); }
  double close() {
    BenchSpan& s = bench_spans()[static_cast<std::size_t>(idx)];
    if (s.end_ns == 0) s.end_ns = host_now_ns();
    return static_cast<double>(s.end_ns - s.begin_ns) / 1e9;
  }
  int idx;
};

}  // namespace

std::uint64_t host_now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::vector<BenchSpan>& bench_spans() {
  static std::vector<BenchSpan> spans;
  return spans;
}

bool make_workload(const std::string& name, double window_scale,
                   WorkloadDef& out) {
  out = WorkloadDef{};
  out.name = name;
  if (name == "kv_mix") {
    kv_mix(out, window_scale);
    out.traced_shards = 4;
  } else if (name == "kv_mix_4shard") {
    kv_mix(out, window_scale);
    out.shards = 4;
  } else if (name == "ref_pull") {
    ref_pull(out, window_scale);
  } else {
    return false;
  }
  return true;
}

OpStream generate_ops(const WorkloadDef& w, std::uint64_t seed) {
  OpStream s;
  const Rng root(seed ^ 0x0BE7'C4A1'5EEDULL);
  // Size every buffer exactly (here and in run_rep), so peak RSS does
  // not jump with the seed where a growing vector would double.
  std::size_t count = 0;
  for (std::size_t ti = 0; ti < w.tenants.size(); ++ti) {
    load::ArrivalProcess arrivals(w.tenants[ti].arrival, root.fork(2 * ti + 1));
    for (SimTime at = arrivals.next_after(0); at < w.window; at = arrivals.next_after(at)) {
      ++count;
    }
  }
  s.ops.reserve(count);
  for (std::size_t ti = 0; ti < w.tenants.size(); ++ti) {
    const TenantDef& t = w.tenants[ti];
    const std::uint32_t base = static_cast<std::uint32_t>(s.slots.size());
    Rng sizes = root.fork(0x5123 + ti);
    for (std::size_t k = 0; k < t.objects; ++k) {
      const auto initial = static_cast<std::uint8_t>(0xF0 + ti);
      const double span = 2 * t.size_jitter * static_cast<double>(t.object_bytes);
      const auto bytes = static_cast<std::uint64_t>(
          static_cast<double>(t.object_bytes) * (1 - t.size_jitter) +
          sizes.next_double() * span);
      s.slots.push_back({static_cast<std::uint8_t>(ti),
                         static_cast<std::uint32_t>(t.homes[k % t.homes.size()]),
                         bytes, initial});
      std::array<std::uint64_t, 4> bits{};
      bits[initial >> 6] |= 1ULL << (initial & 63);
      s.allowed.push_back(bits);
    }
    load::ArrivalProcess arrivals(t.arrival, root.fork(2 * ti + 1));
    const load::ZipfTable zipf(t.objects, t.zipf_s);
    Rng rng = root.fork(2 * ti + 2);
    const double total = t.read + t.write + t.invoke;
    for (SimTime at = arrivals.next_after(0); at < w.window;
         at = arrivals.next_after(at)) {
      // A fixed number of draws per op keeps the stream position a pure
      // function of the op count.
      const double pick = rng.next_double() * total;
      Op op;
      op.at = at;
      op.tenant = static_cast<std::uint8_t>(ti);
      op.kind = pick < t.read ? OpKind::read
                : pick < t.read + t.write ? OpKind::write
                                          : OpKind::invoke;
      op.object = base + static_cast<std::uint32_t>(zipf.sample(rng));
      op.client = static_cast<std::uint16_t>(
          t.clients[rng.next_below(1'000'000) % t.clients.size()]);
      op.value = static_cast<std::uint8_t>(1 + rng.next_below(200));
      op.len = static_cast<std::uint16_t>(t.op_bytes / 2 + rng.next_below(t.op_bytes));
      if (op.kind == OpKind::write) {
        s.allowed[op.object][op.value >> 6] |= 1ULL << (op.value & 63);
      }
      s.ops.push_back(op);
    }
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });
  check::Digest d;
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    Op& op = s.ops[i];
    op.index = static_cast<std::uint32_t>(i);
    d.fold(static_cast<std::uint64_t>(op.at));
    d.fold(op.object | (std::uint64_t{op.client} << 32) |
           (std::uint64_t{op.tenant} << 48) |
           (std::uint64_t{static_cast<std::uint8_t>(op.kind)} << 56));
    d.fold(op.value | (std::uint64_t{op.len} << 8));
  }
  s.digest = d.value();
  return s;
}

RepResult run_rep(const WorkloadDef& w, const OpStream& stream,
                  const RepOptions& opt) {
  RepResult res;
  std::unique_ptr<Calibrator> calib;
  if (opt.calibrate) calib = std::make_unique<Calibrator>();
  SpanScope rep_span("rep");
  RunCtx ctx;
  ctx.w = &w;
  ctx.stream = &stream;

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<IncCacheStage>> caches;  // die before cluster
  {
    SpanScope s("build", rep_span.idx);
    ClusterConfig cfg = w.cluster;
    cfg.check_invariants = opt.checker ? 1 : 0;
    cluster = Cluster::build(cfg);
    Network& net = cluster->fabric().network();
    if (opt.trace) cluster->tracer().arm();
    if (w.shards > 1) {
      if (opt.trace) net.arm_shard_profiler();
      res.shards = net.enable_sharding(ShardPlan::by_switch_groups(net, w.shards));
    }
    net.arm_wire_digest();
    if (auto* ck = cluster->checker()) ck->set_abort_on_violation(false);
    ctx.cluster = cluster.get();
    ctx.echo_fn = cluster->code().register_function(
        "bench/echo",
        [](InvokeContext&, const std::vector<GlobalPtr>&,
           ByteSpan arg) -> Result<Bytes> {
          return Bytes(arg.begin(), arg.end());
        });
    // Compute-heavy scan of the argument object: placement prefers the
    // strong invoker and pulls the data there.
    ctx.scan_fn = cluster->code().register_function(
        "bench/scan",
        [](InvokeContext& ictx, const std::vector<GlobalPtr>& args,
           ByteSpan arg) -> Result<Bytes> {
          BufReader in(arg);
          const std::uint16_t len = in.get_u16();
          if (!in.ok()) return Error{Errc::invalid_argument, "scan: no length"};
          auto o = ictx.resolve(args.at(0));
          if (!o) return o.error();
          auto bytes = (*o)->read(args.at(0).offset, len);
          if (!bytes) return bytes.error();
          return Bytes(bytes->begin(), bytes->end());
        },
        CodeCost{/*ops_per_byte=*/4.0, /*fixed_ops=*/1000.0});
    for (std::size_t sw : opt.inc_switches) {
      SwitchNode& node = cluster->fabric().switch_at(sw);
      caches.push_back(std::make_unique<IncCacheStage>(node));
      if (auto* ck = cluster->checker()) ck->attach_cache(*caches.back());
      if (!cluster->fabric().controller()->enable_switch_cache(node.id(), opt.grant)) {
        res.first_violation = "enable_switch_cache failed";
        return res;
      }
    }
    res.setup.build = s.close();
  }
  {
    SpanScope s("create", rep_span.idx);
    for (const OpStream::Slot& slot : stream.slots) {
      auto obj = cluster->create_object(slot.home, slot.bytes);
      if (!obj) {
        res.first_violation = "create_object failed";
        return res;
      }
      const Bytes fill(slot.bytes - Object::kDataStart, slot.initial);
      (void)(*obj)->write(Object::kDataStart, fill);
      ctx.ids.push_back((*obj)->id());
      ctx.home_addr.push_back(cluster->addr_of(slot.home));
    }
    res.setup.populate = s.close();
  }
  {
    SpanScope s("settle", rep_span.idx);
    cluster->settle();
    res.setup.warm = s.close();
  }
  if (calib) res.setup_calib_s = calib->sample();
  if (opt.setup_only) return res;

  // Time the checker's at-rest pass through a drain hook of our own.
  if (auto* ck = cluster->checker(); ck != nullptr) {
    double* acc = &res.quiesce_host_ns;
    cluster->loop().set_drain_hook([ck, acc] {
      const std::uint64_t t0 = host_now_ns();
      ck->on_quiesce();
      *acc += static_cast<double>(host_now_ns() - t0);
    });
  }
  const auto before = fold_counters(cluster->metrics().snapshot());
  const std::uint64_t events_before = cluster->loop().events_executed();

  ctx.clients.resize(cluster->host_count());
  for (ClientState& cs : ctx.clients) cs.per_tenant.resize(w.tenants.size());
  {
    std::vector<std::size_t> ops(ctx.clients.size()), sampled(ctx.clients.size());
    for (const Op& op : stream.ops) {
      ++ops[op.client];
      sampled[op.client] += w.tenants[op.tenant].sampled;
    }
    for (std::size_t c = 0; c < ctx.clients.size(); ++c) {
      ctx.clients[c].ops.reserve(ops[c]);
      ctx.clients[c].samples.reserve(sampled[c]);
    }
  }
  for (const Op& op : stream.ops) ctx.clients[op.client].ops.push_back(op.index);
  // Completions run on this thread only when there is one shard.
  if (calib && res.shards == 1) {
    ctx.calib = calib.get();
    ctx.block_ops = std::max<std::uint64_t>(stream.ops.size() / kBlocksPerRep, 1);
  }
  {
    SpanScope s("run", rep_span.idx);
    ctx.start = cluster->loop().now();
    ctx.block_start_ns = host_now_ns();
    Network& net = cluster->fabric().network();
    for (std::size_t c = 0; c < ctx.clients.size(); ++c) {
      const ClientState& cs = ctx.clients[c];
      if (cs.ops.empty()) continue;
      net.schedule_on(cluster->host(c).id(),
                      ctx.start + stream.ops[cs.ops.front()].at,
                      [p = &ctx, c] { p->step(c); });
    }
    cluster->settle();
    res.run_s = s.close() - static_cast<double>(ctx.paused_ns) / 1e9;
  }
  res.block_ops = ctx.block_ops;
  res.block_s = std::move(ctx.block_s);
  res.block_calib_s = std::move(ctx.block_calib_s);
  if (calib) {
    std::vector<double> passes = res.block_calib_s;
    if (res.block_ops == 0) {  // sharded: no blocks, so time passes now
      for (int i = 0; i < kRunCalibPasses; ++i) passes.push_back(calib->sample());
    }
    if (!passes.empty()) {
      const auto mid = passes.begin() + static_cast<std::ptrdiff_t>(passes.size() / 2);
      std::nth_element(passes.begin(), mid, passes.end());
      res.run_calib_s = *mid;
    }
  }
  {
    SpanScope s("quiesce", rep_span.idx);
    for (const ClientState& cs : ctx.clients) {
      res.issued += cs.issued;
      res.completed += cs.completed;
      res.failed += cs.failed;
      res.refused += cs.refused;
      res.late += cs.late;
      res.bad_values += cs.bad_values;
      res.invokes += cs.invokes;
      res.remote_invokes += cs.remote_invokes;
    }
    res.per_tenant.resize(w.tenants.size());
    for (const ClientState& cs : ctx.clients) {
      for (std::size_t t = 0; t < w.tenants.size(); ++t) {
        for (int k = 0; k < 4; ++k) res.per_tenant[t][k] += cs.per_tenant[t][k];
      }
    }
    std::vector<std::pair<std::uint32_t, std::int64_t>> all;
    std::size_t n = 0;
    for (const ClientState& cs : ctx.clients) n += cs.samples.size();
    all.reserve(n);
    res.samples.reserve(n);
    for (ClientState& cs : ctx.clients) {
      all.insert(all.end(), cs.samples.begin(), cs.samples.end());
    }
    std::sort(all.begin(), all.end());
    check::Digest d;
    for (const auto& [idx, lat] : all) {
      d.fold(idx);
      d.fold(static_cast<std::uint64_t>(lat));
      res.samples.push_back(lat);
    }
    res.samples_digest = d.value();
    Network& net = cluster->fabric().network();
    res.wire_digest = net.wire_digest();
    if (auto* ck = cluster->checker()) {
      res.check_digest = ck->digest();
      res.violations = ck->violations().size();
      if (!ck->clean()) res.first_violation = ck->report();
    }
    if (ShardRunner* r = net.runner()) {
      res.epochs = r->epochs();
      res.cross_frames = r->cross_frames();
      res.ring_overflow = r->overflow_count();
    }
    res.events = cluster->loop().events_executed() - events_before;
  }
  {
    SpanScope s("snapshot", rep_span.idx);
    res.end_snapshot = cluster->metrics().snapshot();
    auto after = fold_counters(res.end_snapshot);
    for (auto& [name, v] : after) {
      auto it = before.find(name);
      res.counters.emplace_back(name, v - (it == before.end() ? 0.0 : it->second));
    }
    if (opt.trace) res.spans = cluster->tracer().spans();
  }
  return res;
}

}  // namespace objbench
