#include "split.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace objbench {

using objrpc::SimTime;
using objrpc::obs::MetricsSnapshot;
using objrpc::obs::SpanRecord;

namespace {

enum Cls { kQueue = 0, kWire = 1, kPipeline = 2, kHost = 3, kNone = 4 };

Cls classify(const std::string& name) {
  if (name == "queue") return kQueue;
  if (name == "wire") return kWire;
  if (name == "pipeline") return kPipeline;
  if (name.rfind("tx:", 0) == 0 || name.rfind("rx:", 0) == 0) return kHost;
  return kNone;
}

}  // namespace

LatSplit split_latency(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> leaves;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& s : spans) {
    if (s.trace == 0) continue;
    if (classify(s.name) != kNone) {
      leaves[s.trace].push_back(&s);
    } else if (s.parent == 0 && !s.open()) {
      roots.push_back(&s);
    }
  }
  LatSplit out;
  double cls_ns[4] = {0, 0, 0, 0};
  double root_ns = 0;
  std::vector<std::pair<SimTime, int>> edges;  // (time, +/-(cls+1))
  for (const SpanRecord* r : roots) {
    ++out.roots;
    root_ns += static_cast<double>(r->end - r->begin);
    edges.clear();
    auto it = leaves.find(r->trace);
    if (it != leaves.end()) {
      for (const SpanRecord* l : it->second) {
        const SimTime b = std::max(l->begin, r->begin);
        const SimTime e = std::min(l->end, r->end);
        if (e <= b) continue;
        const int c = classify(l->name);
        edges.emplace_back(b, c + 1);
        edges.emplace_back(e, -(c + 1));
      }
    }
    std::sort(edges.begin(), edges.end());
    int active[4] = {0, 0, 0, 0};
    SimTime prev = r->begin;
    for (const auto& [t, d] : edges) {
      for (int c = 3; c >= 0; --c) {
        if (active[c] > 0) {
          cls_ns[c] += static_cast<double>(t - prev);
          break;
        }
      }
      prev = t;
      active[std::abs(d) - 1] += d > 0 ? 1 : -1;
    }
  }
  if (out.roots > 0) {
    const double n = static_cast<double>(out.roots) * 1000.0;
    out.queue_us = cls_ns[kQueue] / n;
    out.wire_us = cls_ns[kWire] / n;
    out.pipeline_us = cls_ns[kPipeline] / n;
    out.host_us = cls_ns[kHost] / n;
  }
  if (root_ns > 0) {
    out.coverage =
        (cls_ns[0] + cls_ns[1] + cls_ns[2] + cls_ns[3]) / root_ns;
  }
  return out;
}

ShardSplit split_shards(const MetricsSnapshot& snap, std::uint32_t lanes) {
  const MetricsSnapshot::HistView* epoch = nullptr;
  const MetricsSnapshot::HistView* exec = nullptr;
  const MetricsSnapshot::HistView* wait = nullptr;
  const MetricsSnapshot::HistView* drain = nullptr;
  const MetricsSnapshot::HistView* util = nullptr;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "shard/epoch_host_ns") epoch = &h;
    if (name == "shard/exec_host_ns") exec = &h;
    if (name == "shard/barrier_wait_ns") wait = &h;
    if (name == "shard/drain_host_ns") drain = &h;
    if (name == "shard/lane_utilization_pct") util = &h;
  }
  ShardSplit out;
  if (epoch == nullptr || epoch->count == 0 || lanes == 0) return out;
  const double lane_time =
      static_cast<double>(epoch->sum) * static_cast<double>(lanes);
  if (exec != nullptr) out.exec_share = static_cast<double>(exec->sum) / lane_time;
  if (wait != nullptr) {
    out.barrier_wait_share = static_cast<double>(wait->sum) / lane_time;
  }
  if (drain != nullptr) {
    out.drain_ns_per_epoch =
        static_cast<double>(drain->sum) / static_cast<double>(epoch->count);
  }
  if (util != nullptr && util->count > 0) {
    out.lane_utilization_pct =
        static_cast<double>(util->sum) / static_cast<double>(util->count);
  }
  return out;
}

// Fixture format, one record per line ('#' starts a comment):
//   span <id> <trace> <parent> <name> <begin_ns> <end_ns>
//   hist <name> <count> <sum>
//   lanes <n>
//   expect <metric> <value>
std::string check_fixture(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "cannot open " + path;
  std::vector<SpanRecord> spans;
  MetricsSnapshot snap;
  std::uint32_t lanes = 0;
  std::vector<std::pair<std::string, double>> expect;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    if (kind == "span") {
      SpanRecord s;
      ls >> s.id >> s.trace >> s.parent >> s.name >> s.begin >> s.end;
      spans.push_back(s);
    } else if (kind == "hist") {
      std::string name;
      MetricsSnapshot::HistView h;
      ls >> name >> h.count >> h.sum;
      snap.histograms.emplace_back(name, h);
    } else if (kind == "lanes") {
      ls >> lanes;
    } else if (kind == "expect") {
      std::string name;
      double v = 0;
      ls >> name >> v;
      expect.emplace_back(name, v);
    }
    if (ls.fail()) return "malformed fixture line: " + line;
  }
  const LatSplit lat = split_latency(spans);
  const ShardSplit sh = split_shards(snap, lanes);
  const std::pair<const char*, double> got[] = {
      {"lat.roots", static_cast<double>(lat.roots)},
      {"lat.queue_us", lat.queue_us},
      {"lat.wire_us", lat.wire_us},
      {"lat.pipeline_us", lat.pipeline_us},
      {"lat.host_us", lat.host_us},
      {"lat.split_coverage", lat.coverage},
      {"shard.exec_share", sh.exec_share},
      {"shard.barrier_wait_share", sh.barrier_wait_share},
      {"shard.drain_host_ns_per_epoch", sh.drain_ns_per_epoch},
      {"shard.lane_utilization_pct", sh.lane_utilization_pct},
  };
  if (expect.empty()) return "fixture has no expectations";
  std::string diff;
  for (const auto& [name, want] : expect) {
    bool found = false;
    for (const auto& [gname, gv] : got) {
      if (name != gname) continue;
      found = true;
      if (std::fabs(gv - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
        diff += name + ": got " + std::to_string(gv) + " want " +
                std::to_string(want) + "\n";
      }
    }
    if (!found) diff += "unknown metric in fixture: " + name + "\n";
  }
  return diff;
}

}  // namespace objbench
