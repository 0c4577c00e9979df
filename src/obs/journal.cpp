#include "obs/journal.hpp"

#include <algorithm>

namespace objrpc::obs {

void ShardJournal::replay(const std::function<void(SimTime)>& clock) {
  order_.clear();
  for (const Lane& l : lanes_) {
    order_.insert(order_.end(), l.keys.begin(), l.keys.end());
  }
  if (order_.empty()) return;
  // Records of one event share a key and sit contiguously, in program
  // order, in one lane: the (lane, idx) tie-break replays them in that
  // order, exactly as a stable sort of the concatenated lanes would.
  std::sort(order_.begin(), order_.end(), [](const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.ka != b.ka) return a.ka < b.ka;
    if (a.kb != b.kb) return a.kb < b.kb;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.idx < b.idx;
  });
  for (const Key& k : order_) {
    clock(k.at);
    lanes_[k.lane].fns[k.idx]();
  }
  replayed_total_ += order_.size();
  // Release the closures' captures promptly; lanes keep their capacity.
  for (Lane& l : lanes_) {
    l.keys.clear();
    l.fns.clear();
  }
}

}  // namespace objrpc::obs
