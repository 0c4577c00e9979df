// fablint fixture: SmallFn captures that spill the inline buffer.
// BasicSmallFn silently heap-allocates when the closure outgrows its
// buffer — the `smallfn-spill` rule computes a capture-layout lower
// bound at the construction site and flags the spill statically.
// The tiny 16-byte alias keeps the fixture self-contained.
#include <cstdint>

namespace fixture {

template <std::size_t N>
class BasicSmallFn {};  // stand-in for common/small_fn.hpp

using SmallFn = BasicSmallFn<16>;

struct Packet {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t frame_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

/// Defaulted special members declare functions, not data: the layout
/// is the three words (24 bytes).
struct Stamp {
  Stamp() = default;
  Stamp(const Stamp&) = default;
  std::uint64_t at = 0;
  std::uint64_t key = 0;
  std::uint64_t lane = 0;
};

class Journal {
 public:
  template <typename F>
  void run_or_defer(F&&) {}
};

class Link {
 public:
  void schedule_at(std::uint64_t, SmallFn) {}

  void deliver(Packet pkt, std::uint64_t at) {
    // Packet alone is 48 bytes -> spills the 16-byte buffer.
    schedule_at(at, [pkt]() { (void)pkt; });  // EXPECT: smallfn-spill
  }

  void deliver_moved(Packet pkt, std::uint64_t seq) {
    SmallFn cb = [p = std::move(pkt), seq]() {  // EXPECT: smallfn-spill
      (void)p;
      (void)seq;
    };
    (void)cb;
  }

  void observe(Packet pkt) {
    // A journal record is a SmallFn too: the same 48 bytes spill.
    journal_.run_or_defer([pkt]() { (void)pkt; });  // EXPECT: smallfn-spill
  }

  void stamp(Stamp s) {
    journal_.run_or_defer([s]() { (void)s; });  // EXPECT: smallfn-spill
  }

 private:
  Journal journal_;
};

}  // namespace fixture
