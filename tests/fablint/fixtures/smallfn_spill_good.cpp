// fablint fixture: good twin of smallfn_spill_bad.cpp.  Captures that
// fit the inline buffer — a this-pointer, small ids, a reference —
// the shape every fabric closure should have.  Zero findings expected.
#include <cstdint>

namespace fixture {

template <std::size_t N>
class BasicSmallFn {};  // stand-in for common/small_fn.hpp

using SmallFn = BasicSmallFn<16>;

class Journal {
 public:
  template <typename F>
  void run_or_defer(F&&) {}
};

class Link {
 public:
  void schedule_at(std::uint64_t, SmallFn) {}

  void deliver(std::uint32_t slot, std::uint64_t at) {
    // this (8) + slot (4) -> 12 bytes, inside the 16-byte buffer.
    schedule_at(at, [this, slot]() { touch(slot); });
  }

  void observe(std::uint32_t slot) {
    // A journal record with the same small capture.
    journal_.run_or_defer([this, slot]() { touch(slot); });
  }

 private:
  void touch(std::uint32_t) {}
  Journal journal_;
};

}  // namespace fixture
