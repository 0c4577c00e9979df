#include "calib.hpp"

#include <sys/mman.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace objbench {

namespace {

constexpr int kBlocks = 1500;
constexpr std::size_t kArenaBytes = 2u << 20;

volatile std::uint64_t g_sink;  // keeps the timed pass from being elided

/// Touches a buffer larger than L2 so the timed pass starts from the
/// helper's own cache state, not the simulator's.
void evict() {
  static std::vector<std::uint8_t> buf(4u << 20, 1);
  for (std::size_t i = 0; i < buf.size(); i += 64) buf[i] = static_cast<std::uint8_t>(buf[i] + 1);
}

/// A fixed shuffled visiting order of the blocks.
const std::array<std::uint16_t, kBlocks>& shuffled() {
  static const std::array<std::uint16_t, kBlocks> order = [] {
    std::array<std::uint16_t, kBlocks> o{};
    for (int i = 0; i < kBlocks; ++i) o[i] = static_cast<std::uint16_t>(i);
    std::uint64_t g = 9;
    for (int i = kBlocks - 1; i > 0; --i) {
      g = g * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(o[i], o[(g >> 33) % static_cast<std::uint64_t>(i + 1)]);
    }
    return o;
  }();
  return order;
}

/// The timed pass: map fresh memory, carve it into small blocks and
/// fill them (page faults and stores), read them back in shuffled order
/// (dependent loads), unmap.  It owns its memory, so neither the
/// program's heap nor malloc's tunables change what it does.
double timed_pass() {
  const auto& order = shuffled();
  std::array<std::uint64_t*, kBlocks> blocks{};
  const std::uint64_t t0 = host_now_ns();
  void* mem = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) std::abort();
  auto* next = static_cast<std::uint64_t*>(mem);
  for (int i = 0; i < kBlocks; ++i) {
    const std::size_t words = 16 + static_cast<std::size_t>(i * 7 % 200);
    for (std::size_t k = 0; k < words; ++k) next[k] = static_cast<std::uint64_t>(i) + k;
    blocks[i] = next;
    next += words + 2;  // a header's worth of gap, as an allocator leaves
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < kBlocks; ++i) sum += *blocks[order[i]];
  munmap(mem, kArenaBytes);
  const std::uint64_t t1 = host_now_ns();
  g_sink = sum;
  return static_cast<double>(t1 - t0) / 1e9;
}

}  // namespace

Calibrator::Calibrator() : worker_([this] { serve(); }) {}

Calibrator::~Calibrator() {
  {
    std::lock_guard<std::mutex> l(m_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

double Calibrator::sample() {
  std::unique_lock<std::mutex> l(m_);
  const unsigned want = ++requested_;
  cv_.notify_all();
  cv_.wait(l, [&] { return served_ == want; });
  return last_s_;
}

void Calibrator::serve() {
  std::unique_lock<std::mutex> l(m_);
  for (;;) {
    cv_.wait(l, [&] { return stop_ || requested_ != served_; });
    if (stop_) return;
    l.unlock();
    evict();
    const double s = timed_pass();
    l.lock();
    last_s_ = s;
    ++served_;
    cv_.notify_all();
  }
}

}  // namespace objbench
