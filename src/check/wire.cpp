#include "check/wire.hpp"

#include <cinttypes>
#include <cstdio>

namespace objrpc::check {

namespace {

/// Key of word position `i`: the SplitMix64 stream from the digest
/// seed, so no two positions fold alike.
constexpr std::uint64_t position_key(unsigned i) {
  return SplitMix64::mix(Digest::kSeed + (i + 1) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace

void Digest::fold_event(const WireEvent& ev) {
  // The 15 fields pack into 12 words, and each pair of words is one
  // independent multiply lane keyed by position, so the six multiplies
  // overlap instead of each waiting on the last.  The lanes combine in
  // a fixed order and enter the running state through one SplitMix64
  // step: the only serial link from one event to the next.
  constexpr unsigned kWords = 12;
  const std::uint64_t w[kWords] = {
      static_cast<std::uint64_t>(ev.at),
      ev.from | (std::uint64_t{ev.to} << 32),
      ev.src,
      ev.dst,
      ev.object.value.hi,
      ev.object.value.lo,
      ev.seq,
      ev.offset,
      ev.length | (std::uint64_t{ev.epoch} << 32),
      ev.obj_version,
      ev.payload_bytes,
      static_cast<std::uint64_t>(ev.type) | (std::uint64_t{ev.tenant} << 32),
  };
  std::uint64_t lane[kWords / 2];
  for (unsigned i = 0; i < kWords / 2; ++i) {
    lane[i] = mum(w[2 * i] ^ position_key(2 * i),
                  w[2 * i + 1] ^ position_key(2 * i + 1));
  }
  const std::uint64_t h =
      mum(mum(lane[0] ^ position_key(kWords), lane[1]) ^ lane[4],
          mum(lane[2] ^ position_key(kWords + 1), lane[3]) ^ lane[5]);
  state_ = SplitMix64::mix(state_ ^ h);
}

std::string addr_to_string(HostAddr addr) {
  char buf[64];
  if (addr == kUnspecifiedHost) {
    return "unspecified";
  }
  if (is_inc_cache_addr(addr)) {
    std::snprintf(buf, sizeof buf, "inc-cache(switch %" PRIu64 ")",
                  addr - kIncCacheAddrBase);
  } else {
    std::snprintf(buf, sizeof buf, "host-addr %" PRIu64, addr);
  }
  return buf;
}

std::string WireEvent::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%10" PRId64 "ns  node%u->node%u  %-14s %s -> %s obj=%s "
                "seq=%" PRIu64 " off=%" PRIu64 " len=%u epoch=%u ver=%" PRIu64
                " tenant=%u%s%s",
                at, from, to, msg_type_name(type), addr_to_string(src).c_str(),
                addr_to_string(dst).c_str(), object.to_string().c_str(), seq,
                offset, length, epoch, obj_version, tenant,
                emission ? " [emit]" : "", final_delivery ? " [deliver]" : "");
  return buf;
}

}  // namespace objrpc::check
