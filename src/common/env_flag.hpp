// Boolean environment switches (CHECK_INVARIANTS, OBJRPC_SHARD_PROFILE).
//
// One parser for every on/off knob, so the switches agree on what "on"
// means: unset, empty, or exactly "0" is off; anything else ("1",
// "yes", "00") is on.
#pragma once

#include <cstdlib>
#include <string_view>

namespace objrpc {

inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

}  // namespace objrpc
