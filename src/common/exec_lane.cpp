#include "common/exec_lane.hpp"

namespace objrpc {

constinit thread_local std::uint32_t ExecLane::idx = 0;

}  // namespace objrpc
