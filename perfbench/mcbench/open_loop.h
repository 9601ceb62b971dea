// Open-loop GET load for the traced run.
//
// Generator threads send one-key GETs at Poisson arrival times whether or
// not replies are outstanding, at one fixed reference rate, and time each
// request from when it was due, so a stall also charges the requests
// queued behind it.
//
// On a shared virtual machine the p99 of loopback requests is set by host
// preemptions (milliseconds) rather than by the server, so these numbers
// are per-layer diagnostics of the client/event-loop path, not bounded
// end-to-end metrics; see README.md.

#ifndef PERFBENCH_MCBENCH_OPEN_LOOP_H_
#define PERFBENCH_MCBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

#include "mcbench/harness.h"
#include "mcbench/spans.h"
#include "src/server/server.h"

namespace perfbench {

struct OpenLoopInput {
  mccuckoo::server::CacheServer* server = nullptr;
  const KeySet* keys = nullptr;
  const ValueGen* values = nullptr;
  const VersionTable* versions = nullptr;
  /// Key ids to GET, cycled in order.
  std::vector<uint32_t> ids;
};

/// Adds client.gen_lag_p99_us, client.backlog_max and
/// client.open_loop_{p50_us,p99_us}.
void MeasureOpenLoop(const OpenLoopInput& in, const Args& args, SpanLog* spans,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_MCBENCH_OPEN_LOOP_H_
