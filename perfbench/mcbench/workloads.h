// The benchmark's three workloads. Each runs its set-up several times (the
// median is setup_s), measures for about --seconds, checks every output,
// and adds its end-to-end metrics to the report; a traced run (--trace 1)
// instead adds the per-layer metrics and writes chrome-trace spans.

#ifndef PERFBENCH_MCBENCH_WORKLOADS_H_
#define PERFBENCH_MCBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "mcbench/harness.h"
#include "mcbench/spans.h"
#include "src/server/server.h"

namespace perfbench {

/// Server workloads (kv_workloads.cc).
void RunKvGet(const Args& args, SpanLog* spans, Report* report);
void RunKvBatch(const Args& args, SpanLog* spans, Report* report);

/// Table workload (table_workloads.cc).
void RunTableRw(const Args& args, SpanLog* spans, Report* report);

/// Starts an in-process CacheServer (2 workers, no TTL sweep, no byte
/// budget) and stores keys [0, n) of `keys` at version 0 from one thread.
/// Null (with the failure reported) if anything goes wrong.
std::unique_ptr<mccuckoo::server::CacheServer> StartPreloadedServer(
    const mccuckoo::server::ItemStoreOptions& store, const KeySet& keys,
    uint64_t n, const ValueGen& values, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_MCBENCH_WORKLOADS_H_
