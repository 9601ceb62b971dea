// mcbench: the end-to-end and per-layer benchmark of the McCuckoo cache
// server and its concurrent table front-end.
//
//   mcbench --workload kv_get|kv_batch|table_rw --seed N
//           --seconds S --trace 0|1 [--smoke] [--trace-out PATH]
//
// Prints one JSON object as its last line: correctness tallies, the
// metrics (end-to-end with --trace 0, per-layer with --trace 1) with their
// units, and the run context. Exits 1 when any correctness check failed.
// perfbench/run.py builds this binary and wraps it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mcbench/harness.h"
#include "mcbench/spans.h"
#include "mcbench/workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: mcbench --workload kv_get|kv_batch|table_rw "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-out PATH]\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  perfbench::Report report;
  perfbench::SpanLog spans(args.trace);
  report.SetContext("workload", args.workload);
  report.SetContext("seed", std::to_string(args.seed));
  report.SetContext("nproc", std::to_string(perfbench::HostThreads()));
  report.SetContext("trace", args.trace ? "1" : "0");
  report.SetContext("scale", args.smoke ? "smoke" : "full");

  if (args.workload == "kv_get") {
    perfbench::RunKvGet(args, &spans, &report);
  } else if (args.workload == "kv_batch") {
    perfbench::RunKvBatch(args, &spans, &report);
  } else if (args.workload == "table_rw") {
    perfbench::RunTableRw(args, &spans, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    Usage();
    return 2;
  }

  if (args.trace) {
    report.Add("error_frac",
               static_cast<double>(report.failed()) /
                   static_cast<double>(report.attempted() ? report.attempted()
                                                          : 1),
               "fraction");
    report.SetContext("spans", std::to_string(spans.total_spans()));
    report.SetContext("spans_dropped", std::to_string(spans.total_dropped()));
    if (!spans.WriteChromeTrace(args.trace_out)) {
      report.Fail("cannot write the chrome trace to " + args.trace_out);
    } else {
      report.SetContext("trace_file", args.trace_out);
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
