// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload paper_city|flex_tail|serve_city --seed N
//             --seconds S --trace 0|1
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) repeats the timed work with tracing and explain enabled and
// prints the per-layer metrics. Either way the last stdout line is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and every timed answer has been checked against a reference engine.
// Human-readable progress goes to stderr. perfbench/run.py builds this
// binary from source and runs it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common.h"
#include "workloads.h"

namespace {

// A run that has not finished by now exits without a result: a stuck
// query is a failure, and the benchmark must end within its time limit.
constexpr int kWatchdogSeconds = 170;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_city|flex_tail|serve_city --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

perfbench::RunArgs ParseArgs(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing flag value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 120) {
        Usage("bad --seconds");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
      args.trace = value[0] == '1';
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty()) Usage("missing --workload");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = ParseArgs(argc, argv);

  // SIGALRM's default action ends the process without a result line.
  alarm(kWatchdogSeconds);

  perfbench::Report report(args.trace ? &perfbench::PerLayerMetrics()
                                      : &perfbench::EndToEndMetrics());
  if (args.workload == "paper_city") {
    perfbench::RunPaperCity(args, &report);
  } else if (args.workload == "flex_tail") {
    perfbench::RunFlexTail(args, &report);
  } else if (args.workload == "serve_city") {
    perfbench::RunServeCity(args, &report);
  } else {
    Usage("unknown workload");
  }
  perfbench::Log("%s seed %llu: attempted %lld, succeeded %lld, failed %lld",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 static_cast<long long>(report.attempted),
                 static_cast<long long>(report.attempted - report.failed),
                 static_cast<long long>(report.failed));
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
