// omqbench: one command that drives the serving layer end to end.
//
//   omqbench --workload <cold_start|serve_lookup|serve_update|serve_conp>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints a host line, the recorded backend picks, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Refuses to run from an unoptimized build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef OMQBENCH_BUILD_TYPE
#define OMQBENCH_BUILD_TYPE ""
#endif

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int Usage() {
  std::fprintf(stderr,
               "usage: omqbench --workload <cold_start|serve_lookup|"
               "serve_update|serve_conp> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  omqbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--trace-out") {
      opts.trace_out = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || !(opts.seconds > 0)) {
    return Usage();
  }

  const std::string build_type = OMQBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized =
      build_type == "Release" || build_type == "RelWithDebInfo";
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "omqbench: refusing to report from an unoptimized build "
                 "(CMAKE_BUILD_TYPE='%s')\n",
                 build_type.c_str());
    return 3;
  }
  std::printf("host nproc=%u build_type=%s compiler=\"%s\"\n",
              std::thread::hardware_concurrency(), build_type.c_str(),
              __VERSION__);

  omqbench::RunResult res;
  if (opts.workload == "cold_start") {
    res = omqbench::RunColdStart(opts);
  } else if (opts.workload.rfind("serve_", 0) == 0) {
    res = omqbench::RunServe(opts);
  } else {
    return Usage();
  }
  if (res.metrics.empty()) return 4;  // unknown serve_* workload

  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  std::printf("inputs digest=%016llx\n",
              static_cast<unsigned long long>(res.input_digest));
  std::printf("picks {");
  bool first = true;
  for (const auto& [k, v] : res.picks) {
    if (!first) std::printf(", ");
    first = false;
    PrintJsonString(k);
    std::printf(": ");
    PrintJsonString(v);
  }
  std::printf("}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.failed == 0 && res.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const omqbench::Metric& m = res.metrics[i];
    if (i) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
