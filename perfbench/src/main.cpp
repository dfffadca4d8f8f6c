// perfbench_harness: runs one workload and prints its result as the last
// line of stdout, or checks the checker with --self-test.
//
//   perfbench_harness --workload warm_repeat --seed 1 --seconds 10 --trace 0
//       --cli <fadesched_cli> --work-dir <dir> --trace-out <file>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "procs.hpp"
#include "workloads.hpp"

namespace perfbench {
int RunSelfTest();
}

namespace {

void PrintResult(const perfbench::Result& res) {
  for (const std::string& p : res.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  std::string json = std::string("{\"correct\": ") + (res.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t k = 0; k < res.metrics.size(); ++k) {
    const perfbench::Metric& m = res.metrics[k];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return perfbench::RunSelfTest();
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--cli") args.cli = value;
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--trace-out") args.trace_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0.0 || args.work_dir.empty() || args.cli.empty()) {
    std::fprintf(stderr, "need --seconds > 0, --cli and --work-dir\n");
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  if (args.trace_out.empty()) args.trace_out = args.work_dir + "/spans.jsonl";
  perfbench::InstallProcessGuards();
  perfbench::SplitCpus();
  try {
    perfbench::Result res;
    if (args.workload == "warm_repeat") res = perfbench::RunWarmRepeat(args);
    else if (args.workload == "cold_unique") res = perfbench::RunColdUnique(args);
    else if (args.workload == "slotted_dynamics") res = perfbench::RunSlottedDynamics(args);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    PrintResult(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
