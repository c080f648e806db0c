// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload ingest-mem|fire --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//             [--fault drop-make|fire-count]
//
// --trace 0 runs the workload and reports its end-to-end metrics; --trace
// 1 runs fixed-size traced phases and reports the per-layer metrics. The
// last stdout line is the result object; the line before it is the host
// fingerprint, and in traced runs a line of raw deterministic counters
// precedes both. --fault injects a defect the checks must catch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest-mem|fire --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--fault drop-make|fire-count]\n",
               why);
  std::exit(2);
}

perfbench::Args Parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--fault") {
      if (value == "drop-make") {
        args.fault = perfbench::Fault::kDropMake;
      } else if (value == "fire-count") {
        args.fault = perfbench::Fault::kFireCount;
      } else {
        Usage("unknown fault");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "ingest-mem" && args.workload != "fire") {
    Usage("unknown workload");
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

}  // namespace

namespace perfbench {

void AddMatchPerOp(const MatchCounts& c, double ops, Result* result) {
  auto per_op = [&](uint64_t n) { return ops > 0 ? static_cast<double>(n) / ops : 0; };
  result->Add("match.alpha_tests_per_op", per_op(c.alpha_tests), "count");
  result->Add("match.candidates_per_op", per_op(c.candidates), "count");
  result->Add("match.index_probes_per_op", per_op(c.index_probes), "count");
  result->Add("match.probe_tokens_per_op", per_op(c.probe_tokens), "count");
  result->Add("match.scan_tokens_per_op", per_op(c.scan_tokens), "count");
  result->Add("match.propagations_per_op", per_op(c.propagations), "count");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  PinToOneCpu();
  std::filesystem::create_directories(args.work_dir);
  Result result;
  const std::string& w = args.workload;
  if (!args.trace) {
    if (w == "fire") {
      RunFire(args, &result);
    } else {
      RunIngest(args, &result);
    }
  } else if (w == "fire") {
    TraceFire(args, kGeneric | kEngine, &result);
    TraceIngest(args, /*durable=*/false, kServing, &result);
    TraceIngest(args, /*durable=*/true, kStorage, &result);
  } else {
    TraceIngest(args, /*durable=*/false, kGeneric | kServing, &result);
    TraceIngest(args, /*durable=*/true, kStorage, &result);
    TraceFire(args, kEngine, &result);
  }
  if (args.trace) std::printf("counters %s\n", result.CountersJson().c_str());
  std::printf("host %s\n", HostFingerprint().c_str());
  std::printf("%s\n", result.MetricsJson().c_str());
  return 0;
}
