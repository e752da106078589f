// The repository benchmark program. One process runs one workload built
// from its seed and prints, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where metrics maps the name of everything measured to its value. With
// --trace 1 the run also records spans and reports the per-layer metrics.
// Exits non-zero when an output check fails.
//
//   perfbench --workload discussion|mail|replication|replication_delete_race
//             --seed N --seconds S --trace 0|1 --data-dir DIR
//             [--spans-file PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/env.h"
#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload discussion|mail|replication|"
               "replication_delete_race --seed N "
               "--seconds S --trace 0|1 --data-dir DIR [--spans-file PATH]\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--spans-file") {
      options.spans_file = value;
    } else {
      Usage();
    }
  }
  if (options.workload.empty() || options.data_dir.empty() ||
      options.seconds <= 0) {
    Usage();
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  dominodb::RemoveDirRecursively(options.data_dir).ok();
  if (!dominodb::CreateDirIfMissing(options.data_dir).ok()) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.data_dir.c_str());
    return 2;
  }

  RunResult result;
  if (options.workload == "discussion") {
    result = perfbench::RunDiscussion(options);
  } else if (options.workload == "mail") {
    result = perfbench::RunMail(options);
  } else if (options.workload == "replication") {
    result = perfbench::RunReplication(options, /*shared_deletes=*/false);
  } else if (options.workload == "replication_delete_race") {
    result = perfbench::RunReplication(options, /*shared_deletes=*/true);
  } else {
    Usage();
  }
  dominodb::RemoveDirRecursively(options.data_dir).ok();
  if (std::string error = perfbench::StatError(); !error.empty()) {
    result.Violate(error);
  }
  if (options.trace && !options.spans_file.empty()) {
    perfbench::WriteSpans(options.spans_file).ok();
  }

  // Every metric the run measured, by name. run.py picks the ones
  // BENCHMARK.json lists, gives them their units and treats a listed
  // metric that is missing here as a failed output check.
  std::string json;
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) json.append(", ");
    first = false;
    json.append("\"" + name + "\": " + buf);
  }

  if (!result.correct) {
    std::fprintf(stderr, "perfbench: OUTPUT CHECK FAILED: %s\n",
                 result.violation.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
