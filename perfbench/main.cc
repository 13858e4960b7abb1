// perfbench: the knmatch repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--corrupt 1]
//
// Runs one workload in-process against the library's public API,
// checks every answer, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end table below; with --trace 1 they are
// the per-layer table, from a run that also records spans around the
// program's calls into each layer (written to --trace-out). A run stamp
// (host shape, compiler, build type, seed) goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. Every workload prints every metric of the
// table its mode selects; a layer a workload does not exercise reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"rss_mb", "MB"}, {"qps", "1/s"},
    {"p50_ms", "ms"}, {"tail_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.query_ms", "ms"},
    {"core.attrs_per_query", "count"},
    {"core.ns_per_attr", "ns"},
    {"core.live_query_ms", "ms"},
    {"diskalgo.query_ms", "ms"},
    {"diskalgo.pages_per_query", "count"},
    {"diskalgo.io_model_ms", "ms"},
    {"exec.batch_speedup", "x"},
    {"exec.shed_frac", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.hit_us", "us"},
    {"cache.bytes", "bytes"},
    {"shard.query_ms", "ms"},
    {"shard.slowest_shard_ms", "ms"},
    {"shard.overhead_ms", "ms"},
    {"shard.imbalance", "ratio"},
    {"serve.parse_us", "us"},
    {"serve.json_us", "us"},
    {"serve.wait_ms", "ms"},
    {"storage.ingest_op_ms", "ms"},
    {"storage.wal_bytes_per_user_byte", "ratio"},
    {"storage.pages_flushed_per_op", "count"},
    {"storage.fsyncs_per_op", "count"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.snapshot_pin_us", "us"},
    {"batch_qps", "1/s"},
    {"slo_rps", "1/s"},
    {"ingest_ops_s", "1/s"},
    {"ingest_tail_ms", "ms"},
    {"failed_frac", "ratio"},
    {"loadgen.late_ms", "ms"},
    {"trace_overhead_pct", "%"},
    {"unattributed_frac", "ratio"},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = v;
    } else if (flag == "--corrupt") {
      args->corrupt = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <inproc_texture|"
                 "serve_sharded_zipf|live_ingest> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--corrupt 1]\n");
    return 2;
  }
  std::fprintf(stderr,
               "{\"stamp\": {\"nproc\": %zu, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": "
               "%llu, \"seconds\": %g, \"trace\": %d}}\n",
               Nproc(), PERFBENCH_CXX_COMPILER, PERFBENCH_BUILD_TYPE,
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);

  Report report;
  if (args.workload == "inproc_texture") {
    RunInprocTexture(args, &report);
  } else if (args.workload == "serve_sharded_zipf") {
    RunServeShardedZipf(args, &report);
  } else if (args.workload == "live_ingest") {
    RunLiveIngest(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  report.values["rss_mb"] = PeakRssMb();
  report.values["failed_frac"] =
      report.attempted == 0
          ? 0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    char buf[256];
    const auto it = report.values.find(m.name);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  first ? "" : ", ", m.name,
                  it == report.values.end() ? 0.0 : it->second, m.unit);
    json += buf;
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
