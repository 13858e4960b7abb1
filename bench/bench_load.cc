// Open-loop serving benchmark: starts the HTTP front end in-process
// over a uniform dataset, offers a Poisson/Zipfian load with an RPS
// ramp and a slice of client-side network faults, and records the
// open_loop_serving lane into BENCH_load.json:
//
//   - p50/p99/p999/max latency (ms, measured from the *scheduled*
//     arrival — open loop, so queueing delay is visible),
//   - shed rate and error-class counts (429/504/4xx/5xx/transport),
//   - mirror_ok: every distinct pool query's served answer was
//     bit-identical (same JSON bytes) to a direct SimilarityEngine
//     call — the wire adds transport, never changes the answer,
//   - fd_leak_ok: the process's open-fd count returned to its
//     pre-serving level after the drain — faults (resets, torn
//     frames, malformed requests) leaked no connections.
//
// scripts/check_bench_drift.sh gates on the lane and folds the JSON
// into BENCH_history.jsonl. Usage: bench_load [duration_s] [rps]
// (defaults 2 s at 150 rps, ramping to 2x).

#include <dirent.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "knmatch.h"

namespace {

using namespace knmatch;

size_t CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count;
}

// Serializes a direct engine answer exactly as serve/server.cc does
// for a full-coverage, unsharded /query response, so the comparison
// against the served body is bytes == bytes.
std::string MirrorBody(const SimilarityEngine& engine,
                       const std::vector<Value>& query, size_t n,
                       size_t k) {
  auto r = engine.KnMatch(query, n, k);
  serve::JsonWriter w;
  w.BeginObject();
  w.Key("type").String("knmatch");
  w.Key("matches").BeginArray();
  for (const Neighbor& m : r.value().matches) {
    w.BeginObject();
    w.Key("pid").Uint(m.pid);
    w.Key("distance").Number(m.distance);
    w.EndObject();
  }
  w.EndArray();
  w.Key("attributes_retrieved").Uint(r.value().attributes_retrieved);
  w.Key("partial").Bool(false);
  w.EndObject();
  return w.Take();
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s = argc > 1 ? std::strtod(argv[1], nullptr) : 2.0;
  const double rps = argc > 2 ? std::strtod(argv[2], nullptr) : 150.0;

  constexpr size_t kPoints = 5000;
  constexpr size_t kDims = 8;
  constexpr size_t kK = 10;
  constexpr size_t kN = 4;

  Dataset db = datagen::MakeUniform(kPoints, kDims, /*seed=*/7);
  SimilarityEngine engine(db);

  // Zipf-skewed query mix over the served dataset's own points.
  datagen::ZipfianQueryMixSpec mix;
  mix.pool_size = 64;
  mix.count = 512;
  mix.skew = 1.1;
  mix.seed = 1;
  const std::vector<std::vector<Value>> pool =
      datagen::MakeZipfianQueryMix(db, mix);

  const size_t fds_before = CountOpenFds();
  serve::LoadReport report;
  serve::ServerStats stats;
  bool mirror_ok = true;
  {
    // Scoped so the fd count below runs after full teardown — any
    // extra fd then is a genuinely leaked connection.
    serve::ServerOptions server_options;
    server_options.threads = 2;
    server_options.max_inflight = 16;
    serve::HttpServer server(&engine, server_options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench_load: %s\n", started.ToString().c_str());
      return 1;
    }

    serve::LoadgenOptions load;
    load.port = server.port();
    load.rps_start = rps;
    load.rps_end = rps * 2;  // ramp: the shedder must engage, not fall over
    load.duration_s = duration_s;
    load.connections = 4;
    load.type = "knmatch";
    load.n = kN;
    load.k = kK;
    load.deadline_ms = 250;
    load.fault_fraction = 0.05;
    load.seed = 42;
    auto run = serve::RunOpenLoopLoad(load, pool);
    if (!run.ok()) {
      std::fprintf(stderr, "bench_load: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    report = run.value();

    // --- Mirror attestation: served bytes == direct-engine bytes for
    // every distinct query of the pool. ---
    serve::HttpClient client(server.port());
    for (size_t i = 0; i < mix.pool_size && i < pool.size(); ++i) {
      serve::JsonWriter w;
      w.BeginObject();
      w.Key("type").String("knmatch");
      w.Key("query").BeginArray();
      for (const Value v : pool[i]) w.Number(v);
      w.EndArray();
      w.Key("n").Uint(kN);
      w.Key("k").Uint(kK);
      w.EndObject();
      auto response = client.Post("/query", w.Take());
      if (!response.ok() || response.value().status != 200 ||
          response.value().body != MirrorBody(engine, pool[i], kN, kK)) {
        mirror_ok = false;
        std::fprintf(stderr,
                     "bench_load: mirror mismatch on pool query %zu\n", i);
        break;
      }
    }

    stats = server.Stats();
    server.Drain();
  }
  const size_t fds_after = CountOpenFds();
  const bool fd_leak_ok = fds_after <= fds_before;

  std::printf(
      "open_loop_serving: %llu sent, %llu ok, %llu shed, %llu deadline, "
      "%llu transport; p50 %.2f ms, p99 %.2f ms, p999 %.2f ms; "
      "shed rate %.3f; mirror %s; fds %zu -> %zu (%s)\n",
      static_cast<unsigned long long>(report.sent),
      static_cast<unsigned long long>(report.ok),
      static_cast<unsigned long long>(report.shed),
      static_cast<unsigned long long>(report.deadline),
      static_cast<unsigned long long>(report.transport_errors),
      report.p50_ms, report.p99_ms, report.p999_ms, report.shed_rate,
      mirror_ok ? "ok" : "MISMATCH", fds_before, fds_after,
      fd_leak_ok ? "ok" : "LEAK");

  std::FILE* out = std::fopen("BENCH_load.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"load\",\n"
        "  \"dataset\": {\"kind\": \"uniform\", \"cardinality\": %zu, "
        "\"dims\": %zu},\n"
        "  \"lanes\": [\n"
        "    {\"name\": \"open_loop_serving\", \"duration_s\": %.1f, "
        "\"rps_start\": %.1f, \"rps_end\": %.1f, \"sent\": %llu, "
        "\"ok\": %llu, \"shed\": %llu, \"deadline\": %llu, "
        "\"client_error\": %llu, \"server_error\": %llu, "
        "\"transport_errors\": %llu, \"faults_injected\": %llu, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, "
        "\"max_ms\": %.3f, \"achieved_rps\": %.1f, \"shed_rate\": %.4f, "
        "\"torn_frames\": %llu, \"malformed\": %llu, "
        "\"mirror_ok\": %s, \"fd_leak_ok\": %s}\n"
        "  ]\n"
        "}\n",
        kPoints, kDims, duration_s, rps, rps * 2,
        static_cast<unsigned long long>(report.sent),
        static_cast<unsigned long long>(report.ok),
        static_cast<unsigned long long>(report.shed),
        static_cast<unsigned long long>(report.deadline),
        static_cast<unsigned long long>(report.client_error),
        static_cast<unsigned long long>(report.server_error),
        static_cast<unsigned long long>(report.transport_errors),
        static_cast<unsigned long long>(report.faults_injected),
        report.p50_ms, report.p99_ms, report.p999_ms, report.max_ms,
        report.achieved_rps, report.shed_rate,
        static_cast<unsigned long long>(stats.torn_frames),
        static_cast<unsigned long long>(stats.malformed),
        mirror_ok ? "true" : "false", fd_leak_ok ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_load.json\n");
  }

  return (mirror_ok && fd_leak_ok && report.ok > 0) ? 0 : 1;
}
