#include "knmatch/serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <random>
#include <thread>

#include "knmatch/serve/client.h"
#include "knmatch/serve/json.h"

namespace knmatch::serve {

namespace {

using Clock = std::chrono::steady_clock;

enum class EventKind {
  kRequest,
  kFaultReset,      // connect, half a request, RST
  kFaultTorn,       // half a request, stall, FIN mid-frame
  kFaultStalled,    // dribble the request with a stall, then finish
  kFaultMalformed,  // raw garbage bytes
};

struct Event {
  double at_s = 0;  // offset from run start
  EventKind kind = EventKind::kRequest;
  uint32_t query = 0;  // index into the pool
};

std::string RenderQueryBody(const LoadgenOptions& options,
                            const std::vector<Value>& query) {
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String(options.type);
  w.Key("query").BeginArray();
  for (const Value v : query) w.Number(v);
  w.EndArray();
  w.Key("k").Uint(options.k);
  const size_t n = options.n != 0 ? options.n : query.size();
  if (options.type == "fknmatch") {
    w.Key("n0").Uint(1);
    w.Key("n1").Uint(n);
  } else {
    w.Key("n").Uint(n);
  }
  w.EndObject();
  return w.Take();
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Shared tallies, folded under one mutex at event granularity (the
/// contended path is the network round trip, not the counter).
struct Tally {
  std::mutex mu;
  LoadReport report;
  std::vector<double> latencies_ms;
};

void RunEvent(const Event& event, const std::vector<std::string>& bodies,
              const std::vector<std::pair<std::string, std::string>>& headers,
              HttpClient* client, Tally* tally, Clock::time_point scheduled) {
  const std::string& body = bodies[event.query];
  switch (event.kind) {
    case EventKind::kRequest: {
      Result<HttpResponse> r = client->Post("/query", body, headers);
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - scheduled)
                            .count();
      std::lock_guard<std::mutex> lock(tally->mu);
      ++tally->report.sent;
      if (!r.ok()) {
        ++tally->report.transport_errors;
        return;
      }
      tally->latencies_ms.push_back(ms);
      const int status = r.value().status;
      if (status < 300) {
        ++tally->report.ok;
        if (r.value().body.find("\"partial\":true") != std::string::npos) {
          ++tally->report.partial;
        }
      } else if (status == 429) {
        ++tally->report.shed;
      } else if (status == 504) {
        ++tally->report.deadline;
      } else if (status < 500) {
        ++tally->report.client_error;
      } else {
        ++tally->report.server_error;
      }
      return;
    }
    case EventKind::kFaultReset: {
      // Half a request, then RST: the server must count a torn frame
      // (or burn nothing at all), never crash or leak the connection.
      (void)client->SendRaw(std::string_view(body).substr(0, body.size() / 2));
      client->Reset();
      break;
    }
    case EventKind::kFaultTorn: {
      (void)client->PostTorn("/query", body, body.size() / 3, 1.0, true);
      break;
    }
    case EventKind::kFaultStalled: {
      // A dribbled but eventually complete request: must still answer.
      Result<HttpResponse> r =
          client->PostTorn("/query", body, body.size() / 2, 2.0, false);
      std::lock_guard<std::mutex> lock(tally->mu);
      ++tally->report.faults_injected;
      if (!r.ok()) ++tally->report.transport_errors;
      return;
    }
    case EventKind::kFaultMalformed: {
      (void)client->SendRaw("BOGUS /\x01\x02 HTTP/9.9\r\n\r\n");
      // The server answers 400 and closes; drain it so the next event
      // starts on a fresh connection.
      (void)client->ReadResponse();
      client->Close();
      break;
    }
  }
  std::lock_guard<std::mutex> lock(tally->mu);
  ++tally->report.faults_injected;
}

}  // namespace

Result<LoadReport> RunOpenLoopLoad(
    const LoadgenOptions& options,
    const std::vector<std::vector<Value>>& query_pool) {
  if (query_pool.empty()) {
    return Status::InvalidArgument("query pool is empty");
  }
  if (options.rps_start <= 0 || options.rps_end <= 0 ||
      options.duration_s <= 0 || options.connections == 0) {
    return Status::InvalidArgument(
        "rps_start/rps_end/duration_s/connections must be positive");
  }

  // --- Build the whole arrival schedule up front (open loop). ---
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<Event> events;
  double t = 0;
  while (t < options.duration_s) {
    // Linear RPS ramp: the instantaneous rate at offset t.
    const double frac = t / options.duration_s;
    const double rate =
        options.rps_start + (options.rps_end - options.rps_start) * frac;
    t += std::exponential_distribution<double>(rate)(rng);
    if (t >= options.duration_s) break;
    Event e;
    e.at_s = t;
    e.query = static_cast<uint32_t>(rng() % query_pool.size());
    if (uniform(rng) < options.fault_fraction) {
      const double pick = uniform(rng);
      e.kind = pick < 0.25   ? EventKind::kFaultReset
               : pick < 0.5  ? EventKind::kFaultTorn
               : pick < 0.75 ? EventKind::kFaultStalled
                             : EventKind::kFaultMalformed;
    }
    events.push_back(e);
  }

  // Pre-render every distinct query body once.
  std::vector<std::string> bodies;
  bodies.reserve(query_pool.size());
  for (const std::vector<Value>& q : query_pool) {
    bodies.push_back(RenderQueryBody(options, q));
  }
  std::vector<std::pair<std::string, std::string>> headers;
  if (options.deadline_ms > 0) {
    headers.emplace_back("X-Knmatch-Deadline-Ms",
                         std::to_string(options.deadline_ms));
  }

  Tally tally;
  tally.report.scheduled = events.size();
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(options.connections);
  for (size_t c = 0; c < options.connections; ++c) {
    clients.emplace_back([&] {
      HttpClient client(options.port);
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= events.size()) return;
        const Event& event = events[i];
        const Clock::time_point scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(event.at_s));
        std::this_thread::sleep_until(scheduled);
        RunEvent(event, bodies, headers, &client, &tally, scheduled);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  LoadReport report = std::move(tally.report);
  std::vector<double> sorted = std::move(tally.latencies_ms);
  std::sort(sorted.begin(), sorted.end());
  report.p50_ms = Percentile(sorted, 0.50);
  report.p99_ms = Percentile(sorted, 0.99);
  report.p999_ms = Percentile(sorted, 0.999);
  report.max_ms = sorted.empty() ? 0 : sorted.back();
  report.achieved_rps =
      elapsed_s > 0 ? static_cast<double>(report.sent) / elapsed_s : 0;
  report.shed_rate =
      report.sent > 0
          ? static_cast<double>(report.shed) / static_cast<double>(report.sent)
          : 0;
  return report;
}

}  // namespace knmatch::serve
