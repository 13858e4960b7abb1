#ifndef KNMATCH_SERVE_SERVER_H_
#define KNMATCH_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/core/query_context.h"
#include "knmatch/engine.h"
#include "knmatch/exec/admission.h"
#include "knmatch/serve/http.h"
#include "knmatch/shard/shard_router.h"

namespace knmatch::serve {

/// Configuration for an HttpServer.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port() after Start()).
  uint16_t port = 0;
  /// Query worker threads (>= 1). The event loop itself is one more
  /// thread; workers only run engine queries and serialize answers.
  size_t threads = 2;
  /// Open-connection ceiling; accepts beyond it are answered with a
  /// canned 503 and closed (the listener never stops draining its
  /// backlog, so a full house cannot starve the accept queue).
  size_t max_connections = 128;
  /// Admitted-request concurrency cap (exec::AdmissionController);
  /// beyond it requests shed with 429 + Retry-After. 0 = unlimited.
  uint32_t max_inflight = 8;
  /// Per-request deadline applied when the client sends no deadline
  /// header; 0 means no default deadline.
  double default_deadline_ms = 0;
  /// Connections idle (or dribbling a request) longer than this are
  /// closed — the slow-loris bound. Mid-request closes answer 408.
  double idle_timeout_ms = 5000;
  /// Budget for graceful drain: in-flight requests get this long to
  /// finish; stragglers are cancelled through their QueryContext.
  double drain_timeout_ms = 2000;
  /// Request framing ceilings (431 / 413 beyond them).
  HttpLimits limits;
};

/// Lifetime counters, mirrored 1:1 by the knmatch_serve_* metric
/// family (the equality tests hold them to each other).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_refused = 0;
  uint64_t requests = 0;
  uint64_t responses_ok = 0;
  uint64_t responses_client_error = 0;
  uint64_t responses_server_error = 0;
  uint64_t shed = 0;
  uint64_t deadline_hits = 0;
  uint64_t malformed = 0;
  uint64_t torn_frames = 0;
  uint64_t idle_timeouts = 0;
  uint64_t partial_answers = 0;
  uint64_t drains = 0;
};

/// Epoll-based HTTP/1.1 front end over a SimilarityEngine (and
/// optionally a ShardRouter). Endpoints:
///
///   POST /query        one k-n-match / frequent-k-n-match / kNN query
///   POST /batch        a batch of same-shaped queries
///   GET  /metrics      Prometheus exposition of the global registry
///   GET  /health       liveness + readiness + breaker/drain state
///   POST /admin/drain  graceful drain (stop accepting, finish
///                      in-flight under the drain budget, then close)
///
/// Request lifecycle hardening, end to end:
///  - deadlines: the X-Knmatch-Deadline-Ms request header arms the
///    query's QueryContext measured from *arrival*, so queue and parse
///    time count; expired requests answer 504 with the governance
///    partial result summarized in the body;
///  - admission: exec::AdmissionController (EWMA predictive shed +
///    in-flight cap) refuses doomed or excess requests with 429 +
///    Retry-After — the connection stays open, never dropped;
///  - framing: oversized headers/bodies, malformed frames, and
///    unsupported versions answer 431/413/400/505 with a structured
///    JSON error body, then close;
///  - slow loris: connections that dribble or idle past the timeout
///    are closed (408 when mid-request);
///  - drain: readiness flips first (load balancers see it in /health),
///    the listener closes, idle connections close, in-flight requests
///    run to completion under the drain budget, stragglers cancel.
///
/// Threading: one event-loop thread owns every connection object and
/// all socket I/O. Workers run queries only; they hand finished
/// responses back through a completion queue keyed by (fd, generation)
/// so a response for a connection that died in the meantime is
/// discarded, never written to a recycled fd.
class HttpServer {
 public:
  /// Serves `engine` (must outlive the server). `router` optionally
  /// routes /query through scatter-gather instead; partial-coverage
  /// answers serialize with "partial": true plus the degradation
  /// record.
  HttpServer(const SimilarityEngine* engine, ServerOptions options = {},
             const shard::ShardRouter* router = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the loop + worker threads. Fails with
  /// kUnavailable when the port cannot be bound.
  Status Start();

  /// The bound port (after Start(); meaningful with options.port == 0).
  uint16_t port() const { return port_; }

  /// True between Start() and the end of a drain.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Readiness: accepting new work (false while draining/stopped).
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Initiates a graceful drain (idempotent, any thread) and blocks
  /// until the server is fully stopped: listener closed, in-flight
  /// requests finished or cancelled at the drain deadline, every
  /// connection closed, threads joined.
  void Drain();

  /// Drain() unless already stopped; safe to call twice.
  void Stop();

  /// Lifetime counters (any thread).
  ServerStats Stats() const;

 private:
  struct Conn;
  struct Job;
  struct Completion;

  void LoopThread();
  void WorkerThread();

  void AcceptNew();
  /// Socket-readable: pull bytes, feed the parser, advance.
  void HandleReadable(Conn* conn);
  /// Flush as much queued output as the socket takes.
  void HandleWritable(Conn* conn);
  /// Parser progress: dispatch ready requests / answer errors.
  void AdvanceConn(Conn* conn);
  /// Routes one parsed request (loop thread). Fast endpoints answer
  /// inline; /query & /batch go through admission to the workers.
  /// `arrival` is the first byte's receive time — the deadline epoch.
  void RouteRequest(Conn* conn, HttpRequest request,
                    std::chrono::steady_clock::time_point arrival);
  /// Queues `payload` on the connection and arms EPOLLOUT.
  void QueueResponse(Conn* conn, int status, std::string body,
                     bool keep_alive,
                     const std::vector<std::pair<std::string, std::string>>&
                         extra_headers = {});
  void CloseConn(int fd);
  void UpdateEpoll(Conn* conn);
  /// Sweeps idle / slow-loris connections; returns ms until the next
  /// sweep is due.
  int SweepIdle();
  void DrainCompletions();
  /// Drain state machine step (loop thread); true when fully drained.
  bool DrainTick();

  // --- Worker-side request execution (no Conn access). ---
  Completion ExecuteJob(const Job& job);
  std::string HandleQuery(const Job& job, int* http_status);
  std::string HandleBatch(const Job& job, int* http_status);

  std::string RenderHealth() const;
  /// Structured JSON error body ({"error": {...}}).
  static std::string ErrorBody(std::string_view code,
                               std::string_view message);

  const SimilarityEngine* engine_;
  const shard::ShardRouter* router_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_read_fd_ = -1;   // workers (and Drain) wake the loop
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;

  std::thread loop_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> ready_{false};
  std::atomic<bool> draining_{false};
  /// Drain budget expiry as steady-clock ticks since epoch; atomic
  /// because Drain() may arm it from any thread while the loop thread
  /// compares against it in DrainTick().
  std::atomic<std::chrono::steady_clock::rep> drain_deadline_ticks_{0};
  /// Shared cancel token armed on every query context; set at the
  /// drain deadline so stragglers trip kUnavailable cooperatively.
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::mutex drain_mu_;
  std::condition_variable drained_cv_;
  bool stopped_ = false;  // guarded by drain_mu_

  /// Connections, keyed by fd; owned by the loop thread exclusively.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  uint64_t next_generation_ = 1;

  // Worker queue (jobs in) and completion queue (responses out).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> jobs_;
  bool workers_exit_ = false;  // guarded by queue_mu_
  std::mutex completion_mu_;
  std::deque<Completion> completions_;

  exec::AdmissionController admission_;

  // Lifetime counters (relaxed; mirrored by the obs serve family).
  std::atomic<uint64_t> stat_accepted_{0};
  std::atomic<uint64_t> stat_closed_{0};
  std::atomic<uint64_t> stat_refused_{0};
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_2xx_{0};
  std::atomic<uint64_t> stat_4xx_{0};
  std::atomic<uint64_t> stat_5xx_{0};
  std::atomic<uint64_t> stat_shed_{0};
  std::atomic<uint64_t> stat_deadline_{0};
  std::atomic<uint64_t> stat_malformed_{0};
  std::atomic<uint64_t> stat_torn_{0};
  std::atomic<uint64_t> stat_idle_{0};
  std::atomic<uint64_t> stat_partial_{0};
  std::atomic<uint64_t> stat_drains_{0};
};

/// Maps a library Status to the HTTP status code the wire contract
/// promises (see docs/serving.md): kInvalidArgument/kOutOfRange -> 400,
/// kNotFound -> 404, kDeadlineExceeded -> 504, kResourceExhausted ->
/// 429, kUnavailable -> 503, anything else -> 500.
int HttpStatusFor(const Status& status);

}  // namespace knmatch::serve

#endif  // KNMATCH_SERVE_SERVER_H_
