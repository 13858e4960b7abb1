#include "knmatch/serve/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "knmatch/obs/catalog.h"
#include "knmatch/obs/exposition.h"
#include "knmatch/serve/json.h"

namespace knmatch::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The deadline header of the wire contract (docs/serving.md).
constexpr std::string_view kDeadlineHeader = "X-Knmatch-Deadline-Ms";

/// Loop granularity: idle sweeps, drain ticks, and completion drains
/// run at least this often.
constexpr int kTickMs = 50;

/// Past the drain deadline, stragglers get one more tick-grained
/// window for their cancellation trips to unwind before connections
/// are closed under them.
constexpr double kDrainHardGraceMs = 1000;

std::string_view StatusSlug(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kDataLoss: return "data_loss";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
  }
  return "unknown";
}

const char* BreakerStateName(exec::CircuitBreaker::State state) {
  switch (state) {
    case exec::CircuitBreaker::State::kClosed: return "closed";
    case exec::CircuitBreaker::State::kOpen: return "open";
    case exec::CircuitBreaker::State::kHalfOpen: return "half_open";
  }
  return "unknown";
}

/// Largest integer a JSON number (an IEEE double) carries exactly.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// Reads an optional non-negative integer member; false on a present
/// but malformed value. Values above 2^53 are malformed: beyond it a
/// double no longer names one integer, and converting a double past
/// size_t's range (say 1e30) is undefined behaviour.
bool ReadSize(const JsonValue& root, std::string_view key, size_t* out) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number() || v->number < 0 || v->number > kMaxExactInteger ||
      v->number != std::floor(v->number)) {
    return false;
  }
  *out = static_cast<size_t>(v->number);
  return true;
}

/// Reads an array-of-numbers member into `out`; false on a present but
/// malformed value.
bool ReadVector(const JsonValue& root, std::string_view key,
                std::vector<Value>* out) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr) return true;
  if (!v->is_array()) return false;
  out->reserve(v->array.size());
  for (const JsonValue& e : v->array) {
    if (!e.is_number()) return false;
    out->push_back(e.number);
  }
  return true;
}

void WriteNeighbors(JsonWriter* w, const std::vector<Neighbor>& matches) {
  w->BeginArray();
  for (const Neighbor& m : matches) {
    w->BeginObject();
    w->Key("pid").Uint(m.pid);
    w->Key("distance").Number(m.distance);
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kUnavailable: return 503;
    default: return 500;
  }
}

/// One connection; owned exclusively by the event-loop thread. Workers
/// refer to it only by (fd, generation).
struct HttpServer::Conn {
  int fd = -1;
  uint64_t generation = 0;
  HttpParser parser;
  std::string out;
  bool inflight = false;          // a request is with a worker
  bool close_after_write = false;
  bool half_closed = false;       // peer sent EOF; write side may live
  Clock::time_point last_activity;
  /// First byte of the currently accumulating request (deadline epoch).
  Clock::time_point frame_start;
  bool frame_started = false;
};

/// One admitted request, handed to a worker.
struct HttpServer::Job {
  int fd = -1;
  uint64_t generation = 0;
  HttpRequest request;
  Clock::time_point arrival;
  bool has_deadline = false;
  double deadline_ms = 0;  // measured from `arrival`
};

/// A finished response, handed back to the loop thread.
struct HttpServer::Completion {
  int fd = -1;
  uint64_t generation = 0;
  int status = 500;
  std::string body;
  bool keep_alive = false;
};

HttpServer::HttpServer(const SimilarityEngine* engine, ServerOptions options,
                       const shard::ShardRouter* router)
    : engine_(engine),
      router_(router),
      options_(options),
      admission_(options.max_inflight) {
  if (options_.threads == 0) options_.threads = 1;
}

HttpServer::~HttpServer() {
  Stop();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Unavailable("socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("cannot bind 127.0.0.1:" +
                               std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("pipe2() failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("epoll_create1() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_read_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev);

  cancel_ = std::make_shared<std::atomic<bool>>(false);
  running_.store(true, std::memory_order_release);
  ready_.store(true, std::memory_order_release);
  obs::Cat().serve_ready->Set(1);

  loop_ = std::thread([this] { LoopThread(); });
  workers_.reserve(options_.threads);
  for (size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  return Status::OK();
}

ServerStats HttpServer::Stats() const {
  ServerStats s;
  s.connections_accepted = stat_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = stat_closed_.load(std::memory_order_relaxed);
  s.connections_refused = stat_refused_.load(std::memory_order_relaxed);
  s.requests = stat_requests_.load(std::memory_order_relaxed);
  s.responses_ok = stat_2xx_.load(std::memory_order_relaxed);
  s.responses_client_error = stat_4xx_.load(std::memory_order_relaxed);
  s.responses_server_error = stat_5xx_.load(std::memory_order_relaxed);
  s.shed = stat_shed_.load(std::memory_order_relaxed);
  s.deadline_hits = stat_deadline_.load(std::memory_order_relaxed);
  s.malformed = stat_malformed_.load(std::memory_order_relaxed);
  s.torn_frames = stat_torn_.load(std::memory_order_relaxed);
  s.idle_timeouts = stat_idle_.load(std::memory_order_relaxed);
  s.partial_answers = stat_partial_.load(std::memory_order_relaxed);
  s.drains = stat_drains_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::Drain() {
  if (!running_.load(std::memory_order_acquire)) {
    // Never started, or already fully stopped.
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (!stopped_) return;  // never started
  }
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true)) {
    drain_deadline_ticks_.store(
        (Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                options_.drain_timeout_ms)))
            .time_since_epoch()
            .count(),
        std::memory_order_release);
    stat_drains_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_drains->Add();
    ready_.store(false, std::memory_order_release);
    obs::Cat().serve_ready->Set(0);
    const char byte = 'd';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_cv_.wait(lock, [this] { return stopped_; });
  if (loop_.joinable()) {
    // First Drain() to get here joins; later callers see unjoinable
    // threads. drain_mu_ is held, so two callers cannot race the join.
    std::thread loop = std::move(loop_);
    std::vector<std::thread> workers = std::move(workers_);
    lock.unlock();
    loop.join();
    for (std::thread& w : workers) w.join();
  }
}

void HttpServer::Stop() {
  bool started;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    started = running_.load(std::memory_order_acquire) || stopped_;
  }
  if (started) Drain();
}

// --- Event loop ---

void HttpServer::LoopThread() {
  std::vector<epoll_event> events(64);
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), kTickMs);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      if (fd == wake_read_fd_) {
        char buf[64];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(conn);
      }
      // The readable path may have closed the connection.
      it = conns_.find(fd);
      if (it == conns_.end()) continue;
      conn = it->second.get();
      if (events[i].events & EPOLLOUT) {
        HandleWritable(conn);
      }
    }
    DrainCompletions();
    SweepIdle();
    if (draining_.load(std::memory_order_acquire) && DrainTick()) break;
  }

  // Shut the workers down; Drain() joins them.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_exit_ = true;
  }
  queue_cv_.notify_all();
  // stopped_ before running_: no observer may ever see "not running,
  // not stopped" after Start() (Drain would return without joining).
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    stopped_ = true;
  }
  drained_cv_.notify_all();
  running_.store(false, std::memory_order_release);
}

void HttpServer::AcceptNew() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: move on
    if (conns_.size() >= options_.max_connections) {
      // Over the connection cap: a canned 503 beats a silent RST, and
      // closing immediately keeps the cap a real bound.
      static const std::string kFull = RenderHttpResponse(
          503, "application/json",
          "{\"error\":{\"code\":\"unavailable\","
          "\"message\":\"connection limit reached\"}}",
          false);
      [[maybe_unused]] ssize_t n =
          ::send(fd, kFull.data(), kFull.size(), MSG_NOSIGNAL);
      ::close(fd);
      stat_refused_.fetch_add(1, std::memory_order_relaxed);
      obs::Cat().serve_conns_refused->Add();
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->generation = next_generation_++;
    conn->parser = HttpParser(options_.limits);
    conn->last_activity = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, std::move(conn));
    stat_accepted_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_conns_accepted->Add();
    obs::Cat().serve_connections->Set(
        static_cast<int64_t>(conns_.size()));
  }
}

void HttpServer::HandleReadable(Conn* conn) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity = Clock::now();
      if (!conn->frame_started) {
        conn->frame_started = true;
        conn->frame_start = conn->last_activity;
      }
      conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      // Peer EOF. Mid-request, that is a torn frame; with work still
      // in flight or bytes still to write, keep the write side alive.
      if (conn->parser.mid_request()) {
        stat_torn_.fetch_add(1, std::memory_order_relaxed);
        obs::Cat().serve_torn_frames->Add();
        CloseConn(conn->fd);
        return;
      }
      if (conn->inflight || !conn->out.empty()) {
        conn->half_closed = true;
        conn->close_after_write = true;
        UpdateEpoll(conn);
        return;
      }
      CloseConn(conn->fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // ECONNRESET and friends: the peer is gone.
    if (conn->parser.mid_request()) {
      stat_torn_.fetch_add(1, std::memory_order_relaxed);
      obs::Cat().serve_torn_frames->Add();
    }
    CloseConn(conn->fd);
    return;
  }
  AdvanceConn(conn);
}

void HttpServer::AdvanceConn(Conn* conn) {
  if (conn->inflight || conn->close_after_write) return;
  if (conn->parser.Feed("") == HttpParser::State::kError) {
    stat_malformed_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_malformed->Add();
    QueueResponse(conn, conn->parser.http_status(),
                  ErrorBody("bad_request", conn->parser.error()),
                  /*keep_alive=*/false);
    return;
  }
  // Dispatch at most one request; pipelined successors are picked up
  // when this one's response is queued.
  if (conn->parser.Feed("") == HttpParser::State::kReady) {
    const Clock::time_point arrival =
        conn->frame_started ? conn->frame_start : Clock::now();
    HttpRequest request = conn->parser.Take();
    // Pipelined bytes already buffered belong to the next frame; its
    // clock starts now.
    conn->frame_started = conn->parser.mid_request();
    conn->frame_start = Clock::now();
    stat_requests_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_requests->Add();
    RouteRequest(conn, std::move(request), arrival);
  }
}

void HttpServer::RouteRequest(Conn* conn, HttpRequest request,
                              Clock::time_point arrival) {
  const bool keep_alive = request.keep_alive;

  if (draining_.load(std::memory_order_acquire)) {
    QueueResponse(conn, 503,
                  ErrorBody("draining", "server is draining"), false);
    conn->close_after_write = true;
    return;
  }

  if (request.target == "/health" || request.target == "/health/ready") {
    if (request.method != "GET") {
      QueueResponse(conn, 405,
                    ErrorBody("method_not_allowed", "use GET"), keep_alive);
      return;
    }
    // Liveness is the TCP answer itself; readiness gates the status.
    const bool ready = ready_.load(std::memory_order_acquire);
    QueueResponse(conn, ready ? 200 : 503, RenderHealth(), keep_alive);
    return;
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      QueueResponse(conn, 405,
                    ErrorBody("method_not_allowed", "use GET"), keep_alive);
      return;
    }
    std::string text =
        obs::RenderPrometheus(obs::MetricsRegistry::Global());
    conn->out += RenderHttpResponse(200, "text/plain; version=0.0.4", text,
                                    keep_alive);
    stat_2xx_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_responses_ok->Add();
    conn->last_activity = Clock::now();
    UpdateEpoll(conn);
    HandleWritable(conn);
    return;
  }
  if (request.target == "/admin/drain") {
    if (request.method != "POST") {
      QueueResponse(conn, 405,
                    ErrorBody("method_not_allowed", "use POST"), keep_alive);
      return;
    }
    // Queue the acknowledgment first: the drain machinery will flush
    // pending output before closing this connection.
    QueueResponse(conn, 200, "{\"draining\":true}", false);
    conn->close_after_write = true;
    bool expected = false;
    if (draining_.compare_exchange_strong(expected, true)) {
      drain_deadline_ticks_.store(
          (Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  options_.drain_timeout_ms)))
              .time_since_epoch()
              .count(),
          std::memory_order_release);
      stat_drains_.fetch_add(1, std::memory_order_relaxed);
      obs::Cat().serve_drains->Add();
      ready_.store(false, std::memory_order_release);
      obs::Cat().serve_ready->Set(0);
    }
    return;
  }
  if (request.target != "/query" && request.target != "/batch") {
    QueueResponse(conn, 404,
                  ErrorBody("not_found", "unknown endpoint"), keep_alive);
    return;
  }
  if (request.method != "POST") {
    QueueResponse(conn, 405,
                  ErrorBody("method_not_allowed", "use POST"), keep_alive);
    return;
  }

  // --- Deadline, from the request header measured at arrival. ---
  double deadline_ms = options_.default_deadline_ms;
  if (const std::string* header = request.FindHeader(kDeadlineHeader)) {
    char* end = nullptr;
    const double v = std::strtod(header->c_str(), &end);
    if (header->empty() || end == nullptr || *end != '\0' || v <= 0 ||
        !std::isfinite(v)) {
      QueueResponse(conn, 400,
                    ErrorBody("bad_deadline",
                              "X-Knmatch-Deadline-Ms must be a positive "
                              "number of milliseconds"),
                    keep_alive);
      return;
    }
    deadline_ms = v;
  }
  const bool has_deadline = deadline_ms > 0;
  const Clock::time_point deadline =
      arrival + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));

  // --- Admission: shed with 429 + Retry-After, never a dropped
  // connection. ---
  const exec::AdmissionController::Shed shed =
      admission_.Admit(has_deadline, deadline);
  if (shed != exec::AdmissionController::Shed::kNone) {
    stat_shed_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_shed->Add();
    const double wait_s = std::max(admission_.predicted_ms() / 1000.0, 0.0);
    const std::string retry_after =
        std::to_string(static_cast<long>(std::ceil(std::max(wait_s, 1.0))));
    QueueResponse(
        conn, 429,
        ErrorBody("shed",
                  shed == exec::AdmissionController::Shed::kInflight
                      ? "server at its in-flight request cap"
                      : "request predicted to miss its deadline"),
        keep_alive, {{"Retry-After", retry_after}});
    return;
  }
  obs::Cat().serve_inflight->Set(admission_.inflight());

  Job job;
  job.fd = conn->fd;
  job.generation = conn->generation;
  job.request = std::move(request);
  job.arrival = arrival;
  job.has_deadline = has_deadline;
  job.deadline_ms = deadline_ms;
  conn->inflight = true;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    jobs_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void HttpServer::QueueResponse(
    Conn* conn, int status, std::string body, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  conn->out += RenderHttpResponse(status, "application/json", body,
                                  keep_alive && !conn->close_after_write,
                                  extra_headers);
  if (!keep_alive) conn->close_after_write = true;
  if (status >= 500) {
    stat_5xx_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_responses_server_error->Add();
  } else if (status >= 400) {
    stat_4xx_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_responses_client_error->Add();
  } else {
    stat_2xx_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_responses_ok->Add();
  }
  conn->last_activity = Clock::now();
  // Arm EPOLLOUT and let the event loop's dispatch do the actual write
  // (level-triggered: a writable socket fires on the next epoll_wait
  // immediately). Flushing inline here could run CloseConn and free
  // `conn` while callers still hold the pointer — AdvanceConn after a
  // parse error, DrainCompletions advancing pipelined requests.
  UpdateEpoll(conn);
}

void HttpServer::HandleWritable(Conn* conn) {
  while (!conn->out.empty()) {
    const ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      conn->last_activity = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpoll(conn);
      return;
    }
    // EPIPE / ECONNRESET: the peer stopped listening.
    CloseConn(conn->fd);
    return;
  }
  if (conn->close_after_write && !conn->inflight) {
    CloseConn(conn->fd);
    return;
  }
  UpdateEpoll(conn);
}

void HttpServer::UpdateEpoll(Conn* conn) {
  epoll_event ev{};
  ev.events = conn->half_closed ? 0u : static_cast<uint32_t>(EPOLLIN);
  if (!conn->out.empty()) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void HttpServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  stat_closed_.fetch_add(1, std::memory_order_relaxed);
  obs::Cat().serve_conns_closed->Add();
  obs::Cat().serve_connections->Set(static_cast<int64_t>(conns_.size()));
}

int HttpServer::SweepIdle() {
  if (options_.idle_timeout_ms <= 0) return kTickMs;
  const Clock::time_point now = Clock::now();
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(options_.idle_timeout_ms));
  std::vector<int> expired;
  for (const auto& [fd, conn] : conns_) {
    if (conn->inflight) continue;  // bounded by its own deadline + drain
    if (now - conn->last_activity > timeout) expired.push_back(fd);
  }
  for (const int fd : expired) {
    Conn* conn = conns_.find(fd)->second.get();
    stat_idle_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_idle_timeouts->Add();
    if (conn->parser.mid_request() && conn->out.empty() &&
        !conn->close_after_write) {
      // Slow loris: answer 408 and give the flush one more sweep
      // (last_activity was just refreshed by QueueResponse).
      QueueResponse(conn, 408,
                    ErrorBody("timeout", "request not received in time"),
                    false);
      continue;
    }
    CloseConn(fd);
  }
  return kTickMs;
}

void HttpServer::DrainCompletions() {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    auto it = conns_.find(c.fd);
    if (it == conns_.end() || it->second->generation != c.generation) {
      continue;  // the connection died while the worker ran
    }
    Conn* conn = it->second.get();
    conn->inflight = false;
    const bool draining = draining_.load(std::memory_order_acquire);
    QueueResponse(conn, c.status, std::move(c.body),
                  c.keep_alive && !draining);
    // The response may have closed the connection already (flush +
    // close_after_write); only a surviving one can pipeline.
    it = conns_.find(c.fd);
    if (it != conns_.end() && it->second->generation == c.generation) {
      AdvanceConn(it->second.get());
    }
  }
}

bool HttpServer::DrainTick() {
  // First tick: stop accepting.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  const Clock::time_point now = Clock::now();
  const Clock::time_point drain_deadline{Clock::duration(
      drain_deadline_ticks_.load(std::memory_order_acquire))};
  if (now >= drain_deadline) {
    // Budget exhausted: cancel stragglers cooperatively; they trip
    // kUnavailable at their next governance stride and complete.
    cancel_->store(true, std::memory_order_release);
  }
  const Clock::time_point hard_deadline =
      drain_deadline + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               kDrainHardGraceMs));
  std::vector<int> closable;
  for (const auto& [fd, conn] : conns_) {
    if (now >= hard_deadline) {
      closable.push_back(fd);  // grace spent; stop waiting on anyone
    } else if (!conn->inflight && conn->out.empty()) {
      closable.push_back(fd);  // idle or fully flushed
    }
  }
  for (const int fd : closable) CloseConn(fd);
  if (!conns_.empty()) return false;
  // Every connection is gone; make sure no worker still holds a job
  // whose completion would arrive after we exit.
  if (admission_.inflight() != 0 && now < hard_deadline) return false;
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  return true;
}

// --- Workers ---

void HttpServer::WorkerThread() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_exit_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // workers_exit_ and nothing queued
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Completion done = ExecuteJob(job);
    const int64_t latency_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             job.arrival)
            .count();
    admission_.Finish(latency_ns);
    obs::Cat().serve_inflight->Set(admission_.inflight());
    obs::Cat().serve_request_seconds->Observe(
        static_cast<uint64_t>(latency_ns));
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(std::move(done));
    }
    const char byte = 'c';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

HttpServer::Completion HttpServer::ExecuteJob(const Job& job) {
  Completion done;
  done.fd = job.fd;
  done.generation = job.generation;
  done.keep_alive = job.request.keep_alive;
  int status = 200;
  done.body = job.request.target == "/batch" ? HandleBatch(job, &status)
                                             : HandleQuery(job, &status);
  done.status = status;
  if (status == 504) {
    stat_deadline_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_deadline_hits->Add();
  }
  return done;
}

std::string HttpServer::HandleQuery(const Job& job, int* http_status) {
  Result<JsonValue> parsed = ParseJson(job.request.body);
  if (!parsed.ok()) {
    *http_status = 400;
    return ErrorBody("bad_json", parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    *http_status = 400;
    return ErrorBody("bad_json", "request body must be a JSON object");
  }

  std::vector<Value> query;
  std::vector<Value> weights;
  if (!ReadVector(root, "query", &query) || query.empty()) {
    *http_status = 400;
    return ErrorBody("bad_query", "\"query\" must be an array of numbers");
  }
  if (!ReadVector(root, "weights", &weights)) {
    *http_status = 400;
    return ErrorBody("bad_query", "\"weights\" must be an array of numbers");
  }
  std::string type = "knmatch";
  if (const JsonValue* t = root.Find("type");
      t != nullptr && t->kind == JsonValue::Kind::kString) {
    type = t->string_value;
  }
  size_t k = 10;
  size_t n = query.size();
  size_t n0 = 1;
  size_t n1 = query.size();
  if (!ReadSize(root, "k", &k) || !ReadSize(root, "n", &n) ||
      !ReadSize(root, "n0", &n0) || !ReadSize(root, "n1", &n1)) {
    *http_status = 400;
    return ErrorBody("bad_query",
                     "k/n/n0/n1 must be integers in [0, 2^53]");
  }

  QueryContext ctx;
  if (job.has_deadline) {
    ctx.set_deadline_in_ms_from(job.arrival, job.deadline_ms);
  }
  ctx.set_cancel(cancel_);

  // Run the query; with a router attached, /query scatter-gathers and
  // the call fills this worker's own dispatch report.
  Status status = Status::OK();
  FrequentKnMatchResult result;
  shard::DispatchReport dispatch;
  // Every path lands its answer in `result` or its error in `status`.
  auto take = [&](Result<FrequentKnMatchResult> r) {
    if (!r.ok()) {
      status = r.status();
      return;
    }
    result = std::move(r.value());
  };
  auto take_flat = [&](Result<KnMatchResult> r) {
    if (!r.ok()) {
      status = r.status();
      return;
    }
    result.matches = std::move(r.value().matches);
    result.attributes_retrieved = r.value().attributes_retrieved;
  };
  const bool frequent = type == "fknmatch";
  if (type == "knn") {
    take_flat(engine_->Knn(query, k, Metric::kEuclidean, &ctx));
  } else if (frequent) {
    take(router_ != nullptr ? router_->FrequentKnMatch(query, n0, n1, k,
                                                       weights, &ctx, &dispatch)
                            : engine_->FrequentKnMatch(query, n0, n1, k,
                                                       weights, &ctx));
  } else if (type == "knmatch") {
    take_flat(router_ != nullptr
                  ? router_->KnMatch(query, n, k, weights, &ctx, &dispatch)
                  : engine_->KnMatch(query, n, k, weights, &ctx));
  } else {
    *http_status = 400;
    return ErrorBody("bad_query",
                     "\"type\" must be knmatch, fknmatch, or knn");
  }
  ctx.ObserveDeadlineFraction();

  if (!status.ok()) {
    *http_status = HttpStatusFor(status);
    JsonWriter w;
    w.BeginObject();
    w.Key("error").BeginObject();
    w.Key("code").String(StatusSlug(status.code()));
    w.Key("message").String(status.message());
    w.EndObject();
    if (ctx.tripped()) {
      // The governance partial result: how far the query got before
      // the trip, so a deadline miss is not a total loss.
      w.Key("partial").Bool(true);
      w.Key("partial_sets").Uint(ctx.trip().partial_per_n_sets.size());
      w.Key("attributes_retrieved").Uint(ctx.trip().attributes_retrieved);
      if (!ctx.trip().partial_per_n_sets.empty()) {
        w.Key("partial_matches");
        WriteNeighbors(&w, ctx.trip().partial_per_n_sets.front());
      }
    }
    w.EndObject();
    return w.Take();
  }

  *http_status = 200;
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String(type);
  w.Key("matches");
  WriteNeighbors(&w, result.matches);
  if (frequent) {
    w.Key("frequencies").BeginArray();
    for (const uint32_t f : result.frequencies) w.Uint(f);
    w.EndArray();
  }
  w.Key("attributes_retrieved").Uint(result.attributes_retrieved);
  // Degraded shard coverage is explicit on the wire: clients must be
  // able to tell a complete answer from a survivors-only one.
  w.Key("partial").Bool(dispatch.degradation.partial());
  if (dispatch.degradation.partial()) {
    stat_partial_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().serve_partial_answers->Add();
    w.Key("degradation").BeginObject();
    w.Key("shards_answered").Uint(dispatch.degradation.shards_answered);
    w.Key("shards_total").Uint(dispatch.degradation.shards_total);
    w.Key("failed").BeginArray();
    for (const shard::ShardFailure& f : dispatch.degradation.failed) {
      w.BeginObject();
      w.Key("shard").Uint(f.shard);
      w.Key("reason").String(StatusSlug(f.status.code()));
      w.Key("message").String(f.status.message());
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

std::string HttpServer::HandleBatch(const Job& job, int* http_status) {
  Result<JsonValue> parsed = ParseJson(job.request.body);
  if (!parsed.ok()) {
    *http_status = 400;
    return ErrorBody("bad_json", parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    *http_status = 400;
    return ErrorBody("bad_json", "request body must be a JSON object");
  }
  const JsonValue* queries = root.Find("queries");
  if (queries == nullptr || !queries->is_array() || queries->array.empty()) {
    *http_status = 400;
    return ErrorBody("bad_query",
                     "\"queries\" must be a non-empty array of arrays");
  }
  exec::BatchRequest request;
  request.queries.reserve(queries->array.size());
  for (const JsonValue& q : queries->array) {
    if (!q.is_array()) {
      *http_status = 400;
      return ErrorBody("bad_query", "each query must be an array of numbers");
    }
    std::vector<Value> vec;
    vec.reserve(q.array.size());
    for (const JsonValue& e : q.array) {
      if (!e.is_number()) {
        *http_status = 400;
        return ErrorBody("bad_query",
                         "each query must be an array of numbers");
      }
      vec.push_back(e.number);
    }
    request.queries.push_back(std::move(vec));
  }
  const size_t dims = request.queries.front().size();
  std::string type = "knmatch";
  if (const JsonValue* t = root.Find("type");
      t != nullptr && t->kind == JsonValue::Kind::kString) {
    type = t->string_value;
  }
  size_t k = 10;
  size_t n = dims;
  size_t n0 = 1;
  size_t n1 = dims;
  size_t threads = 1;
  if (!ReadSize(root, "k", &k) || !ReadSize(root, "n", &n) ||
      !ReadSize(root, "n0", &n0) || !ReadSize(root, "n1", &n1) ||
      !ReadSize(root, "threads", &threads)) {
    *http_status = 400;
    return ErrorBody("bad_query",
                     "k/n/n0/n1/threads must be integers in [0, 2^53]");
  }
  request.options.threads = threads;
  request.options.cancel = cancel_;
  if (job.has_deadline) {
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(
            job.arrival +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(job.deadline_ms)) -
            Clock::now())
            .count();
    if (remaining_ms <= 0) {
      *http_status = 504;
      return ErrorBody("deadline_exceeded",
                       "deadline passed before the batch started");
    }
    request.options.deadline_ms = remaining_ms;
  }

  std::vector<Status> statuses;
  std::vector<std::vector<Neighbor>> matches;
  uint64_t attributes = 0;
  Status status = Status::OK();
  if (type == "knmatch") {
    Result<exec::KnMatchBatchResult> r =
        engine_->KnMatchBatch(request, n, k);
    if (r.ok()) {
      statuses = std::move(r.value().statuses);
      attributes = r.value().attributes_retrieved;
      matches.reserve(r.value().results.size());
      for (KnMatchResult& one : r.value().results) {
        matches.push_back(std::move(one.matches));
      }
    } else {
      status = r.status();
    }
  } else if (type == "fknmatch") {
    Result<exec::FrequentKnMatchBatchResult> r =
        engine_->FrequentKnMatchBatch(request, n0, n1, k);
    if (r.ok()) {
      statuses = std::move(r.value().statuses);
      attributes = r.value().attributes_retrieved;
      matches.reserve(r.value().results.size());
      for (FrequentKnMatchResult& one : r.value().results) {
        matches.push_back(std::move(one.matches));
      }
    } else {
      status = r.status();
    }
  } else if (type == "knn") {
    Result<exec::KnMatchBatchResult> r = engine_->KnnBatch(request, k);
    if (r.ok()) {
      statuses = std::move(r.value().statuses);
      attributes = r.value().attributes_retrieved;
      matches.reserve(r.value().results.size());
      for (KnMatchResult& one : r.value().results) {
        matches.push_back(std::move(one.matches));
      }
    } else {
      status = r.status();
    }
  } else {
    *http_status = 400;
    return ErrorBody("bad_query",
                     "\"type\" must be knmatch, fknmatch, or knn");
  }

  if (!status.ok()) {
    *http_status = HttpStatusFor(status);
    return ErrorBody(StatusSlug(status.code()), status.message());
  }
  *http_status = 200;
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String(type);
  w.Key("results").BeginArray();
  for (size_t i = 0; i < statuses.size(); ++i) {
    w.BeginObject();
    w.Key("status").String(StatusSlug(statuses[i].code()));
    if (statuses[i].ok()) {
      w.Key("matches");
      WriteNeighbors(&w, matches[i]);
    } else {
      w.Key("message").String(statuses[i].message());
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("attributes_retrieved").Uint(attributes);
  w.EndObject();
  return w.Take();
}

std::string HttpServer::RenderHealth() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("live").Bool(true);
  w.Key("ready").Bool(ready_.load(std::memory_order_acquire));
  w.Key("draining").Bool(draining_.load(std::memory_order_acquire));
  w.Key("inflight").Uint(admission_.inflight());
  w.Key("open_connections").Uint(conns_.size());
  // The engine's per-disk-method breakers; each read takes the
  // breaker's own lock.
  w.Key("breakers").BeginObject();
  const struct {
    const char* name;
    SimilarityEngine::DiskMethod method;
  } kMethods[] = {
      {"scan", SimilarityEngine::DiskMethod::kScan},
      {"ad", SimilarityEngine::DiskMethod::kAd},
      {"va_file", SimilarityEngine::DiskMethod::kVaFile},
  };
  for (const auto& m : kMethods) {
    const exec::CircuitBreaker* breaker = engine_->circuit_breaker(m.method);
    w.Key(m.name).String(
        breaker != nullptr ? BreakerStateName(breaker->state()) : "none");
  }
  w.EndObject();
  if (router_ != nullptr) {
    // Shard breakers mutate under query dispatch and lock themselves.
    w.Key("shards").BeginArray();
    for (size_t i = 0; i < router_->num_shards(); ++i) {
      w.BeginObject();
      w.Key("shard").Uint(i);
      w.Key("breaker").String(BreakerStateName(router_->breaker_state(i)));
      w.Key("points").Uint(router_->shard_size(i));
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.Take();
}

std::string HttpServer::ErrorBody(std::string_view code,
                                  std::string_view message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").BeginObject();
  w.Key("code").String(code);
  w.Key("message").String(message);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace knmatch::serve
