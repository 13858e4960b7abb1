// The HTTP serving front end (serve/): request framing, the JSON wire
// protocol, admission control, the fault-hardened request lifecycle
// (deadlines from arrival, 429 shed, torn frames, slow loris, resets,
// graceful drain), and the ServeSoak differential: >= 1000 requests
// through the network fault shim with zero crashes, zero leaked fds,
// and served answers bit-identical to the direct engine. The Serve*
// suites also run under ASan/TSan (scripts/check_asan.sh,
// check_tsan.sh).

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch.h"
#include "status_matchers.h"

namespace knmatch {
namespace {

using serve::HttpClient;
using serve::HttpParser;
using serve::HttpRequest;
using serve::HttpResponse;
using serve::HttpServer;
using serve::JsonValue;
using serve::JsonWriter;
using serve::ParseJson;
using serve::ServerOptions;
using serve::ServerStats;

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

// Serializes a knmatch answer exactly as the server does for /query,
// degradation record included — the mirror side of the bit-identity
// attestation. Every shard failure in these tests is kUnavailable,
// whose wire slug is "unavailable".
std::string KnMatchBody(const KnMatchResult& r,
                        const shard::ShardDegradation& deg) {
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("knmatch");
  w.Key("matches").BeginArray();
  for (const Neighbor& m : r.matches) {
    w.BeginObject();
    w.Key("pid").Uint(m.pid);
    w.Key("distance").Number(m.distance);
    w.EndObject();
  }
  w.EndArray();
  w.Key("attributes_retrieved").Uint(r.attributes_retrieved);
  w.Key("partial").Bool(deg.partial());
  if (deg.partial()) {
    w.Key("degradation").BeginObject();
    w.Key("shards_answered").Uint(deg.shards_answered);
    w.Key("shards_total").Uint(deg.shards_total);
    w.Key("failed").BeginArray();
    for (const shard::ShardFailure& f : deg.failed) {
      EXPECT_EQ(f.status.code(), StatusCode::kUnavailable);
      w.BeginObject();
      w.Key("shard").Uint(f.shard);
      w.Key("reason").String("unavailable");
      w.Key("message").String(f.status.message());
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

// A direct, unsharded engine answer as the server serializes it.
std::string MirrorQueryBody(const SimilarityEngine& engine,
                            const std::vector<Value>& query, size_t n,
                            size_t k) {
  auto r = engine.KnMatch(query, n, k);
  EXPECT_TRUE(r.ok());
  return KnMatchBody(r.value(), {});
}

// A direct router answer as the server serializes it.
std::string MirrorRouterBody(const shard::ShardRouter& router,
                             const std::vector<Value>& query, size_t n,
                             size_t k) {
  shard::DispatchReport report;
  auto r = router.KnMatch(query, n, k, {}, nullptr, &report);
  EXPECT_TRUE(r.ok());
  return KnMatchBody(r.value(), report.degradation);
}

std::string QueryBody(const std::vector<Value>& query, size_t n, size_t k,
                      const char* type = "knmatch") {
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String(type);
  w.Key("query").BeginArray();
  for (const Value v : query) w.Number(v);
  w.EndArray();
  w.Key("n").Uint(n);
  w.Key("k").Uint(k);
  w.EndObject();
  return w.Take();
}

std::vector<Value> RandomQuery(Rng& rng, size_t dims) {
  std::vector<Value> q(dims);
  for (Value& v : q) v = static_cast<Value>(rng.Uniform01());
  return q;
}

// Polls `pred` for up to `budget_ms`; the serve loop ticks every 50 ms,
// so asynchronous effects (sweeps, drains, torn-frame detection) land
// within a tick or two.
bool WaitFor(const std::function<bool()>& pred, double budget_ms = 3000) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// HTTP request framing (serve/http.h).

TEST(ServeHttpParser, ParsesASimpleRequest) {
  HttpParser parser;
  ASSERT_EQ(parser.Feed("GET /health HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpParser::State::kReady);
  HttpRequest req = parser.Take();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/health");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.FindHeader("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.FindHeader("HOST"), "x");
}

TEST(ServeHttpParser, ReassemblesAByteAtATime) {
  const std::string wire =
      "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"";
  HttpParser parser;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.Feed(wire.substr(i, 1)), HttpParser::State::kNeedMore)
        << "byte " << i;
    EXPECT_TRUE(parser.mid_request());
  }
  ASSERT_EQ(parser.Feed(wire.substr(wire.size() - 1)),
            HttpParser::State::kReady);
  HttpRequest req = parser.Take();
  EXPECT_EQ(req.body, "{\"a\"");
  EXPECT_FALSE(parser.mid_request());
}

TEST(ServeHttpParser, RetainsPipelinedBytes) {
  HttpParser parser;
  ASSERT_EQ(parser.Feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            HttpParser::State::kReady);
  EXPECT_EQ(parser.Take().target, "/a");
  // Feed("") is a pure state query; the retained bytes parse on.
  ASSERT_EQ(parser.Feed(""), HttpParser::State::kReady);
  EXPECT_EQ(parser.Take().target, "/b");
}

TEST(ServeHttpParser, MalformedRequestLineIs400) {
  HttpParser parser;
  ASSERT_EQ(parser.Feed("BOGUS\x01\x02 nonsense\r\n\r\n"),
            HttpParser::State::kError);
  EXPECT_EQ(parser.http_status(), 400);
  EXPECT_FALSE(parser.error().empty());
}

TEST(ServeHttpParser, UnsupportedVersionIs505) {
  HttpParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/9.9\r\n\r\n"),
            HttpParser::State::kError);
  EXPECT_EQ(parser.http_status(), 505);
}

TEST(ServeHttpParser, OversizedHeadersAre431) {
  serve::HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpParser parser(limits);
  const std::string big(128, 'h');
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nX-Big: " + big + "\r\n\r\n"),
            HttpParser::State::kError);
  EXPECT_EQ(parser.http_status(), 431);
}

TEST(ServeHttpParser, OversizedBodyIs413BeforeItIsBuffered) {
  serve::HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpParser parser(limits);
  // The declared length alone must trip the limit — no waiting for a
  // gigabyte to accumulate.
  ASSERT_EQ(
      parser.Feed("POST /query HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n"),
      HttpParser::State::kError);
  EXPECT_EQ(parser.http_status(), 413);
}

TEST(ServeHttpParser, ErrorPoisonsTheConnection) {
  HttpParser parser;
  ASSERT_EQ(parser.Feed("not http at all\r\n\r\n"), HttpParser::State::kError);
  const int status = parser.http_status();
  // A valid request after the error must not resynchronize.
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\n\r\n"), HttpParser::State::kError);
  EXPECT_EQ(parser.http_status(), status);
}

TEST(ServeHttpParser, ConnectionCloseTurnsOffKeepAlive) {
  HttpParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n"),
            HttpParser::State::kReady);
  EXPECT_FALSE(parser.Take().keep_alive);
}

// ---------------------------------------------------------------------------
// JSON wire protocol (serve/json.h).

TEST(ServeJson, ParsesTheRequestShapes) {
  auto parsed = ParseJson(
      "{\"type\": \"knmatch\", \"query\": [0.5, 1e-3, -2], \"k\": 10, "
      "\"approx\": {\"epsilon\": 0.1}, \"flag\": true, \"none\": null}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("type")->string_value, "knmatch");
  ASSERT_TRUE(root.Find("query")->is_array());
  EXPECT_EQ(root.Find("query")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(root.Find("query")->array[1].number, 1e-3);
  EXPECT_EQ(root.Find("k")->number, 10);
  EXPECT_TRUE(root.Find("approx")->is_object());
  EXPECT_TRUE(root.Find("flag")->bool_value);
  EXPECT_EQ(root.Find("none")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(root.Find("absent"), nullptr);
}

TEST(ServeJson, RejectsGarbage) {
  EXPECT_TRUE(StatusIs(ParseJson("{\"a\": 1} trailing"),
                       StatusCode::kInvalidArgument));
  EXPECT_TRUE(StatusIs(ParseJson("{\"a\": }"), StatusCode::kInvalidArgument));
  EXPECT_TRUE(StatusIs(ParseJson("{\"a\": \"\\q\"}"),
                       StatusCode::kInvalidArgument));
  EXPECT_TRUE(StatusIs(ParseJson(""), StatusCode::kInvalidArgument));
  // Nesting past max_depth must be refused, not recursed into.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_TRUE(StatusIs(ParseJson(deep, /*max_depth=*/32),
                       StatusCode::kInvalidArgument));
}

TEST(ServeJson, WriterOutputRoundTripsExactly) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("quote\" back\\slash \n tab\t");
  w.Key("values").BeginArray();
  const double kNumbers[] = {0.1, 1e-9, 12345, -0.5, 0.30000000000000004};
  for (const double v : kNumbers) w.Number(v);
  w.EndArray();
  w.Key("big").Uint(9007199254740991ull);
  w.Key("t").Bool(true);
  w.EndObject();
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("s")->string_value, "quote\" back\\slash \n tab\t");
  const JsonValue& values = *root.Find("values");
  ASSERT_EQ(values.array.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    // Bit-exact: the writer's shortest-round-trip formatting is what
    // makes the mirror attestation a byte comparison.
    EXPECT_EQ(values.array[i].number, kNumbers[i]) << i;
  }
  EXPECT_EQ(root.Find("big")->number, 9007199254740991.0);
}

// ---------------------------------------------------------------------------
// Admission control (exec/admission.h).

TEST(ServeAdmission, InflightCapShedsAndRecovers) {
  exec::AdmissionController admission(2);
  const auto never = std::chrono::steady_clock::time_point::max();
  EXPECT_EQ(admission.Admit(false, never),
            exec::AdmissionController::Shed::kNone);
  EXPECT_EQ(admission.Admit(false, never),
            exec::AdmissionController::Shed::kNone);
  EXPECT_EQ(admission.Admit(false, never),
            exec::AdmissionController::Shed::kInflight);
  EXPECT_EQ(admission.inflight(), 2u);
  admission.Finish(1000000);  // 1 ms
  EXPECT_EQ(admission.Admit(false, never),
            exec::AdmissionController::Shed::kNone);
  admission.Finish(1000000);
  admission.Finish(1000000);
  EXPECT_EQ(admission.inflight(), 0u);
}

TEST(ServeAdmission, PredictiveShedRefusesDoomedRequests) {
  exec::AdmissionController admission(0);  // no concurrency cap
  const auto now = std::chrono::steady_clock::now();
  // No completions yet: nothing to predict with, so admit.
  EXPECT_EQ(admission.Admit(true, now + std::chrono::microseconds(1)),
            exec::AdmissionController::Shed::kNone);
  admission.Finish(50 * 1000 * 1000);  // 50 ms observed latency
  EXPECT_GT(admission.predicted_ms(), 0.0);
  // A 1 ms deadline cannot survive a ~50 ms predicted latency.
  EXPECT_EQ(admission.Admit(true, std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(1)),
            exec::AdmissionController::Shed::kPredicted);
  // A generous deadline still admits.
  EXPECT_EQ(admission.Admit(true, std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10)),
            exec::AdmissionController::Shed::kNone);
}

// ---------------------------------------------------------------------------
// Server integration: the full request lifecycle over real sockets.

class ServeServer : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {},
                   const shard::ShardRouter* router = nullptr) {
    db_ = datagen::MakeUniform(400, 6, /*seed=*/11);
    engine_ = std::make_unique<SimilarityEngine>(db_);
    server_ = std::make_unique<HttpServer>(engine_.get(), options, router);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  Dataset db_;
  std::unique_ptr<SimilarityEngine> engine_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServeServer, HealthReportsLiveReadyAndBreakers) {
  StartServer();
  HttpClient client(server_->port());
  auto response = client.Get("/health");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, 200);
  auto parsed = ParseJson(response.value().body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& health = parsed.value();
  EXPECT_TRUE(health.Find("live")->bool_value);
  EXPECT_TRUE(health.Find("ready")->bool_value);
  EXPECT_FALSE(health.Find("draining")->bool_value);
  ASSERT_TRUE(health.Find("breakers")->is_object());
  EXPECT_NE(health.Find("breakers")->Find("scan"), nullptr);
  EXPECT_NE(health.Find("breakers")->Find("ad"), nullptr);
  EXPECT_NE(health.Find("breakers")->Find("va_file"), nullptr);
}

TEST_F(ServeServer, MetricsExpositionServesTheServeFamily) {
  StartServer();
  HttpClient client(server_->port());
  ASSERT_TRUE(client.Get("/health").ok());  // move at least one counter
  auto response = client.Get("/metrics");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  EXPECT_NE(response.value().body.find("knmatch_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(response.value().body.find("knmatch_serve_responses_total"),
            std::string::npos);
}

// Every answer is exact: members the server does not read, such as
// the epsilon and column-sample knobs of the removed approximate mode,
// change nothing, byte for byte. "type" and "matches" lead the body so
// clients can compare an answer by its prefix.
TEST_F(ServeServer, QueryAnswersAreBitIdenticalToTheEngine) {
  StartServer();
  HttpClient client(server_->port());
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const std::vector<Value> q = RandomQuery(rng, db_.dims());
    const std::string body = QueryBody(q, 3, 7);
    auto response = client.Post("/query", body);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().status, 200);
    EXPECT_EQ(response.value().body, MirrorQueryBody(*engine_, q, 3, 7))
        << "query " << i;
    EXPECT_EQ(response.value().body.rfind("{\"type\":\"knmatch\","
                                          "\"matches\":[",
                                          0),
              0u);

    std::string with_unknown = body;
    with_unknown.insert(with_unknown.size() - 1,
                        ",\"epsilon\":0.1,\"column_" "sample\":0.5");
    auto ignored = client.Post("/query", with_unknown);
    ASSERT_TRUE(ignored.ok());
    ASSERT_EQ(ignored.value().status, 200);
    EXPECT_EQ(ignored.value().body, response.value().body) << "query " << i;
  }
}

TEST_F(ServeServer, FrequentAndKnnTypesMatchTheEngine) {
  StartServer();
  HttpClient client(server_->port());
  const std::vector<Value> q(db_.dims(), 0.4f);

  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("fknmatch");
  w.Key("query").BeginArray();
  for (const Value v : q) w.Number(v);
  w.EndArray();
  w.Key("n0").Uint(2);
  w.Key("n1").Uint(4);
  w.Key("k").Uint(9);
  w.EndObject();
  auto response = client.Post("/query", w.Take());
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  auto parsed = ParseJson(response.value().body);
  ASSERT_TRUE(parsed.ok());
  auto direct = engine_->FrequentKnMatch(q, 2, 4, 9);
  ASSERT_TRUE(direct.ok());
  const JsonValue& matches = *parsed.value().Find("matches");
  ASSERT_EQ(matches.array.size(), direct.value().matches.size());
  for (size_t i = 0; i < matches.array.size(); ++i) {
    EXPECT_EQ(matches.array[i].Find("pid")->number,
              direct.value().matches[i].pid);
    EXPECT_EQ(matches.array[i].Find("distance")->number,
              direct.value().matches[i].distance);
  }
  const JsonValue& freqs = *parsed.value().Find("frequencies");
  ASSERT_EQ(freqs.array.size(), direct.value().frequencies.size());
  for (size_t i = 0; i < freqs.array.size(); ++i) {
    EXPECT_EQ(freqs.array[i].number, direct.value().frequencies[i]);
  }

  auto knn = client.Post("/query", QueryBody(q, 0, 5, "knn"));
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn.value().status, 200);
  auto knn_parsed = ParseJson(knn.value().body);
  ASSERT_TRUE(knn_parsed.ok());
  auto knn_direct = engine_->Knn(q, 5);
  ASSERT_TRUE(knn_direct.ok());
  const JsonValue& knn_matches = *knn_parsed.value().Find("matches");
  ASSERT_EQ(knn_matches.array.size(), knn_direct.value().matches.size());
  for (size_t i = 0; i < knn_matches.array.size(); ++i) {
    EXPECT_EQ(knn_matches.array[i].Find("pid")->number,
              knn_direct.value().matches[i].pid);
  }
}

TEST_F(ServeServer, BatchAnswersMatchPerQueryResults) {
  StartServer();
  HttpClient client(server_->port());
  Rng rng(9);
  std::vector<std::vector<Value>> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(RandomQuery(rng, db_.dims()));

  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("knmatch");
  w.Key("queries").BeginArray();
  for (const auto& q : queries) {
    w.BeginArray();
    for (const Value v : q) w.Number(v);
    w.EndArray();
  }
  w.EndArray();
  w.Key("n").Uint(4);
  w.Key("k").Uint(6);
  w.EndObject();
  auto response = client.Post("/batch", w.Take());
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  auto parsed = ParseJson(response.value().body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& results = *parsed.value().Find("results");
  ASSERT_EQ(results.array.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results.array[i].Find("status")->string_value, "ok");
    auto direct = engine_->KnMatch(queries[i], 4, 6);
    ASSERT_TRUE(direct.ok());
    const JsonValue& matches = *results.array[i].Find("matches");
    ASSERT_EQ(matches.array.size(), direct.value().matches.size()) << i;
    for (size_t j = 0; j < matches.array.size(); ++j) {
      EXPECT_EQ(matches.array[j].Find("pid")->number,
                direct.value().matches[j].pid);
      EXPECT_EQ(matches.array[j].Find("distance")->number,
                direct.value().matches[j].distance);
    }
  }
}

TEST_F(ServeServer, ExpiredDeadlineAnswers504) {
  // Enough points that the engine crosses a governance stride (256
  // pops) and actually rechecks the armed deadline mid-query.
  db_ = datagen::MakeUniform(20000, 6, /*seed=*/13);
  engine_ = std::make_unique<SimilarityEngine>(db_);
  server_ = std::make_unique<HttpServer>(engine_.get());
  ASSERT_TRUE(server_->Start().ok());
  HttpClient client(server_->port());
  // The EWMA has no samples yet, so admission lets the request through;
  // the worker finds the (arrival-anchored) deadline already passed.
  auto response = client.Post("/query", QueryBody({0.5f, 0.5f, 0.5f, 0.5f,
                                                   0.5f, 0.5f},
                                                  3, 50),
                              {{"X-Knmatch-Deadline-Ms", "0.000001"}});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 504);
  EXPECT_NE(response.value().body.find("deadline_exceeded"),
            std::string::npos);
  EXPECT_GE(server_->Stats().deadline_hits, 1u);
}

TEST_F(ServeServer, PredictedMissShedsWith429AndRetryAfter) {
  StartServer();
  HttpClient client(server_->port());
  const std::vector<Value> q(db_.dims(), 0.3f);
  // Prime the latency EWMA with one completed request.
  auto warm = client.Post("/query", QueryBody(q, 3, 7));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.value().status, 200);
  // Now a sub-EWMA deadline is refused at admission — before any work.
  auto response = client.Post("/query", QueryBody(q, 3, 7),
                              {{"X-Knmatch-Deadline-Ms", "0.0001"}});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 429);
  const std::string* retry = response.value().FindHeader("Retry-After");
  ASSERT_NE(retry, nullptr);
  EXPECT_GE(std::stod(*retry), 1.0);
  EXPECT_GE(server_->Stats().shed, 1u);
  // The connection survived the shed: the next request works.
  auto again = client.Post("/query", QueryBody(q, 3, 7));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().status, 200);
}

TEST_F(ServeServer, BadRequestsGetStructuredErrors) {
  StartServer();
  HttpClient client(server_->port());
  struct Case {
    const char* target;
    const char* body;
    int status;
    const char* code;
  };
  const Case kCases[] = {
      {"/query", "{oops", 400, "bad_json"},
      {"/query", "{\"type\": \"knmatch\"}", 400, "bad_query"},
      {"/query", "{\"type\": \"sorcery\", \"query\": [1, 2]}", 400,
       "bad_query"},
      {"/batch", "{\"queries\": []}", 400, "bad_query"},
      {"/nope", "{}", 404, "not_found"},
      // Integer members arrive as JSON doubles. Beyond 2^53 a double
      // names no single integer, and converting one past size_t's
      // range (1e30) is undefined, so both endpoints refuse them before
      // any conversion. Non-finite numbers never get that far: the JSON
      // parser refuses "1e400". 2^53 itself parses, and validation
      // refuses k > cardinality.
      {"/query", "{\"query\": [1, 2, 3, 4, 5, 6], \"n\": 3, \"k\": 1e30}",
       400, "bad_query"},
      {"/query", "{\"query\": [1, 2, 3, 4, 5, 6], \"n\": 1e19, \"k\": 3}",
       400, "bad_query"},
      {"/query",
       "{\"type\": \"fknmatch\", \"query\": [1, 2, 3, 4, 5, 6], "
       "\"n0\": 1, \"n1\": 9007199254740994, \"k\": 3}",
       400, "bad_query"},
      {"/query", "{\"query\": [1, 2, 3, 4, 5, 6], \"n\": 1e400, \"k\": 3}",
       400, "bad_json"},
      {"/query",
       "{\"query\": [1, 2, 3, 4, 5, 6], \"n\": 3, \"k\": 9007199254740992}",
       400, "invalid_argument"},
      {"/batch", "{\"queries\": [[1, 2, 3, 4, 5, 6]], \"threads\": 1e30}",
       400, "bad_query"},
      {"/batch", "{\"queries\": [[1, 2, 3, 4, 5, 6]], \"k\": 1e30}", 400,
       "bad_query"},
      {"/batch",
       "{\"type\": \"fknmatch\", \"queries\": [[1, 2, 3, 4, 5, 6]], "
       "\"n0\": 1e300, \"n1\": 4}",
       400, "bad_query"},
  };
  for (const Case& c : kCases) {
    auto response = client.Post(c.target, c.body);
    ASSERT_TRUE(response.ok()) << c.target << " " << c.body;
    EXPECT_EQ(response.value().status, c.status) << c.target << " " << c.body;
    auto parsed = ParseJson(response.value().body);
    ASSERT_TRUE(parsed.ok()) << c.target << " " << c.body;
    const JsonValue* error = parsed.value().Find("error");
    ASSERT_NE(error, nullptr) << c.target << " " << c.body;
    EXPECT_EQ(error->Find("code")->string_value, c.code)
        << c.target << " " << c.body;
  }
  // Wrong methods.
  auto get_query = client.Get("/query");
  ASSERT_TRUE(get_query.ok());
  EXPECT_EQ(get_query.value().status, 405);
  auto post_health = client.Post("/health", "{}");
  ASSERT_TRUE(post_health.ok());
  EXPECT_EQ(post_health.value().status, 405);
  // A bad deadline header is a client error, not a served query.
  auto bad_deadline =
      client.Post("/query", QueryBody({0.1f, 0.1f, 0.1f, 0.1f, 0.1f, 0.1f},
                                      3, 7),
                  {{"X-Knmatch-Deadline-Ms", "soon"}});
  ASSERT_TRUE(bad_deadline.ok());
  EXPECT_EQ(bad_deadline.value().status, 400);
  EXPECT_NE(bad_deadline.value().body.find("bad_deadline"),
            std::string::npos);
}

TEST_F(ServeServer, MalformedFramesAnswer400AndClose) {
  StartServer();
  HttpClient client(server_->port());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.SendRaw("junk\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_NE(response.value().body.find("error"), std::string::npos);
  EXPECT_GE(server_->Stats().malformed, 1u);
  // A parseable-but-unsupported version is rejected as 505 (and also
  // counted malformed — the protocol rejection family).
  HttpClient old_proto(server_->port());
  ASSERT_TRUE(old_proto.Connect().ok());
  ASSERT_TRUE(old_proto.SendRaw("GET / HTTP/9.9\r\n\r\n").ok());
  auto unsupported = old_proto.ReadResponse();
  ASSERT_TRUE(unsupported.ok());
  EXPECT_EQ(unsupported.value().status, 505);
  EXPECT_GE(server_->Stats().malformed, 2u);
  // The server keeps serving fresh connections.
  HttpClient fresh(server_->port());
  auto health = fresh.Get("/health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
}

TEST_F(ServeServer, OversizedBodyAnswers413) {
  ServerOptions options;
  options.limits.max_body_bytes = 256;
  StartServer(options);
  HttpClient client(server_->port());
  const std::string big(1024, 'x');
  auto response = client.Post("/query", big);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 413);
  EXPECT_GE(server_->Stats().malformed, 1u);
}

TEST_F(ServeServer, SlowLorisGets408AtTheIdleTimeout) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  HttpClient client(server_->port());
  ASSERT_TRUE(client.Connect().ok());
  // Half a request line, then silence: a classic slow loris.
  ASSERT_TRUE(client.SendRaw("POST /query HTTP/1.1\r\nContent-").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 408);
  EXPECT_TRUE(
      WaitFor([&] { return server_->Stats().idle_timeouts >= 1; }, 1000));
}

TEST_F(ServeServer, TornFramesAreCountedNotFatal) {
  StartServer();
  const std::string body = QueryBody({0.2f, 0.2f, 0.2f, 0.2f, 0.2f, 0.2f},
                                     3, 7);
  {
    HttpClient client(server_->port());
    auto torn = client.PostTorn("/query", body, /*prefix_bytes=*/25,
                                /*stall_ms=*/1, /*abandon=*/true);
    EXPECT_FALSE(torn.ok());  // abandoned by design
  }
  EXPECT_TRUE(
      WaitFor([&] { return server_->Stats().torn_frames >= 1; }, 2000));
  HttpClient fresh(server_->port());
  auto response = fresh.Post("/query", body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
}

TEST_F(ServeServer, HardResetsMidRequestAreSurvived) {
  StartServer();
  for (int i = 0; i < 5; ++i) {
    HttpClient rude(server_->port());
    ASSERT_TRUE(rude.Connect().ok());
    ASSERT_TRUE(rude.SendRaw("POST /query HTTP/1.1\r\nContent-Le").ok());
    rude.Reset();  // RST, not FIN
  }
  HttpClient client(server_->port());
  EXPECT_TRUE(WaitFor([&] {
    auto health = client.Get("/health");
    return health.ok() && health.value().status == 200;
  }));
  EXPECT_TRUE(server_->running());
}

TEST_F(ServeServer, AdminDrainFlipsReadyFinishesAndStops) {
  StartServer();
  HttpClient client(server_->port());
  auto warm = client.Post(
      "/query", QueryBody({0.6f, 0.6f, 0.6f, 0.6f, 0.6f, 0.6f}, 3, 7));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.value().status, 200);

  auto drain = client.Post("/admin/drain", "");
  ASSERT_TRUE(drain.ok());
  ASSERT_EQ(drain.value().status, 200);
  EXPECT_NE(drain.value().body.find("\"draining\":true"), std::string::npos);

  EXPECT_TRUE(WaitFor([&] { return !server_->running(); }, 5000));
  EXPECT_FALSE(server_->ready());
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.drains, 1u);
  EXPECT_EQ(stats.responses_ok, 2u);  // the query + the drain ack
  // The listener is gone: new connections are refused outright.
  HttpClient late(server_->port());
  EXPECT_FALSE(late.Connect(200).ok());
  // Drain() after the fact is idempotent.
  server_->Drain();
  server_->Stop();
}

TEST_F(ServeServer, DrainDuringLoadCompletesInFlightWork) {
  ServerOptions options;
  options.threads = 2;
  StartServer(options);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::thread traffic([&] {
    HttpClient client(server_->port());
    const std::string body =
        QueryBody({0.7f, 0.7f, 0.7f, 0.7f, 0.7f, 0.7f}, 3, 7);
    while (!stop.load()) {
      auto response = client.Post("/query", body);
      if (!response.ok()) break;  // drain closed the connection — fine
      if (response.value().status == 200) served.fetch_add(1);
    }
  });
  WaitFor([&] { return served.load() >= 5; });
  server_->Drain();  // blocks until fully stopped
  stop.store(true);
  traffic.join();
  EXPECT_FALSE(server_->running());
  EXPECT_GE(served.load(), 5u);
  // Every accepted connection was closed on the way out.
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.connections_accepted, stats.connections_closed);
}

TEST_F(ServeServer, RouterPartialAnswersAreMarkedOnTheWire) {
  db_ = datagen::MakeUniform(400, 5, /*seed=*/71);
  engine_ = std::make_unique<SimilarityEngine>(db_);
  shard::RouterOptions router_options;
  router_options.shards = 4;
  router_options.method = shard::RouterOptions::Method::kDiskScan;
  shard::ShardRouter router(db_, router_options);
  // Kill shard 1's only replica: every answer is survivors-only.
  FaultInjector dead(
      FaultInjector::Config{.seed = 9, .transient_error_rate = 1.0});
  router.replica_engine(1, 0)->SetFaultInjector(&dead);

  server_ = std::make_unique<HttpServer>(engine_.get(), ServerOptions{},
                                         &router);
  ASSERT_TRUE(server_->Start().ok());
  HttpClient client(server_->port());
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("fknmatch");
  w.Key("query").BeginArray();
  for (int i = 0; i < 5; ++i) w.Number(0.5);
  w.EndArray();
  w.Key("n0").Uint(2);
  w.Key("n1").Uint(4);
  w.Key("k").Uint(9);
  w.EndObject();
  auto response = client.Post("/query", w.Take());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, 200);
  auto parsed = ParseJson(response.value().body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& root = parsed.value();
  ASSERT_NE(root.Find("partial"), nullptr);
  EXPECT_TRUE(root.Find("partial")->bool_value);
  const JsonValue* degradation = root.Find("degradation");
  ASSERT_NE(degradation, nullptr);
  EXPECT_EQ(degradation->Find("shards_total")->number, 4);
  EXPECT_EQ(degradation->Find("shards_answered")->number, 3);
  const JsonValue& failed = *degradation->Find("failed");
  ASSERT_EQ(failed.array.size(), 1u);
  EXPECT_EQ(failed.array[0].Find("shard")->number, 1);
  EXPECT_EQ(failed.array[0].Find("reason")->string_value, "unavailable");
  EXPECT_GE(server_->Stats().partial_answers, 1u);
  // /health exposes the shard view too.
  auto health = client.Get("/health");
  ASSERT_TRUE(health.ok());
  auto health_parsed = ParseJson(health.value().body);
  ASSERT_TRUE(health_parsed.ok());
  ASSERT_NE(health_parsed.value().Find("shards"), nullptr);
  EXPECT_EQ(health_parsed.value().Find("shards")->array.size(), 4u);
  router.replica_engine(1, 0)->SetFaultInjector(nullptr);
}

TEST_F(ServeServer, StatsMirrorTheObsCounters) {
  const auto& cat = obs::Cat();
  const uint64_t requests0 = cat.serve_requests->Value();
  const uint64_t ok0 = cat.serve_responses_ok->Value();
  const uint64_t client_err0 = cat.serve_responses_client_error->Value();
  const uint64_t malformed0 = cat.serve_malformed->Value();

  StartServer();
  HttpClient client(server_->port());
  const std::string body =
      QueryBody({0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f}, 3, 7);
  for (int i = 0; i < 3; ++i) {
    auto response = client.Post("/query", body);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().status, 200);
  }
  auto bad = client.Post("/query", "{oops");
  ASSERT_TRUE(bad.ok());
  ASSERT_EQ(bad.value().status, 400);
  ASSERT_TRUE(client.SendRaw("junk\r\n\r\n").ok());
  ASSERT_TRUE(client.ReadResponse().ok());

  const ServerStats stats = server_->Stats();
  EXPECT_EQ(cat.serve_requests->Value() - requests0, stats.requests);
  EXPECT_EQ(cat.serve_responses_ok->Value() - ok0, stats.responses_ok);
  EXPECT_EQ(cat.serve_responses_client_error->Value() - client_err0,
            stats.responses_client_error);
  EXPECT_EQ(cat.serve_malformed->Value() - malformed0, stats.malformed);
  EXPECT_EQ(stats.responses_ok, 3u);
  EXPECT_GE(stats.malformed, 1u);
}

// ---------------------------------------------------------------------------
// ServeSoak: the tentpole attestation. >= 1000 open-loop requests with
// the network fault shim (resets, torn frames, stalls, malformed
// bytes) folded in: no crashes, no leaked fds, no transport errors on
// well-formed requests, and every distinct pool query's served answer
// bit-identical to the direct engine. Every request the loadgen sends
// is one of the pool's bodies, so the pool-wide check covers them all.

TEST(ServeConcurrency, ParallelWorkersServeTheDirectRoutersBytes) {
  // Four workers query one router at once. Shard 1's only replica is
  // dead, so every answer is partial and carries a degradation record;
  // each worker must serialize the record of its own query.
  const Dataset db = datagen::MakeUniform(400, 5, /*seed=*/81);
  const SimilarityEngine engine(db);
  shard::RouterOptions router_options;
  router_options.shards = 4;
  router_options.method = shard::RouterOptions::Method::kDiskScan;
  router_options.allow_partial = true;
  // Keep the dead shard's breaker closed, so its failure (and so the
  // served message) is the same for every request in any order.
  router_options.breaker.trip_ratio = 2.0;
  shard::ShardRouter router(db, router_options);
  FaultInjector dead(
      FaultInjector::Config{.seed = 9, .transient_error_rate = 1.0});
  router.replica_engine(1, 0)->SetFaultInjector(&dead);

  Rng rng(82);
  std::vector<std::vector<Value>> queries;
  std::vector<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(RandomQuery(rng, db.dims()));
    const size_t n = 1 + static_cast<size_t>(i) % 5;
    const size_t k = 3 + static_cast<size_t>(i) % 7;
    expected.push_back(MirrorRouterBody(router, queries.back(), n, k));
    ASSERT_NE(expected.back().find("\"degradation\""), std::string::npos);
  }

  ServerOptions options;
  options.threads = 4;
  HttpServer server(&engine, options, &router);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client(server.port());
      for (int round = 0; round < 10; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t qi = (i + static_cast<size_t>(c) * 3) % queries.size();
          const size_t n = 1 + qi % 5;
          const size_t k = 3 + qi % 7;
          auto response = client.Post("/query", QueryBody(queries[qi], n, k));
          if (!response.ok() || response.value().status != 200 ||
              response.value().body != expected[qi]) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(server.Stats().partial_answers, 4u * 10u * queries.size());
  server.Stop();
  router.replica_engine(1, 0)->SetFaultInjector(nullptr);
}

TEST(ServeSoak, ThousandRequestsUnderFaultsLeakNothingAndStayExact) {
  const Dataset db = datagen::MakeUniform(2000, 6, /*seed=*/23);
  const SimilarityEngine engine(db);
  datagen::ZipfianQueryMixSpec mix;
  mix.pool_size = 32;
  mix.count = 256;
  mix.skew = 1.1;
  mix.seed = 4;
  const std::vector<std::vector<Value>> pool =
      datagen::MakeZipfianQueryMix(db, mix);

  const size_t fds_before = CountOpenFds();
  serve::LoadReport report;
  ServerStats stats;
  {
    ServerOptions options;
    options.threads = 2;
    options.max_inflight = 8;
    HttpServer server(&engine, options);
    ASSERT_TRUE(server.Start().ok());

    serve::LoadgenOptions load;
    load.port = server.port();
    load.rps_start = 400;
    load.rps_end = 600;
    load.duration_s = 2.5;  // ~1250 scheduled events
    load.connections = 4;
    load.n = 4;
    load.k = 10;
    load.deadline_ms = 200;
    load.fault_fraction = 0.15;
    load.seed = 77;
    auto run = serve::RunOpenLoopLoad(load, pool);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    report = run.value();

    ASSERT_GE(report.scheduled, 1000u);
    EXPECT_GE(report.faults_injected, 100u);
    EXPECT_GT(report.ok, 0u);
    // Well-formed requests never fail at the transport: sheds answer
    // 429, deadline misses answer 504, the connection stays usable.
    EXPECT_EQ(report.transport_errors, 0u);
    EXPECT_TRUE(server.running());

    // Bit-identity across every distinct query the soak could have
    // sent, after all that abuse.
    const std::set<std::vector<Value>> distinct(pool.begin(), pool.end());
    HttpClient client(server.port());
    size_t checked = 0;
    for (const std::vector<Value>& q : distinct) {
      auto response = client.Post("/query", QueryBody(q, 4, 10));
      ASSERT_TRUE(response.ok()) << "pool query " << checked;
      ASSERT_EQ(response.value().status, 200) << "pool query " << checked;
      EXPECT_EQ(response.value().body, MirrorQueryBody(engine, q, 4, 10))
          << "pool query " << checked;
      ++checked;
    }

    stats = server.Stats();
    EXPECT_GE(stats.requests, report.sent);
    // At least the soak's 2xx plus the mirror pass (stalled-fault
    // completions may add more — the loadgen counts those as faults).
    EXPECT_GE(stats.responses_ok, report.ok + distinct.size());
    server.Drain();
    EXPECT_EQ(stats.connections_accepted,
              server.Stats().connections_closed);
  }
  // The wake pipe and every socket close in the destructor: any fd
  // still open beyond the baseline is a genuine leak.
  const size_t fds_after = CountOpenFds();
  EXPECT_LE(fds_after, fds_before);
}

}  // namespace
}  // namespace knmatch
