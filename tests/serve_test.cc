// End-to-end smoke test for the simpush_serve front end: boots the
// HTTP server on an ephemeral port, issues query/topk/batch/stats
// requests through real sockets, and checks
//   - responses are bit-identical to direct QueryRunner calls,
//   - >= 8 concurrent clients are served correctly,
//   - admission control sheds load with 503,
//   - Shutdown() drains in-flight requests before returning,
//   - the query path performs zero steady-state heap allocations
//     (this binary links simpush_alloc_hook).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/memory.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/result_cache.h"
#include "serve/service.h"
#include "serve_routes.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/topk.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace serve {
namespace {

SimPushOptions FastOptions() {
  SimPushOptions options;
  options.epsilon = 0.1;
  options.walk_budget_cap = 20000;
  options.seed = 42;
  return options;
}

// A service + started server on an ephemeral port, with a direct
// (in-process) engine sharing the same options for reference results.
class ServeFixture {
 public:
  explicit ServeFixture(size_t http_workers = 4)
      : graph_(testing_util::MakeFixtureGraph()),
        core_(graph_, FastOptions()) {
    ServiceOptions service_options;
    service_options.query = FastOptions();
    service_options.num_threads = 4;
    service_ = std::make_unique<SimPushService>(service_options);
    const Status added =
        service_->AddGraph("default", graph_, service_options.query);
    EXPECT_TRUE(added.ok()) << added.ToString();

    HttpServerOptions server_options;
    server_options.port = 0;
    server_options.num_workers = http_workers;
    server_ = std::make_unique<HttpServer>(server_options);
    service_->RegisterRoutes(server_.get());
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  const Graph& graph() { return graph_; }
  HttpServer& server() { return *server_; }
  SimPushService& service() { return *service_; }
  uint16_t port() { return server_->port(); }

  std::vector<double> DirectScores(NodeId u) {
    QueryWorkspace workspace;
    QueryRunner runner(core_, &workspace);
    auto result = runner.Query(u);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->scores;
  }

  uint64_t DirectWalks(NodeId u) {
    QueryWorkspace workspace;
    QueryRunner runner(core_, &workspace);
    auto result = runner.Query(u);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->stats.walks_sampled;
  }

  TopKResult DirectTopK(NodeId u, size_t k) {
    QueryWorkspace workspace;
    QueryRunner runner(core_, &workspace);
    auto result = QueryTopK(&runner, u, k);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

 private:
  Graph graph_;
  EngineCore core_;
  std::unique_ptr<SimPushService> service_;
  std::unique_ptr<HttpServer> server_;
};

// Sends raw bytes (possibly a deliberately malformed request) and
// returns everything the server sends back until it closes the
// connection. Used where HttpClient is too well-behaved to produce
// the condition under test.
std::string RawExchange(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::vector<double> ScoresFromBody(const std::string& body) {
  auto doc = ParseJson(body);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << " body: " << body;
  std::vector<double> scores;
  const JsonValue* array = doc->Find("scores");
  EXPECT_NE(array, nullptr) << body;
  if (array == nullptr) return scores;
  for (const JsonValue& item : array->array_items()) {
    scores.push_back(item.number_value());
  }
  return scores;
}

TEST(ServeSmoke, HealthAndStats) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "{\"status\":\"ok\"}\n");

  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  auto doc = ParseJson(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;
  const JsonValue* tenant = doc->Find("graphs")->Find("default");
  EXPECT_EQ(tenant->Find("nodes")->AsIndex().value(), 10u);
  EXPECT_EQ(tenant->Find("pool"), nullptr) << "one pool per process";
  EXPECT_NE(doc->Find("pool"), nullptr);
  EXPECT_NE(doc->Find("latency_ms"), nullptr);
  EXPECT_NE(doc->Find("http"), nullptr);
  EXPECT_GT(doc->Find("memory")->Find("peak_rss_bytes")->number_value(), 0);
}

TEST(ServeSmoke, QueryBitIdenticalToDirectRunner) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  for (NodeId u = 0; u < fixture.graph().num_nodes(); ++u) {
    auto response = client.Post("/v1/query",
                                "{\"node\": " + std::to_string(u) + "}");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
    const std::vector<double> served = ScoresFromBody(response->body);
    const std::vector<double> direct = fixture.DirectScores(u);
    ASSERT_EQ(served.size(), direct.size());
    for (size_t v = 0; v < direct.size(); ++v) {
      EXPECT_EQ(served[v], direct[v]) << "u=" << u << " v=" << v;
    }
  }
  // All requests rode one keep-alive connection.
  EXPECT_EQ(fixture.server().counters().accepted, 1u);
}

TEST(ServeSmoke, QueryTopKTruncationAndStats) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto response = client.Post(
      "/v1/query", "{\"node\": 3, \"top_k\": 4, \"with_stats\": true}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("scores"), nullptr);  // Truncated response.
  const JsonValue* top = doc->Find("top");
  ASSERT_NE(top, nullptr);
  EXPECT_LE(top->array_items().size(), 4u);
  ASSERT_NE(doc->Find("stats"), nullptr);
  EXPECT_GE(doc->Find("stats")->Find("total_ms")->number_value(), 0.0);

  // Entries match a direct top-k (same ε ⇒ same scores ⇒ same ranking).
  const TopKResult direct = fixture.DirectTopK(3, 4);
  ASSERT_EQ(top->array_items().size(), direct.entries.size());
  for (size_t i = 0; i < direct.entries.size(); ++i) {
    const JsonValue& entry = top->array_items()[i];
    EXPECT_EQ(entry.Find("node")->AsIndex().value(), direct.entries[i].node);
    EXPECT_EQ(entry.Find("score")->number_value(), direct.entries[i].score);
  }
}

TEST(ServeSmoke, TopKEndpointBitIdentical) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto response = client.Post("/v1/topk", "{\"node\": 5, \"k\": 3}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  const TopKResult direct = fixture.DirectTopK(5, 3);
  const JsonValue* top = doc->Find("top");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->array_items().size(), direct.entries.size());
  for (size_t i = 0; i < direct.entries.size(); ++i) {
    const JsonValue& entry = top->array_items()[i];
    EXPECT_EQ(entry.Find("node")->AsIndex().value(), direct.entries[i].node);
    EXPECT_EQ(entry.Find("score")->number_value(), direct.entries[i].score);
  }
}

TEST(ServeSmoke, BatchBitIdentical) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto response = client.Post("/v1/batch",
                              "{\"nodes\": [0, 3, 5, 7, 9], \"k\": 3}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  const NodeId nodes[] = {0, 3, 5, 7, 9};
  ASSERT_EQ(results->array_items().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const JsonValue& result = results->array_items()[i];
    EXPECT_EQ(result.Find("node")->AsIndex().value(), nodes[i]);
    const TopKResult direct = fixture.DirectTopK(nodes[i], 3);
    const JsonValue* top = result.Find("top");
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->array_items().size(), direct.entries.size());
    for (size_t j = 0; j < direct.entries.size(); ++j) {
      EXPECT_EQ(top->array_items()[j].Find("score")->number_value(),
                direct.entries[j].score)
          << "query " << nodes[i] << " rank " << j;
    }
  }
}

// /v1/stats engine.walks_sampled counts the walks of every endpoint,
// the /v1/batch fan-out included.
TEST(ServeSmoke, BatchWalksCountInEngineStats) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());
  const auto engine_walks = [&client] {
    auto stats = client.Get("/v1/stats");
    EXPECT_TRUE(stats.ok());
    auto doc = ParseJson(stats->body);
    EXPECT_TRUE(doc.ok()) << stats->body;
    return doc->Find("engine")->Find("walks_sampled")->AsIndex().value();
  };
  const uint64_t before = engine_walks();
  auto response =
      client.Post("/v1/batch", "{\"nodes\": [0, 3, 5, 7], \"k\": 2}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  uint64_t expected = 0;
  for (const NodeId u : {0u, 3u, 5u, 7u}) expected += fixture.DirectWalks(u);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(engine_walks() - before, expected);
}

TEST(ServeSmoke, ErrorResponses) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  EXPECT_EQ(client.Post("/v1/query", "{not json")->status, 400);
  EXPECT_EQ(client.Post("/v1/query", "{}")->status, 400);        // no node
  EXPECT_EQ(client.Post("/v1/query", "[1,2]")->status, 400);     // not object
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 10}")->status, 400);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": -1}")->status, 400);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1e999}")->status, 400);
  // 2^32 + 5 must not wrap to node 5 through the 32-bit NodeId.
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 4294967301}")->status, 400);
  EXPECT_EQ(client.Post("/v1/topk", "{\"node\": 4294967301}")->status, 400);
  EXPECT_EQ(client.Post("/v1/batch", "{\"nodes\": [0, 99]}")->status, 400);
  EXPECT_EQ(client.Get("/nope")->status, 404);
  EXPECT_EQ(client.Get("/v1/query")->status, 405);  // wrong method
  EXPECT_EQ(client.Post("/healthz", "{}")->status, 405);

  // Oversized batches are rejected up front with 413.
  std::string big = "{\"nodes\": [";
  for (int i = 0; i < 5000; ++i) {
    big += (i ? ",0" : "0");
  }
  big += "]}";
  EXPECT_EQ(client.Post("/v1/batch", big)->status, 413);

  // The service is still healthy afterwards.
  EXPECT_EQ(client.Get("/healthz")->status, 200);
}

TEST(ServeSmoke, EightConcurrentClientsBitIdentical) {
  ServeFixture fixture(/*http_workers=*/8);
  const NodeId n = fixture.graph().num_nodes();

  // Reference scores computed once, in process.
  std::vector<std::vector<double>> expected(n);
  for (NodeId u = 0; u < n; ++u) expected[u] = fixture.DirectScores(u);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", fixture.port());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const NodeId u = static_cast<NodeId>((c + r) % n);
        auto response = client.Post(
            "/v1/query", "{\"node\": " + std::to_string(u) + "}");
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        const std::vector<double> served = ScoresFromBody(response->body);
        if (served != expected[u]) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(fixture.server().counters().requests,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  // All leases returned once the dust settles.
  EXPECT_EQ(fixture.service().registry().Stats("default")->pool_outstanding,
            0u);
}

TEST(ServeSmoke, AdmissionControlSheds503) {
  // One worker, an admission queue of one: the third concurrent
  // connection must be shed with 503 while the first is in flight.
  HttpServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  options.max_queued_connections = 1;
  HttpServer server(options);
  server.Route("POST", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return HttpResponse{200, "application/json", "{\"slow\":true}", {}};
  });
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> ok_200{0};
  std::thread first([&] {
    HttpClient client("127.0.0.1", server.port());
    auto response = client.Post("/slow", "{}");
    if (response.ok() && response->status == 200) ok_200.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread second([&] {  // Waits in the admission queue, then serves.
    HttpClient client("127.0.0.1", server.port());
    auto response = client.Post("/slow", "{}");
    if (response.ok() && response->status == 200) ok_200.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  HttpClient shed("127.0.0.1", server.port());
  auto response = shed.Post("/slow", "{}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 503);
  EXPECT_EQ(response->body, "{\"error\":\"overloaded\"}\n");

  first.join();
  second.join();
  EXPECT_EQ(ok_200.load(), 2);
  EXPECT_EQ(server.counters().rejected_503, 1u);
  server.Shutdown();
}

TEST(ServeSmoke, MalformedContentLengthIs400) {
  ServeFixture fixture;
  const std::string response = RawExchange(
      fixture.port(),
      "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("malformed content-length"), std::string::npos);
  // A digits-then-garbage value must not frame the body off its prefix
  // (that would desync the keep-alive stream).
  const std::string garbage = RawExchange(
      fixture.port(),
      "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 12abc\r\n\r\n"
      "{\"node\": 3}x");
  EXPECT_NE(garbage.find("400 Bad Request"), std::string::npos) << garbage;
}

TEST(ServeSmoke, IdleConnectionsAreReclaimed) {
  // One worker with a short idle timeout: a client that parks its
  // keep-alive connection must not pin the worker — the server closes
  // it and serves the next client.
  HttpServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  options.read_timeout_ms = 50;
  options.idle_timeout_ms = 150;
  HttpServer server(options);
  server.Route("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "application/json", "{}", {}};
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClient parked("127.0.0.1", server.port());
  ASSERT_EQ(parked.Get("/ping")->status, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // Without reclamation this would hang forever on the busy worker.
  HttpClient fresh("127.0.0.1", server.port());
  EXPECT_EQ(fresh.Get("/ping")->status, 200);
  // The parked client transparently reconnects on its next request.
  EXPECT_EQ(parked.Get("/ping")->status, 200);

  // A mid-request stall (headers never completed) is answered with 408.
  const std::string stalled =
      RawExchange(server.port(), "POST /v1/query HTTP/1.1\r\n");
  EXPECT_NE(stalled.find("408 Request Timeout"), std::string::npos)
      << stalled;
  server.Shutdown();
}

TEST(ServeSmoke, GracefulShutdownDrainsInFlight) {
  HttpServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  HttpServer server(options);
  std::atomic<int> slow_entered{0};
  server.Route("POST", "/slow", [&](const HttpRequest&) {
    slow_entered.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return HttpResponse{200, "application/json", "{\"slow\":true}", {}};
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<bool> drained_ok{false};
  std::thread in_flight([&] {
    HttpClient client("127.0.0.1", port);
    auto response = client.Post("/slow", "{}");
    drained_ok.store(response.ok() && response->status == 200);
  });
  // Wait until the request is genuinely in flight, then drain.
  while (slow_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Shutdown();
  // Shutdown must not have cut the in-flight request off.
  in_flight.join();
  EXPECT_TRUE(drained_ok.load());
  EXPECT_FALSE(server.running());

  // The listen socket is gone: new connections are refused.
  HttpClient late("127.0.0.1", port);
  EXPECT_FALSE(late.Get("/healthz").ok());
}

// ---------------------------------------------------------------------------
// Multi-tenant registry endpoints: /v1/graphs CRUD, edge updates, hot
// swap — covered end to end over real sockets.
// ---------------------------------------------------------------------------

// The 6-node ring graph used as the second tenant, as raw edges (kept
// sorted so the reference GraphBuilder output matches the registry's
// canonical snapshots byte for byte).
std::vector<std::pair<NodeId, NodeId>> RingEdges() {
  return {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}};
}

std::vector<double> DirectScoresWith(const Graph& graph,
                                     const SimPushOptions& options,
                                     NodeId u) {
  EngineCore core(graph, options);
  QueryWorkspace workspace;
  QueryRunner runner(core, &workspace);
  auto result = runner.Query(u);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->scores;
}

std::vector<double> DirectScoresOn(const Graph& graph, NodeId u) {
  return DirectScoresWith(graph, FastOptions(), u);
}

TEST(ServeMultiGraph, CreateQuerySwapDeleteEndToEnd) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Create a second tenant from inline edges.
  auto created = client.Post(
      "/v1/graphs",
      "{\"name\":\"ring\",\"nodes\":6,"
      "\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  auto created_doc = ParseJson(created->body);
  ASSERT_TRUE(created_doc.ok());
  EXPECT_EQ(created_doc->Find("nodes")->AsIndex().value(), 6u);
  EXPECT_EQ(created_doc->Find("edges")->AsIndex().value(), 6u);
  const uint64_t generation1 =
      created_doc->Find("generation")->AsIndex().value();

  // Both tenants are listed.
  auto list = client.Get("/v1/graphs");
  ASSERT_TRUE(list.ok());
  auto list_doc = ParseJson(list->body);
  ASSERT_TRUE(list_doc.ok());
  ASSERT_EQ(list_doc->Find("graphs")->array_items().size(), 2u);

  // Queries route by the "graph" field and are bit-identical to a
  // direct engine on the same graph.
  Graph ring = testing_util::MakeGraph(6, RingEdges());
  auto response =
      client.Post("/v1/query", "{\"node\": 2, \"graph\": \"ring\"}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  EXPECT_EQ(ScoresFromBody(response->body), DirectScoresOn(ring, 2));
  {
    auto doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("graph")->string_value(), "ring");
    EXPECT_EQ(doc->Find("generation")->AsIndex().value(), generation1);
  }
  // The default tenant still serves without a "graph" field.
  EXPECT_EQ(ScoresFromBody(client.Post("/v1/query", "{\"node\": 1}")->body),
            fixture.DirectScores(1));

  // Stage updates: applied to the master but NOT served until a swap.
  auto updated = client.Post("/v1/graphs/ring/edges",
                             "{\"add\":[[2,0],[0,3]],\"remove\":[[5,0]]}");
  ASSERT_TRUE(updated.ok());
  ASSERT_EQ(updated->status, 200) << updated->body;
  auto updated_doc = ParseJson(updated->body);
  ASSERT_TRUE(updated_doc.ok());
  EXPECT_EQ(updated_doc->Find("applied")->AsIndex().value(), 3u);
  EXPECT_EQ(updated_doc->Find("pending")->AsIndex().value(), 3u);
  EXPECT_FALSE(updated_doc->Find("swapped")->bool_value());
  EXPECT_EQ(ScoresFromBody(
                client.Post("/v1/query", "{\"node\":2,\"graph\":\"ring\"}")
                    ->body),
            DirectScoresOn(ring, 2))
      << "pre-swap queries must still serve the old generation";

  // Swap publishes the staged generation; queries now match a direct
  // engine on the updated graph (canonical snapshot = sorted builder).
  auto swapped = client.Post("/v1/graphs/ring/swap", "");
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(swapped->status, 200) << swapped->body;
  auto swapped_doc = ParseJson(swapped->body);
  ASSERT_TRUE(swapped_doc.ok());
  EXPECT_TRUE(swapped_doc->Find("swapped")->bool_value());
  EXPECT_EQ(swapped_doc->Find("pending")->AsIndex().value(), 0u);
  EXPECT_GT(swapped_doc->Find("generation")->AsIndex().value(), generation1);
  Graph ring2 = testing_util::MakeGraph(
      6, {{0, 1}, {0, 3}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}});
  EXPECT_EQ(ScoresFromBody(
                client.Post("/v1/query", "{\"node\":2,\"graph\":\"ring\"}")
                    ->body),
            DirectScoresOn(ring2, 2));

  // Per-tenant stats section reflects the swap.
  auto graph_stats = client.Get("/v1/graphs/ring");
  ASSERT_TRUE(graph_stats.ok());
  ASSERT_EQ(graph_stats->status, 200);
  auto stats_doc = ParseJson(graph_stats->body);
  ASSERT_TRUE(stats_doc.ok());
  const JsonValue* section = stats_doc->Find("stats");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->Find("swap_count")->AsIndex().value(), 2u);
  EXPECT_EQ(section->Find("edges")->AsIndex().value(), 7u);
  EXPECT_EQ(section->Find("pending_updates")->AsIndex().value(), 0u);

  // Delete: the tenant vanishes, the default tenant is untouched, and
  // the name can be reused.
  auto deleted = client.Request("DELETE", "/v1/graphs/ring");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status, 200) << deleted->body;
  EXPECT_EQ(client.Post("/v1/query", "{\"node\":0,\"graph\":\"ring\"}")
                ->status,
            404);
  EXPECT_EQ(client.Get("/v1/graphs/ring")->status, 404);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1}")->status, 200);
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"ring\",\"nodes\":2,\"edges\":[[0,1]]}")
                ->status,
            201);
}

// The per-tenant counters one tenant section reports.
struct TenantCounts {
  uint64_t requests = 0;
  uint64_t nodes_scored = 0;
  uint64_t latency_samples = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

TenantCounts CountsOf(const JsonValue& section) {
  TenantCounts counts;
  counts.requests = section.Find("requests")->AsIndex().value();
  counts.nodes_scored = section.Find("nodes_scored")->AsIndex().value();
  counts.latency_samples =
      section.Find("latency_ms")->Find("samples")->AsIndex().value();
  counts.cache_hits = section.Find("cache")->Find("hits")->AsIndex().value();
  counts.cache_misses =
      section.Find("cache")->Find("misses")->AsIndex().value();
  return counts;
}

// Expects the section of tenant `name` to report `want`, read from
// both endpoints that write it: GET /v1/graphs/{name} and /v1/stats.
void ExpectTenantCounts(HttpClient* client, const std::string& name,
                        const TenantCounts& want, const char* when) {
  SCOPED_TRACE(when);
  auto one = client->Get("/v1/graphs/" + name);
  auto all = client->Get("/v1/stats");
  ASSERT_TRUE(one.ok() && all.ok());
  ASSERT_EQ(one->status, 200) << one->body;
  auto one_doc = ParseJson(one->body);
  auto all_doc = ParseJson(all->body);
  ASSERT_TRUE(one_doc.ok() && all_doc.ok());
  const JsonValue* sections[] = {one_doc->Find("stats"),
                                 all_doc->Find("graphs")->Find(name)};
  for (const JsonValue* section : sections) {
    ASSERT_NE(section, nullptr);
    ASSERT_NE(section->Find("requests"), nullptr) << one->body;
    const TenantCounts got = CountsOf(*section);
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.nodes_scored, want.nodes_scored);
    EXPECT_EQ(got.latency_samples, want.latency_samples);
    EXPECT_EQ(got.cache_hits, want.cache_hits);
    EXPECT_EQ(got.cache_misses, want.cache_misses);
  }
}

// Every per-tenant counter lives and dies with the tenant: request,
// latency and cache counters survive a swap, a DELETE and re-create of
// the same name starts them at zero, and a request still running on
// the deleted tenant's generation counts against that tenant, never
// against the new one.
TEST(ServeMultiGraph, TenantCountersFollowTheTenant) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());
  const std::string create =
      "{\"name\":\"ring\",\"nodes\":6,"
      "\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}";
  ASSERT_EQ(client.Post("/v1/graphs", create)->status, 201);

  // A miss, then a hit of the same source.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(
        client.Post("/v1/query", "{\"node\":2,\"graph\":\"ring\"}")->status,
        200);
  }
  const TenantCounts served = {2, 2, 2, 1, 1};
  ExpectTenantCounts(&client, "ring", served, "after two queries");
  ASSERT_EQ(client.Post("/v1/graphs/ring/swap", "")->status, 200);
  ExpectTenantCounts(&client, "ring", served, "after a swap");

  ASSERT_EQ(client.Request("DELETE", "/v1/graphs/ring")->status, 200);
  ASSERT_EQ(client.Post("/v1/graphs", create)->status, 201);
  ExpectTenantCounts(&client, "ring", {}, "after delete and re-create");

  // Hold a cache-missing request inside its workspace acquire while the
  // tenant it leased is deleted and created again.
  Failpoint* const acquire =
      FailpointRegistry::Get().Register("workspace_pool.acquire");
  const uint64_t hits_before = acquire->hits();
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Activate("workspace_pool.acquire", "sleep:300")
                  .ok());
  int held_status = 0;
  std::thread held([&fixture, &held_status] {
    HttpClient held_client("127.0.0.1", fixture.port());
    auto response =
        held_client.Post("/v1/query", "{\"node\":3,\"graph\":\"ring\"}");
    held_status = response.ok() ? response->status : -1;
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (acquire->hits() == hits_before &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(acquire->hits(), hits_before) << "the request never acquired";
  EXPECT_EQ(client.Request("DELETE", "/v1/graphs/ring")->status, 200);
  EXPECT_EQ(client.Post("/v1/graphs", create)->status, 201);
  held.join();
  FailpointRegistry::Get().DeactivateAll();
  EXPECT_EQ(held_status, 200);
  ExpectTenantCounts(&client, "ring", {},
                     "after a request that ran on the deleted tenant");
}

// Atomic edges batches over the wire: a 4xx batch whose valid prefix
// would have applied must leave the master untouched, so a swap right
// after serves the PRE-batch graph bit-identically — never half a
// batch. Also pins the delta-publish stats keys in the tenant section.
TEST(ServeMultiGraph, RejectedEdgesBatchIsAtomicThroughSwap) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());
  ASSERT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"ring\",\"nodes\":6,"
                      "\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}")
                ->status,
            201);

  // Valid adds up front, an absent-edge remove at the end: 400, and
  // the response says no updates were applied.
  auto rejected = client.Post(
      "/v1/graphs/ring/edges",
      "{\"add\":[[2,0],[0,3]],\"remove\":[[1,5]]}");  // (1,5) absent.
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->status, 400) << rejected->body;
  EXPECT_NE(rejected->body.find("no updates applied"), std::string::npos)
      << rejected->body;

  // A swap after the rejected batch publishes the pre-batch bytes:
  // scores match a direct engine on the ORIGINAL ring.
  ASSERT_EQ(client.Post("/v1/graphs/ring/swap", "")->status, 200);
  Graph ring = testing_util::MakeGraph(6, RingEdges());
  EXPECT_EQ(ScoresFromBody(
                client.Post("/v1/query", "{\"node\":2,\"graph\":\"ring\"}")
                    ->body),
            DirectScoresOn(ring, 2))
      << "swap after a rejected batch must serve pre-batch bytes";

  auto graph_stats = client.Get("/v1/graphs/ring");
  ASSERT_TRUE(graph_stats.ok());
  auto stats_doc = ParseJson(graph_stats->body);
  ASSERT_TRUE(stats_doc.ok());
  const JsonValue* section = stats_doc->Find("stats");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->Find("updates_applied")->AsIndex().value(), 0u);
  EXPECT_EQ(section->Find("edges")->AsIndex().value(), 6u);
  // Delta-publish observability keys: the forced swap above had a live
  // base and a clean master, so it counted as a delta swap, and the
  // publish timing is recorded.
  ASSERT_NE(section->Find("delta_swaps"), nullptr);
  EXPECT_EQ(section->Find("delta_swaps")->AsIndex().value(), 1u);
  ASSERT_NE(section->Find("dirty_vertices"), nullptr);
  EXPECT_EQ(section->Find("dirty_vertices")->AsIndex().value(), 0u);
  ASSERT_NE(section->Find("last_swap_ms"), nullptr);
  EXPECT_GE(section->Find("last_swap_ms")->number_value(), 0.0);
}

TEST(ServeMultiGraph, AdminErrorResponses) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Creating over an existing name conflicts.
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"default\",\"nodes\":2,\"edges\":[[0,1]]}")
                ->status,
            409);
  // Bad names, bad bodies.
  EXPECT_EQ(client.Post("/v1/graphs", "{\"nodes\":2}")->status, 400);
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"a/b\",\"nodes\":2,\"edges\":[]}")
                ->status,
            400);
  EXPECT_EQ(client.Post("/v1/graphs", "{\"name\":\"g\"}")->status, 400);
  // Inline creates are size-capped: a tiny request must not be able to
  // command a multi-GB CSR allocation (load big graphs via "path").
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"big\",\"nodes\":4294967295,\"edges\":[]}")
                ->status,
            400);  // kInvalidNode sentinel.
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"big\",\"nodes\":2000000,\"edges\":[]}")
                ->status,
            413);
  // Path-based creation is an arbitrary-file-read surface; it is off
  // unless the operator opted in with --allow-path-create.
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"f\",\"path\":\"/etc/passwd\"}")
                ->status,
            403);
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"g\",\"nodes\":2,\"edges\":[[0]]}")
                ->status,
            400);
  // Unknown tenants: queries and admin ops both 404.
  EXPECT_EQ(client.Post("/v1/query", "{\"node\":0,\"graph\":\"nope\"}")
                ->status,
            404);
  EXPECT_EQ(client.Post("/v1/topk", "{\"node\":0,\"graph\":\"nope\"}")
                ->status,
            404);
  EXPECT_EQ(
      client.Post("/v1/batch", "{\"nodes\":[0],\"graph\":\"nope\"}")->status,
      404);
  EXPECT_EQ(client.Post("/v1/graphs/nope/swap", "")->status, 404);
  EXPECT_EQ(client.Post("/v1/graphs/nope/edges", "{\"add\":[[0,1]]}")
                ->status,
            404);
  EXPECT_EQ(client.Request("DELETE", "/v1/graphs/nope")->status, 404);
  // Known tenant, bad update payloads.
  EXPECT_EQ(client.Post("/v1/graphs/default/edges", "{}")->status, 400);
  EXPECT_EQ(client.Post("/v1/graphs/default/edges",
                        "{\"remove\":[[7,9]]}")  // Edge not present.
                ->status,
            400);
  // Unknown sub-operation and wrong methods.
  EXPECT_EQ(client.Post("/v1/graphs/default/nope", "{}")->status, 404);
  EXPECT_EQ(client.Get("/v1/graphs/default/edges")->status, 405);
  EXPECT_EQ(client.Request("DELETE", "/v1/graphs")->status, 405);
  // The service survives all of it.
  EXPECT_EQ(client.Get("/healthz")->status, 200);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1}")->status, 200);
}

// Auto-swap at the configured pending-update threshold, exercised
// through the route table (no sockets needed).
TEST(ServeMultiGraph, AutoSwapAtThreshold) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.swap_threshold = 3;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", graph, options.query).ok());

  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/graphs/default/edges";
  request.body = "{\"add\":[[0,5],[1,6]]}";
  HttpResponse response = routes->Dispatch(request);
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Find("swapped")->bool_value());
  EXPECT_EQ(doc->Find("pending")->AsIndex().value(), 2u);

  request.body = "{\"add\":[[2,7]]}";  // Third pending update: swap.
  response = routes->Dispatch(request);
  ASSERT_EQ(response.status, 200) << response.body;
  doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("swapped")->bool_value());
  EXPECT_EQ(doc->Find("pending")->AsIndex().value(), 0u);

  // The served graph now has the three extra edges.
  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_edges, graph.num_edges() + 3);
  EXPECT_EQ(stats->swap_count, 2u);

  // An explicit "swap":true forces publication below the threshold.
  request.body = "{\"add\":[[3,8]],\"swap\":true}";
  response = routes->Dispatch(request);
  ASSERT_EQ(response.status, 200) << response.body;
  doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("swapped")->bool_value());
}

// Update-size admission control: oversized edge batches get 413.
TEST(ServeMultiGraph, OversizedUpdateRejected413) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.max_update_edges = 4;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", graph, options.query).ok());

  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/graphs/default/edges";
  request.body = "{\"add\":[[0,1],[0,2],[0,3],[0,4],[0,5]]}";
  EXPECT_EQ(routes->Dispatch(request).status, 413);
  request.body = "{\"add\":[[0,1],[0,2],[0,3],[0,4]]}";
  EXPECT_EQ(routes->Dispatch(request).status, 200);
}

// ---------------------------------------------------------------------------
// Per-tenant engine options and the per-request ε override.
// ---------------------------------------------------------------------------

// The bounded per-request "epsilon" override: runs through a fresh
// core on the leased generation, matches a direct QueryRunner built
// with that ε, and leaves the tenant's pooled hot path bit-identical.
TEST(ServeSmoke, PerRequestEpsilonOverride) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  SimPushOptions override_options = FastOptions();
  override_options.epsilon = 0.25;

  // Pooled baseline before any override traffic.
  const std::vector<double> baseline = fixture.DirectScores(3);
  EXPECT_EQ(ScoresFromBody(client.Post("/v1/query", "{\"node\": 3}")->body),
            baseline);

  // Override query: scores match a direct runner with ε = 0.25, and
  // the response reports the ε that actually ran.
  auto response =
      client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  EXPECT_EQ(ScoresFromBody(response->body),
            DirectScoresWith(fixture.graph(), override_options, 3));
  {
    auto doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("epsilon")->number_value(), 0.25);
  }

  // The override must actually change the answer (otherwise this test
  // proves nothing) and must NOT perturb the tenant's pooled hot path.
  EXPECT_NE(ScoresFromBody(response->body), baseline);
  EXPECT_EQ(ScoresFromBody(client.Post("/v1/query", "{\"node\": 3}")->body),
            baseline);

  // /v1/topk honors the same override.
  auto topk = client.Post("/v1/topk",
                          "{\"node\": 5, \"k\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->status, 200) << topk->body;
  {
    EngineCore core(fixture.graph(), override_options);
    QueryWorkspace workspace;
    QueryRunner runner(core, &workspace);
    auto direct = QueryTopK(&runner, 5, 3);
    ASSERT_TRUE(direct.ok());
    auto doc = ParseJson(topk->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("epsilon")->number_value(), 0.25);
    const JsonValue* top = doc->Find("top");
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->array_items().size(), direct->entries.size());
    for (size_t i = 0; i < direct->entries.size(); ++i) {
      EXPECT_EQ(top->array_items()[i].Find("node")->AsIndex().value(),
                direct->entries[i].node);
      EXPECT_EQ(top->array_items()[i].Find("score")->number_value(),
                direct->entries[i].score);
    }
  }
}

// Override validation at the HTTP boundary: non-numbers, out-of-range
// values and sub-floor values are 400s that name the field — never a
// query that runs with a garbage ε.
TEST(ServeSmoke, EpsilonOverrideValidation) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  for (const char* body : {
           "{\"node\": 3, \"epsilon\": \"small\"}",
           "{\"node\": 3, \"epsilon\": 0}",
           "{\"node\": 3, \"epsilon\": -0.1}",
           "{\"node\": 3, \"epsilon\": 1}",
           "{\"node\": 3, \"epsilon\": 1.5}",
           "{\"node\": 3, \"epsilon\": null}",
           "{\"node\": 3, \"epsilon\": 0.0001}",  // Below the 1e-3 floor.
       }) {
    auto response = client.Post("/v1/query", body);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << body << " -> " << response->body;
    EXPECT_NE(response->body.find("epsilon"), std::string::npos)
        << "error must name the field: " << response->body;
    EXPECT_EQ(client.Post("/v1/topk", body)->status, 400);
  }
  // The service still serves afterwards.
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 3}")->status, 200);
}

// ε-override traffic leases the tenant's pooled workspaces like any
// other query: concurrent overrides never create more than
// pool_capacity workspaces, every lease comes back, and a warm override
// request allocates only its request/response bytes, not O(n) scratch.
TEST(ServeSmoke, EpsilonOverrideLeasesFromBoundedPool) {
  auto graph = GenerateChungLu(20000, 160000, 2.4, 11);
  ASSERT_TRUE(graph.ok());
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.pool_capacity = 2;
  options.cache_bytes = 0;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", *graph, options.query).ok());
  SimPushOptions override_options = FastOptions();
  override_options.epsilon = 0.05;

  const auto override_request = [](NodeId node) {
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/query";
    request.body = "{\"node\": " + std::to_string(node) +
                   ", \"epsilon\": 0.05, \"top_k\": 10}";
    return request;
  };

  // Four clients against a pool of two.
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (NodeId t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (NodeId i = 0; i < 3; ++i) {
        const HttpResponse response =
            routes->Dispatch(override_request(t * 5 + i));
        if (response.status == 200) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok.load(), 12);
  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->pool_created, 1u) << "override bypassed the pool";
  EXPECT_LE(stats->pool_created, 2u);
  EXPECT_EQ(stats->pool_outstanding, 0u);

  // Warm override requests allocate request/response bytes only.
  const HttpRequest request = override_request(17);
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_EQ(routes->Dispatch(request).status, 200);
  }
  constexpr int kMeasured = 5;
  const AllocationStats before = GetAllocationStats();
  for (int i = 0; i < kMeasured; ++i) {
    ASSERT_EQ(routes->Dispatch(request).status, 200);
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_LT((after.bytes_allocated - before.bytes_allocated) / kMeasured,
            64u * 1024u)
      << "a warm override request allocated O(n) scratch";

  // The pooled override scores equal a direct runner built with its ε.
  HttpRequest full = request;
  full.body = "{\"node\": 17, \"epsilon\": 0.05}";
  const HttpResponse response = routes->Dispatch(full);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(ScoresFromBody(response.body),
            DirectScoresWith(*graph, override_options, 17));
}

// Per-tenant options end to end: create tenants with an "options"
// object, observe distinct-ε answers, per-tenant stats, and options
// surviving a hot swap.
TEST(ServeMultiGraph, PerTenantOptionsEndToEnd) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Two tenants, same graph (the 10-node fixture, whose cross scores
  // are nonzero and ε-sensitive — a plain ring's are all zero): one
  // with its own ε and seed, one inheriting the process defaults.
  const char* kFixtureEdges =
      "[[1,0],[2,0],[3,0],[4,1],[5,1],[5,2],[6,2],[6,3],[7,4],[8,4],"
      "[8,5],[9,5],[9,6],[0,7],[2,9],[1,8]]";
  auto created = client.Post(
      "/v1/graphs",
      std::string("{\"name\":\"coarse\",\"nodes\":10,\"edges\":") +
          kFixtureEdges +
          ",\"options\":{\"epsilon\":0.4,\"seed\":7}}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  {
    auto doc = ParseJson(created->body);
    ASSERT_TRUE(doc.ok());
    const JsonValue* options = doc->Find("options");
    ASSERT_NE(options, nullptr) << created->body;
    EXPECT_EQ(options->Find("epsilon")->number_value(), 0.4);
    EXPECT_EQ(options->Find("seed")->AsIndex().value(), 7u);
    // Unspecified fields inherit the process defaults.
    EXPECT_EQ(options->Find("decay")->number_value(), FastOptions().decay);
  }
  ASSERT_EQ(client
                .Post("/v1/graphs",
                      std::string(
                          "{\"name\":\"plain\",\"nodes\":10,\"edges\":") +
                          kFixtureEdges + "}")
                ->status,
            201);

  SimPushOptions coarse_options = FastOptions();
  coarse_options.epsilon = 0.4;
  coarse_options.seed = 7;
  const Graph& reference = fixture.graph();  // Same edges, same builder.

  // Each tenant answers with its own configuration, bit-identical to a
  // direct engine with those options; over a few probe nodes the two
  // configurations must disagree somewhere.
  std::string coarse_body;
  bool any_difference = false;
  for (const NodeId u : {NodeId{1}, NodeId{3}, NodeId{7}}) {
    const std::string request =
        "{\"node\": " + std::to_string(u) + ", \"graph\": \"";
    auto coarse = client.Post("/v1/query", request + "coarse\"}");
    auto plain = client.Post("/v1/query", request + "plain\"}");
    ASSERT_TRUE(coarse.ok());
    ASSERT_TRUE(plain.ok());
    ASSERT_EQ(coarse->status, 200) << coarse->body;
    ASSERT_EQ(plain->status, 200) << plain->body;
    EXPECT_EQ(ScoresFromBody(coarse->body),
              DirectScoresWith(reference, coarse_options, u));
    EXPECT_EQ(ScoresFromBody(plain->body), DirectScoresOn(reference, u));
    if (ScoresFromBody(coarse->body) != ScoresFromBody(plain->body)) {
      any_difference = true;
    }
    EXPECT_EQ(ParseJson(coarse->body)->Find("epsilon")->number_value(), 0.4);
    EXPECT_EQ(ParseJson(plain->body)->Find("epsilon")->number_value(),
              FastOptions().epsilon);
    if (u == 3) {
      coarse_body = coarse->body;
    }
  }
  EXPECT_TRUE(any_difference)
      << "distinct per-tenant ε must change some answer";

  // /v1/stats: each tenant section reports its own effective options
  // and the generation they took effect in.
  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto stats_doc = ParseJson(stats->body);
  ASSERT_TRUE(stats_doc.ok()) << stats->body;
  const JsonValue* graphs = stats_doc->Find("graphs");
  ASSERT_NE(graphs, nullptr);
  const JsonValue* coarse_section = graphs->Find("coarse");
  const JsonValue* plain_section = graphs->Find("plain");
  ASSERT_NE(coarse_section, nullptr);
  ASSERT_NE(plain_section, nullptr);
  EXPECT_EQ(coarse_section->Find("options")->Find("epsilon")->number_value(),
            0.4);
  EXPECT_EQ(coarse_section->Find("options")->Find("seed")->AsIndex().value(),
            7u);
  EXPECT_EQ(coarse_section->Find("options_generation")->AsIndex().value(),
            coarse_section->Find("generation")->AsIndex().value());
  EXPECT_EQ(plain_section->Find("options")->Find("epsilon")->number_value(),
            FastOptions().epsilon);

  // A hot swap preserves the tenant's options: same bits after a
  // no-update swap (new generation, same canonical graph, same ε/seed).
  auto swapped = client.Post("/v1/graphs/coarse/swap", "");
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(swapped->status, 200) << swapped->body;
  auto after = client.Post("/v1/query", "{\"node\": 3, \"graph\": \"coarse\"}");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->status, 200) << after->body;
  EXPECT_GT(ParseJson(after->body)->Find("generation")->AsIndex().value(),
            ParseJson(coarse_body)->Find("generation")->AsIndex().value());
  EXPECT_EQ(ScoresFromBody(after->body), ScoresFromBody(coarse_body));
}

// Option-validation gaps at the HTTP boundary: every malformed
// "options" payload is a 400 naming the offending field, and nothing
// is registered.
TEST(ServeMultiGraph, InvalidOptionsRejected400) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  const std::pair<const char*, const char*> kCases[] = {
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":0}}",
       "epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":1.5}}",
       "epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":\"tiny\"}}",
       "epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"decay\":-0.5}}",
       "decay"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"delta\":2}}",
       "delta"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"seed\":-1}}",
       "seed"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"eps\":0.1}}",
       "unknown option"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":3}",
       "options"},
      // Network-supplied cost bounds: a tiny tenant ε or an uncapped
      // walk budget would let any client buy arbitrarily expensive
      // queries through a cheap create call.
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":0.0001}}",
       "min_request_epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"walk_budget_cap\":0}}",
       "walk_budget_cap"},
      // A huge positive cap is arithmetically the same as uncapped;
      // clients may only lower the cap below the server default
      // (FastOptions sets 20000).
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"walk_budget_cap\":9007199254740991}}",
       "walk_budget_cap"},
      // decay → 1 makes walk length diverge and the walk cap does not
      // bound it; clients may not raise decay above the default (0.6).
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"decay\":0.9999999}}",
       "decay"},
      // num_walks grows with log(1/δ); clients may not lower delta
      // below the default (1e-4).
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"delta\":1e-12}}",
       "delta"},
  };
  for (const auto& [body, field] : kCases) {
    auto response = client.Post("/v1/graphs", body);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << body << " -> " << response->body;
    EXPECT_NE(response->body.find(field), std::string::npos)
        << "error must name \"" << field << "\": " << response->body;
  }
  // Nothing got registered, and the service is intact.
  EXPECT_EQ(client.Get("/v1/graphs/bad")->status, 404);
  EXPECT_EQ(client.Get("/healthz")->status, 200);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1}")->status, 200);
}

// A rejected AddGraph returns its error to the caller and registers
// nothing: queries on the name 404 while the liveness probe stays 200,
// and a later valid AddGraph serves. Exercised through the route
// table.
TEST(ServeStartup, RejectedAddGraphRegistersNothing) {
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);

  SimPushOptions bad = FastOptions();
  bad.epsilon = std::nan("");  // NaN must not pass validation.
  const Status added =
      service.AddGraph("default", testing_util::MakeFixtureGraph(), bad);
  EXPECT_EQ(added.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(added.message(), "epsilon must be in (0,1)");
  EXPECT_TRUE(service.registry().Names().empty());

  HttpRequest query;
  query.method = "POST";
  query.target = "/v1/query";
  query.body = "{\"node\": 3}";
  EXPECT_EQ(routes->Dispatch(query).status, 404);
  HttpRequest health;
  health.method = "GET";
  health.target = "/healthz";
  EXPECT_EQ(routes->Dispatch(health).status, 200);

  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            FastOptions())
                  .ok());
  const HttpResponse served = routes->Dispatch(query);
  EXPECT_EQ(served.status, 200) << served.body;
}

// The serve hot path — lease a pooled workspace, QueryInto reused
// buffers, return the lease — performs zero heap allocations once
// workspace and result are warm. Guarded by the counting operator
// new/delete in simpush_alloc_hook, which this test binary links.
TEST(ServeZeroAlloc, QueryPathSteadyState) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", graph, options.query).ok());

  SimPushResult result;
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(service.RunQuery("default", 3, &result).ok());
  }
  const AllocationStats before = GetAllocationStats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.RunQuery("default", 3, &result).ok());
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state serve query path allocated";
}

// Golden responses: the exact status and body of every query and admin
// endpoint shape, minus the timing fields, recorded on a fresh service
// in a fixed order (the cache stamps, generations and counters depend
// on it). Any refactor of the request pipeline must leave these bytes
// unchanged. A GET /v1/stats row pins only the "requests" counter
// object, which its body must contain.
struct GoldenExchange {
  const char* method;
  const char* target;
  const char* request;
  int status;
  const char* body;
};

constexpr GoldenExchange kGoldenExchanges[] = {
    // /v1/query: full vector, cached repeat, top_k, with_stats, an ε
    // override and its cached repeat, an override equal to the tenant ε.
    {"POST", "/v1/query", R"g({"node": 3})g", 200,
     R"g({"node":3,"graph":"default","generation":1,"epsilon":0.1,"scores":[0,0.11506539366070312,0.4023915120553125,1,0.05878707812718752,0,0,0,0,0]})g"},
    {"POST", "/v1/query", R"g({"node": 3})g", 200,
     R"g({"node":3,"graph":"default","generation":1,"epsilon":0.1,"cached":true,"scores":[0,0.11506539366070312,0.4023915120553125,1,0.05878707812718752,0,0,0,0,0]})g"},
    {"POST", "/v1/query", R"g({"node": 5, "top_k": 3})g", 200,
     R"g({"node":5,"graph":"default","generation":1,"epsilon":0.1,"top":[{"node":6,"score":0.3415175079178125},{"node":7,"score":0.17848684297888504},{"node":4,"score":0.17054208652754627}]})g"},
    {"POST", "/v1/query", R"g({"node": 6, "with_stats": true})g", 200,
     R"g({"node":6,"graph":"default","generation":1,"epsilon":0.1,"scores":[0.003356619910312501,0,0,0,0.04183632570234376,0.34172560028437504,1,0.19608816486000005,0.010069859730937504,0],"stats":{"max_level":16,"num_attention":28,"walks_sampled":12649,"reverse_pushes":43,"total_ms":0}})g"},
    {"POST", "/v1/query", R"g({"node": 3, "epsilon": 0.2})g", 200,
     R"g({"node":3,"graph":"default","generation":1,"epsilon":0.2,"scores":[0,0.115171529625,0.4025857648125001,1,0.05887891777500001,0,0,0,0,0]})g"},
    {"POST", "/v1/query", R"g({"node": 3, "epsilon": 0.2, "top_k": 2})g", 200,
     R"g({"node":3,"graph":"default","generation":1,"epsilon":0.2,"cached":true,"top":[{"node":2,"score":0.4025857648125001},{"node":1,"score":0.115171529625}]})g"},
    {"POST", "/v1/query", R"g({"node": 8, "top_k": 4, "with_stats": true, "epsilon": 0.1})g", 200,
     R"g({"node":8,"graph":"default","generation":1,"epsilon":0.1,"top":[{"node":0,"score":0.269405439828575},{"node":9,"score":0.13974207557343754},{"node":1,"score":0.011655032565937504},{"node":6,"score":0.010926011737800006}],"stats":{"max_level":15,"num_attention":41,"walks_sampled":12649,"reverse_pushes":57,"total_ms":0}})g"},
    // /v1/topk: a cache hit (node 5 above) and a computed k.
    {"POST", "/v1/topk", R"g({"node": 5})g", 200,
     R"g({"node":5,"graph":"default","generation":1,"epsilon":0.1,"cached":true,"k":10,"top":[{"node":6,"score":0.3415175079178125},{"node":7,"score":0.17848684297888504},{"node":4,"score":0.17054208652754627}]})g"},
    {"POST", "/v1/topk", R"g({"node": 7, "k": 2})g", 200,
     R"g({"node":7,"graph":"default","generation":1,"epsilon":0.1,"k":2,"top":[{"node":6,"score":0.195847577090625},{"node":5,"score":0.178617090978885}]})g"},
    // /v1/batch with duplicate nodes.
    {"POST", "/v1/batch", R"g({"nodes": [0, 4, 0, 9, 4], "k": 2})g", 200,
     R"g({"graph":"default","generation":1,"k":2,"wall_ms":0,"nodes":5,"unique_nodes":3,"results":[{"node":0,"top":[{"node":9,"score":0.32672154086750005},{"node":8,"score":0.26891689344949626}]},{"node":4,"top":[{"node":5,"score":0.17209659154278753},{"node":7,"score":0.08142847131952502}]},{"node":0,"top":[{"node":9,"score":0.32672154086750005},{"node":8,"score":0.26891689344949626}]},{"node":9,"top":[{"node":0,"score":0.3267214363015625},{"node":8,"score":0.1393927635480469}]},{"node":4,"top":[{"node":5,"score":0.17209659154278753},{"node":7,"score":0.08142847131952502}]}]})g"},
    // /v1/query errors, including precedence: a malformed node beats an
    // unknown graph, an unknown graph beats an out-of-range node, the
    // range check beats the deadline and the deadline beats ε.
    {"POST", "/v1/query", R"g({not json)g", 400,
     R"g({"error":"JSON parse error at byte 1: expected object key string"})g"},
    {"POST", "/v1/query", R"g([1, 2])g", 400,
     R"g({"error":"request body must be a JSON object"})g"},
    {"POST", "/v1/query", R"g({})g", 400,
     R"g({"error":"missing \"node\" field"})g"},
    {"POST", "/v1/query", R"g({"node": -1})g", 400,
     R"g({"error":"\"node\": expected a non-negative integer"})g"},
    {"POST", "/v1/query", R"g({"node": 4294967301})g", 400,
     R"g({"error":"node 4294967301 out of range [0, 10)"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "top_k": "x"})g", 400,
     R"g({"error":"\"top_k\": expected a number"})g"},
    {"POST", "/v1/query", R"g({"node": "x", "top_k": -1})g", 400,
     R"g({"error":"\"node\": expected a number"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "graph": 7})g", 400,
     R"g({"error":"\"graph\" must be a string"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "graph": "nope"})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    {"POST", "/v1/query", R"g({"node": 99, "graph": "nope"})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    {"POST", "/v1/query", R"g({"node": -1, "graph": "nope"})g", 400,
     R"g({"error":"\"node\": expected a non-negative integer"})g"},
    {"POST", "/v1/query", R"g({"node": 10})g", 400,
     R"g({"error":"node 10 out of range [0, 10)"})g"},
    {"POST", "/v1/query", R"g({"node": 10, "deadline_ms": 0})g", 400,
     R"g({"error":"node 10 out of range [0, 10)"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "deadline_ms": 0})g", 400,
     R"g({"error":"\"deadline_ms\" must be in [1, 60000]"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "deadline_ms": "x"})g", 400,
     R"g({"error":"\"deadline_ms\": expected a number"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "deadline_ms": 0, "epsilon": 2})g", 400,
     R"g({"error":"\"deadline_ms\" must be in [1, 60000]"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "epsilon": 2})g", 400,
     R"g({"error":"\"epsilon\" must be in (0,1)"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "epsilon": 0.0001})g", 400,
     R"g({"error":"\"epsilon\" below the server's floor (min_request_epsilon=0.001)"})g"},
    {"POST", "/v1/query", R"g({"node": 1, "epsilon": "x"})g", 400,
     R"g({"error":"\"epsilon\": expected a number"})g"},
    // /v1/topk errors.
    {"POST", "/v1/topk", R"g({not json)g", 400,
     R"g({"error":"JSON parse error at byte 1: expected object key string"})g"},
    {"POST", "/v1/topk", R"g([1])g", 400,
     R"g({"error":"request body must be a JSON object"})g"},
    {"POST", "/v1/topk", R"g({})g", 400,
     R"g({"error":"missing \"node\" field"})g"},
    {"POST", "/v1/topk", R"g({"node": 1, "k": -2})g", 400,
     R"g({"error":"\"k\": expected a non-negative integer"})g"},
    {"POST", "/v1/topk", R"g({"node": -1, "k": -2})g", 400,
     R"g({"error":"\"node\": expected a non-negative integer"})g"},
    {"POST", "/v1/topk", R"g({"node": 1, "graph": "nope"})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    {"POST", "/v1/topk", R"g({"node": 99, "graph": "nope"})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    {"POST", "/v1/topk", R"g({"node": 10})g", 400,
     R"g({"error":"node 10 out of range [0, 10)"})g"},
    {"POST", "/v1/topk", R"g({"node": 1, "deadline_ms": 999999})g", 400,
     R"g({"error":"\"deadline_ms\" must be in [1, 60000]"})g"},
    {"POST", "/v1/topk", R"g({"node": 1, "epsilon": 0})g", 400,
     R"g({"error":"\"epsilon\" must be in (0,1)"})g"},
    // /v1/batch errors: the 413 beats a bad k, a bad k beats an unknown
    // graph, an unknown graph beats bad node entries.
    {"POST", "/v1/batch", R"g({not json)g", 400,
     R"g({"error":"JSON parse error at byte 1: expected object key string"})g"},
    {"POST", "/v1/batch", R"g([])g", 400,
     R"g({"error":"request body must be a JSON object"})g"},
    {"POST", "/v1/batch", R"g({})g", 400,
     R"g({"error":"missing \"nodes\" array"})g"},
    {"POST", "/v1/batch", R"g({"nodes": 3})g", 400,
     R"g({"error":"missing \"nodes\" array"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0, 1, 2, 3, 4, 5, 6, 7, 8]})g", 413,
     R"g({"error":"batch exceeds max_batch_nodes (8)"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0, 1, 2, 3, 4, 5, 6, 7, 8], "k": -1})g", 413,
     R"g({"error":"batch exceeds max_batch_nodes (8)"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0], "k": "x"})g", 400,
     R"g({"error":"\"k\": expected a number"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0], "k": -1, "graph": "nope"})g", 400,
     R"g({"error":"\"k\": expected a non-negative integer"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0], "graph": 7})g", 400,
     R"g({"error":"\"graph\" must be a string"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0], "graph": "nope"})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0, 99], "graph": "nope"})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0, 99]})g", 400,
     R"g({"error":"\"nodes\" entries must be node ids in [0, 10)"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0, -1]})g", 400,
     R"g({"error":"\"nodes\" entries must be node ids in [0, 10)"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0, 99], "deadline_ms": 0})g", 400,
     R"g({"error":"\"nodes\" entries must be node ids in [0, 10)"})g"},
    {"POST", "/v1/batch", R"g({"nodes": [0], "deadline_ms": 0})g", 400,
     R"g({"error":"\"deadline_ms\" must be in [1, 60000]"})g"},
    // The per-endpoint counters the query exchanges above leave behind.
    {"GET", "/v1/stats", "", 200,
     R"g("requests":{"query":7,"topk":2,"batch":1,"admin":0,"bad":44,"deadline_expired":0,"client_abandoned":0,"nodes_scored":14})g"},
    {"GET", "/healthz", "", 200,
     R"g({"status":"ok"})g"},
    // POST /v1/graphs: inline creates (one with tenant options), then every
    // rejection. The 413 beats bad edges, bad options beat the 403, a taken
    // name beats the graph limit (max_graphs 3).
    {"POST", "/v1/graphs", R"g({"name": "ring", "nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})g", 201,
     R"g({"graph":"ring","generation":2,"nodes":4,"edges":4,"options":{"epsilon":0.1,"decay":0.6,"delta":1e-04,"seed":42,"walk_budget_cap":20000}})g"},
    {"POST", "/v1/graphs", R"g({"name": "tiny", "nodes": 3, "edges": [[0, 1], [1, 2]], "options": {"epsilon": 0.2, "seed": 7}})g", 201,
     R"g({"graph":"tiny","generation":3,"nodes":3,"edges":2,"options":{"epsilon":0.2,"decay":0.6,"delta":1e-04,"seed":7,"walk_budget_cap":20000}})g"},
    {"POST", "/v1/graphs", R"g({oops)g", 400,
     R"g({"error":"JSON parse error at byte 1: expected object key string"})g"},
    {"POST", "/v1/graphs", R"g([])g", 400,
     R"g({"error":"request body must be a JSON object"})g"},
    {"POST", "/v1/graphs", R"g({"nodes": 2, "edges": []})g", 400,
     R"g({"error":"missing \"name\" string field"})g"},
    {"POST", "/v1/graphs", R"g({"name": 5, "nodes": 2, "edges": []})g", 400,
     R"g({"error":"missing \"name\" string field"})g"},
    {"POST", "/v1/graphs", R"g({"name": "bad name", "nodes": 2, "edges": []})g", 400,
     R"g({"error":"graph name must be 1-64 chars of [A-Za-z0-9._-]"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "options": {"walk_cap": 5}})g", 400,
     R"g({"error":"unknown option \"walk_cap\" (expected epsilon|decay|delta|seed|walk_budget_cap)"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "options": {"epsilon": 0.0001}})g", 400,
     R"g({"error":"\"options.epsilon\" below the server's floor (min_request_epsilon=0.001)"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x"})g", 400,
     R"g({"error":"InvalidArgument: provide either \"path\" (edge list or .spg) or \"nodes\"+\"edges\""})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "edges": []})g", 400,
     R"g({"error":"inline graphs need a \"nodes\" count"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "nodes": 2, "edges": [[0]]})g", 400,
     R"g({"error":"edge list entries must be [src,dst] pairs"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "nodes": 2, "edges": [[0, 5]]})g", 400,
     R"g({"error":"InvalidArgument: edge endpoint out of range: 0->5 with n=2"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "path": "graphs/web.txt"})g", 403,
     R"g({"error":"path-based graph creation is disabled (start with --allow-path-create 1, or send inline edges)"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "path": "graphs/web.txt", "options": {"epsilon": "x"}})g", 400,
     R"g({"error":"\"options.epsilon\": expected a number"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "nodes": 1048577, "edges": []})g", 413,
     R"g({"error":"inline graph exceeds max_inline_nodes (1048576); load large graphs via \"path\""})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "nodes": 1048577, "edges": [[0]]})g", 413,
     R"g({"error":"inline graph exceeds max_inline_nodes (1048576); load large graphs via \"path\""})g"},
    {"POST", "/v1/graphs", R"g({"name": "ring", "nodes": 2, "edges": []})g", 409,
     R"g({"error":"graph \"ring\" already exists"})g"},
    {"POST", "/v1/graphs", R"g({"name": "third", "nodes": 2, "edges": []})g", 409,
     R"g({"error":"graph limit reached (3)"})g"},
    // GET /v1/graphs and GET /v1/graphs/{name}; the name check comes first.
    {"GET", "/v1/graphs", "", 200,
     R"g({"graphs":[{"name":"default","generation":1,"nodes":10,"edges":16,"pending_updates":0,"swap_count":1},{"name":"ring","generation":2,"nodes":4,"edges":4,"pending_updates":0,"swap_count":1},{"name":"tiny","generation":3,"nodes":3,"edges":2,"pending_updates":0,"swap_count":1}],"default_graph":"default"})g"},
    {"GET", "/v1/graphs/ring", "", 200,
     R"g({"graph":"ring","stats":{"generation":2,"options":{"epsilon":0.1,"decay":0.6,"delta":1e-04,"seed":42,"walk_budget_cap":20000},"options_generation":2,"swap_count":1,"delta_swaps":0,"last_swap_ms":0,"dirty_vertices":0,"pending_updates":0,"updates_applied":0,"nodes":4,"edges":4,"master_edges":4,"cache":{"enabled":true,"budget_bytes":67108864,"bytes":0,"entries":0,"hits":0,"misses":0,"inserts":0,"evictions":0,"admission_rejects":0,"insert_failures":0},"requests":0,"nodes_scored":0,"deadline_expired":0,"client_abandoned":0,"latency_ms":{"samples":0,"p50":0,"p90":0,"p99":0,"max":0}}})g"},
    {"GET", "/v1/graphs/nope", "", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    {"GET", "/v1/graphs/bad!name", "", 400,
     R"g({"error":"graph name must be 1-64 chars of [A-Za-z0-9._-]"})g"},
    // /edges: add, remove, an explicit swap, then the rejections
    // (max_update_edges 4).
    {"POST", "/v1/graphs/ring/edges", R"g({"add": [[0, 2]]})g", 200,
     R"g({"graph":"ring","applied":1,"pending":1,"swapped":false,"generation":2})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({"remove": [[3, 0]], "trace_id": "t-1"})g", 200,
     R"g({"graph":"ring","applied":1,"pending":2,"swapped":false,"generation":2})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({"add": [[2, 0]], "swap": true})g", 200,
     R"g({"graph":"ring","applied":1,"pending":0,"swapped":true,"generation":6})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({"add": [[1, 3]], "swap": false})g", 200,
     R"g({"graph":"ring","applied":1,"pending":1,"swapped":false,"generation":6})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({})g", 400,
     R"g({"error":"provide \"add\" and/or \"remove\" [src,dst] lists"})g"},
    {"POST", "/v1/graphs/ring/edges", "", 400,
     R"g({"error":"JSON parse error at byte 0: unexpected end of input"})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({"remove": [[0, 3]]})g", 400,
     R"g({"error":"batch rejected: update 0 rejected (no updates applied): edge not present"})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({"add": [[0]]})g", 400,
     R"g({"error":"edge list entries must be [src,dst] pairs"})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({"add": [[0, 1], [0, 2], [0, 3]], "remove": [[1, 2], [2, 3]]})g", 413,
     R"g({"error":"update exceeds max_update_edges (4)"})g"},
    {"POST", "/v1/graphs/nope/edges", R"g({"add": [[0, 1]]})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    // /swap publishes a new generation, pending updates or not.
    {"POST", "/v1/graphs/ring/swap", "", 200,
     R"g({"graph":"ring","applied":0,"pending":0,"swapped":true,"generation":7})g"},
    {"POST", "/v1/graphs/ring/swap", "", 200,
     R"g({"graph":"ring","applied":0,"pending":0,"swapped":true,"generation":8})g"},
    {"POST", "/v1/graphs/nope/swap", "", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    // PATCH /options replaces the tenant options.
    {"PATCH", "/v1/graphs/tiny/options", R"g({"options": {"epsilon": 0.3}})g", 200,
     R"g({"graph":"tiny","options":{"epsilon":0.3,"decay":0.6,"delta":1e-04,"seed":42,"walk_budget_cap":20000},"swapped":true,"pending":0,"generation":9})g"},
    {"PATCH", "/v1/graphs/tiny/options", R"g({})g", 400,
     R"g({"error":"missing \"options\" object"})g"},
    {"PATCH", "/v1/graphs/tiny/options", R"g({"options": {"decay": 0.9}})g", 400,
     R"g({"error":"\"options.decay\" above the server default (0.6); raising the decay is operator-only"})g"},
    {"PATCH", "/v1/graphs/tiny/options", R"g([1])g", 400,
     R"g({"error":"request body must be a JSON object"})g"},
    {"PATCH", "/v1/graphs/nope/options", R"g({"options": {"epsilon": 0.3}})g", 404,
     R"g({"error":"no graph named \"nope\""})g"},
    // Unknown operations and wrong methods; a bad name beats both.
    {"POST", "/v1/graphs/ring/frob", R"g({})g", 404,
     R"g({"error":"unknown graph operation \"frob\" (expected edges|swap|options)"})g"},
    {"GET", "/v1/graphs/ring/edges", "", 405,
     R"g({"error":"method not allowed"})g"},
    {"GET", "/v1/graphs/ring/swap", "", 405,
     R"g({"error":"method not allowed"})g"},
    {"POST", "/v1/graphs/ring/options", R"g({})g", 405,
     R"g({"error":"method not allowed"})g"},
    {"PATCH", "/v1/graphs/ring", "", 405,
     R"g({"error":"method not allowed"})g"},
    {"POST", "/v1/graphs/bad!name/frob", R"g({})g", 400,
     R"g({"error":"graph name must be 1-64 chars of [A-Za-z0-9._-]"})g"},
    // DELETE /v1/graphs/{name}: 200, then 404 for the gone tenant.
    {"DELETE", "/v1/graphs/tiny", "", 200,
     R"g({"graph":"tiny","deleted":true})g"},
    {"DELETE", "/v1/graphs/tiny", "", 404,
     R"g({"error":"no graph named \"tiny\""})g"},
    {"GET", "/v1/graphs/tiny", "", 404,
     R"g({"error":"no graph named \"tiny\""})g"},
    // The counters the admin exchanges above leave behind.
    {"GET", "/v1/stats", "", 200,
     R"g("requests":{"query":7,"topk":2,"batch":1,"admin":50,"bad":82,"deadline_expired":0,"client_abandoned":0,"nodes_scored":14})g"},
    // Flags must be JSON booleans: a mistyped flag is a 400 naming it,
    // never a silent false (the "swap" row's edges are not applied).
    {"POST", "/v1/query", R"g({"node": 3, "with_stats": "true"})g", 400,
     R"g({"error":"\"with_stats\": expected a boolean"})g"},
    {"POST", "/v1/graphs", R"g({"name": "x", "path": "graphs/web.txt", "undirected": "yes"})g", 400,
     R"g({"error":"\"undirected\": expected a boolean"})g"},
    {"POST", "/v1/graphs/ring/edges", R"g({"add": [[0, 1]], "swap": "true"})g", 400,
     R"g({"error":"\"swap\": expected a boolean"})g"},
    {"GET", "/v1/graphs/ring", "", 200,
     R"g({"graph":"ring","stats":{"generation":8,"options":{"epsilon":0.1,"decay":0.6,"delta":1e-04,"seed":42,"walk_budget_cap":20000},"options_generation":2,"swap_count":4,"delta_swaps":3,"last_swap_ms":0,"dirty_vertices":0,"pending_updates":0,"updates_applied":4,"nodes":4,"edges":6,"master_edges":6,"cache":{"enabled":true,"budget_bytes":67108864,"bytes":0,"entries":0,"hits":0,"misses":0,"inserts":0,"evictions":0,"admission_rejects":0,"insert_failures":0},"requests":0,"nodes_scored":0,"deadline_expired":0,"client_abandoned":0,"latency_ms":{"samples":0,"p50":0,"p90":0,"p99":0,"max":0}}})g"},
    // A trailing slash names the same tenant.
    {"GET", "/v1/graphs/ring/", "", 200,
     R"g({"graph":"ring","stats":{"generation":8,"options":{"epsilon":0.1,"decay":0.6,"delta":1e-04,"seed":42,"walk_budget_cap":20000},"options_generation":2,"swap_count":4,"delta_swaps":3,"last_swap_ms":0,"dirty_vertices":0,"pending_updates":0,"updates_applied":4,"nodes":4,"edges":6,"master_edges":6,"cache":{"enabled":true,"budget_bytes":67108864,"bytes":0,"entries":0,"hits":0,"misses":0,"inserts":0,"evictions":0,"admission_rejects":0,"insert_failures":0},"requests":0,"nodes_scored":0,"deadline_expired":0,"client_abandoned":0,"latency_ms":{"samples":0,"p50":0,"p90":0,"p99":0,"max":0}}})g"},
};

TEST(ServeGolden, ResponseBytesArePinned) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.max_batch_nodes = 8;
  options.max_update_edges = 4;
  options.max_graphs = 3;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", graph, options.query).ok());
  const std::regex timing(
      "\"(total_ms|wall_ms|elapsed_ms|last_swap_ms)\":[-+0-9.eE]+");
  for (const GoldenExchange& exchange : kGoldenExchanges) {
    HttpRequest request;
    request.method = exchange.method;
    request.target = exchange.target;
    request.body = exchange.request;
    const HttpResponse response = routes->Dispatch(request);
    EXPECT_EQ(response.status, exchange.status)
        << exchange.method << " " << exchange.target << " "
        << exchange.request;
    if (request.target == "/v1/stats") {
      EXPECT_NE(response.body.find(exchange.body), std::string::npos)
          << response.body;
      continue;
    }
    EXPECT_EQ(std::regex_replace(response.body, timing, "\"$1\":0"),
              std::string(exchange.body) + "\n")
        << exchange.method << " " << exchange.target << " "
        << exchange.request;
  }
}

// What the server's router answers before any row runs: a wrong method
// on an exact route and on a {name} operation is a 405, an unknown path
// or operation a 404. A wrong method on an exact route never reaches
// its row; PUT has no prefix route, so the router answers it too, while
// GET reaches the row-picking prefix handler, which answers the same.
TEST(ServeRouting, WrongMethodsAndUnknownPaths) {
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            options.query)
                  .ok());
  const std::string kMethodNotAllowed =
      "{\"error\":\"method not allowed\"}\n";
  const struct {
    const char* method;
    const char* target;
    int status;
    std::string body;
  } kCases[] = {
      {"GET", "/v1/query", 405, kMethodNotAllowed},
      {"POST", "/v1/stats", 405, kMethodNotAllowed},
      {"DELETE", "/v1/graphs", 405, kMethodNotAllowed},
      {"GET", "/v2/query", 404, "{\"error\":\"not found\"}\n"},
      {"POST", "/v1/graphs/default/frob", 404,
       "{\"error\":\"unknown graph operation \\\"frob\\\" "
       "(expected edges|swap|options)\"}\n"},
      {"GET", "/v1/graphs/default/swap", 405, kMethodNotAllowed},
      {"PUT", "/v1/graphs/default/swap", 405, kMethodNotAllowed},
  };
  for (const auto& test_case : kCases) {
    HttpRequest request;
    request.method = test_case.method;
    request.target = test_case.target;
    request.body = "{}";
    const HttpResponse response = routes->Dispatch(request);
    EXPECT_EQ(response.status, test_case.status)
        << test_case.method << " " << test_case.target;
    EXPECT_EQ(response.body, test_case.body)
        << test_case.method << " " << test_case.target;
  }
}

// ---------------------------------------------------------------------------
// Generation-keyed result cache, end to end.
// ---------------------------------------------------------------------------

// Repeat query: the second response is served from the cache, stamped
// "cached": true, and — modulo that stamp — byte-identical to the
// computed response. Stats surface the hit.
TEST(ServeCache, CachedResponseIsByteIdenticalPlusStamp) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto first = client.Post("/v1/query", "{\"node\": 4}");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  EXPECT_EQ(first->body.find("\"cached\""), std::string::npos)
      << "first request computed, must not be stamped: " << first->body;

  auto second = client.Post("/v1/query", "{\"node\": 4}");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200) << second->body;
  std::string body = second->body;
  const std::string stamp = ",\"cached\":true";
  const size_t at = body.find(stamp);
  ASSERT_NE(at, std::string::npos) << body;
  body.erase(at, stamp.size());
  EXPECT_EQ(body, first->body)
      << "cached response must be byte-identical modulo the stamp";

  // /v1/topk serves from the same entry and stamps too.
  auto topk = client.Post("/v1/topk", "{\"node\": 4, \"k\": 3}");
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->status, 200) << topk->body;
  EXPECT_NE(topk->body.find("\"cached\":true"), std::string::npos)
      << topk->body;

  // The tenant stats section reports the hits.
  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = ParseJson(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;
  const JsonValue* cache =
      doc->Find("graphs")->Find("default")->Find("cache");
  ASSERT_NE(cache, nullptr) << stats->body;
  EXPECT_TRUE(cache->Find("enabled")->bool_value());
  EXPECT_GE(cache->Find("hits")->AsIndex().value(), 2u);
  EXPECT_GE(cache->Find("inserts")->AsIndex().value(), 1u);
  EXPECT_GE(cache->Find("entries")->AsIndex().value(), 1u);
  EXPECT_GT(cache->Find("bytes")->AsIndex().value(), 0u);
}

// The ε override participates in keying: an explicit ε equal to the
// tenant's canonicalizes to the tenant entry; a different ε keys its
// own entry and never contaminates the tenant's.
TEST(ServeCache, EpsilonOverrideKeysSeparately) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Warm the tenant-options entry for node 3.
  auto baseline = client.Post("/v1/query", "{\"node\": 3}");
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->status, 200) << baseline->body;
  const std::vector<double> base_scores = ScoresFromBody(baseline->body);

  // Explicit ε == tenant ε (FastOptions: 0.1) is the same key —
  // default-vs-explicit must hit the shared entry, not recompute.
  auto explicit_eps =
      client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.1}");
  ASSERT_TRUE(explicit_eps.ok());
  ASSERT_EQ(explicit_eps->status, 200) << explicit_eps->body;
  EXPECT_NE(explicit_eps->body.find("\"cached\":true"), std::string::npos)
      << explicit_eps->body;
  EXPECT_EQ(ScoresFromBody(explicit_eps->body), base_scores);

  // A different ε misses (computed), then hits its own entry.
  auto coarse1 = client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(coarse1.ok());
  ASSERT_EQ(coarse1->status, 200) << coarse1->body;
  EXPECT_EQ(coarse1->body.find("\"cached\""), std::string::npos)
      << coarse1->body;
  SimPushOptions coarse_options = FastOptions();
  coarse_options.epsilon = 0.25;
  EXPECT_EQ(ScoresFromBody(coarse1->body),
            DirectScoresWith(fixture.graph(), coarse_options, 3));

  auto coarse2 = client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(coarse2.ok());
  ASSERT_EQ(coarse2->status, 200) << coarse2->body;
  EXPECT_NE(coarse2->body.find("\"cached\":true"), std::string::npos)
      << coarse2->body;
  EXPECT_EQ(ScoresFromBody(coarse2->body), ScoresFromBody(coarse1->body));

  // The tenant entry is untouched by the override traffic.
  auto after = client.Post("/v1/query", "{\"node\": 3}");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->body.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(ScoresFromBody(after->body), base_scores);
}

// /v1/batch deduplicates repeated sources: N positions, M ≤ N distinct
// nodes scored, every position's entries bit-identical to the
// no-duplicate request.
TEST(ServeCache, BatchDeduplicatesRepeatedSources) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto deduped = client.Post("/v1/batch",
                             "{\"nodes\": [3, 5, 3, 3, 5, 7], \"k\": 3}");
  ASSERT_TRUE(deduped.ok());
  ASSERT_EQ(deduped->status, 200) << deduped->body;
  auto doc = ParseJson(deduped->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("nodes")->AsIndex().value(), 6u);
  EXPECT_EQ(doc->Find("unique_nodes")->AsIndex().value(), 3u);
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array_items().size(), 6u);

  const NodeId nodes[] = {3, 5, 3, 3, 5, 7};
  for (size_t i = 0; i < 6; ++i) {
    const JsonValue& result = results->array_items()[i];
    EXPECT_EQ(result.Find("node")->AsIndex().value(), nodes[i]) << i;
    const TopKResult direct = fixture.DirectTopK(nodes[i], 3);
    const JsonValue* top = result.Find("top");
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->array_items().size(), direct.entries.size()) << i;
    for (size_t j = 0; j < direct.entries.size(); ++j) {
      EXPECT_EQ(top->array_items()[j].Find("node")->AsIndex().value(),
                direct.entries[j].node)
          << "position " << i << " rank " << j;
      EXPECT_EQ(top->array_items()[j].Find("score")->number_value(),
                direct.entries[j].score)
          << "position " << i << " rank " << j;
    }
  }
}

// --cache-bytes 0: a zero budget disables caching — repeat
// queries recompute (never stamped) and stats say so.
TEST(ServeCache, DisabledCacheNeverStamps) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.cache_bytes = 0;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", graph, options.query).ok());

  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/query";
  request.body = "{\"node\": 3}";
  const HttpResponse first = routes->Dispatch(request);
  ASSERT_EQ(first.status, 200) << first.body;
  const HttpResponse second = routes->Dispatch(request);
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(second.body.find("\"cached\""), std::string::npos) << second.body;
  EXPECT_EQ(second.body, first.body);  // Still deterministic.

  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cache_budget_bytes, 0u);
  EXPECT_EQ(stats->cache_hits, 0u);
  EXPECT_EQ(stats->cache_inserts, 0u);
}

// The cache contract on a skewed stream: 1 000 sequential /v1/query
// requests whose sources are Zipf(1.1) over a Chung–Lu graph (n=2 000,
// m=16 000, γ=2.2, seed 7) at ε=0.05. The default budget holds every
// result, so each repeat of a source is a hit, the hit rate clears 0.6,
// and a hit runs no query: engine.walks_sampled does not move.
TEST(ServeCache, ZipfStreamHitsEveryRepeat) {
  auto graph = GenerateChungLu(2000, 16000, 2.2, /*seed=*/7);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const NodeId n = graph->num_nodes();
  ServiceOptions options;
  options.query.epsilon = 0.05;
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(
      service.AddGraph("default", *std::move(graph), options.query).ok());

  // cdf[r] = P(source <= r), unnormalized: source r has weight (r+1)^-1.1.
  std::vector<double> cdf(n);
  double total = 0;
  for (NodeId r = 0; r < n; ++r) {
    total += std::pow(r + 1.0, -1.1);
    cdf[r] = total;
  }
  HttpRequest stats_request;
  stats_request.method = "GET";
  stats_request.target = "/v1/stats";
  const auto walks_sampled = [&] {
    auto doc = ParseJson(routes->Dispatch(stats_request).body);
    return doc->Find("engine")->Find("walks_sampled")->AsIndex().value();
  };

  constexpr size_t kRequests = 1000;
  Rng rng(7);
  std::set<NodeId> sources;
  size_t cached = 0;
  uint64_t walks = walks_sampled();
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/query";
  for (size_t i = 0; i < kRequests; ++i) {
    const auto rank =
        std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble() * total);
    const NodeId source =
        std::min<NodeId>(n - 1, static_cast<NodeId>(rank - cdf.begin()));
    sources.insert(source);
    request.body =
        "{\"node\": " + std::to_string(source) + ", \"top_k\": 10}";
    const HttpResponse response = routes->Dispatch(request);
    ASSERT_EQ(response.status, 200) << response.body;
    const uint64_t walks_before = walks;
    walks = walks_sampled();
    if (response.body.find("\"cached\":true") != std::string::npos) {
      ++cached;
      EXPECT_EQ(walks, walks_before) << "a cache hit ran a query";
    }
  }

  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cache_hits, kRequests - sources.size());
  EXPECT_EQ(stats->cache_hits, cached);
  EXPECT_GE(static_cast<double>(stats->cache_hits) / kRequests, 0.6);
}

// Sparse entries: with a budget of 4 dense entries per shard, the same
// Zipf stream keeps more than 8 x 4 sources cached, within the budget,
// and every cached body equals an uncached service's body for the same
// request once the stamp is removed.
TEST(ServeCache, SparseEntriesStretchTheBudget) {
  auto graph = GenerateChungLu(2000, 16000, 2.2, /*seed=*/7);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const NodeId n = graph->num_nodes();
  ServiceOptions options;
  options.query.epsilon = 0.05;
  options.num_threads = 2;
  options.cache_bytes = 8 * 4 * ResultCache::EntryBytes(n);
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", *graph, options.query).ok());
  ServiceOptions uncached_options = options;
  uncached_options.cache_bytes = 0;
  SimPushService uncached(uncached_options);
  const auto uncached_routes = RoutesOf(&uncached);
  ASSERT_TRUE(
      uncached.AddGraph("default", *std::move(graph), options.query).ok());

  std::vector<double> cdf(n);
  double total = 0;
  for (NodeId r = 0; r < n; ++r) {
    total += std::pow(r + 1.0, -1.1);
    cdf[r] = total;
  }
  constexpr size_t kRequests = 1000;
  const std::string stamp = ",\"cached\":true";
  Rng rng(7);
  std::map<NodeId, std::string> uncached_bodies;
  size_t cached = 0;
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/query";
  for (size_t i = 0; i < kRequests; ++i) {
    const auto rank =
        std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble() * total);
    const NodeId source =
        std::min<NodeId>(n - 1, static_cast<NodeId>(rank - cdf.begin()));
    request.body =
        "{\"node\": " + std::to_string(source) + ", \"top_k\": 10}";
    const HttpResponse response = routes->Dispatch(request);
    ASSERT_EQ(response.status, 200) << response.body;
    const size_t at = response.body.find(stamp);
    if (at == std::string::npos) continue;
    ++cached;
    auto [it, fresh] = uncached_bodies.try_emplace(source);
    if (fresh) {
      const HttpResponse computed = uncached_routes->Dispatch(request);
      ASSERT_EQ(computed.status, 200) << computed.body;
      it->second = computed.body;
    }
    std::string body = response.body;
    body.erase(at, stamp.size());
    EXPECT_EQ(body, it->second) << "source " << source;
  }

  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->cache_entries, 32u);
  EXPECT_LE(stats->cache_bytes, options.cache_bytes);
  EXPECT_EQ(stats->cache_hits, cached);
  EXPECT_GT(cached, 0u);
}

// Cached top-k reads: every ranked request shape served from the cache
// equals a cache_bytes = 0 service's body once the stamp is removed
// (and the per-run total_ms zeroed). The k values straddle the cache's
// ranked-prefix length (64) and exceed every source's positive count;
// the sources tie at the 10th or the 64th place, so tie order is
// pinned too. The first request per source is the computed miss, which
// caches only the ranked prefix, so the first k > 64 after it computes
// again and caches the full vector.
TEST(ServeCache, TopKHitsMatchComputedBytes) {
  auto graph = GenerateChungLu(2000, 16000, 2.2, /*seed=*/7);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ServiceOptions options;
  options.query.epsilon = 0.05;
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", *graph, options.query).ok());
  ServiceOptions uncached_options = options;
  uncached_options.cache_bytes = 0;
  SimPushService uncached(uncached_options);
  const auto uncached_routes = RoutesOf(&uncached);
  ASSERT_TRUE(uncached.AddGraph("default", *graph, options.query).ok());

  constexpr NodeId kSources[] = {1, 4, 33};
  bool tie_at_10 = false;
  bool tie_at_64 = false;
  for (const NodeId source : kSources) {
    std::vector<TopKEntry> all;
    SelectTopK(DirectScoresWith(*graph, options.query, source), 5000, source,
               &all);
    ASSERT_GT(all.size(), 65u) << "source " << source;
    tie_at_10 |= all[9].score == all[10].score;
    tie_at_64 |= all[63].score == all[64].score;
  }
  EXPECT_TRUE(tie_at_10 && tie_at_64) << "no tie at the k-th place";

  std::vector<std::tuple<std::string, std::string, size_t>> shapes;
  for (const char* stats : {"", ", \"with_stats\": true"}) {
    for (const size_t k : {1, 10, 64, 65, 5000}) {
      shapes.emplace_back(
          "/v1/query", ", \"top_k\": " + std::to_string(k) + stats, k);
    }
    for (const size_t k : {0, 10}) {
      shapes.emplace_back("/v1/topk",
                          ", \"k\": " + std::to_string(k) + stats, k);
    }
  }
  const std::string stamp = ",\"cached\":true";
  const std::regex timing("\"total_ms\":[-+0-9.eE]+");
  for (const NodeId source : kSources) {
    bool first = true;
    bool full_cached = false;
    for (int round = 0; round < 2; ++round) {
      for (const auto& [target, fields, k] : shapes) {
        const bool past_prefix = k > ResultCache::kRankedPrefix;
        HttpRequest request;
        request.method = "POST";
        request.target = target;
        request.body = "{\"node\": " + std::to_string(source) + fields + "}";
        const HttpResponse computed = uncached_routes->Dispatch(request);
        const HttpResponse response = routes->Dispatch(request);
        ASSERT_EQ(computed.status, 200) << computed.body;
        ASSERT_EQ(response.status, 200) << response.body;
        std::string body = response.body;
        const size_t at = body.find(stamp);
        EXPECT_EQ(at == std::string::npos,
                  first || (past_prefix && !full_cached))
            << request.body;
        if (at != std::string::npos) body.erase(at, stamp.size());
        EXPECT_EQ(std::regex_replace(body, timing, "\"total_ms\":0"),
                  std::regex_replace(computed.body, timing, "\"total_ms\":0"))
            << target << " " << request.body;
        first = false;
        full_cached |= past_prefix;
      }
    }
  }
}

// A top-k miss caches only the ranked prefix, so a full-vector read of
// the same source computes once more, with an uncached service's
// bytes; that full entry then answers every read of the source.
TEST(ServeCache, FullVectorAfterTopKComputesOnceThenHits) {
  auto graph = GenerateChungLu(2000, 16000, 2.2, /*seed=*/7);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ServiceOptions options;
  options.query.epsilon = 0.05;
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", *graph, options.query).ok());
  ServiceOptions uncached_options = options;
  uncached_options.cache_bytes = 0;
  SimPushService uncached(uncached_options);
  const auto uncached_routes = RoutesOf(&uncached);
  ASSERT_TRUE(uncached.AddGraph("default", *graph, options.query).ok());

  const std::string stamp = ",\"cached\":true";
  const auto query = [](const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/query";
    request.body = body;
    return request;
  };
  const HttpResponse top10 =
      routes->Dispatch(query("{\"node\": 4, \"top_k\": 10}"));
  ASSERT_EQ(top10.status, 200) << top10.body;
  EXPECT_EQ(top10.body.find(stamp), std::string::npos) << top10.body;

  const HttpRequest full = query("{\"node\": 4}");
  const HttpResponse computed = uncached_routes->Dispatch(full);
  ASSERT_EQ(computed.status, 200) << computed.body;
  const HttpResponse first_full = routes->Dispatch(full);
  EXPECT_EQ(first_full.body, computed.body)
      << "the first full read computes, unstamped";

  for (const char* body :
       {"{\"node\": 4}", "{\"node\": 4, \"top_k\": 10}",
        "{\"node\": 4, \"top_k\": 65}", "{\"node\": 4, \"top_k\": 5000}"}) {
    const HttpResponse response = routes->Dispatch(query(body));
    ASSERT_EQ(response.status, 200) << response.body;
    std::string stripped = response.body;
    const size_t at = stripped.find(stamp);
    ASSERT_NE(at, std::string::npos) << body << " was not cached";
    stripped.erase(at, stamp.size());
    EXPECT_EQ(stripped, uncached_routes->Dispatch(query(body)).body) << body;
  }
}

// The headline lifecycle test: hammer a hot node while another thread
// hot-swaps the graph underneath it. Every response must carry scores
// bit-identical to a direct engine run on the exact graph its
// generation id names — a cache that ever resurfaced a dead
// generation's entry fails the replay. Runs under the concurrency
// label (TSan in CI).
TEST(ServeCache, CacheUnderHotSwapServesOnlyItsGeneration) {
  // A 60-node ring; each swap adds a chord (10+k -> 3), changing node
  // 3's in-neighborhood and therefore its score vector.
  constexpr NodeId kRing = 60;
  std::vector<std::pair<NodeId, NodeId>> base_edges;
  for (NodeId i = 0; i < kRing; ++i) {
    base_edges.push_back({i, (i + 1) % kRing});
  }
  Graph graph = testing_util::MakeGraph(kRing, base_edges);

  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", graph, options.query).ok());

  constexpr int kSwaps = 6;
  constexpr int kHammerThreads = 4;
  constexpr int kItersPerThread = 120;

  std::mutex mu;
  std::map<uint64_t, std::vector<double>> first_seen;  // gen -> scores
  std::atomic<int> mismatches{0};
  std::atomic<int> cached_responses{0};
  std::atomic<bool> swapping{true};

  std::thread swapper([&] {
    for (int k = 0; k < kSwaps; ++k) {
      const std::vector<EdgeUpdate> updates = {
          {EdgeUpdate::Kind::kInsert, static_cast<NodeId>(10 + k), 3}};
      auto outcome = service.registry().ApplyUpdates("default", updates,
                                                     /*force_swap=*/true);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_TRUE(outcome->swapped);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    swapping.store(false);
  });

  std::vector<std::thread> hammers;
  hammers.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&] {
      HttpRequest request;
      request.method = "POST";
      request.target = "/v1/query";
      request.body = "{\"node\": 3}";
      for (int i = 0; i < kItersPerThread || swapping.load(); ++i) {
        const HttpResponse response = routes->Dispatch(request);
        if (response.status != 200) {
          mismatches.fetch_add(1);
          continue;
        }
        auto doc = ParseJson(response.body);
        if (!doc.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const uint64_t generation =
            doc->Find("generation")->AsIndex().value();
        const std::vector<double> scores = ScoresFromBody(response.body);
        if (doc->Find("cached") != nullptr) cached_responses.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        const auto [it, inserted] = first_seen.emplace(generation, scores);
        // Within one generation every response is identical — cached
        // or computed, before or after later swaps.
        if (!inserted && it->second != scores) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& hammer : hammers) hammer.join();
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cached_responses.load(), 0);
  ASSERT_GE(first_seen.size(), 2u) << "hammer must straddle >= 2 swaps";

  // Replay: the single tenant publishes sequential generation ids
  // (1 = the base ring, id g carries chords k < g - 1). Each observed
  // vector must be bit-identical to a fresh engine on that graph.
  std::set<std::vector<double>> distinct;
  for (const auto& [generation, scores] : first_seen) {
    ASSERT_GE(generation, 1u);
    ASSERT_LE(generation, static_cast<uint64_t>(kSwaps) + 1);
    std::vector<std::pair<NodeId, NodeId>> edges = base_edges;
    for (uint64_t k = 0; k + 1 < generation; ++k) {
      edges.push_back({static_cast<NodeId>(10 + k), 3});
    }
    std::sort(edges.begin(), edges.end());
    const Graph replica = testing_util::MakeGraph(kRing, edges);
    EXPECT_EQ(scores, DirectScoresOn(replica, 3))
        << "generation " << generation
        << " served scores that do not match its own graph";
    distinct.insert(scores);
  }
  // The swaps genuinely changed the answer — otherwise the replay
  // proves nothing about isolation.
  EXPECT_GE(distinct.size(), 2u);

  // No generation leaked: only the current one is alive afterwards.
  EXPECT_EQ(service.registry().live_generations(), 1);
  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->cache_hits, static_cast<uint64_t>(cached_responses.load()));
  EXPECT_GE(stats->cache_inserts, first_seen.size());
}

}  // namespace
}  // namespace serve
}  // namespace simpush
