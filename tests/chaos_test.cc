// Chaos suite for the serve stack: drives every instrumented failpoint
// (graph load, registry rebuild/publish, workspace alloc/acquire,
// socket write) and the deadline/cancellation machinery through the
// failure paths the normal test suite can never reach from the
// outside. Asserts the failure *contract*, not just the failure:
// correct HTTP statuses (504/499/503 + Retry-After), clean recovery
// after DeactivateAll, no leaked generations, leases, or fds, and
// bit-identical scores for every query that survives the chaos.
//
// Tests run in definition order; the final test asserts every
// instrumented failpoint fired at least once during the suite.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve_routes.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
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

// Deactivates every failpoint when a scenario ends — including via an
// early ASSERT failure — so one broken scenario cannot poison the rest
// of the suite.
struct FailpointSweeper {
  ~FailpointSweeper() { FailpointRegistry::Get().DeactivateAll(); }
};

uint64_t HitsFor(std::string_view name) {
  for (const auto& [point, hits] : FailpointRegistry::Get().Hits()) {
    if (point == name) return hits;
  }
  return 0;
}

size_t CountOpenFds() {
  size_t count = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (::readdir(dir) != nullptr) ++count;
    ::closedir(dir);
  }
  return count;
}

HttpRequest MakeRequest(std::string method, std::string target,
                        std::string body) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

// Parses a response body, aborting the test on malformed JSON.
JsonValue ParseBody(const HttpResponse& response) {
  auto doc = ParseJson(response.body);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << response.body;
  return doc.ok() ? *std::move(doc) : JsonValue();
}

uint64_t UintField(const JsonValue& doc, std::string_view key) {
  const JsonValue* field = doc.Find(key);
  EXPECT_NE(field, nullptr) << "missing \"" << key << "\"";
  if (field == nullptr) return 0;
  auto value = field->AsIndex();
  EXPECT_TRUE(value.ok()) << value.status().ToString();
  return value.ok() ? *value : 0;
}

// Connects to 127.0.0.1:port; returns the fd (or -1).
int ConnectTo(uint16_t port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string PostQueryBytes(std::string_view body) {
  std::string request = "POST /v1/query HTTP/1.1\r\nHost: t\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return request;
}

std::string ReadAll(int fd) {
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  return response;
}

// A service + started HTTP server on an ephemeral port.
class ChaosFixture {
 public:
  explicit ChaosFixture(Graph graph, size_t http_workers = 2,
                        size_t max_queued = 64, int idle_timeout_ms = 30000) {
    ServiceOptions service_options;
    service_options.query = FastOptions();
    service_options.num_threads = 2;
    service_ = std::make_unique<SimPushService>(service_options);
    const Status added = service_->AddGraph("default", std::move(graph),
                                            service_options.query);
    EXPECT_TRUE(added.ok()) << added.ToString();

    HttpServerOptions server_options;
    server_options.port = 0;
    server_options.num_workers = http_workers;
    server_options.max_queued_connections = max_queued;
    server_options.idle_timeout_ms = idle_timeout_ms;
    server_ = std::make_unique<HttpServer>(server_options);
    service_->RegisterRoutes(server_.get());
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  SimPushService& service() { return *service_; }
  HttpServer& server() { return *server_; }
  uint16_t port() { return server_->port(); }

 private:
  std::unique_ptr<SimPushService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST(ChaosTest, FailpointSpecsAndHitCounters) {
  FailpointSweeper sweeper;
  auto& registry = FailpointRegistry::Get();
  Failpoint* point = registry.Register("chaos_test.demo");
  EXPECT_FALSE(point->active());
  EXPECT_EQ(registry.Register("chaos_test.demo"), point);  // Stable pointer.

  ASSERT_TRUE(registry.Activate("chaos_test.demo", "error:boom").ok());
  EXPECT_TRUE(point->active());
  const uint64_t before = point->hits();
  const Status fired = point->Fire();
  EXPECT_EQ(fired.code(), StatusCode::kIOError);
  EXPECT_EQ(fired.message(), "boom");
  EXPECT_EQ(point->hits(), before + 1);

  ASSERT_TRUE(registry.Activate("chaos_test.demo", "sleep:1").ok());
  EXPECT_TRUE(point->Fire().ok());  // Sleeps, then continues OK.
  ASSERT_TRUE(registry.Activate("chaos_test.demo", "alloc_fail").ok());
  EXPECT_TRUE(point->Fire().ok());  // Caller checks mode().
  EXPECT_EQ(point->mode(), Failpoint::Mode::kAllocFail);

  registry.Deactivate("chaos_test.demo");
  EXPECT_FALSE(point->active());
  EXPECT_EQ(point->mode(), Failpoint::Mode::kOff);

  // Malformed specs are errors, not silent no-ops.
  EXPECT_FALSE(registry.Activate("chaos_test.demo", "explode").ok());
  EXPECT_FALSE(registry.Activate("chaos_test.demo", "sleep:abc").ok());
  EXPECT_FALSE(registry.Activate("chaos_test.demo", "error:").ok());
  EXPECT_FALSE(point->active());
}

TEST(ChaosTest, EnvironmentActivation) {
  FailpointSweeper sweeper;
  auto& registry = FailpointRegistry::Get();
  ::setenv("SIMPUSH_FAILPOINTS",
           "chaos_test.env_a=error;chaos_test.env_b=sleep:2", 1);
  ASSERT_TRUE(registry.ActivateFromEnv().ok());
  EXPECT_TRUE(registry.Register("chaos_test.env_a")->active());
  EXPECT_TRUE(registry.Register("chaos_test.env_b")->active());
  registry.DeactivateAll();
  EXPECT_FALSE(registry.Register("chaos_test.env_a")->active());

  ::setenv("SIMPUSH_FAILPOINTS", "missing-equals-sign", 1);
  EXPECT_FALSE(registry.ActivateFromEnv().ok());
  ::setenv("SIMPUSH_FAILPOINTS", "chaos_test.env_a=bogus", 1);
  EXPECT_FALSE(registry.ActivateFromEnv().ok());
  ::unsetenv("SIMPUSH_FAILPOINTS");
  EXPECT_TRUE(registry.ActivateFromEnv().ok());  // Unset → no-op.
}

TEST(ChaosTest, GraphLoadFailpointFailsCleanly) {
  FailpointSweeper sweeper;
  const std::string path = ::testing::TempDir() + "/chaos_edges.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("0 1\n1 2\n2 0\n", f);
    std::fclose(f);
  }
  ASSERT_TRUE(LoadGraphAnyFormat(path, EdgeListOptions()).ok());

  ASSERT_TRUE(FailpointRegistry::Get()
                  .Activate("graph_io.load", "error:injected load failure")
                  .ok());
  const auto failed = LoadGraphAnyFormat(path, EdgeListOptions());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "injected load failure");

  FailpointRegistry::Get().DeactivateAll();
  EXPECT_TRUE(LoadGraphAnyFormat(path, EdgeListOptions()).ok());
  std::remove(path.c_str());
}

TEST(ChaosTest, RebuildFailpointLeavesTenantServing) {
  FailpointSweeper sweeper;
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            options.query)
                  .ok());
  auto& registry = service.registry();
  const int64_t live_before = registry.live_generations();
  const auto before = registry.Stats("default");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(FailpointRegistry::Get()
                  .Activate("registry.rebuild", "error")
                  .ok());
  const auto failed = registry.Swap("default");
  ASSERT_FALSE(failed.ok());

  // The tenant still serves its old generation; nothing leaked, no
  // counter moved.
  const auto after = registry.Stats("default");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, before->generation);
  EXPECT_EQ(after->swap_count, before->swap_count);
  EXPECT_EQ(registry.live_generations(), live_before);
  SimPushResult result;
  EXPECT_TRUE(service.RunQuery("default", 1, &result).ok());

  FailpointRegistry::Get().DeactivateAll();
  const auto recovered = registry.Swap("default");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->swapped);
  EXPECT_EQ(registry.live_generations(), live_before);
}

TEST(ChaosTest, PublishFailpointUnwindsBuiltGeneration) {
  FailpointSweeper sweeper;
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            options.query)
                  .ok());
  auto& registry = service.registry();
  const int64_t live_before = registry.live_generations();
  const auto before = registry.Stats("default");
  ASSERT_TRUE(before.ok());

  // Fails AFTER the replacement generation is fully built: the bundle
  // must unwind through the live_generations gauge, and the pending /
  // swap counters must not move.
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Activate("registry.publish", "error")
                  .ok());
  ASSERT_FALSE(registry.Swap("default").ok());
  EXPECT_EQ(registry.live_generations(), live_before);
  const auto after = registry.Stats("default");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, before->generation);
  EXPECT_EQ(after->swap_count, before->swap_count);
  EXPECT_EQ(after->pending_updates, before->pending_updates);
  SimPushResult result;
  EXPECT_TRUE(service.RunQuery("default", 1, &result).ok());
}

TEST(ChaosTest, WorkspaceAllocFailureTimesOutAs504) {
  FailpointSweeper sweeper;
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            options.query)
                  .ok());

  // Every lazy workspace creation "fails": the pool acts fully checked
  // out, so a deadline-carrying request waits, expires, and gets a 504
  // with partial timing.
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Activate("workspace_pool.alloc", "alloc_fail")
                  .ok());
  const HttpResponse response = routes->Dispatch(
      MakeRequest("POST", "/v1/query", R"({"node":1,"deadline_ms":30})"));
  EXPECT_EQ(response.status, 504);
  const JsonValue doc = ParseBody(response);
  EXPECT_EQ(UintField(doc, "deadline_ms"), 30u);
  EXPECT_NE(doc.Find("elapsed_ms"), nullptr);
  EXPECT_NE(doc.Find("generation"), nullptr);

  // Recovery: deactivate, and the same request succeeds.
  FailpointRegistry::Get().DeactivateAll();
  const HttpResponse ok = routes->Dispatch(
      MakeRequest("POST", "/v1/query", R"({"node":1,"deadline_ms":30})"));
  EXPECT_EQ(ok.status, 200);

  // No lease leaked by the timed-out request.
  const auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pool_outstanding, 0u);
}

TEST(ChaosTest, DeadlineExpiryIsCountedPerTenant) {
  FailpointSweeper sweeper;
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            options.query)
                  .ok());

  // Stretch the checkout window past the request deadline so the 504
  // is deterministic even though the fixture graph queries in
  // microseconds.
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Activate("workspace_pool.acquire", "sleep:60")
                  .ok());
  const HttpResponse late = routes->Dispatch(
      MakeRequest("POST", "/v1/query", R"({"node":1,"deadline_ms":20})"));
  EXPECT_EQ(late.status, 504);
  FailpointRegistry::Get().DeactivateAll();

  // Out-of-range deadlines are a 400, not a clamp.
  const HttpResponse too_big = routes->Dispatch(MakeRequest(
      "POST", "/v1/query", R"({"node":1,"deadline_ms":99999999})"));
  EXPECT_EQ(too_big.status, 400);

  const HttpResponse stats_response =
      routes->Dispatch(MakeRequest("GET", "/v1/stats", ""));
  const JsonValue stats = ParseBody(stats_response);
  const JsonValue* requests = stats.Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(UintField(*requests, "deadline_expired"), 1u);
  const JsonValue* graphs = stats.Find("graphs");
  ASSERT_NE(graphs, nullptr);
  const JsonValue* tenant = graphs->Find("default");
  ASSERT_NE(tenant, nullptr);
  EXPECT_GE(UintField(*tenant, "deadline_expired"), 1u);
}

TEST(ChaosTest, DisconnectedClientCancelsInFlightQuery) {
  FailpointSweeper sweeper;
  const size_t fds_before = CountOpenFds();
  {
    ChaosFixture fixture(testing_util::MakeFixtureGraph());

    // Stretch the query past the token's probe interval, send a
    // request, and half-close: the client has abandoned the request
    // even though the socket can still carry a response.
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Activate("workspace_pool.acquire", "sleep:200")
                    .ok());
    const int fd = ConnectTo(fixture.port());
    ASSERT_GE(fd, 0);
    const std::string request = PostQueryBytes(R"({"node":1})");
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ::shutdown(fd, SHUT_WR);

    // The token's first poll after the stretched acquire sees the
    // hang-up; the engine aborts and the server answers 499
    // (best-effort — we can still read it).
    const std::string response = ReadAll(fd);
    ::close(fd);
    EXPECT_NE(response.find("499"), std::string::npos) << response;
    EXPECT_NE(response.find("client closed request"), std::string::npos);
    FailpointRegistry::Get().DeactivateAll();

    const HttpResponse stats_response =
        fixture.server().Dispatch(MakeRequest("GET", "/v1/stats", ""));
    const JsonValue stats = ParseBody(stats_response);
    const JsonValue* requests = stats.Find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(UintField(*requests, "client_abandoned"), 1u);

    // No lease leaked; the abandoned query returned its workspace.
    const auto tenant_stats = fixture.service().registry().Stats("default");
    ASSERT_TRUE(tenant_stats.ok());
    EXPECT_EQ(tenant_stats->pool_outstanding, 0u);
    fixture.server().Shutdown();
  }
  // Server and sockets all torn down: no fd leaked.
  EXPECT_EQ(CountOpenFds(), fds_before);
}

TEST(ChaosTest, WriteFailpointDropsConnectionNotServer) {
  FailpointSweeper sweeper;
  ChaosFixture fixture(testing_util::MakeFixtureGraph());

  ASSERT_TRUE(
      FailpointRegistry::Get().Activate("http.write", "error").ok());
  const int fd = ConnectTo(fixture.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  // The injected write failure closes the connection with no bytes.
  EXPECT_TRUE(ReadAll(fd).empty());
  ::close(fd);

  // One dropped connection, not a wedged server.
  FailpointRegistry::Get().DeactivateAll();
  HttpClient client("127.0.0.1", fixture.port());
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  fixture.server().Shutdown();
}

TEST(ChaosTest, OverloadShedCarriesRetryAfter) {
  FailpointSweeper sweeper;
  // Short idle timeout only so ReadAll() below (which reads to EOF)
  // returns promptly after the keep-alive response.
  ChaosFixture fixture(testing_util::MakeFixtureGraph(),
                       /*http_workers=*/1, /*max_queued=*/1,
                       /*idle_timeout_ms=*/500);

  // Pin the single worker inside a slow acquire, fill the one queue
  // slot, and the next connection must shed at the door with 503 +
  // Retry-After.
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Activate("workspace_pool.acquire", "sleep:500")
                  .ok());
  const int busy = ConnectTo(fixture.port());
  ASSERT_GE(busy, 0);
  const std::string request = PostQueryBytes(R"({"node":1})");
  ASSERT_EQ(::send(busy, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  // Let the worker dequeue `busy` and enter the stalled query.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const int queued = ConnectTo(fixture.port());  // Takes the queue slot.
  ASSERT_GE(queued, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int shed = ConnectTo(fixture.port());  // Over admission: 503.
  ASSERT_GE(shed, 0);
  const std::string shed_response = ReadAll(shed);
  ::close(shed);
  EXPECT_NE(shed_response.find("503"), std::string::npos) << shed_response;
  EXPECT_NE(shed_response.find("Retry-After: 1"), std::string::npos)
      << shed_response;

  // The stalled request still completes once the failpoint sleep ends.
  const std::string busy_response = ReadAll(busy);
  EXPECT_NE(busy_response.find("200"), std::string::npos);
  ::close(busy);
  ::close(queued);
  EXPECT_GE(fixture.server().counters().rejected_503, 1u);
  fixture.server().Shutdown();
}

TEST(ChaosTest, StalledReaderFreesWorkerWithinWriteBudget) {
  FailpointSweeper sweeper;
  auto graph = GenerateChungLu(20000, 160000, 2.4, 17);
  ASSERT_TRUE(graph.ok());
  // Tight idle budget so the blocked-write budget (max of write/idle
  // timeouts) is ~300ms, and ONE worker so a stuck write provably
  // blocks all traffic until the budget frees it.
  ChaosFixture fixture(*std::move(graph), /*http_workers=*/1,
                       /*max_queued=*/64, /*idle_timeout_ms=*/300);

  // A tiny receive buffer plus 8 pipelined full-score-vector responses
  // (~400KB each) guarantees the server's sends outrun what the kernel
  // will buffer for a reader that never reads.
  const int stalled = ConnectTo(fixture.port(), /*rcvbuf_bytes=*/4096);
  ASSERT_GE(stalled, 0);
  std::string pipelined;
  for (int i = 0; i < 8; ++i) pipelined += PostQueryBytes(R"({"node":0})");
  ASSERT_EQ(::send(stalled, pipelined.data(), pipelined.size(), 0),
            static_cast<ssize_t>(pipelined.size()));

  // The worker must come back within a few budgets — not hang forever
  // as it would with unbounded blocking sends.
  HttpClient client("127.0.0.1", fixture.port());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  bool served = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto health = client.Get("/healthz");
    if (health.ok() && health->status == 200) {
      served = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(served) << "worker still pinned by a non-reading client";
  ::close(stalled);
  fixture.server().Shutdown();
}

TEST(ChaosTest, PatchOptionsRepublishesWithoutConsumingPending) {
  FailpointSweeper sweeper;
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            options.query)
                  .ok());
  auto& registry = service.registry();

  // Queue a pending master edit (no swap): the options change below
  // must NOT smuggle it into the published generation.
  const auto applied = registry.ApplyUpdates(
      "default", {{EdgeUpdate::Kind::kInsert, 0, 5}}, /*force_swap=*/false);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->pending, 1u);
  const auto before = registry.Stats("default");
  ASSERT_TRUE(before.ok());

  const HttpResponse patched = routes->Dispatch(
      MakeRequest("PATCH", "/v1/graphs/default/options",
                  R"({"options":{"epsilon":0.2,"seed":9}})"));
  EXPECT_EQ(patched.status, 200) << patched.body;
  const JsonValue doc = ParseBody(patched);
  EXPECT_NE(UintField(doc, "generation"), before->generation);
  EXPECT_EQ(UintField(doc, "pending"), 1u);

  const auto after = registry.Stats("default");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->options.epsilon, 0.2);
  EXPECT_EQ(after->options.seed, 9u);
  EXPECT_EQ(after->options_generation, after->generation);
  EXPECT_EQ(after->pending_updates, 1u);       // Deliberately preserved.
  EXPECT_EQ(after->num_edges, before->num_edges);  // Current graph, not master.
  EXPECT_EQ(after->swap_count, before->swap_count + 1);
  SimPushResult result;
  EXPECT_TRUE(service.RunQuery("default", 1, &result).ok());

  // Contract violations: wrong method, missing body, unknown tenant,
  // network-bounds violation (ε below the server floor).
  EXPECT_EQ(routes
                ->Dispatch(MakeRequest("POST",
                                           "/v1/graphs/default/options",
                                           R"({"options":{}})"))
                .status,
            405);
  EXPECT_EQ(routes
                ->Dispatch(MakeRequest("PATCH",
                                           "/v1/graphs/default/options",
                                           R"({})"))
                .status,
            400);
  EXPECT_EQ(routes
                ->Dispatch(MakeRequest("PATCH",
                                           "/v1/graphs/nosuch/options",
                                           R"({"options":{}})"))
                .status,
            404);
  EXPECT_EQ(routes
                ->Dispatch(
                    MakeRequest("PATCH", "/v1/graphs/default/options",
                                R"({"options":{"epsilon":1e-9}})"))
                .status,
            400);
}

TEST(ChaosTest, CancellationSoakSurvivorsBitIdentical) {
  FailpointSweeper sweeper;
  auto graph = GenerateChungLu(5000, 40000, 2.4, 23);
  ASSERT_TRUE(graph.ok());
  SimPushOptions soak_options;
  soak_options.epsilon = 0.05;
  soak_options.walk_budget_cap = 100000;
  soak_options.seed = 7;
  ServiceOptions options;
  options.query = soak_options;
  options.num_threads = 4;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", *graph, options.query).ok());
  const int64_t live_baseline = service.registry().live_generations();

  // Four threads fire queries with tiny deadlines interleaved with
  // deadline-free queries, while hot swaps (unchanged graph) land
  // continuously underneath them.
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    while (!stop.load()) {
      (void)service.registry().Swap("default");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  struct Survivor {
    NodeId node;
    std::vector<double> scores;
  };
  std::vector<std::vector<Survivor>> survivors(4);
  std::atomic<uint64_t> expired{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int iter = 0; iter < 30; ++iter) {
        const NodeId u =
            static_cast<NodeId>((t * 1237 + iter * 101) % 5000);
        std::string body = "{\"node\":" + std::to_string(u);
        if (iter % 2 == 1) {
          body += ",\"deadline_ms\":" + std::to_string(1 + iter % 3);
        }
        body += "}";
        const HttpResponse response =
            routes->Dispatch(MakeRequest("POST", "/v1/query", body));
        if (response.status == 504) {
          expired.fetch_add(1);
          continue;
        }
        ASSERT_EQ(response.status, 200) << response.body;
        const JsonValue doc = ParseBody(response);
        const JsonValue* scores = doc.Find("scores");
        ASSERT_NE(scores, nullptr);
        Survivor survivor;
        survivor.node = u;
        survivor.scores.reserve(scores->array_items().size());
        for (const JsonValue& value : scores->array_items()) {
          auto number = value.AsDouble();
          ASSERT_TRUE(number.ok());
          survivor.scores.push_back(*number);
        }
        survivors[t].push_back(std::move(survivor));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  swapper.join();

  // Every survivor — deadline-carrying or not, whatever generation
  // served it — must match a serial deadline-free replay bit for bit:
  // the graph never changed, so neither may any score.
  const EngineCore core(*graph, soak_options);
  ASSERT_TRUE(core.options_status().ok());
  QueryWorkspace scratch;
  QueryRunner runner(core, &scratch);
  SimPushResult replay;
  size_t verified = 0;
  for (const auto& per_thread : survivors) {
    for (const Survivor& survivor : per_thread) {
      ASSERT_TRUE(runner.QueryInto(survivor.node, &replay).ok());
      ASSERT_EQ(replay.scores.size(), survivor.scores.size());
      for (size_t v = 0; v < replay.scores.size(); ++v) {
        ASSERT_EQ(replay.scores[v], survivor.scores[v])
            << "node " << survivor.node << " score " << v;
      }
      ++verified;
    }
  }
  EXPECT_GE(verified, 60u);  // The deadline-free half always survives.

  // Drain check: no leaked leases, no leaked generations.
  const auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pool_outstanding, 0u);
  EXPECT_EQ(service.registry().live_generations(), live_baseline);
}

// The result cache degrades, never poisons: with result_cache.insert
// failing (allocation failure or injected error), every query still
// answers 200 with the computed scores, nothing is ever stamped
// "cached", no partial entry is left behind, and caching resumes the
// moment the failpoint lifts — with the exact same bytes it would have
// served during the chaos.
TEST(ChaosTest, ResultCacheInsertFailureDegradesToComputed) {
  FailpointSweeper sweeper;
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(options);
  const auto routes = RoutesOf(&service);
  ASSERT_TRUE(service.AddGraph("default", graph, options.query).ok());
  const HttpRequest query = MakeRequest("POST", "/v1/query", "{\"node\": 3}");

  std::string healthy_body;
  for (const char* spec : {"alloc_fail", "error:cache oom"}) {
    ASSERT_TRUE(
        FailpointRegistry::Get().Activate("result_cache.insert", spec).ok());
    for (int i = 0; i < 3; ++i) {
      const HttpResponse response = routes->Dispatch(query);
      ASSERT_EQ(response.status, 200) << spec << ": " << response.body;
      EXPECT_EQ(response.body.find("\"cached\""), std::string::npos)
          << spec << " must suppress caching: " << response.body;
      if (healthy_body.empty()) {
        healthy_body = response.body;
      } else {
        EXPECT_EQ(response.body, healthy_body)
            << spec << ": degraded answers must stay deterministic";
      }
    }
  }
  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->cache_insert_failures, 6u);
  EXPECT_EQ(stats->cache_inserts, 0u);
  EXPECT_EQ(stats->cache_entries, 0u) << "no poisoned entry left behind";
  EXPECT_EQ(stats->cache_hits, 0u);

  // Lift the failpoint: the next miss inserts, the one after hits, and
  // the cached response is byte-identical to the degraded ones.
  FailpointRegistry::Get().DeactivateAll();
  EXPECT_EQ(routes->Dispatch(query).body, healthy_body);
  const HttpResponse cached = routes->Dispatch(query);
  ASSERT_EQ(cached.status, 200);
  std::string body = cached.body;
  const std::string stamp = ",\"cached\":true";
  const size_t at = body.find(stamp);
  ASSERT_NE(at, std::string::npos) << "caching must resume: " << body;
  body.erase(at, stamp.size());
  EXPECT_EQ(body, healthy_body);
  stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cache_inserts, 1u);
  EXPECT_GE(stats->cache_hits, 1u);
}

// Must run last: asserts the suite above actually reached every
// instrumented seam (a renamed failpoint or dead instrumentation would
// otherwise rot silently).
TEST(ChaosTest, AllInstrumentedFailpointsFired) {
  for (const char* name :
       {"graph_io.load", "registry.rebuild", "registry.publish",
        "workspace_pool.alloc", "workspace_pool.acquire", "http.write",
        "result_cache.insert"}) {
    EXPECT_GE(HitsFor(name), 1u) << "failpoint never fired: " << name;
  }
}

}  // namespace
}  // namespace serve
}  // namespace simpush
