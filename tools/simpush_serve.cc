// simpush_serve — realtime single-source SimRank over HTTP.
//
// Loads one or more graphs into a GraphRegistry (per-graph generations
// of snapshot+core, one shared thread pool and workspace pool) and serves
// concurrent queries. Because SimPush is index-free, graphs can be
// edited and hot-swapped while serving: POST edge updates, swap in a
// new generation, and in-flight queries finish on the generation they
// started on.
//
// Usage:
//   simpush_serve --graph web.txt [--graph social=social.spg:eps=0.05 ...]
//       [--port 8080] [--default-epsilon 0.01] [--decay 0.6] [--seed 42]
//       [--threads 0] [--pool 0] [--max-batch 4096]
//       [--swap-threshold 0] [--max-graphs 64] [--undirected 1]
//       [--allow-path-create 1] [--min-request-epsilon 1e-3]
//       [--request-timeout-ms 0] [--max-deadline-ms 60000]
//       [--port-file /tmp/port]
//
//   --graph is repeatable and takes a bare path (tenant name
//   "default"), name=path, or name=path:eps=E to give that tenant its
//   own ε (all other knobs inherit the process defaults). The first
//   listed graph is the default tenant for requests without a "graph"
//   field. --default-epsilon (alias: --epsilon) sets the process
//   default ε for tenants without an :eps= suffix.
//
//   --port 0 picks an ephemeral port (printed on stdout, and written to
//   --port-file when given — that is how scripts/tests find it).
//
// Endpoints (full reference in docs/serving.md):
//   POST /v1/query   {"node":42,"graph":"web","top_k":10}
//   POST /v1/topk    {"node":42,"k":10}
//   POST /v1/batch   {"nodes":[1,2,3],"k":10}
//   GET  /v1/stats
//   GET  /healthz
//   GET/POST /v1/graphs, DELETE /v1/graphs/{name},
//   POST /v1/graphs/{name}/edges, POST /v1/graphs/{name}/swap,
//   PATCH /v1/graphs/{name}/options
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
// requests, then exit 0.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "args.h"
#include "common/failpoint.h"
#include "graph/graph_io.h"
#include "serve/http_server.h"
#include "serve/service.h"

namespace {

using namespace simpush;

// Bound for millisecond flags narrowed to int.
constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();

int Usage() {
  std::fprintf(
      stderr,
      "usage: simpush_serve --graph [NAME=]F[:eps=E] [--graph ...] [--port P]\n"
      "    [--default-epsilon E] [--decay C] [--delta D] [--seed S]\n"
      "    [--threads T] [--pool P] [--max-batch B]\n"
      "    [--swap-threshold U] [--max-graphs G] [--undirected 1]\n"
      "    [--allow-path-create 1] [--min-request-epsilon E]\n"
      "    [--request-timeout-ms T] [--max-deadline-ms M]\n"
      "    [--cache-bytes N] [--port-file F]\n"
      "  --cache-bytes bounds each tenant's generation-keyed result\n"
      "  cache (default 64 MiB); --cache-bytes 0 disables result\n"
      "  caching. Cached responses are byte-identical to computed\n"
      "  ones and stamped \"cached\": true; see docs/serving.md.\n"
      "  Integer flags take plain unsigned decimals (--cache-bytes is\n"
      "  in bytes); any other value exits 2.\n"
      "  --request-timeout-ms is the default per-request deadline for\n"
      "  query/topk/batch requests without a \"deadline_ms\" field (0 =\n"
      "  none); --max-deadline-ms caps the client-supplied field. The\n"
      "  SIMPUSH_FAILPOINTS env var (\"name=spec;...\") arms fault-\n"
      "  injection points for chaos testing; see docs/serving.md.\n"
      "  --graph repeats; a bare path serves as tenant \"default\", and\n"
      "  the first listed graph answers requests without a \"graph\"\n"
      "  field. NAME=F:eps=E gives that tenant its own epsilon;\n"
      "  --default-epsilon (alias --epsilon) sets the default for the\n"
      "  rest. --port 0 binds an ephemeral port; the bound port is\n"
      "  printed on stdout and written to --port-file when given.\n");
  return 2;
}

// One --graph flag: tenant name, file path, optional per-tenant ε from
// a NAME=PATH:eps=E suffix.
struct GraphSpec {
  std::string name;
  std::string path;
  bool has_epsilon = false;
  double epsilon = 0.0;
};

// Parses "[NAME=]PATH[:eps=E]". The :eps= suffix is searched from the
// right so a path containing '=' before it still parses. Returns false
// (with a message on stderr) on a malformed spec.
bool ParseGraphSpec(const std::string& flag, GraphSpec* spec) {
  std::string rest = flag;
  const size_t eps_pos = rest.rfind(":eps=");
  if (eps_pos != std::string::npos) {
    const std::string value = rest.substr(eps_pos + 5);
    rest.resize(eps_pos);
    char* end = nullptr;
    spec->epsilon = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "bad :eps= value in --graph spec \"%s\"\n",
                   flag.c_str());
      return false;
    }
    spec->has_epsilon = true;
  }
  const size_t eq = rest.find('=');
  if (eq == std::string::npos) {
    spec->name = "default";
    spec->path = rest;
  } else {
    spec->name = rest.substr(0, eq);
    spec->path = rest.substr(eq + 1);
  }
  if (spec->name.empty() || spec->path.empty()) {
    std::fprintf(stderr, "bad --graph spec \"%s\"\n", flag.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, /*first=*/1);
  const std::vector<std::string> graph_flags = args.GetAll("graph");
  if (graph_flags.empty()) return Usage();

  // Parse NAME=PATH[:eps=E] entries (a bare PATH is tenant "default");
  // the first entry names the default tenant.
  std::vector<GraphSpec> graph_specs;
  for (const std::string& flag : graph_flags) {
    GraphSpec spec;
    if (!ParseGraphSpec(flag, &spec)) return Usage();
    graph_specs.push_back(std::move(spec));
  }

  serve::ServiceOptions service_options;
  // --default-epsilon is the canonical spelling (it is a default that
  // per-tenant :eps= and per-request "epsilon" both override);
  // --epsilon is kept as an alias.
  service_options.query.epsilon =
      args.GetDouble("default-epsilon", args.GetDouble("epsilon", 0.01));
  service_options.query.decay = args.GetDouble("decay", 0.6);
  service_options.query.delta = args.GetDouble("delta", 1e-4);
  service_options.query.seed = args.GetInt("seed", 42);
  service_options.min_request_epsilon =
      args.GetDouble("min-request-epsilon", 1e-3);
  service_options.num_threads = args.GetInt("threads", 0);
  service_options.pool_capacity = args.GetInt("pool", 0);
  service_options.max_batch_nodes = args.GetInt("max-batch", 4096);
  service_options.swap_threshold = args.GetInt("swap-threshold", 0);
  service_options.max_graphs = args.GetInt("max-graphs", 64);
  service_options.allow_path_create = args.GetInt("allow-path-create", 0) != 0;
  service_options.request_timeout_ms =
      static_cast<int>(args.GetInt("request-timeout-ms", 0, kMaxInt));
  service_options.max_deadline_ms =
      static_cast<int>(args.GetInt("max-deadline-ms", 60000, kMaxInt));
  // Budget 0 disables the generation-keyed result cache entirely.
  service_options.cache_bytes = args.GetInt("cache-bytes", 64 << 20);
  service_options.default_graph = graph_specs.front().name;
  if (service_options.max_deadline_ms < 1 ||
      service_options.request_timeout_ms < 0 ||
      service_options.request_timeout_ms > service_options.max_deadline_ms) {
    std::fprintf(stderr,
                 "bad deadline flags: need 0 <= --request-timeout-ms <= "
                 "--max-deadline-ms and --max-deadline-ms >= 1\n");
    return 2;
  }

  // Arm failpoints named in SIMPUSH_FAILPOINTS (chaos testing). A
  // malformed spec is a startup error: silently ignoring it would make
  // a chaos run quietly test nothing.
  if (const Status armed = FailpointRegistry::Get().ActivateFromEnv();
      !armed.ok()) {
    std::fprintf(stderr, "bad SIMPUSH_FAILPOINTS: %s\n",
                 armed.ToString().c_str());
    return 2;
  }

  // Fail fast on bad process-default options — a parsed "nan" and
  // friends must die here, not as an error on every query. Per-tenant
  // ε values are validated by AddGraph below.
  if (const Status valid = service_options.query.Validate(); !valid.ok()) {
    std::fprintf(stderr, "bad engine options: %s\n",
                 valid.ToString().c_str());
    return 2;
  }
  // The override floor guards against arbitrarily expensive
  // client-chosen queries; NaN (every comparison false) or a typo
  // parsed as 0 would silently disable it.
  if (!(service_options.min_request_epsilon > 0.0 &&
        service_options.min_request_epsilon < 1.0)) {
    std::fprintf(stderr,
                 "bad --min-request-epsilon %g: must be in (0,1)\n",
                 service_options.min_request_epsilon);
    return 2;
  }

  serve::HttpServerOptions server_options;
  server_options.port = static_cast<uint16_t>(args.GetInt(
      "port", 8080, std::numeric_limits<uint16_t>::max()));
  server_options.num_workers = args.GetInt("http-workers", 0);
  server_options.max_queued_connections = args.GetInt("max-queued", 64);

  EdgeListOptions load_options;
  load_options.undirected = args.GetInt("undirected", 0) != 0;
  serve::SimPushService service(service_options);
  for (const GraphSpec& spec : graph_specs) {
    StatusOr<Graph> graph = LoadGraphAnyFormat(spec.path, load_options);
    if (!graph.ok()) {
      std::fprintf(stderr, "failed to load graph %s from %s: %s\n",
                   spec.name.c_str(), spec.path.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    // Per-tenant options: the :eps= suffix overrides only ε; everything
    // else inherits the process defaults.
    SimPushOptions tenant_options = service_options.query;
    if (spec.has_epsilon) tenant_options.epsilon = spec.epsilon;
    // Surfaces invalid engine options / duplicate names now — exiting
    // non-zero — not as an error on every query after /healthz already
    // reported healthy.
    const Status added =
        service.AddGraph(spec.name, *std::move(graph), tenant_options);
    if (!added.ok()) {
      std::fprintf(stderr, "failed to register graph %s: %s\n",
                   spec.name.c_str(), added.ToString().c_str());
      return 1;
    }
  }

  serve::HttpServer server(server_options);
  service.RegisterRoutes(&server);

  serve::InstallShutdownSignalHandlers();
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "failed to start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::printf("simpush_serve listening on port %u (graphs=%zu, "
              "default=%s, default-epsilon=%g, threads=%zu)\n",
              server.port(), service.registry().size(),
              service_options.default_graph.c_str(),
              service_options.query.epsilon,
              service.registry().num_threads());
  for (const GraphSpec& spec : graph_specs) {
    const auto stats = service.registry().Stats(spec.name);
    if (stats.ok()) {
      std::printf(
          "  graph %s: n=%u m=%llu epsilon=%g (generation %llu) from %s\n",
          spec.name.c_str(), stats->num_nodes,
          static_cast<unsigned long long>(stats->num_edges),
          stats->options.epsilon,
          static_cast<unsigned long long>(stats->generation),
          spec.path.c_str());
    }
  }
  std::fflush(stdout);

  const std::string port_file = args.Get("port-file", "");
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write --port-file %s\n",
                   port_file.c_str());
      server.Shutdown();
      return 1;
    }
  }

  serve::WaitForShutdownSignal();
  std::printf("shutdown signal received, draining...\n");
  std::fflush(stdout);
  server.Shutdown();
  const serve::HttpServerCounters counters = server.counters();
  std::printf("drained cleanly: %llu requests served, %llu shed (503)\n",
              static_cast<unsigned long long>(counters.requests),
              static_cast<unsigned long long>(counters.rejected_503));
  return 0;
}
