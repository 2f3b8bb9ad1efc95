// Fixed inputs of the end-to-end benchmark: the graphs, the engine
// options and the serving-stack configuration.
//
// Graphs are generated once from a constant generator seed and cached
// as edge-list text files, so every workload seed runs against the same
// graph: the seed drives only the traffic. Re-generating the graph per
// seed made per-seed medians disagree by ~15% while reruns of one seed
// agreed within ~3%.

#ifndef SIMPUSH_BENCH_E2E_INPUTS_H_
#define SIMPUSH_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/graph.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "simpush/options.h"

namespace simpush {
namespace bench_e2e {

/// One Chung–Lu graph, identified by its generator parameters.
struct GraphSpec {
  std::string_view name;
  NodeId nodes;
  EdgeId edges;
  double gamma;
  uint64_t seed;
};

/// Larger than per-core L2: the engine dominates every request.
inline constexpr GraphSpec kWebGraph{"web", 200000, 1600000, 2.2, 7};
/// L2-resident: the HTTP, service and cache layers become visible.
inline constexpr GraphSpec kSmallGraph{"small", 20000, 160000, 2.2, 7};
/// Small enough for the exact power-method oracle (pre-flight gate).
inline constexpr GraphSpec kPreflightGraph{"preflight", 1000, 8000, 2.2, 7};

/// Tenant name every workload serves (simpush_serve's name for a bare
/// --graph path).
inline constexpr std::string_view kTenant = "default";

/// Server sizing: one HTTP worker, batch thread and pooled workspace
/// per core of the 4-core reference box. Fixed rather than derived
/// from the host so every machine runs the same configuration.
inline constexpr size_t kServerThreads = 4;

/// simpush_serve's engine defaults except ε: at ε=0.02 a web query
/// takes ~340 ms, which leaves too few samples per window.
SimPushOptions EngineOptions();

/// simpush_serve's service defaults with EngineOptions() and
/// kServerThreads batch threads and pooled workspaces.
serve::ServiceOptions ServiceConfig();

/// simpush_serve's server defaults on an ephemeral port with
/// kServerThreads workers.
serve::HttpServerOptions ServerConfig();

/// A graph input on disk.
struct GraphFiles {
  std::string text;    ///< Edge list: what every boot loads and times.
  std::string binary;  ///< The same graph as loaded from `text`, in the
                       ///< binary format: a fast untimed reload for gates.
};

/// `spec`'s files under `data_dir`, generating and writing them first
/// when absent (write-then-rename, so an interrupted run never leaves a
/// truncated input behind).
StatusOr<GraphFiles> EnsureGraphFiles(const GraphSpec& spec,
                                      const std::string& data_dir);

/// FNV-1a digest of a file's bytes, recorded so input drift between two
/// record sets is visible.
StatusOr<uint64_t> FileDigest(const std::string& path);

}  // namespace bench_e2e
}  // namespace simpush

#endif  // SIMPUSH_BENCH_E2E_INPUTS_H_
