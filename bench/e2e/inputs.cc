#include "inputs.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/graph_io.h"

namespace simpush {
namespace bench_e2e {

SimPushOptions EngineOptions() {
  SimPushOptions options;
  options.epsilon = 0.05;
  options.decay = 0.6;
  options.delta = 1e-4;
  options.seed = 42;
  options.walk_budget_cap = 100000;
  return options;
}

serve::ServiceOptions ServiceConfig() {
  serve::ServiceOptions options;
  options.query = EngineOptions();
  options.num_threads = kServerThreads;
  options.pool_capacity = kServerThreads;
  options.default_graph = std::string(kTenant);
  return options;
}

serve::HttpServerOptions ServerConfig() {
  serve::HttpServerOptions options;
  options.port = 0;
  options.num_workers = kServerThreads;
  return options;
}

namespace {

Status Publish(const std::string& temp, const std::string& path) {
  std::error_code error;
  std::filesystem::rename(temp, path, error);
  if (error) {
    return Status::IOError("cannot rename " + temp + ": " + error.message());
  }
  return Status::OK();
}

}  // namespace

StatusOr<GraphFiles> EnsureGraphFiles(const GraphSpec& spec,
                                      const std::string& data_dir) {
  char stem[128];
  std::snprintf(stem, sizeof(stem), "%.*s-n%u-m%llu-g%g-s%llu",
                static_cast<int>(spec.name.size()), spec.name.data(),
                spec.nodes, static_cast<unsigned long long>(spec.edges),
                spec.gamma, static_cast<unsigned long long>(spec.seed));
  const std::filesystem::path base = std::filesystem::path(data_dir) / stem;
  const GraphFiles files{base.string() + ".txt", base.string() + ".spg"};
  std::error_code error;
  std::filesystem::create_directories(data_dir, error);
  if (error) {
    return Status::IOError("cannot create " + data_dir + ": " +
                           error.message());
  }
  if (!std::filesystem::exists(files.text, error)) {
    SIMPUSH_ASSIGN_OR_RETURN(
        const Graph graph,
        GenerateChungLu(spec.nodes, spec.edges, spec.gamma, spec.seed));
    SIMPUSH_RETURN_NOT_OK(SaveEdgeList(graph, files.text + ".tmp"));
    SIMPUSH_RETURN_NOT_OK(Publish(files.text + ".tmp", files.text));
  }
  if (!std::filesystem::exists(files.binary, error)) {
    // Written from the parsed text, not the generator's output: writing
    // the edge list drops isolated nodes and renumbers the rest.
    SIMPUSH_ASSIGN_OR_RETURN(const Graph graph, LoadGraphAnyFormat(files.text));
    SIMPUSH_RETURN_NOT_OK(SaveBinaryGraph(graph, files.binary + ".tmp"));
    SIMPUSH_RETURN_NOT_OK(Publish(files.binary + ".tmp", files.binary));
  }
  return files;
}

StatusOr<uint64_t> FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  uint64_t hash = 0xcbf29ce484222325ull;
  std::vector<char> buffer(1 << 16);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      hash = (hash ^ static_cast<unsigned char>(buffer[i])) *
             0x100000001b3ull;
    }
  }
  return hash;
}

}  // namespace bench_e2e
}  // namespace simpush
