#include "graph/binary_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace simpush {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'G', '1'};
constexpr uint32_t kFlagSymmetric = 1u << 0;
// magic | u32 flags | u32 n | u64 m.
constexpr uint64_t kHeaderBytes = 4 + 4 + 4 + 8;

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

template <typename T>
bool WriteRaw(FILE* f, const T* data, size_t count) {
  return std::fwrite(data, sizeof(T), count, f) == count;
}

template <typename T>
bool ReadRaw(FILE* f, T* data, size_t count) {
  return std::fread(data, sizeof(T), count, f) == count;
}

}  // namespace

Status SaveBinaryGraph(const Graph& graph, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open '" + path + "' for writing");

  const uint32_t flags = graph.is_symmetric() ? kFlagSymmetric : 0;
  const uint32_t n = graph.num_nodes();
  const uint64_t m = graph.num_edges();
  if (!WriteRaw(f.get(), kMagic, 4) || !WriteRaw(f.get(), &flags, 1) ||
      !WriteRaw(f.get(), &n, 1) || !WriteRaw(f.get(), &m, 1)) {
    return Status::IOError("header write failed");
  }
  // Serialize the out-CSR via the public accessors (offsets derived).
  std::vector<uint64_t> offsets(size_t(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + graph.OutDegree(v);
  }
  if (!WriteRaw(f.get(), offsets.data(), offsets.size())) {
    return Status::IOError("offset write failed");
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto out = graph.OutNeighbors(v);
    if (!out.empty() && !WriteRaw(f.get(), out.data(), out.size())) {
      return Status::IOError("edge write failed");
    }
  }
  return Status::OK();
}

StatusOr<Graph> LoadBinaryGraph(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open '" + path + "'");

  char magic[4];
  uint32_t flags = 0;
  uint32_t n = 0;
  uint64_t m = 0;
  if (!ReadRaw(f.get(), magic, 4) || !ReadRaw(f.get(), &flags, 1) ||
      !ReadRaw(f.get(), &n, 1) || !ReadRaw(f.get(), &m, 1)) {
    return Status::IOError("truncated header in '" + path + "'");
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IOError("'" + path + "' is not an SPG1 file");
  }
  // The header's n and m size two allocations: check them against the
  // bytes the file actually holds first, so a corrupt header fails
  // with IOError instead of an allocation failure.
  std::error_code error;
  const uint64_t file_bytes = std::filesystem::file_size(path, error);
  const uint64_t offset_bytes = (uint64_t{n} + 1) * sizeof(EdgeId);
  if (error || file_bytes < kHeaderBytes + offset_bytes ||
      m > (file_bytes - kHeaderBytes - offset_bytes) / sizeof(NodeId)) {
    return Status::IOError("'" + path + "' is shorter than its header's n=" +
                           std::to_string(n) + ", m=" + std::to_string(m));
  }

  std::vector<EdgeId> offsets(size_t(n) + 1);
  std::vector<NodeId> targets(m);
  if (!ReadRaw(f.get(), offsets.data(), offsets.size()) ||
      (m > 0 && !ReadRaw(f.get(), targets.data(), targets.size()))) {
    return Status::IOError("truncated body in '" + path + "'");
  }
  // The dump holds a canonical out-CSR (rows ascending); FromSortedCsr
  // checks that and derives the in-CSR from it.
  auto graph = Graph::FromSortedCsr(n, std::move(offsets), std::move(targets),
                                    (flags & kFlagSymmetric) != 0);
  if (!graph.ok()) {
    return Status::IOError("corrupt '" + path +
                           "': " + graph.status().message());
  }
  return graph;
}

}  // namespace simpush
