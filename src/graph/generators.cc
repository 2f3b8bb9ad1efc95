#include "graph/generators.h"

#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "graph/graph_builder.h"

namespace simpush {

namespace {

// Packs an edge into one 64-bit key for dedupe sets.
inline uint64_t EdgeKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

StatusOr<Graph> GenerateErdosRenyi(NodeId num_nodes, EdgeId num_edges,
                                   uint64_t seed, bool undirected) {
  if (num_nodes < 2) {
    return Status::InvalidArgument("ErdosRenyi requires >= 2 nodes");
  }
  const uint64_t n = num_nodes;
  const uint64_t max_edges = n * (n - 1) / (undirected ? 2 : 1);
  if (num_edges > max_edges) {
    return Status::InvalidArgument("too many edges requested");
  }
  Rng rng(seed);
  GraphBuilder builder(num_nodes);
  std::unordered_set<uint64_t> seen;
  seen.reserve(num_edges * 2);
  while (seen.size() < num_edges) {
    NodeId a = static_cast<NodeId>(rng.NextBounded(n));
    NodeId b = static_cast<NodeId>(rng.NextBounded(n));
    if (a == b) continue;
    if (undirected && a > b) std::swap(a, b);
    if (!seen.insert(EdgeKey(a, b)).second) continue;
    if (undirected) {
      builder.AddUndirectedEdge(a, b);
    } else {
      builder.AddEdge(a, b);
    }
  }
  if (undirected) builder.MarkSymmetric();
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateBarabasiAlbert(NodeId num_nodes,
                                       uint32_t edges_per_node, uint64_t seed,
                                       bool undirected) {
  if (num_nodes < 2 || edges_per_node == 0) {
    return Status::InvalidArgument("BarabasiAlbert requires n>=2, k>=1");
  }
  Rng rng(seed);
  GraphBuilder builder(num_nodes);
  // Repeated-endpoint list implements preferential attachment: a node
  // appears once per incident edge, plus once unconditionally (the "+1"
  // smoothing that lets isolated nodes be picked).
  std::vector<NodeId> endpoint_pool;
  endpoint_pool.reserve(static_cast<size_t>(num_nodes) *
                        (edges_per_node + 1));
  endpoint_pool.push_back(0);
  for (NodeId v = 1; v < num_nodes; ++v) {
    std::unordered_set<NodeId> picked;
    const uint32_t k = std::min<uint32_t>(edges_per_node, v);
    while (picked.size() < k) {
      const NodeId target =
          endpoint_pool[rng.NextBounded(endpoint_pool.size())];
      if (target == v) continue;
      if (!picked.insert(target).second) continue;
      if (undirected) {
        builder.AddUndirectedEdge(v, target);
      } else {
        builder.AddEdge(v, target);
      }
      endpoint_pool.push_back(target);
    }
    endpoint_pool.push_back(v);
  }
  if (undirected) builder.MarkSymmetric();
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateChungLu(NodeId num_nodes, EdgeId num_edges,
                                double gamma, uint64_t seed,
                                bool undirected) {
  if (num_nodes < 2 || gamma <= 1.0) {
    return Status::InvalidArgument("ChungLu requires n>=2, gamma>1");
  }
  // Weights w_i = (i+1)^(-alpha) with alpha = 1/(gamma-1) yield a degree
  // distribution with power-law exponent gamma.
  const double alpha = 1.0 / (gamma - 1.0);
  std::vector<double> cdf(num_nodes);
  double total = 0.0;
  for (NodeId i = 0; i < num_nodes; ++i) {
    total += std::pow(static_cast<double>(i) + 1.0, -alpha);
    cdf[i] = total;
  }
  Rng rng(seed);
  auto sample_node = [&cdf, total, &rng]() -> NodeId {
    const double x = rng.NextDouble() * total;
    // Binary search the cumulative weights.
    auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
    return static_cast<NodeId>(it - cdf.begin());
  };

  GraphBuilder builder(num_nodes);
  std::unordered_set<uint64_t> seen;
  seen.reserve(num_edges * 2);
  // Rejection-sample distinct weighted endpoints until num_edges accepted.
  // Bail out if the graph saturates (tiny n with huge m in tests).
  uint64_t attempts = 0;
  const uint64_t max_attempts = 100ULL * num_edges + 1000000ULL;
  while (seen.size() < num_edges && attempts < max_attempts) {
    ++attempts;
    NodeId a = sample_node();
    NodeId b = sample_node();
    if (a == b) continue;
    if (undirected && a > b) std::swap(a, b);
    if (!seen.insert(EdgeKey(a, b)).second) continue;
    if (undirected) {
      builder.AddUndirectedEdge(a, b);
    } else {
      builder.AddEdge(a, b);
    }
  }
  if (seen.empty()) return Status::Internal("ChungLu produced no edges");
  if (undirected) builder.MarkSymmetric();
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateRMat(uint32_t scale, EdgeId num_edges, uint64_t seed,
                             double a, double b, double c, bool undirected) {
  if (scale == 0 || scale > 30) {
    return Status::InvalidArgument("RMat requires 1 <= scale <= 30");
  }
  if (a <= 0 || b <= 0 || c <= 0 || a + b + c >= 1.0) {
    return Status::InvalidArgument(
        "RMat quadrant probabilities must be positive with a+b+c < 1");
  }
  const NodeId n = static_cast<NodeId>(1u << scale);
  const uint64_t max_edges =
      static_cast<uint64_t>(n) * (n - 1) / (undirected ? 2 : 1);
  if (num_edges > max_edges) {
    return Status::InvalidArgument("too many edges requested");
  }
  Rng rng(seed);
  GraphBuilder builder(n);
  std::unordered_set<uint64_t> seen;
  seen.reserve(num_edges * 2);
  uint64_t attempts = 0;
  const uint64_t max_attempts = 100ULL * num_edges + 1000000ULL;
  while (seen.size() < num_edges && attempts < max_attempts) {
    ++attempts;
    NodeId src = 0;
    NodeId dst = 0;
    for (uint32_t level = 0; level < scale; ++level) {
      // Independently noise-perturbed quadrants (±10%, SSCA#2 style)
      // avoid the exact self-similarity artifacts of vanilla R-MAT.
      const double pa = a * (0.9 + 0.2 * rng.NextDouble());
      const double pb = b * (0.9 + 0.2 * rng.NextDouble());
      const double pc = c * (0.9 + 0.2 * rng.NextDouble());
      const double pd = (1.0 - a - b - c) * (0.9 + 0.2 * rng.NextDouble());
      const double x = rng.NextDouble() * (pa + pb + pc + pd);
      src <<= 1;
      dst <<= 1;
      if (x < pa) {
        // top-left: no bits set
      } else if (x < pa + pb) {
        dst |= 1;
      } else if (x < pa + pb + pc) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    if (src == dst) continue;
    NodeId u = src, v = dst;
    if (undirected && u > v) std::swap(u, v);
    if (!seen.insert(EdgeKey(u, v)).second) continue;
    if (undirected) {
      builder.AddUndirectedEdge(u, v);
    } else {
      builder.AddEdge(u, v);
    }
  }
  if (seen.empty()) return Status::Internal("RMat produced no edges");
  if (undirected) builder.MarkSymmetric();
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateWattsStrogatz(NodeId num_nodes, uint32_t k,
                                      double beta, uint64_t seed) {
  if (num_nodes < 4 || k < 2 || k % 2 != 0 || k >= num_nodes) {
    return Status::InvalidArgument(
        "WattsStrogatz requires n >= 4 and even 2 <= k < n");
  }
  if (beta < 0.0 || beta > 1.0) {
    return Status::InvalidArgument("beta must be in [0, 1]");
  }
  Rng rng(seed);
  // Undirected edge set as canonical (min, max) pairs.
  std::unordered_set<uint64_t> edges;
  auto canonical = [](NodeId x, NodeId y) {
    return x < y ? EdgeKey(x, y) : EdgeKey(y, x);
  };
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (uint32_t j = 1; j <= k / 2; ++j) {
      edges.insert(canonical(v, (v + j) % num_nodes));
    }
  }
  // Rewire: each lattice edge (v, v+j) keeps v and redraws the far
  // endpoint with probability beta.
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (uint32_t j = 1; j <= k / 2; ++j) {
      if (rng.NextDouble() >= beta) continue;
      const NodeId old_to = (v + j) % num_nodes;
      const uint64_t old_key = canonical(v, old_to);
      if (edges.find(old_key) == edges.end()) continue;
      // Try a few times to find a fresh endpoint; skip on saturation.
      for (int attempt = 0; attempt < 16; ++attempt) {
        const NodeId fresh = static_cast<NodeId>(rng.NextBounded(num_nodes));
        if (fresh == v) continue;
        const uint64_t fresh_key = canonical(v, fresh);
        if (edges.find(fresh_key) != edges.end()) continue;
        edges.erase(old_key);
        edges.insert(fresh_key);
        break;
      }
    }
  }
  GraphBuilder builder(num_nodes);
  for (uint64_t key : edges) {
    const NodeId x = static_cast<NodeId>(key >> 32);
    const NodeId y = static_cast<NodeId>(key & 0xFFFFFFFFu);
    builder.AddUndirectedEdge(x, y);
  }
  builder.MarkSymmetric();
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateStochasticBlockModel(NodeId num_nodes,
                                             uint32_t num_blocks, double p_in,
                                             double p_out, uint64_t seed) {
  if (num_nodes < 2 || num_blocks == 0 || num_blocks > num_nodes) {
    return Status::InvalidArgument("SBM requires n >= 2, 1 <= blocks <= n");
  }
  if (p_in < 0 || p_in > 1 || p_out < 0 || p_out > 1) {
    return Status::InvalidArgument("SBM probabilities must be in [0, 1]");
  }
  Rng rng(seed);
  GraphBuilder builder(num_nodes);
  const NodeId block_size = (num_nodes + num_blocks - 1) / num_blocks;
  auto block_of = [block_size](NodeId v) { return v / block_size; };
  // Geometric skipping makes generation O(edges) rather than O(n^2) for
  // sparse p: after each hit, skip Geometric(p) candidate slots.
  auto sample_row = [&](NodeId src, NodeId lo, NodeId hi, double p) {
    if (p <= 0.0) return;
    if (p >= 1.0) {
      for (NodeId dst = lo; dst < hi; ++dst) {
        if (dst != src) builder.AddEdge(src, dst);
      }
      return;
    }
    // Skip-ahead sampling: the gap to the next Bernoulli(p) success is
    // Geometric, i.e. floor(log(1-r)/log(1-p)).
    const double log1mp = std::log1p(-p);
    uint64_t dst = lo;
    for (;;) {
      const double r = rng.NextDouble();
      dst += static_cast<uint64_t>(std::log1p(-r) / log1mp);
      if (dst >= hi) break;
      if (dst != src) builder.AddEdge(src, static_cast<NodeId>(dst));
      ++dst;
    }
  };
  for (NodeId src = 0; src < num_nodes; ++src) {
    const NodeId b = block_of(src);
    const NodeId in_lo = b * block_size;
    const NodeId in_hi = std::min<NodeId>(num_nodes, in_lo + block_size);
    sample_row(src, in_lo, in_hi, p_in);
    if (in_lo > 0) sample_row(src, 0, in_lo, p_out);
    if (in_hi < num_nodes) sample_row(src, in_hi, num_nodes, p_out);
  }
  return std::move(builder).Build();
}

}  // namespace simpush
