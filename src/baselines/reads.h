// READS baseline [12] (index-based).
//
// Index: r √c-walks of depth <= t from *every* node, stored inverted:
// for each walk slot i, a hash map (step, node) -> sources whose i-th
// walk visits `node` at `step`. Query: replay the query node's i-th walk
// and collect, per candidate v, the earliest step at which v's i-th walk
// coincides (first meeting); s̃(u,v) = (#slots with a meeting)/r.
// Pairing slot i of u with slot i of v keeps the trials independent
// across slots and unbiased per slot, exactly as READS does.
//
// Deviation from [12]: the original compresses walks into SA-forests to
// share suffixes; we store them uncompressed — same estimator and query
// path, larger constant in index size (conservative for Fig. 6, where
// READS is already the memory-heaviest method).

#ifndef SIMPUSH_BASELINES_READS_H_
#define SIMPUSH_BASELINES_READS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baselines/single_source.h"

namespace simpush {

/// READS tuning knobs (paper sweep: (r, t) from (10,2) to (1000,20)).
struct ReadsOptions {
  double decay = 0.6;
  uint32_t num_walks = 100;  ///< r walks per node.
  uint32_t max_depth = 10;   ///< t walk truncation depth.
  uint64_t seed = 17;
};

/// Index-based READS implementation.
class Reads : public SingleSourceAlgorithm {
 public:
  Reads(const Graph& graph, const ReadsOptions& options)
      : graph_(graph), options_(options) {}

  std::string name() const override { return "READS"; }
  Status Prepare() override;
  StatusOr<std::vector<double>> Query(NodeId u) override;
  size_t IndexBytes() const override;
  double PrepareSeconds() const override { return prepare_seconds_; }
  bool index_free() const override { return false; }

  /// Incrementally repairs the index after the in-neighborhood of
  /// `node` changed in `current` (the post-update graph snapshot): every
  /// stored walk that visits `node` is resampled from that visit onward
  /// against `current`, as in READS's dynamic maintenance. Cost is
  /// proportional to the number of affected walk suffixes, not to a
  /// full rebuild. After repairing all touched nodes of an update
  /// batch, Query must be called with score vectors sized to `current`
  /// — callers keep the Reads instance bound to a stable node-id space
  /// (no node insertions).
  ///
  /// The `current` graph must have the same node count as the build
  /// graph; FailedPrecondition before Prepare().
  Status RepairAfterInNeighborhoodChange(const Graph& current, NodeId node);

  /// Structural self-check: every stored walk transition x -> y must
  /// satisfy y ∈ I(x) in `current`, and the inverted maps must mirror
  /// the walk tables exactly. O(index size); used by tests and after
  /// repair sequences.
  Status ValidateIndex(const Graph& current) const;

 private:
  // Walk positions: walks_[i][v] is flattened; position of node v's
  // i-th walk at step s (1-based) is walk_steps_[i][size_t(v)*t + s-1],
  // kInvalidNode past the walk's end.
  const Graph& graph_;
  ReadsOptions options_;
  std::vector<std::vector<NodeId>> walk_steps_;  // [r][n*t]
  // inverted_[i]: key (step<<32 | node) -> list of sources.
  std::vector<std::unordered_map<uint64_t, std::vector<NodeId>>> inverted_;
  double prepare_seconds_ = 0.0;
  bool prepared_ = false;
};

}  // namespace simpush

#endif  // SIMPUSH_BASELINES_READS_H_
