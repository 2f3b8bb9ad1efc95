// Registry of deterministic synthetic stand-ins for the paper's nine
// datasets (Table 4). Real LAW/SNAP dumps are multi-GB downloads
// unavailable offline; each stand-in matches the original's
// directedness and degree character (power-law web/social structure)
// at laptop scale.

#ifndef SIMPUSH_EVAL_DATASETS_H_
#define SIMPUSH_EVAL_DATASETS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// Descriptor of one synthetic stand-in dataset.
struct DatasetSpec {
  std::string name;        ///< e.g. "in-2004-sim".
  std::string paper_name;  ///< Original dataset it stands in for.
  NodeId num_nodes;
  EdgeId target_edges;     ///< Approximate directed edge count.
  bool undirected;
  double gamma;            ///< Power-law exponent for Chung-Lu.
  uint64_t seed;
  bool large;              ///< Belongs to the paper's "large graph" group.
};

/// All nine stand-ins, ordered as in Table 4.
const std::vector<DatasetSpec>& AllDatasets();

/// The small-graph subset (In-2004, DBLP, Pokec, LiveJournal stand-ins).
std::vector<DatasetSpec> SmallDatasets();

/// Stand-in spec by name; NotFound if absent.
StatusOr<DatasetSpec> FindDataset(const std::string& name);

/// Materializes a stand-in graph (deterministic in the spec's seed).
StatusOr<Graph> BuildDataset(const DatasetSpec& spec);

}  // namespace simpush

#endif  // SIMPUSH_EVAL_DATASETS_H_
