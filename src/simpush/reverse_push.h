// Reverse-Push (Algorithm 5): propagates the combined residues
// r^(ℓ)(w) = h^(ℓ)(u,w)·γ^(ℓ)(w) of all attention nodes level by level
// along out-edges of the *full* graph G, accumulating
// h^(ℓ)(u,w)·γ^(ℓ)(w)·ĥ^(ℓ)(v,w) into s̃(u, v). Residues landing on the
// same node at the same level are pushed together (§4.3).

#ifndef SIMPUSH_SIMPUSH_REVERSE_PUSH_H_
#define SIMPUSH_SIMPUSH_REVERSE_PUSH_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "graph/graph.h"
#include "simpush/source_graph.h"

namespace simpush {

class QueryWorkspace;

/// Statistics from one Reverse-Push invocation.
struct ReversePushStats {
  uint64_t pushes = 0;          ///< Residues that passed the threshold.
  uint64_t edges_traversed = 0; ///< Out-edges relaxed.
};

/// Runs Algorithm 5. `gamma` is indexed by AttentionId; `scores` must be
/// a zeroed vector of size n and receives s̃(u, ·) with s̃(u,u) = 1 set
/// by the caller (the driver), matching Algorithm 5 line 10. The
/// workspace provides the zero-restored residue accumulators (shared
/// with Source-Push — the stages run sequentially); the call is
/// allocation-free once the workspace is warm.
///
/// `cancel`, when non-null, is polled every kCancelCheckStride pushed
/// nodes; a fired token aborts with kCancelled/kDeadlineExceeded,
/// `scores` holds a partial accumulation the caller must discard, and
/// the accumulators are all +0.0 again for the next query. The
/// push is otherwise deterministic and the poll reads state only, so
/// an unfired token leaves the result bit-identical.
Status ReversePush(const Graph& graph, const SourceGraph& gu,
                   const std::vector<double>& gamma, double sqrt_c,
                   double eps_h, QueryWorkspace* workspace,
                   std::vector<double>* scores, ReversePushStats* stats,
                   const CancelToken* cancel = nullptr);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_REVERSE_PUSH_H_
