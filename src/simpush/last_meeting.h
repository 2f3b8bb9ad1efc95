// Last-meeting probabilities γ^(ℓ)(w) within G_u (Definition 4,
// Equations 9-11, Algorithm 4): the probability that two √c-walks from
// attention node w, confined to G_u, never meet at an attention node on
// any deeper level.

#ifndef SIMPUSH_SIMPUSH_LAST_MEETING_H_
#define SIMPUSH_SIMPUSH_LAST_MEETING_H_

#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "simpush/hitting.h"
#include "simpush/source_graph.h"

namespace simpush {

class QueryWorkspace;

/// Computes γ^(ℓ)(w) for every attention occurrence into `gamma`
/// (indexed by AttentionId), reusing the workspace's scratch. Values are
/// clamped to [0, 1] against floating-point drift; mathematically they
/// lie there already. Allocation-free once the workspace is warm.
///
/// `cancel`, when non-null, is polled every kCancelCheckStride
/// attention occurrences; a fired token aborts with
/// kCancelled/kDeadlineExceeded and leaves `gamma` only partially
/// overwritten, for the caller to discard. An unfired token leaves the
/// result bit-identical.
Status ComputeLastMeetingProbabilities(const SourceGraph& gu,
                                       const HittingTable& hitting,
                                       QueryWorkspace* workspace,
                                       std::vector<double>* gamma,
                                       const CancelToken* cancel = nullptr);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_LAST_MEETING_H_
