// Last-meeting probability γ^(ℓ)(w) computed straight from the paper's
// recursion (Eqs. 9-11) over a hitting table, one attention occurrence
// at a time: the oracle Algorithm 4 (simpush/last_meeting.h) is checked
// against.

#ifndef SIMPUSH_TESTS_REFERENCE_GAMMA_H_
#define SIMPUSH_TESTS_REFERENCE_GAMMA_H_

#include "simpush/hitting.h"
#include "simpush/source_graph.h"

namespace simpush {

/// γ^(ℓ)(w) for attention occurrence `id` = (ℓ, w) of `gu`:
///   ρ^(i)(w, x) = h̃^(i)(w, x)²
///                 − Σ_{j<i} Σ_{y ∈ A^(ℓ+j)} ρ^(j)(w, y) · h̃^(i−j)(y, x)²
///   γ^(ℓ)(w)    = 1 − Σ_i Σ_{x ∈ A^(ℓ+i)} ρ^(i)(w, x)
/// with every h̃ read through HittingTable::Probability. O(|A|²) per
/// occurrence and unclamped.
double ReferenceGamma(const SourceGraph& gu, const HittingTable& hitting,
                      AttentionId id);

}  // namespace simpush

#endif  // SIMPUSH_TESTS_REFERENCE_GAMMA_H_
