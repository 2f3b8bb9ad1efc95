// Readers for the JSON request fields the service validates: node ids,
// counts, the per-request deadline and ε override, tenant engine
// options and edge-update lists. Each is a pure function of the parsed
// request; an invalid field is a kInvalidArgument naming the field,
// which the service answers with a 400.

#ifndef SIMPUSH_SERVE_REQUEST_FIELDS_H_
#define SIMPUSH_SERVE_REQUEST_FIELDS_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/dynamic_graph.h"
#include "serve/json.h"
#include "simpush/options.h"

namespace simpush {
namespace serve {

/// Reads a required non-negative integer field.
StatusOr<uint64_t> RequireIndex(const JsonValue& doc, std::string_view key);

/// Reads an optional non-negative integer field with a default.
StatusOr<uint64_t> OptionalIndex(const JsonValue& doc, std::string_view key,
                                 uint64_t fallback);

/// Reads an optional boolean flag with a default. Any other JSON kind is
/// an error naming the field: a mistyped flag ("true" as a string) must
/// not silently read as false.
StatusOr<bool> OptionalBool(const JsonValue& doc, std::string_view key,
                            bool fallback);

/// Reads the optional per-request "deadline_ms" budget. Absent →
/// `default_ms` (0 = no deadline). Present → an integer in [1, max_ms];
/// the field is network-controlled, so values above the operator cap are
/// an error, not a clamp — silent clamping would let a client believe it
/// bought more time than it got.
StatusOr<int64_t> ReadDeadlineMs(const JsonValue& doc, int default_ms,
                                 int max_ms);

/// Reads the optional per-request "epsilon" override. Absent → nullopt.
/// Present → must be a finite number in (0,1) and at least
/// `min_epsilon` (the override is network-controlled, and query cost
/// explodes as ε shrinks).
Status ReadEpsilonOverride(const JsonValue& doc, double min_epsilon,
                           std::optional<double>* epsilon);

/// Parses the optional "options" object of POST /v1/graphs and PATCH
/// /v1/graphs/{name}/options into `options` (fields not named keep their
/// values). Unknown keys are rejected — an engine knob typo must not
/// silently fall back to the defaults — and the merged result runs
/// through SimPushOptions::Validate. These options arrive FROM THE
/// NETWORK, so every knob that can buy CPU is bounded against the
/// operator configuration: ε is floored at `min_epsilon`; a
/// client-supplied walk_budget_cap may only LOWER the walk budget
/// relative to the operator default — 0 (= the paper's uncapped
/// worst-case formula, billions of walks at small ε) and cap raises are
/// refused; decay may not be RAISED above the operator default, because
/// walk length (~1/(1-√c)) and L* both diverge as c → 1 and the walk cap
/// bounds neither; and delta may not be LOWERED below the operator
/// default, because num_walks grows with log(1/δ) and is unbounded when
/// the operator runs uncapped. Moving any of these in the expensive
/// direction is operator-only (CLI / AddGraph). Tenants that omit a
/// field inherit whatever the operator configured.
Status ReadTenantOptions(const JsonValue& doc, double min_epsilon,
                         SimPushOptions* options);

/// Reads [[src,dst],...] into `updates` as `kind` entries. Pair entries
/// must be two-element arrays of valid node indices (range-checked
/// against the tenant's live graph later, where n is known).
Status ReadEdgePairs(const JsonValue& field, EdgeUpdate::Kind kind,
                     std::vector<EdgeUpdate>* updates);

}  // namespace serve
}  // namespace simpush

#endif  // SIMPUSH_SERVE_REQUEST_FIELDS_H_
