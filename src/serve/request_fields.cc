#include "serve/request_fields.h"

#include <string>

namespace simpush {
namespace serve {

namespace {

// `field` in double quotes, as error messages name request fields.
std::string Quoted(std::string_view field) {
  std::string quoted = "\"";
  quoted.append(field);
  quoted.push_back('"');
  return quoted;
}

// The ε cost floor shared by the per-request override and the tenant
// "options" of POST /v1/graphs. Written fail-closed — `!(value >=
// floor)` — so an embedder that misconfigures min_request_epsilon as
// NaN rejects every network-supplied ε instead of accepting all of
// them (NaN makes `value < floor` false for every value).
Status CheckEpsilonFloor(double value, double min_epsilon,
                         std::string_view field) {
  if (!(value >= min_epsilon)) {
    JsonWriter number;  // Shortest round-trip form for the message.
    number.Double(min_epsilon);
    return Status::InvalidArgument(
        Quoted(field) + " below the server's floor (min_request_epsilon=" +
        number.Take() + ")");
  }
  return Status::OK();
}

}  // namespace

StatusOr<uint64_t> RequireIndex(const JsonValue& doc, std::string_view key) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr) {
    return Status::InvalidArgument("missing " + Quoted(key) + " field");
  }
  auto index = field->AsIndex();
  if (!index.ok()) {
    return Status::InvalidArgument(Quoted(key) + ": " +
                                   index.status().message());
  }
  return index;
}

StatusOr<uint64_t> OptionalIndex(const JsonValue& doc, std::string_view key,
                                 uint64_t fallback) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr) return fallback;
  auto index = field->AsIndex();
  if (!index.ok()) {
    return Status::InvalidArgument(Quoted(key) + ": " +
                                   index.status().message());
  }
  return index;
}

StatusOr<bool> OptionalBool(const JsonValue& doc, std::string_view key,
                            bool fallback) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_bool()) {
    return Status::InvalidArgument(Quoted(key) + ": expected a boolean");
  }
  return field->bool_value();
}

Status ReadEdgePairs(const JsonValue& field, EdgeUpdate::Kind kind,
                     std::vector<EdgeUpdate>* updates) {
  if (!field.is_array()) {
    return Status::InvalidArgument("edge list must be an array of [src,dst]");
  }
  for (const JsonValue& pair : field.array_items()) {
    if (!pair.is_array() || pair.array_items().size() != 2) {
      return Status::InvalidArgument(
          "edge list entries must be [src,dst] pairs");
    }
    auto src = pair.array_items()[0].AsIndex();
    auto dst = pair.array_items()[1].AsIndex();
    if (!src.ok() || !dst.ok() || *src > kInvalidNode || *dst > kInvalidNode) {
      return Status::InvalidArgument("edge endpoints must be node ids");
    }
    updates->push_back({kind, static_cast<NodeId>(*src),
                        static_cast<NodeId>(*dst)});
  }
  return Status::OK();
}

StatusOr<int64_t> ReadDeadlineMs(const JsonValue& doc, int default_ms,
                                 int max_ms) {
  const JsonValue* field = doc.Find("deadline_ms");
  if (field == nullptr) return static_cast<int64_t>(default_ms);
  auto value = field->AsIndex();
  if (!value.ok()) {
    return Status::InvalidArgument("\"deadline_ms\": " +
                                   value.status().message());
  }
  if (*value < 1 || *value > static_cast<uint64_t>(max_ms)) {
    return Status::InvalidArgument("\"deadline_ms\" must be in [1, " +
                                   std::to_string(max_ms) + "]");
  }
  return static_cast<int64_t>(*value);
}

Status ReadEpsilonOverride(const JsonValue& doc, double min_epsilon,
                           std::optional<double>* epsilon) {
  epsilon->reset();
  const JsonValue* field = doc.Find("epsilon");
  if (field == nullptr) return Status::OK();
  auto value = field->AsDouble();
  if (!value.ok()) {
    return Status::InvalidArgument("\"epsilon\": " +
                                   value.status().message());
  }
  if (!(*value > 0.0 && *value < 1.0)) {
    return Status::InvalidArgument("\"epsilon\" must be in (0,1)");
  }
  SIMPUSH_RETURN_NOT_OK(CheckEpsilonFloor(*value, min_epsilon, "epsilon"));
  *epsilon = *value;
  return Status::OK();
}

Status ReadTenantOptions(const JsonValue& doc, double min_epsilon,
                         SimPushOptions* options) {
  const JsonValue* field = doc.Find("options");
  if (field == nullptr) return Status::OK();
  if (!field->is_object()) {
    return Status::InvalidArgument("\"options\" must be an object");
  }
  const uint64_t default_walk_cap = options->walk_budget_cap;
  const double default_decay = options->decay;
  const double default_delta = options->delta;
  bool epsilon_given = false;
  bool decay_given = false;
  bool delta_given = false;
  bool walk_cap_given = false;
  for (const auto& [key, value] : field->object_members()) {
    if (key == "epsilon" || key == "decay" || key == "delta") {
      auto number = value.AsDouble();
      if (!number.ok()) {
        return Status::InvalidArgument("\"options." + key +
                                       "\": " + number.status().message());
      }
      if (key == "epsilon") {
        options->epsilon = *number;
        epsilon_given = true;
      } else if (key == "decay") {
        options->decay = *number;
        decay_given = true;
      } else {
        options->delta = *number;
        delta_given = true;
      }
    } else if (key == "seed" || key == "walk_budget_cap") {
      auto number = value.AsIndex();
      if (!number.ok()) {
        return Status::InvalidArgument("\"options." + key +
                                       "\": " + number.status().message());
      }
      if (key == "seed") {
        options->seed = *number;
      } else {
        options->walk_budget_cap = *number;
        walk_cap_given = true;
      }
    } else {
      return Status::InvalidArgument(
          "unknown option \"" + key +
          "\" (expected epsilon|decay|delta|seed|walk_budget_cap)");
    }
  }
  const Status valid = options->Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument("\"options\": " + valid.message());
  }
  if (epsilon_given) {
    SIMPUSH_RETURN_NOT_OK(
        CheckEpsilonFloor(options->epsilon, min_epsilon, "options.epsilon"));
  }
  if (decay_given && options->decay > default_decay) {
    JsonWriter number;
    number.Double(default_decay);
    return Status::InvalidArgument(
        "\"options.decay\" above the server default (" + number.Take() +
        "); raising the decay is operator-only");
  }
  if (delta_given && options->delta < default_delta) {
    JsonWriter number;
    number.Double(default_delta);
    return Status::InvalidArgument(
        "\"options.delta\" below the server default (" + number.Take() +
        "); lowering the delta is operator-only");
  }
  if (walk_cap_given) {
    if (options->walk_budget_cap == 0) {
      return Status::InvalidArgument(
          "\"options.walk_budget_cap\" must be positive (0 = uncapped is "
          "operator-only)");
    }
    if (default_walk_cap != 0 &&
        options->walk_budget_cap > default_walk_cap) {
      return Status::InvalidArgument(
          "\"options.walk_budget_cap\" above the server default (" +
          std::to_string(default_walk_cap) +
          "); raising the cap is operator-only");
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace simpush
