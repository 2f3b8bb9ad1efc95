#include "traffic.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/rng.h"
#include "serve/http_client.h"

namespace simpush {
namespace bench_e2e {

namespace {

// DeriveStreamSeed stream ids, one per independent use of the seed.
constexpr uint64_t kPermutationStream = 1 << 20;
constexpr uint64_t kReservoirStream = 2 << 20;
// Client c picks its sources from stream c + 1.

uint64_t ParseUint(std::string_view body, std::string_view key) {
  const size_t at = body.find(key);
  if (at == std::string_view::npos) return 0;
  return std::strtoull(body.data() + at + key.size(), nullptr, 10);
}

double ParseDouble(std::string_view body, std::string_view key) {
  const size_t at = body.find(key);
  if (at == std::string_view::npos) return -1;
  return std::strtod(body.data() + at + key.size(), nullptr);
}

double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::vector<EdgeUpdate>> MakeUpdateBatches(const Graph& initial,
                                                       size_t num_batches,
                                                       uint64_t seed) {
  const std::vector<EdgeUpdate> stream = GenerateUpdateStream(
      initial, num_batches * kUpdatesPerPublish, kDeleteFraction, seed);
  std::vector<std::vector<EdgeUpdate>> batches;
  for (size_t begin = 0; begin < stream.size();
       begin += kUpdatesPerPublish) {
    const size_t end = std::min(stream.size(), begin + kUpdatesPerPublish);
    std::vector<EdgeUpdate> batch(stream.begin() + begin,
                                  stream.begin() + end);
    std::stable_partition(batch.begin(), batch.end(),
                          [](const EdgeUpdate& update) {
                            return update.kind == EdgeUpdate::Kind::kInsert;
                          });
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::string EdgesBody(const std::vector<EdgeUpdate>& batch,
                      uint64_t trace_id) {
  std::string add, remove;
  for (const EdgeUpdate& update : batch) {
    std::string& list =
        update.kind == EdgeUpdate::Kind::kInsert ? add : remove;
    list += list.empty() ? "[" : ",[";
    list += std::to_string(update.src) + "," + std::to_string(update.dst) +
            "]";
  }
  std::string body = "{";
  if (!add.empty()) body += "\"add\":[" + add + "],";
  if (!remove.empty()) body += "\"remove\":[" + remove + "],";
  body += "\"swap\":true";
  if (trace_id != 0) body += ",\"trace_id\":" + std::to_string(trace_id);
  body += "}";
  return body;
}

LoadGenerator::LoadGenerator(const WorkloadSpec& spec, uint64_t seed,
                             NodeId num_nodes, uint16_t port, bool trace,
                             std::vector<std::vector<EdgeUpdate>> batches,
                             serve::GraphRegistry* registry)
    : spec_(spec),
      seed_(seed),
      num_nodes_(num_nodes),
      port_(port),
      trace_(trace),
      batches_(std::move(batches)),
      registry_(registry),
      clients_(spec.clients) {
  if (spec.zipf_s > 0) {
    // Zipf over ranks; a seed-shuffled permutation spreads the hot set
    // across the id space instead of the generator's dense low ids.
    cdf_.resize(num_nodes);
    double total = 0;
    for (NodeId r = 0; r < num_nodes; ++r) {
      total += std::pow(static_cast<double>(r) + 1.0, -spec.zipf_s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    perm_.resize(num_nodes);
    for (NodeId v = 0; v < num_nodes; ++v) perm_[v] = v;
    Rng rng(DeriveStreamSeed(seed, kPermutationStream));
    for (NodeId i = num_nodes; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.NextBounded(i)]);
    }
  }
}

LoadGenerator::~LoadGenerator() { Join(); }

void LoadGenerator::Start(Clock::time_point window_start,
                          Clock::time_point window_end) {
  load_start_ = Clock::now();
  window_start_ = window_start;
  window_end_ = window_end;
  for (size_t c = 0; c < clients_.size(); ++c) {
    threads_.emplace_back([this, c] { ClientLoop(c); });
  }
  if (spec_.churn) threads_.emplace_back([this] { WriterLoop(); });
}

double LoadGenerator::ThreadCpuSeconds() const {
  double total = 0;
  for (const std::thread& thread : threads_) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(const_cast<std::thread&>(thread).native_handle(),
                              &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
    }
  }
  return total;
}

void LoadGenerator::Join() {
  released_.store(true);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void LoadGenerator::Park() {
  while (!released_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void LoadGenerator::ClientLoop(size_t index) {
  ClientStats& stats = clients_[index];
  const size_t nodes_per_request =
      spec_.endpoint == Endpoint::kBatch ? kBatchNodes : 1;
  const size_t keep =
      (kReplayNodes + clients_.size() * nodes_per_request - 1) /
      (clients_.size() * nodes_per_request);
  Rng picks(DeriveStreamSeed(seed_, index + 1));
  Rng reservoir(DeriveStreamSeed(seed_, kReservoirStream + index));
  const int64_t window_start = ToNs(window_start_);
  const int64_t window_end = ToNs(window_end_);
  const char* target =
      spec_.endpoint == Endpoint::kBatch ? "/v1/batch" : "/v1/query";

  serve::HttpClient client("127.0.0.1", port_, NoRetry());
  std::vector<NodeId> nodes(nodes_per_request);
  std::string body;
  for (uint64_t i = 0; Clock::now() < window_end_; ++i) {
    for (NodeId& node : nodes) {
      if (cdf_.empty()) {
        node = static_cast<NodeId>(picks.NextBounded(num_nodes_));
      } else {
        const double u = picks.NextDouble();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        node = perm_[std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1)];
      }
    }
    // Trace mode alternates traced and untraced requests, so the two
    // halves share every condition but the tracing itself.
    const bool traced = trace_ && i % 2 == 0;
    const uint64_t trace_id = traced ? ((index + 1) << 40) | (i + 1) : 0;
    if (spec_.endpoint == Endpoint::kBatch) {
      body = "{\"nodes\":[";
      for (size_t b = 0; b < nodes.size(); ++b) {
        if (b > 0) body.push_back(',');
        body += std::to_string(nodes[b]);
      }
      body += "],\"k\":" + std::to_string(kTopK);
    } else {
      body = "{\"node\":" + std::to_string(nodes[0]) +
             ",\"top_k\":" + std::to_string(kTopK);
      if (traced) body += ",\"with_stats\":true";
    }
    if (traced) body += ",\"trace_id\":" + std::to_string(trace_id);
    body.push_back('}');

    const int64_t start = NowNs();
    auto response = client.Post(target, body);
    const int64_t end = NowNs();
    ++stats.attempted;
    if (!response.ok() || response->status != 200) {
      ++stats.failed;
      if (response.ok() && response->status == 503) ++stats.rejected_503;
      continue;
    }
    if (end >= window_start && end <= window_end) ++stats.completed_in_window;
    if (start < window_start || end > window_end) continue;

    const bool hit =
        response->body.find("\"cached\":true") != std::string::npos;
    const double latency = Millis(end - start);
    stats.latency_ms.push_back(latency);
    if (hit) ++stats.hits_in_window;
    if (trace_) {
      (traced ? stats.traced_ms : stats.untraced_ms).push_back(latency);
      if (traced) {
        const double engine_ms =
            hit || spec_.endpoint == Endpoint::kBatch
                ? -1
                : ParseDouble(response->body, "\"total_ms\":");
        stats.traced.push_back({trace_id, start, end, engine_ms});
      }
    }
    if (!hit) {
      for (const NodeId node : nodes) {
        if (stats.miss_nodes.size() < kStageReplayNodes) {
          stats.miss_nodes.push_back(node);
        }
      }
    }
    // Reservoir sample of the window's responses for the replay gate.
    ++stats.window_responses;
    const uint64_t generation =
        ParseUint(response->body, "\"generation\":");
    if (stats.kept.size() < keep) {
      stats.kept.push_back({generation, std::move(response->body)});
    } else if (const uint64_t slot =
                   reservoir.NextBounded(stats.window_responses);
               slot < keep) {
      stats.kept[slot] = {generation, std::move(response->body)};
    }
  }
  Park();
}

void LoadGenerator::WriterLoop() {
  const std::string target = "/v1/graphs/" + std::string(kTenant) + "/edges";
  serve::HttpClient client("127.0.0.1", port_, NoRetry());
  const int64_t window_start = ToNs(window_start_);
  const int64_t window_end = ToNs(window_end_);
  for (size_t i = 0; i < batches_.size(); ++i) {
    const Clock::time_point due =
        load_start_ + std::chrono::milliseconds(kPublishPeriodMs) * i;
    if (due >= window_end_) break;
    std::this_thread::sleep_until(due);
    writer_.max_late_ms = std::max(
        writer_.max_late_ms,
        std::chrono::duration<double, std::milli>(Clock::now() - due)
            .count());
    Publish publish;
    publish.batch = i;
    if (registry_ != nullptr) {
      // Workspaces the about-to-retire generation had to create.
      if (auto stats = registry_->Stats(kTenant); stats.ok()) {
        publish.pool_created = stats->pool_created;
      }
    }
    // Writer trace ids live above every client's (client + 1) << 40.
    const uint64_t trace_id = trace_ ? (uint64_t{1} << 62) | (i + 1) : 0;
    const std::string body = EdgesBody(batches_[i], trace_id);

    const int64_t start = NowNs();
    auto response = client.Post(target, body);
    const int64_t end = NowNs();
    ++writer_.attempted;
    if (!response.ok() || response->status != 200) {
      ++writer_.failed;
      if (response.ok() && response->status == 503) ++writer_.rejected_503;
      continue;
    }
    publish.generation = ParseUint(response->body, "\"generation\":");
    publish.round_trip_ms = Millis(end - start);
    publish.in_window = start >= window_start && end <= window_end;
    if (registry_ != nullptr) {
      if (auto stats = registry_->Stats(kTenant); stats.ok()) {
        publish.swap_ms = stats->last_swap_ms;
      }
    }
    if (trace_ && publish.in_window) {
      writer_.traced.push_back({trace_id, start, end, -1});
    }
    writer_.accepted.push_back(publish);
  }
  Park();
}

}  // namespace bench_e2e
}  // namespace simpush
