// GraphRegistry tests: multi-tenant CRUD semantics, RCU generation
// lifecycle, and the headline swap-under-load stress — queries racing
// hot swaps must return results bit-identical to a fresh
// single-threaded engine on whichever generation served them, with no
// generation leaks (live-generation gauge + outstanding-lease
// counters) and zero steady-state heap allocations (this binary links
// simpush_alloc_hook). Runs under the `concurrency` ctest label so the
// TSan CI job covers the lease/swap races.

#include "serve/registry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/memory.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "simpush/query_runner.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace serve {
namespace {

SimPushOptions FastOptions() {
  SimPushOptions options;
  options.epsilon = 0.1;
  options.walk_budget_cap = 20000;
  options.seed = 42;
  return options;
}

RegistryOptions FastRegistryOptions() {
  RegistryOptions options;
  options.num_threads = 4;
  return options;
}

// Registers the fixture graph as `name` with FastOptions().
Status AddFixture(GraphRegistry* registry, const std::string& name) {
  return registry->Add(name, testing_util::MakeFixtureGraph(), FastOptions());
}

// Serial reference: fresh single-threaded engine on `graph` with the
// given options.
std::vector<double> SerialScoresWith(const Graph& graph,
                                     const SimPushOptions& options,
                                     NodeId u) {
  EngineCore core(graph, options);
  QueryWorkspace workspace;
  QueryRunner runner(core, &workspace);
  auto result = runner.Query(u);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->scores;
}

std::vector<double> SerialScores(const Graph& graph, NodeId u) {
  return SerialScoresWith(graph, FastOptions(), u);
}

// One pooled query through a lease, the serving shape.
std::vector<double> PooledScores(const GenerationLease& lease, NodeId u) {
  QueryRunner runner(lease->core(), lease->workspaces());
  auto result = runner.Query(u);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->scores;
}

TEST(RegistryTest, AddRemoveLookup) {
  GraphRegistry registry(FastRegistryOptions());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.live_generations(), 0);
  EXPECT_EQ(registry.Lease("web").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(AddFixture(&registry, "web").ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.live_generations(), 1);
  auto lease = registry.Lease("web");
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ((*lease)->graph().num_nodes(), 10u);

  // Names are validated; duplicates conflict.
  EXPECT_EQ(AddFixture(&registry, "web").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(AddFixture(&registry, "").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AddFixture(&registry, "a/b").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AddFixture(&registry, std::string(65, 'x')).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(AddFixture(&registry, "social").ok());
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"social", "web"}));

  // Remove: the name is gone immediately, but the held lease (the
  // in-flight query shape) stays fully usable.
  ASSERT_TRUE(registry.Remove("web").ok());
  EXPECT_EQ(registry.Remove("web").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Lease("web").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.live_generations(), 2) << "lease keeps the gen alive";
  EXPECT_FALSE(SerialScores((*lease)->graph(), 3).empty());
  lease->reset();
  EXPECT_EQ(registry.live_generations(), 1);
}

TEST(RegistryTest, MaxGraphsEnforced) {
  RegistryOptions options = FastRegistryOptions();
  options.max_graphs = 2;
  GraphRegistry registry(options);
  ASSERT_TRUE(AddFixture(&registry, "a").ok());
  ASSERT_TRUE(AddFixture(&registry, "b").ok());
  EXPECT_EQ(AddFixture(&registry, "c").code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(registry.Remove("a").ok());
  EXPECT_TRUE(AddFixture(&registry, "c").ok());
}

// Two tenants serving the SAME graph with different ε must answer from
// their own configuration: different scores from each other, each
// bit-identical to a serial engine with that tenant's options, and
// each reproducible across repeated pooled queries.
TEST(RegistryTest, PerTenantOptionsDistinctEpsilon) {
  GraphRegistry registry(FastRegistryOptions());
  SimPushOptions coarse = FastOptions();
  coarse.epsilon = 0.4;
  ASSERT_TRUE(AddFixture(&registry, "fine").ok());
  ASSERT_TRUE(
      registry.Add("coarse", testing_util::MakeFixtureGraph(), coarse).ok());

  // Stats report each tenant's own effective options.
  auto fine_stats = registry.Stats("fine");
  auto coarse_stats = registry.Stats("coarse");
  ASSERT_TRUE(fine_stats.ok());
  ASSERT_TRUE(coarse_stats.ok());
  EXPECT_EQ(fine_stats->options.epsilon, FastOptions().epsilon);
  EXPECT_EQ(coarse_stats->options.epsilon, 0.4);
  EXPECT_EQ(fine_stats->options_generation, fine_stats->generation);
  EXPECT_EQ(coarse_stats->options_generation, coarse_stats->generation);

  auto fine = registry.Lease("fine");
  auto coarse_lease = registry.Lease("coarse");
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse_lease.ok());
  EXPECT_EQ((*fine)->core().options().epsilon, FastOptions().epsilon);
  EXPECT_EQ((*coarse_lease)->core().options().epsilon, 0.4);

  const Graph reference = testing_util::MakeFixtureGraph();
  bool any_difference = false;
  for (const NodeId u : {NodeId{1}, NodeId{3}, NodeId{7}}) {
    const std::vector<double> fine_scores = PooledScores(*fine, u);
    const std::vector<double> coarse_scores = PooledScores(*coarse_lease, u);
    // Each tenant matches a serial engine built with ITS options...
    EXPECT_EQ(fine_scores, SerialScoresWith(reference, FastOptions(), u));
    EXPECT_EQ(coarse_scores, SerialScoresWith(reference, coarse, u));
    // ...and repeated pooled queries are bit-reproducible.
    EXPECT_EQ(fine_scores, PooledScores(*fine, u));
    EXPECT_EQ(coarse_scores, PooledScores(*coarse_lease, u));
    if (fine_scores != coarse_scores) any_difference = true;
  }
  EXPECT_TRUE(any_difference)
      << "distinct ε must actually change some answer, or the per-tenant "
         "configuration is not reaching the engine";
}

// Hot swaps must preserve the tenant's options: the rebuilt generation
// runs with the tenant's ε/seed, never the registry default.
TEST(RegistryTest, OptionsSurviveSwap) {
  GraphRegistry registry(FastRegistryOptions());
  SimPushOptions custom = FastOptions();
  custom.epsilon = 0.3;
  custom.seed = 1234;
  ASSERT_TRUE(
      registry.Add("g", testing_util::MakeFixtureGraph(), custom).ok());
  const uint64_t first_generation = (*registry.Lease("g"))->id();

  auto outcome = registry.ApplyUpdates(
      "g", {{EdgeUpdate::Kind::kInsert, 0, 5}}, /*force_swap=*/true);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->swapped);

  auto lease = registry.Lease("g");
  ASSERT_TRUE(lease.ok());
  EXPECT_GT((*lease)->id(), first_generation);
  EXPECT_EQ((*lease)->core().options().epsilon, 0.3);
  EXPECT_EQ((*lease)->core().options().seed, 1234u);
  // The swapped generation answers like a serial engine with the
  // tenant's options on the updated graph.
  DynamicGraph updated =
      DynamicGraph::FromGraph(testing_util::MakeFixtureGraph());
  ASSERT_TRUE(updated.AddEdge(0, 5).ok());
  EXPECT_EQ(PooledScores(*lease, 3),
            SerialScoresWith(*updated.Snapshot(), custom, 3));
  // Options are fixed per tenant: the stats still point at the first
  // generation as where they took effect.
  auto stats = registry.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->options_generation, first_generation);
  EXPECT_EQ(stats->options.epsilon, 0.3);
}

// Invalid per-tenant options are rejected at Add — including NaN,
// which every range comparison lets through unless Validate is written
// NaN-safe (the misconfiguration bug this suite pins down).
TEST(RegistryTest, InvalidOptionsRejectedAtAdd) {
  GraphRegistry registry(FastRegistryOptions());
  SimPushOptions bad = FastOptions();
  bad.epsilon = 0.0;
  EXPECT_EQ(
      registry.Add("g", testing_util::MakeFixtureGraph(), bad).code(),
      StatusCode::kInvalidArgument);
  bad.epsilon = std::nan("");
  EXPECT_EQ(
      registry.Add("g", testing_util::MakeFixtureGraph(), bad).code(),
      StatusCode::kInvalidArgument);
  bad = FastOptions();
  bad.decay = 1.5;
  EXPECT_EQ(
      registry.Add("g", testing_util::MakeFixtureGraph(), bad).code(),
      StatusCode::kInvalidArgument);
  bad = FastOptions();
  bad.delta = -1e-4;
  EXPECT_EQ(
      registry.Add("g", testing_util::MakeFixtureGraph(), bad).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 0u) << "no tenant may exist after a rejection";
  EXPECT_EQ(registry.live_generations(), 0);
}

TEST(RegistryTest, SwapPublishesNewGenerationOldLeaseSurvives) {
  GraphRegistry registry(FastRegistryOptions());
  ASSERT_TRUE(AddFixture(&registry, "g").ok());
  auto old_lease = registry.Lease("g");
  ASSERT_TRUE(old_lease.ok());
  const uint64_t gen1 = (*old_lease)->id();
  const std::vector<double> before = SerialScores((*old_lease)->graph(), 3);

  // Stage updates; nothing changes for queries until the swap.
  std::vector<EdgeUpdate> updates = {{EdgeUpdate::Kind::kInsert, 0, 5},
                                     {EdgeUpdate::Kind::kInsert, 5, 3}};
  auto outcome = registry.ApplyUpdates("g", updates);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 2u);
  EXPECT_EQ(outcome->pending, 2u);
  EXPECT_FALSE(outcome->swapped);
  EXPECT_EQ((*registry.Lease("g"))->id(), gen1);

  auto swap = registry.Swap("g");
  ASSERT_TRUE(swap.ok());
  EXPECT_TRUE(swap->swapped);
  EXPECT_EQ(swap->pending, 0u);
  auto new_lease = registry.Lease("g");
  ASSERT_TRUE(new_lease.ok());
  EXPECT_GT((*new_lease)->id(), gen1);
  EXPECT_EQ((*new_lease)->graph().num_edges(),
            (*old_lease)->graph().num_edges() + 2);

  // Old lease: same graph, same bit-identical answers as before the
  // swap — a hot swap can never invalidate an in-flight query.
  EXPECT_EQ((*old_lease)->id(), gen1);
  {
    QueryRunner runner((*old_lease)->core(), (*old_lease)->workspaces());
    auto result = runner.Query(3);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->scores, before);
  }
  EXPECT_EQ(registry.live_generations(), 2);
  old_lease->reset();
  EXPECT_EQ(registry.live_generations(), 1) << "old generation freed";

  auto stats = registry.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->swap_count, 2u);
  EXPECT_EQ(stats->updates_applied, 2u);
  EXPECT_EQ(stats->pending_updates, 0u);
}

TEST(RegistryTest, AutoSwapAtThreshold) {
  RegistryOptions options = FastRegistryOptions();
  options.swap_threshold = 3;
  GraphRegistry registry(options);
  ASSERT_TRUE(AddFixture(&registry, "g").ok());
  const uint64_t gen1 = (*registry.Lease("g"))->id();

  auto outcome = registry.ApplyUpdates(
      "g", {{EdgeUpdate::Kind::kInsert, 0, 4},
            {EdgeUpdate::Kind::kInsert, 0, 5}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->swapped);
  EXPECT_EQ(outcome->pending, 2u);

  outcome = registry.ApplyUpdates("g", {{EdgeUpdate::Kind::kInsert, 0, 6}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->swapped) << "third pending update crosses threshold";
  EXPECT_EQ(outcome->pending, 0u);
  EXPECT_GT(outcome->generation, gen1);
}

TEST(RegistryTest, InvalidUpdateRejectsWholeBatch) {
  GraphRegistry registry(FastRegistryOptions());
  ASSERT_TRUE(AddFixture(&registry, "g").ok());
  auto outcome = registry.ApplyUpdates(
      "g", {{EdgeUpdate::Kind::kInsert, 0, 4},
            {EdgeUpdate::Kind::kDelete, 7, 9},  // Not present.
            {EdgeUpdate::Kind::kInsert, 0, 5}});
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  auto stats = registry.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->updates_applied, 0u)
      << "atomic batches: a rejected batch applies nothing";
  EXPECT_EQ(stats->pending_updates, 0u);
  EXPECT_EQ(stats->dirty_vertices, 0u);
}

// The headline atomicity bug: a rejected edges batch must leave the
// master untouched, so a swap right after publishes the PRE-batch
// bytes — never a half-applied prefix.
TEST(RegistryTest, RejectedBatchThenSwapPublishesPreBatchBytes) {
  GraphRegistry registry(FastRegistryOptions());
  ASSERT_TRUE(AddFixture(&registry, "g").ok());
  auto before = registry.Lease("g");
  ASSERT_TRUE(before.ok());

  auto outcome = registry.ApplyUpdates(
      "g", {{EdgeUpdate::Kind::kInsert, 0, 4},
            {EdgeUpdate::Kind::kInsert, 1, 5},
            {EdgeUpdate::Kind::kDelete, 7, 9}});  // Not present.
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);

  auto swap = registry.Swap("g");
  ASSERT_TRUE(swap.ok());
  auto after = registry.Lease("g");
  ASSERT_TRUE(after.ok());
  EXPECT_GT((*after)->id(), (*before)->id());

  const Graph& pre = (*before)->graph();
  const Graph& post = (*after)->graph();
  ASSERT_EQ(post.num_nodes(), pre.num_nodes());
  ASSERT_EQ(post.num_edges(), pre.num_edges())
      << "swap after a rejected batch must not publish any of its edges";
  for (NodeId v = 0; v < pre.num_nodes(); ++v) {
    auto out_a = pre.OutNeighbors(v);
    auto out_b = post.OutNeighbors(v);
    ASSERT_TRUE(std::equal(out_a.begin(), out_a.end(), out_b.begin(),
                           out_b.end()))
        << "out-adjacency of node " << v;
    auto in_a = pre.InNeighbors(v);
    auto in_b = post.InNeighbors(v);
    ASSERT_TRUE(
        std::equal(in_a.begin(), in_a.end(), in_b.begin(), in_b.end()))
        << "in-adjacency of node " << v;
  }
}

// Swaps after the first take the delta fast path, and the stats
// surface it: delta_swaps counts them, dirty_vertices tracks pending
// master damage and resets on publish, last_swap_ms records the cost.
TEST(RegistryTest, DeltaSwapPathAndStats) {
  GraphRegistry registry(FastRegistryOptions());
  ASSERT_TRUE(AddFixture(&registry, "g").ok());
  auto stats = registry.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->delta_swaps, 0u);
  EXPECT_EQ(stats->dirty_vertices, 0u);

  auto outcome =
      registry.ApplyUpdates("g", {{EdgeUpdate::Kind::kInsert, 0, 4},
                                  {EdgeUpdate::Kind::kInsert, 2, 6}});
  ASSERT_TRUE(outcome.ok());
  stats = registry.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->dirty_vertices, 4u)
      << "each insert dirties its two endpoints";

  ASSERT_TRUE(registry.Swap("g").ok());
  stats = registry.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->delta_swaps, 1u) << "rebuild with a live base deltas";
  EXPECT_EQ(stats->dirty_vertices, 0u) << "publish resets the dirty set";
  EXPECT_EQ(stats->swap_count, 2u);

  // The delta-published generation matches a canonical full snapshot
  // of the same edge multiset.
  DynamicGraph replica =
      DynamicGraph::FromGraph(testing_util::MakeFixtureGraph());
  ASSERT_TRUE(replica.AddEdge(0, 4).ok());
  ASSERT_TRUE(replica.AddEdge(2, 6).ok());
  auto expect = replica.Snapshot();
  ASSERT_TRUE(expect.ok());
  auto lease = registry.Lease("g");
  ASSERT_TRUE(lease.ok());
  const Graph& published = (*lease)->graph();
  ASSERT_EQ(published.num_edges(), expect->num_edges());
  for (NodeId v = 0; v < published.num_nodes(); ++v) {
    auto a = expect->OutNeighbors(v);
    auto b = published.OutNeighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << v;
  }
}

// Pins every per-generation stats value across a tenant's publishes:
// create, a delta swap, an options change and another swap. The graph
// is large enough that a swap takes well over a microsecond.
TEST(RegistryTest, StatsTrackEachPublish) {
  GraphRegistry registry(FastRegistryOptions());
  SimPushOptions first = FastOptions();
  SimPushOptions second = FastOptions();
  second.epsilon = 0.3;
  second.seed = 7;
  ASSERT_TRUE(
      registry.Add("g", testing_util::RandomGraph(2000, 16000, 3), first)
          .ok());

  struct Expected {
    uint64_t generation;
    const SimPushOptions* options;
    uint64_t options_generation;
    uint64_t swap_count;
    uint64_t delta_swaps;
    bool swap_timed;  // last_swap_ms > 0.
  };
  const auto check = [&registry](const Expected& want) {
    const auto stats = registry.Stats("g");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->generation, want.generation);
    EXPECT_EQ(OptionsFingerprint(stats->options),
              OptionsFingerprint(*want.options));
    EXPECT_EQ(stats->options.epsilon, want.options->epsilon);
    EXPECT_EQ(stats->options.seed, want.options->seed);
    EXPECT_EQ(stats->options_generation, want.options_generation);
    EXPECT_EQ(stats->swap_count, want.swap_count);
    EXPECT_EQ(stats->delta_swaps, want.delta_swaps);
    EXPECT_EQ(stats->last_swap_ms > 0, want.swap_timed);
  };

  check({1, &first, 1, 1, 0, false});
  ASSERT_TRUE(registry
                  .ApplyUpdates("g", {{EdgeUpdate::Kind::kInsert, 0, 5}},
                                /*force_swap=*/true)
                  .ok());
  check({2, &first, 1, 2, 1, true});
  ASSERT_TRUE(registry.UpdateOptions("g", second).ok());
  check({3, &second, 3, 3, 1, true});
  ASSERT_TRUE(registry
                  .ApplyUpdates("g", {{EdgeUpdate::Kind::kInsert, 1, 6}},
                                /*force_swap=*/true)
                  .ok());
  check({4, &second, 3, 4, 2, true});
}

// The publish path against a DynamicGraph mirror over a seeded random
// history: parallel edges, deletes of base edges, an insert and a
// delete of the same edge in one batch, rejected batches, failed
// publishes and options changes while edits are pending. After every
// publish the generation's CSR must equal the mirror's full Snapshot(),
// and between publishes the pending gauges must match the mirror.
TEST(RegistryTest, PublishMatchesMirrorOverRandomHistory) {
  using Kind = EdgeUpdate::Kind;
  GraphRegistry registry(FastRegistryOptions());
  const Graph initial = testing_util::RandomGraph(40, 160, 17);
  ASSERT_TRUE(registry.Add("g", Graph(initial), FastOptions()).ok());
  DynamicGraph mirror = DynamicGraph::FromGraph(initial);
  const NodeId n = initial.num_nodes();
  Graph published = initial;
  uint64_t pending = 0;

  const auto expect_gauges = [&](int round) {
    const auto stats = registry.Stats("g");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->pending_updates, pending) << "round " << round;
    EXPECT_EQ(stats->master_edges, mirror.num_edges()) << "round " << round;
    EXPECT_EQ(stats->dirty_vertices, mirror.dirty_vertices())
        << "round " << round;
  };
  const auto expect_published = [&](int round) {
    const auto lease = registry.Lease("g");
    ASSERT_TRUE(lease.ok());
    EXPECT_TRUE(testing_util::CsrOf((*lease)->graph()) ==
                testing_util::CsrOf(published))
        << "round " << round;
  };
  // Both sides must accept or reject `batch` alike, with the registry's
  // error being the mirror's behind its "batch rejected: " prefix.
  const auto apply_both = [&](const std::vector<EdgeUpdate>& batch) {
    const auto outcome = registry.ApplyUpdates("g", batch);
    const Status mirrored = mirror.Apply(batch);
    EXPECT_EQ(outcome.ok(), mirrored.ok()) << mirrored.ToString();
    if (mirrored.ok()) {
      pending += batch.size();
    } else if (!outcome.ok()) {
      EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(outcome.status().message(),
                "batch rejected: " + mirrored.message());
    }
    return mirrored.ok();
  };

  Rng rng(20261019);
  int rejected = 0;
  int failed_publishes = 0;
  int options_changes = 0;
  for (int round = 0; round < 80; ++round) {
    // Deletes and parallel copies pick from the edges live at the start
    // of the round, base edges included; two deletes of a single copy
    // make the batch fail, as does the absent-edge delete appended to
    // every eighth batch.
    std::vector<std::pair<NodeId, NodeId>> live;
    const auto snapshot = mirror.Snapshot();
    ASSERT_TRUE(snapshot.ok());
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId w : snapshot->OutNeighbors(v)) live.emplace_back(v, w);
    }
    std::vector<EdgeUpdate> batch;
    const uint64_t size = 1 + rng.NextBounded(6);
    for (uint64_t i = 0; i < size; ++i) {
      const auto src = static_cast<NodeId>(rng.NextBounded(n));
      const auto dst = static_cast<NodeId>(rng.NextBounded(n));
      const auto [live_src, live_dst] = live[rng.NextBounded(live.size())];
      switch (rng.NextBounded(4)) {
        case 0:
          batch.push_back({Kind::kDelete, live_src, live_dst});
          break;
        case 1:
          batch.push_back({Kind::kInsert, live_src, live_dst});
          break;
        case 2:
          batch.push_back({Kind::kInsert, src, dst});
          batch.push_back({Kind::kDelete, src, dst});
          break;
        default:
          batch.push_back({Kind::kInsert, src, dst});
      }
    }
    if (round % 8 == 7) {
      NodeId src = 0;
      NodeId dst = 0;
      while (mirror.HasEdge(src, dst)) ++dst;
      batch.push_back({Kind::kDelete, src, dst});
    }
    if (!apply_both(batch)) ++rejected;
    expect_gauges(round);

    switch (rng.NextBounded(5)) {
      case 0: {
        ASSERT_TRUE(registry.Swap("g").ok());
        auto next = mirror.Snapshot();
        ASSERT_TRUE(next.ok());
        published = *std::move(next);
        mirror.MarkClean();
        pending = 0;
        break;
      }
      case 1:
        // The merged generation is built, then the publish fails: the
        // edits stay pending against the still-live generation.
        ASSERT_TRUE(FailpointRegistry::Get()
                        .Activate("registry.publish", "error")
                        .ok());
        EXPECT_FALSE(registry.Swap("g").ok());
        FailpointRegistry::Get().Deactivate("registry.publish");
        ++failed_publishes;
        break;
      case 2: {
        // Re-publishes the live graph under new options; the edits stay
        // pending and must still merge against the re-published copy.
        SimPushOptions options = FastOptions();
        options.epsilon = round % 2 == 0 ? 0.2 : 0.1;
        ASSERT_TRUE(registry.UpdateOptions("g", options).ok());
        ++options_changes;
        break;
      }
      default:
        break;
    }
    expect_published(round);
    expect_gauges(round);
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(failed_publishes, 0);
  EXPECT_GT(options_changes, 0);

  // Out-of-range endpoints, including the 2^32-1 sentinel edge-list
  // parsing admits, reject the whole batch before any CSR row is read
  // and leave nothing pending.
  for (const NodeId bad : {n, NodeId{4294967295u}}) {
    for (const EdgeUpdate& update :
         {EdgeUpdate{Kind::kInsert, bad, 0}, EdgeUpdate{Kind::kInsert, 0, bad},
          EdgeUpdate{Kind::kDelete, bad, 0},
          EdgeUpdate{Kind::kDelete, 0, bad}}) {
      EXPECT_FALSE(apply_both({{Kind::kInsert, 1, 2}, update}));
      const auto outcome = registry.ApplyUpdates("g", {update});
      ASSERT_FALSE(outcome.ok());
      EXPECT_NE(outcome.status().message().find("edge endpoint out of range"),
                std::string::npos);
      expect_gauges(-1);
    }
  }
  ASSERT_TRUE(registry.Swap("g").ok());
  auto last = mirror.Snapshot();
  ASSERT_TRUE(last.ok());
  published = *std::move(last);
  expect_published(-1);
}

// The headline stress: four threads hammer one tenant while the main
// thread applies edge-update batches and hot swaps. Every observed
// response must be bit-identical to a fresh single-threaded engine on
// the generation that served it; afterwards nothing may have leaked.
TEST(RegistryStress, SwapUnderLoadBitIdentity) {
  GraphRegistry registry(FastRegistryOptions());
  Graph base = testing_util::MakeFixtureGraph();
  const NodeId n = base.num_nodes();
  ASSERT_TRUE(registry.Add("hot", std::move(base), FastOptions()).ok());

  // Deterministic batch schedule: batch i adds two edges and removes
  // one edge added by batch i-1, so every update always applies.
  constexpr int kSwaps = 8;
  const auto batch_edges = [n](int i) {
    return std::pair(
        EdgeUpdate{EdgeUpdate::Kind::kInsert, static_cast<NodeId>((3 * i + 1) % n),
                   static_cast<NodeId>((7 * i + 2) % n)},
        EdgeUpdate{EdgeUpdate::Kind::kInsert, static_cast<NodeId>((5 * i + 4) % n),
                   static_cast<NodeId>((2 * i + 3) % n)});
  };

  // Shadow replica: reference graph per generation id, built from the
  // same canonical Snapshot() the registry uses.
  DynamicGraph replica =
      DynamicGraph::FromGraph((*registry.Lease("hot"))->graph());
  std::map<uint64_t, Graph> reference;
  reference.emplace((*registry.Lease("hot"))->id(),
                    *replica.Snapshot());

  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> queries_served{0};
  // Per-thread observations: first scores seen per (generation, node),
  // later hits on the same key must match exactly (checked inline).
  std::vector<std::map<std::pair<uint64_t, NodeId>, std::vector<double>>>
      observed(kThreads);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      SimPushResult result;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId u = static_cast<NodeId>((t + i++) % n);
        auto lease = registry.Lease("hot");
        if (!lease.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const uint64_t generation = (*lease)->id();
        QueryRunner runner((*lease)->core(), (*lease)->workspaces());
        if (!runner.QueryInto(u, &result).ok()) {
          failures.fetch_add(1);
          continue;
        }
        queries_served.fetch_add(1);
        const auto key = std::make_pair(generation, u);
        const auto it = observed[t].find(key);
        if (it == observed[t].end()) {
          observed[t].emplace(key, result.scores);
        } else if (it->second != result.scores) {
          failures.fetch_add(1);  // Same generation must answer identically.
        }
      }
    });
  }

  // Interleave updates and swaps with the query storm.
  for (int i = 0; i < kSwaps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<EdgeUpdate> batch;
    const auto [add1, add2] = batch_edges(i);
    batch.push_back(add1);
    batch.push_back(add2);
    if (i > 0) {
      const auto [prev1, prev2] = batch_edges(i - 1);
      batch.push_back({EdgeUpdate::Kind::kDelete, prev2.src, prev2.dst});
      (void)prev1;
    }
    auto outcome = registry.ApplyUpdates("hot", batch, /*force_swap=*/true);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->swapped);
    ASSERT_TRUE(replica.Apply(batch).ok());
    reference.emplace(outcome->generation, *replica.Snapshot());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queries_served.load(), static_cast<uint64_t>(kSwaps))
      << "the storm must overlap the swaps";

  // Bit-identity: every observed response equals a fresh
  // single-threaded engine on the generation that served it.
  size_t checked = 0;
  std::map<uint64_t, std::map<NodeId, std::vector<double>>> serial_cache;
  for (const auto& per_thread : observed) {
    for (const auto& [key, scores] : per_thread) {
      const auto& [generation, u] = key;
      const auto ref_it = reference.find(generation);
      ASSERT_NE(ref_it, reference.end())
          << "response from unknown generation " << generation;
      auto& cache = serial_cache[generation];
      if (cache.find(u) == cache.end()) {
        cache.emplace(u, SerialScores(ref_it->second, u));
      }
      EXPECT_EQ(scores, cache[u])
          << "generation " << generation << " node " << u;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);

  // Multiple generations must actually have served queries, or the
  // race this test exists for never happened.
  EXPECT_GT(serial_cache.size(), 1u);

  // No generation leaks: every superseded generation died with its
  // last lease; only the current one remains, with no outstanding
  // workspace leases.
  EXPECT_EQ(registry.live_generations(), 1);
  auto stats = registry.Stats("hot");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pool_outstanding, 0u);
  EXPECT_EQ(stats->swap_count, static_cast<uint64_t>(kSwaps) + 1);
  // Every forced swap had a live base with a matching dirty set, so
  // the whole storm ran on the delta fast path — and the bit-identity
  // replay above already proved each delta-published generation equals
  // the replica's canonical full Snapshot().
  EXPECT_EQ(stats->delta_swaps, static_cast<uint64_t>(kSwaps));
}

// Acceptance stress for per-tenant options: two tenants serve the SAME
// evolving graph with different ε while worker threads hammer both and
// the main thread hot-swaps both. Every response must be bit-identical
// to a fresh serial engine built with THAT tenant's options on the
// generation that served it — one tenant's configuration (or load, or
// swaps) can never bleed into the other's answers. Runs under the
// `concurrency` label, so TSan covers the cross-tenant races.
TEST(RegistryStress, TwoTenantsDistinctEpsilonSwapUnderLoad) {
  GraphRegistry registry(FastRegistryOptions());
  Graph base = testing_util::MakeFixtureGraph();
  const NodeId n = base.num_nodes();
  SimPushOptions fine = FastOptions();          // ε = 0.1
  SimPushOptions coarse = FastOptions();
  coarse.epsilon = 0.4;
  ASSERT_TRUE(
      registry.Add("fine", testing_util::MakeFixtureGraph(), fine).ok());
  ASSERT_TRUE(
      registry.Add("coarse", testing_util::MakeFixtureGraph(), coarse).ok());
  const char* const kTenants[] = {"fine", "coarse"};
  const SimPushOptions kOptions[] = {fine, coarse};

  // Shadow replica + per-generation reference graphs, per tenant. Both
  // tenants get the same update schedule, so any cross-tenant bleed
  // would have to come from configuration, not data.
  constexpr int kSwaps = 6;
  DynamicGraph replicas[2] = {DynamicGraph::FromGraph(base),
                              DynamicGraph::FromGraph(base)};
  // generation id -> (tenant index, reference graph).
  std::map<uint64_t, std::pair<int, Graph>> reference;
  for (int t = 0; t < 2; ++t) {
    reference.emplace((*registry.Lease(kTenants[t]))->id(),
                      std::make_pair(t, *replicas[t].Snapshot()));
  }

  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> queries_served{0};
  // (generation, node) -> scores, per thread; generation ids are
  // registry-unique, so they identify the tenant too.
  std::vector<std::map<std::pair<uint64_t, NodeId>, std::vector<double>>>
      observed(kThreads);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      SimPushResult result;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId u = static_cast<NodeId>((t + i) % n);
        const char* tenant = kTenants[i % 2];  // Alternate tenants.
        ++i;
        auto lease = registry.Lease(tenant);
        if (!lease.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const uint64_t generation = (*lease)->id();
        QueryRunner runner((*lease)->core(), (*lease)->workspaces());
        if (!runner.QueryInto(u, &result).ok()) {
          failures.fetch_add(1);
          continue;
        }
        queries_served.fetch_add(1);
        const auto key = std::make_pair(generation, u);
        const auto it = observed[t].find(key);
        if (it == observed[t].end()) {
          observed[t].emplace(key, result.scores);
        } else if (it->second != result.scores) {
          failures.fetch_add(1);  // Same generation must answer identically.
        }
      }
    });
  }

  // Interleave identical update+swap schedules on both tenants.
  for (int i = 0; i < kSwaps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const std::vector<EdgeUpdate> batch = {
        {EdgeUpdate::Kind::kInsert, static_cast<NodeId>((3 * i + 1) % n),
         static_cast<NodeId>((7 * i + 2) % n)}};
    for (int t = 0; t < 2; ++t) {
      auto outcome =
          registry.ApplyUpdates(kTenants[t], batch, /*force_swap=*/true);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_TRUE(outcome->swapped);
      ASSERT_TRUE(replicas[t].Apply(batch).ok());
      reference.emplace(outcome->generation,
                        std::make_pair(t, *replicas[t].Snapshot()));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queries_served.load(), static_cast<uint64_t>(2 * kSwaps));

  // Replay every observation against a fresh serial engine with the
  // owning tenant's options on the generation's reference graph.
  size_t checked = 0;
  std::map<std::pair<uint64_t, NodeId>, std::vector<double>> serial_cache;
  for (const auto& per_thread : observed) {
    for (const auto& [key, scores] : per_thread) {
      const auto& [generation, u] = key;
      const auto ref_it = reference.find(generation);
      ASSERT_NE(ref_it, reference.end())
          << "response from unknown generation " << generation;
      const auto& [tenant_index, ref_graph] = ref_it->second;
      auto cached = serial_cache.find(key);
      if (cached == serial_cache.end()) {
        cached = serial_cache
                     .emplace(key, SerialScoresWith(
                                       ref_graph, kOptions[tenant_index], u))
                     .first;
      }
      EXPECT_EQ(scores, cached->second)
          << "tenant " << kTenants[tenant_index] << " generation "
          << generation << " node " << u;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);

  // The two tenants' first generations score the same graph with
  // different ε: at least one node must differ, proving the per-tenant
  // configuration reached the engine under load.
  bool any_difference = false;
  const Graph first_graph = testing_util::MakeFixtureGraph();
  for (NodeId u = 0; u < n; ++u) {
    if (SerialScoresWith(first_graph, fine, u) !=
        SerialScoresWith(first_graph, coarse, u)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);

  // No leaks: one live generation per tenant, all leases returned.
  EXPECT_EQ(registry.live_generations(), 2);
  for (const char* tenant : kTenants) {
    auto stats = registry.Stats(tenant);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->pool_outstanding, 0u);
    EXPECT_EQ(stats->swap_count, static_cast<uint64_t>(kSwaps) + 1);
  }
}

// A stats read racing options changes describes one generation: the
// options it reports are the ones that generation runs, and they never
// took effect in a later generation. Every publish here is an
// UpdateOptions flipping ε, so generation g runs ε = 0.3 when g is even.
TEST(RegistryStress, StatsRacingUpdateOptionsDescribeOneGeneration) {
  GraphRegistry registry(FastRegistryOptions());
  ASSERT_TRUE(AddFixture(&registry, "g").ok());
  SimPushOptions odd = FastOptions();  // ε = 0.1, generation 1.
  SimPushOptions even = FastOptions();
  even.epsilon = 0.3;

  constexpr int kFlips = 200;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 1; i <= kFlips; ++i) {
      EXPECT_TRUE(registry.UpdateOptions("g", i % 2 == 1 ? even : odd).ok());
    }
    done.store(true);
  });
  // EXPECT and break, not ASSERT: the writer must be joined.
  size_t reads = 0;
  while (!done.load() || reads == 0) {
    const auto stats = registry.Stats("g");
    ++reads;
    const bool consistent =
        stats.ok() && stats->options_generation <= stats->generation &&
        stats->options.epsilon ==
            (stats->generation % 2 == 0 ? even.epsilon : odd.epsilon);
    EXPECT_TRUE(consistent)
        << "read " << reads << ": "
        << (stats.ok() ? "generation " + std::to_string(stats->generation) +
                             ", options_generation " +
                             std::to_string(stats->options_generation) +
                             ", epsilon " +
                             std::to_string(stats->options.epsilon)
                       : stats.status().ToString());
    if (!consistent) break;
  }
  writer.join();
  const auto stats = registry.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->generation, static_cast<uint64_t>(kFlips) + 1);
  EXPECT_EQ(stats->options_generation, stats->generation);
}

// The registry hot path (lease + pooled workspace + QueryInto into a
// warm result) performs zero heap allocations in steady state —
// verified with the counting operator new/delete in simpush_alloc_hook.
TEST(RegistryZeroAlloc, LeaseAndQuerySteadyState) {
  GraphRegistry registry(FastRegistryOptions());
  ASSERT_TRUE(AddFixture(&registry, "g").ok());

  SimPushResult result;
  for (int warm = 0; warm < 3; ++warm) {
    auto lease = registry.Lease("g");
    ASSERT_TRUE(lease.ok());
    QueryRunner runner((*lease)->core(), (*lease)->workspaces());
    ASSERT_TRUE(runner.QueryInto(3, &result).ok());
  }
  const AllocationStats before = GetAllocationStats();
  for (int i = 0; i < 10; ++i) {
    auto lease = registry.Lease("g");
    ASSERT_TRUE(lease.ok());
    QueryRunner runner((*lease)->core(), (*lease)->workspaces());
    ASSERT_TRUE(runner.QueryInto(3, &result).ok());
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state registry query path allocated";
}

// Result-cache lifecycle through the registry: each generation owns
// its cache, entries die with their generation on a swap, tenant
// counters survive the swap, and Remove + lease-drop leaks nothing.
TEST(RegistryTest, GenerationOwnedCacheLifecycle) {
  GraphRegistry registry(FastRegistryOptions());
  ASSERT_TRUE(AddFixture(&registry, "web").ok());

  auto lease = registry.Lease("web");
  ASSERT_TRUE(lease.ok());
  ResultCache* cache = (*lease)->cache();
  ASSERT_NE(cache, nullptr) << "cache_bytes default must enable the cache";
  EXPECT_EQ(cache->budget_bytes(), registry.options().cache_bytes);

  // Serve-shape flow: miss, compute on the generation, insert, hit.
  const uint64_t fingerprint = (*lease)->options_fingerprint();
  EXPECT_EQ(fingerprint, OptionsFingerprint(FastOptions()));
  SimPushResult result;
  EXPECT_FALSE(cache->Get(3, fingerprint, &result));
  result.scores = PooledScores(*lease, 3);
  EXPECT_TRUE(cache->Insert(3, fingerprint, result));
  SimPushResult served;
  ASSERT_TRUE(cache->Get(3, fingerprint, &served));
  EXPECT_EQ(served.scores, result.scores);

  // Stats report occupancy (current generation) and tenant counters.
  auto stats = registry.Stats("web");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cache_budget_bytes, registry.options().cache_bytes);
  EXPECT_EQ(stats->cache_entries, 1u);
  EXPECT_GT(stats->cache_bytes, 0u);
  EXPECT_EQ(stats->cache_hits, 1u);
  EXPECT_EQ(stats->cache_misses, 1u);
  EXPECT_EQ(stats->cache_inserts, 1u);

  // Swap: the new generation starts with an EMPTY cache (old entries
  // die with the old generation — there is no invalidation to get
  // wrong), while the tenant's counters keep accumulating.
  ASSERT_TRUE(registry.Swap("web").ok());
  auto fresh = registry.Lease("web");
  ASSERT_TRUE(fresh.ok());
  ResultCache* fresh_cache = (*fresh)->cache();
  ASSERT_NE(fresh_cache, nullptr);
  EXPECT_NE(fresh_cache, cache);
  EXPECT_EQ(fresh_cache->entries(), 0u);
  EXPECT_FALSE(fresh_cache->Get(3, fingerprint, &served))
      << "old generation's entry must not resurface after a swap";
  stats = registry.Stats("web");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cache_entries, 0u) << "occupancy is the current gen's";
  EXPECT_EQ(stats->cache_hits, 1u) << "counters survive the swap";
  EXPECT_EQ(stats->cache_misses, 2u);

  // The old lease still serves its (cached) generation until dropped.
  ASSERT_TRUE(cache->Get(3, fingerprint, &served));
  EXPECT_EQ(served.scores, result.scores);

  // Remove + drop all leases: every generation (and its cache) dies.
  ASSERT_TRUE(registry.Remove("web").ok());
  lease->reset();
  fresh->reset();
  EXPECT_EQ(registry.live_generations(), 0);
}

// cache_bytes = 0 disables the cache registry-wide.
TEST(RegistryTest, CacheDisabledWhenBudgetZero) {
  RegistryOptions options = FastRegistryOptions();
  options.cache_bytes = 0;
  GraphRegistry registry(options);
  ASSERT_TRUE(AddFixture(&registry, "web").ok());
  auto lease = registry.Lease("web");
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ((*lease)->cache(), nullptr);
  auto stats = registry.Stats("web");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cache_budget_bytes, 0u);
  EXPECT_EQ(stats->cache_entries, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace simpush
