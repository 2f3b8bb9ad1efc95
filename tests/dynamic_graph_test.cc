// Unit tests for the DynamicGraph substrate and update-stream generator.

#include "graph/dynamic_graph.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "gtest/gtest.h"

namespace simpush {
namespace {

// Asserts two CSR graphs are bit-identical: same node/edge counts and
// element-wise equal adjacency in BOTH directions. This is the
// canonical-bytes contract SnapshotDelta must uphold against a full
// Snapshot().
void ExpectBitIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    auto out_a = a.OutNeighbors(v);
    auto out_b = b.OutNeighbors(v);
    ASSERT_TRUE(std::equal(out_a.begin(), out_a.end(), out_b.begin(),
                           out_b.end()))
        << "out-adjacency of node " << v;
    auto in_a = a.InNeighbors(v);
    auto in_b = b.InNeighbors(v);
    ASSERT_TRUE(
        std::equal(in_a.begin(), in_a.end(), in_b.begin(), in_b.end()))
        << "in-adjacency of node " << v;
  }
}

TEST(DynamicGraphTest, EmptyGraphHasNoEdges) {
  DynamicGraph graph(5);
  EXPECT_EQ(graph.num_nodes(), 5u);
  EXPECT_EQ(graph.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(graph.OutDegree(v), 0u);
    EXPECT_EQ(graph.InDegree(v), 0u);
  }
}

TEST(DynamicGraphTest, AddEdgeUpdatesBothDirections) {
  DynamicGraph graph(3);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(0, 2).ok());
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_EQ(graph.OutDegree(0), 2u);
  EXPECT_EQ(graph.InDegree(1), 1u);
  EXPECT_EQ(graph.InDegree(2), 1u);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_FALSE(graph.HasEdge(1, 0));
}

TEST(DynamicGraphTest, AddEdgeRejectsOutOfRange) {
  DynamicGraph graph(3);
  EXPECT_EQ(graph.AddEdge(0, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.AddEdge(7, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(DynamicGraphTest, RemoveEdgeReversesAdd) {
  DynamicGraph graph(4);
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  ASSERT_TRUE(graph.AddEdge(2, 3).ok());
  ASSERT_TRUE(graph.RemoveEdge(1, 2).ok());
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_FALSE(graph.HasEdge(1, 2));
  EXPECT_EQ(graph.OutDegree(1), 0u);
  EXPECT_EQ(graph.InDegree(2), 0u);
  EXPECT_TRUE(graph.HasEdge(2, 3));
}

TEST(DynamicGraphTest, RemoveMissingEdgeIsNotFound) {
  DynamicGraph graph(3);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  EXPECT_EQ(graph.RemoveEdge(1, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(graph.RemoveEdge(0, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(graph.num_edges(), 1u);
}

TEST(DynamicGraphTest, ParallelEdgesRemoveOneAtATime) {
  DynamicGraph graph(2);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  EXPECT_EQ(graph.num_edges(), 2u);
  ASSERT_TRUE(graph.RemoveEdge(0, 1).ok());
  EXPECT_TRUE(graph.HasEdge(0, 1)) << "second copy must survive";
  ASSERT_TRUE(graph.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(graph.HasEdge(0, 1));
}

TEST(DynamicGraphTest, AddNodeExtendsGraph) {
  DynamicGraph graph(2);
  const NodeId v = graph.AddNode();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(graph.num_nodes(), 3u);
  EXPECT_TRUE(graph.AddEdge(v, 0).ok());
  EXPECT_TRUE(graph.HasEdge(2, 0));
}

TEST(DynamicGraphTest, RoundTripThroughSnapshot) {
  auto original = GenerateErdosRenyi(50, 300, /*seed=*/7);
  ASSERT_TRUE(original.ok());
  DynamicGraph dynamic = DynamicGraph::FromGraph(*original);
  EXPECT_EQ(dynamic.num_nodes(), original->num_nodes());
  EXPECT_EQ(dynamic.num_edges(), original->num_edges());

  auto snapshot = dynamic.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(snapshot->Validate().ok());
  ASSERT_EQ(snapshot->num_nodes(), original->num_nodes());
  ASSERT_EQ(snapshot->num_edges(), original->num_edges());
  for (NodeId v = 0; v < original->num_nodes(); ++v) {
    auto a = original->OutNeighbors(v);
    auto b = snapshot->OutNeighbors(v);
    std::vector<NodeId> av(a.begin(), a.end()), bv(b.begin(), b.end());
    std::sort(av.begin(), av.end());
    std::sort(bv.begin(), bv.end());
    EXPECT_EQ(av, bv) << "node " << v;
  }
}

TEST(DynamicGraphTest, SnapshotAfterUpdatesReflectsMutations) {
  DynamicGraph graph(4);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  ASSERT_TRUE(graph.AddEdge(2, 3).ok());
  ASSERT_TRUE(graph.RemoveEdge(1, 2).ok());
  auto snapshot = graph.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_edges(), 2u);
  EXPECT_EQ(snapshot->OutDegree(1), 0u);
  EXPECT_EQ(snapshot->InDegree(3), 1u);
}

// RemoveEdge uses swap-with-back removal, so the LIVE adjacency order
// depends on the whole update history — but Snapshot() must not: it
// emits canonically sorted adjacency, making snapshots a pure function
// of the edge multiset. Two different histories converging on the same
// edges must produce byte-identical CSRs (what makes registry hot
// swaps reproducible).
TEST(DynamicGraphTest, SnapshotIsCanonicalAcrossUpdateHistories) {
  // History A: plain inserts in ascending order.
  DynamicGraph a(5);
  for (const auto& [s, d] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {0, 3}, {2, 0}, {2, 4}, {4, 1}}) {
    ASSERT_TRUE(a.AddEdge(s, d).ok());
  }
  // History B: same final edges via inserts+deletes that scramble the
  // live order (swap-with-back moves the last element forward).
  DynamicGraph b(5);
  for (const auto& [s, d] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 3}, {0, 4}, {0, 1}, {2, 4}, {0, 2}, {4, 1}, {2, 1},
           {2, 0}}) {
    ASSERT_TRUE(b.AddEdge(s, d).ok());
  }
  ASSERT_TRUE(b.RemoveEdge(0, 4).ok());  // Back-swaps into 0's list.
  ASSERT_TRUE(b.RemoveEdge(2, 1).ok());
  // Live order genuinely differs between the histories...
  ASSERT_EQ(a.num_edges(), b.num_edges());
  auto live_a = a.OutNeighbors(0);
  auto live_b = b.OutNeighbors(0);
  EXPECT_FALSE(std::equal(live_a.begin(), live_a.end(), live_b.begin(),
                          live_b.end()))
      << "histories should scramble the live adjacency order";

  // ...but the snapshots are byte-identical in both directions.
  auto snap_a = a.Snapshot();
  auto snap_b = b.Snapshot();
  ASSERT_TRUE(snap_a.ok());
  ASSERT_TRUE(snap_b.ok());
  ASSERT_EQ(snap_a->num_edges(), snap_b->num_edges());
  for (NodeId v = 0; v < 5; ++v) {
    auto out_a = snap_a->OutNeighbors(v);
    auto out_b = snap_b->OutNeighbors(v);
    EXPECT_TRUE(std::equal(out_a.begin(), out_a.end(), out_b.begin(),
                           out_b.end()))
        << "out-adjacency of node " << v;
    auto in_a = snap_a->InNeighbors(v);
    auto in_b = snap_b->InNeighbors(v);
    EXPECT_TRUE(
        std::equal(in_a.begin(), in_a.end(), in_b.begin(), in_b.end()))
        << "in-adjacency of node " << v;
  }
}

// Sortedness holds for arbitrary update streams, parallel edges
// included, in both adjacency directions.
TEST(DynamicGraphTest, SnapshotAdjacencySortedAfterRandomStream) {
  auto base = GenerateErdosRenyi(60, 400, /*seed=*/5);
  ASSERT_TRUE(base.ok());
  DynamicGraph dynamic = DynamicGraph::FromGraph(*base);
  ASSERT_TRUE(
      dynamic.Apply(GenerateUpdateStream(*base, 600, 0.4, /*seed=*/17)).ok());
  ASSERT_TRUE(dynamic.AddEdge(3, 7).ok());
  ASSERT_TRUE(dynamic.AddEdge(3, 7).ok());  // Parallel edge survives sort.

  auto snapshot = dynamic.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(snapshot->Validate().ok());
  EXPECT_EQ(snapshot->num_edges(), dynamic.num_edges());
  for (NodeId v = 0; v < snapshot->num_nodes(); ++v) {
    auto out = snapshot->OutNeighbors(v);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << "out of " << v;
    auto in = snapshot->InNeighbors(v);
    EXPECT_TRUE(std::is_sorted(in.begin(), in.end())) << "in of " << v;
  }
}

// The headline atomicity contract: a batch with any invalid update is
// rejected whole — not even the updates BEFORE the bad one are applied.
TEST(DynamicGraphTest, ApplyRejectsWholeBatchOnInvalidUpdate) {
  DynamicGraph graph(3);
  ASSERT_TRUE(graph.AddEdge(2, 1).ok());
  std::vector<EdgeUpdate> updates = {
      {EdgeUpdate::Kind::kInsert, 0, 1},
      {EdgeUpdate::Kind::kDelete, 2, 0},  // not present
      {EdgeUpdate::Kind::kInsert, 1, 2},
  };
  const Status status = graph.Apply(updates);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("update 1"), std::string::npos)
      << "status should name the offending update: " << status.message();
  EXPECT_FALSE(graph.HasEdge(0, 1)) << "earlier updates must NOT apply";
  EXPECT_FALSE(graph.HasEdge(1, 2)) << "later updates must NOT apply";
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_EQ(graph.dirty_vertices(), 2u)
      << "a rejected batch must not grow the dirty set";
}

// A rejected batch leaves the snapshot bytes untouched, not just the
// edge counts — the property the registry's swap path depends on.
TEST(DynamicGraphTest, RejectedApplyLeavesSnapshotBytesUnchanged) {
  auto base = GenerateErdosRenyi(30, 120, /*seed=*/21);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph = DynamicGraph::FromGraph(*base);
  auto before = graph.Snapshot();
  ASSERT_TRUE(before.ok());

  std::vector<EdgeUpdate> updates =
      GenerateUpdateStream(*base, 40, 0.3, /*seed=*/9);
  updates.push_back({EdgeUpdate::Kind::kInsert, 0, 99});  // out of range
  EXPECT_EQ(graph.Apply(updates).code(), StatusCode::kInvalidArgument);

  auto after = graph.Snapshot();
  ASSERT_TRUE(after.ok());
  ExpectBitIdentical(*before, *after);
}

// Intra-batch dependencies count: an insert earlier in the batch can
// satisfy a later delete of the same edge even when the live graph
// lacks it, and deleting both copies of a single live edge fails.
TEST(DynamicGraphTest, ApplyValidatesIntraBatchEffects) {
  DynamicGraph graph(3);
  // Insert-then-delete of an edge the live graph does not hold: valid.
  EXPECT_TRUE(graph
                  .Apply({{EdgeUpdate::Kind::kInsert, 0, 1},
                          {EdgeUpdate::Kind::kDelete, 0, 1}})
                  .ok());
  EXPECT_EQ(graph.num_edges(), 0u);

  // One live copy, two deletes: the second delete must sink the batch.
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  const Status status = graph.Apply({{EdgeUpdate::Kind::kDelete, 1, 2},
                                     {EdgeUpdate::Kind::kDelete, 1, 2}});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(graph.HasEdge(1, 2)) << "rejected batch applies nothing";

  // Two live parallel copies: two deletes are fine.
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  EXPECT_TRUE(graph
                  .Apply({{EdgeUpdate::Kind::kDelete, 1, 2},
                          {EdgeUpdate::Kind::kDelete, 1, 2}})
                  .ok());
  EXPECT_FALSE(graph.HasEdge(1, 2));
}

TEST(DynamicGraphTest, SnapshotDeltaMatchesFullSnapshotSimpleCase) {
  auto base_graph = GenerateErdosRenyi(50, 300, /*seed=*/13);
  ASSERT_TRUE(base_graph.ok());
  DynamicGraph dynamic = DynamicGraph::FromGraph(*base_graph);
  auto base = dynamic.Snapshot();
  ASSERT_TRUE(base.ok());
  dynamic.MarkClean();

  ASSERT_TRUE(dynamic.AddEdge(3, 7).ok());
  ASSERT_TRUE(dynamic.AddEdge(3, 7).ok());  // Parallel edge.
  ASSERT_TRUE(dynamic.RemoveEdge(3, 7).ok());
  const NodeId fresh = dynamic.AddNode();
  ASSERT_TRUE(dynamic.AddEdge(fresh, 0).ok());
  EXPECT_GT(dynamic.dirty_vertices(), 0u);

  auto delta = dynamic.SnapshotDelta(*base);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(delta->Validate().ok());
  auto full = dynamic.Snapshot();
  ASSERT_TRUE(full.ok());
  ExpectBitIdentical(*full, *delta);
}

TEST(DynamicGraphTest, SnapshotDeltaRejectsMismatchedBase) {
  auto small = GenerateErdosRenyi(10, 30, /*seed=*/2);
  auto other = GenerateErdosRenyi(40, 200, /*seed=*/3);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(other.ok());
  DynamicGraph dynamic = DynamicGraph::FromGraph(*small);
  EXPECT_EQ(dynamic.SnapshotDelta(*other).status().code(),
            StatusCode::kFailedPrecondition);
  // The matching base still works (zero dirty rows → pure copy).
  auto delta = dynamic.SnapshotDelta(*small);
  ASSERT_TRUE(delta.ok());
  ExpectBitIdentical(*small, *delta);
}

// Randomized property: for arbitrary insert/delete/add-node histories
// (parallel edges included), SnapshotDelta against the previous publish
// point is bit-identical to a full Snapshot() at EVERY publish point.
// The next round then deltas against the delta's own output, so drift
// would compound and be caught.
TEST(DynamicGraphTest, SnapshotDeltaBitIdenticalAcrossRandomHistories) {
  for (const uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Rng rng(seed);
    const NodeId start_nodes = 20 + static_cast<NodeId>(rng.NextBounded(40));
    auto seeded = GenerateErdosRenyi(
        start_nodes, start_nodes * 6, /*seed=*/seed * 31 + 1);
    ASSERT_TRUE(seeded.ok());
    DynamicGraph dynamic = DynamicGraph::FromGraph(*seeded);
    auto base = dynamic.Snapshot();
    ASSERT_TRUE(base.ok());
    dynamic.MarkClean();

    for (int publish = 0; publish < 8; ++publish) {
      const size_t ops = 1 + rng.NextBounded(60);
      for (size_t i = 0; i < ops; ++i) {
        const double roll = rng.NextDouble();
        if (roll < 0.10) {
          dynamic.AddNode();
        } else if (roll < 0.45 && dynamic.num_edges() > 0) {
          // Delete a uniformly random live edge.
          NodeId v = static_cast<NodeId>(
              rng.NextBounded(dynamic.num_nodes()));
          while (dynamic.OutDegree(v) == 0) {
            v = (v + 1) % dynamic.num_nodes();
          }
          const auto out = dynamic.OutNeighbors(v);
          const NodeId w = out[rng.NextBounded(out.size())];
          ASSERT_TRUE(dynamic.RemoveEdge(v, w).ok());
        } else {
          // Insert, with a bias toward repeating an existing edge so
          // parallel edges show up regularly.
          const NodeId src = static_cast<NodeId>(
              rng.NextBounded(dynamic.num_nodes()));
          NodeId dst = static_cast<NodeId>(
              rng.NextBounded(dynamic.num_nodes()));
          if (rng.NextDouble() < 0.3 && dynamic.OutDegree(src) > 0) {
            const auto out = dynamic.OutNeighbors(src);
            dst = out[rng.NextBounded(out.size())];
          }
          ASSERT_TRUE(dynamic.AddEdge(src, dst).ok());
        }
      }
      auto delta = dynamic.SnapshotDelta(*base);
      ASSERT_TRUE(delta.ok()) << "seed " << seed << " publish " << publish;
      ASSERT_TRUE(delta->Validate().ok());
      auto full = dynamic.Snapshot();
      ASSERT_TRUE(full.ok());
      {
        SCOPED_TRACE("seed " + std::to_string(seed) + " publish " +
                     std::to_string(publish));
        ExpectBitIdentical(*full, *delta);
      }
      base = std::move(delta);
      dynamic.MarkClean();
    }
  }
}

// PendingEdits against a DynamicGraph mirror: every batch is accepted or
// rejected alike with the same message, the gauges agree, and each
// Merge is bit-identical to the mirror's full Snapshot(). The next
// round merges against the previous merge's output, so drift would
// compound and be caught.
TEST(PendingEditsTest, MergeBitIdenticalAcrossRandomHistories) {
  for (const uint64_t seed : {3u, 8u, 99u}) {
    Rng rng(seed);
    auto seeded = GenerateErdosRenyi(30, 150, /*seed=*/seed * 17 + 5);
    ASSERT_TRUE(seeded.ok());
    Graph base = *std::move(seeded);
    DynamicGraph mirror = DynamicGraph::FromGraph(base);
    const NodeId n = base.num_nodes();
    for (int publish = 0; publish < 6; ++publish) {
      PendingEdits edits;
      for (int batch_index = 0; batch_index < 4; ++batch_index) {
        auto snapshot = mirror.Snapshot();
        ASSERT_TRUE(snapshot.ok());
        std::vector<EdgeUpdate> batch = GenerateUpdateStream(
            *snapshot, 1 + rng.NextBounded(12), 0.4, rng.Next());
        // A parallel copy, an insert-then-delete of one edge, and now
        // and then an update that sinks the whole batch.
        const auto src = static_cast<NodeId>(rng.NextBounded(n));
        const auto dst = static_cast<NodeId>(rng.NextBounded(n));
        batch.push_back({EdgeUpdate::Kind::kInsert, src, dst});
        batch.push_back({EdgeUpdate::Kind::kInsert, src, dst});
        batch.push_back({EdgeUpdate::Kind::kDelete, src, dst});
        if (rng.NextBounded(4) == 0) {
          batch.push_back({EdgeUpdate::Kind::kDelete, src, dst});
          batch.push_back({EdgeUpdate::Kind::kDelete, src, dst});
        }
        if (rng.NextBounded(6) == 0) {
          batch.push_back({EdgeUpdate::Kind::kInsert, n, 0});
        }
        const Status mirrored = mirror.Apply(batch);
        const Status status = edits.Apply(base, batch);
        EXPECT_EQ(status.code(), mirrored.code());
        EXPECT_EQ(status.message(), mirrored.message());
        EXPECT_EQ(static_cast<int64_t>(base.num_edges()) + edits.net_edges(),
                  static_cast<int64_t>(mirror.num_edges()));
        EXPECT_EQ(edits.dirty_vertices(), mirror.dirty_vertices());
      }
      auto merged = edits.Merge(base);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      ASSERT_TRUE(merged->Validate().ok());
      auto full = mirror.Snapshot();
      ASSERT_TRUE(full.ok());
      {
        SCOPED_TRACE("seed " + std::to_string(seed) + " publish " +
                     std::to_string(publish));
        ExpectBitIdentical(*full, *merged);
      }
      base = *std::move(merged);
      mirror.MarkClean();
    }
  }
}

// Merge refuses a base that lacks an edge a pending delete removes, and
// after Clear() a merge copies the base.
TEST(PendingEditsTest, MergeRejectsBaseWithoutDeletedEdgeAndClearResets) {
  DynamicGraph dynamic(4);
  ASSERT_TRUE(dynamic.AddEdge(0, 1).ok());
  ASSERT_TRUE(dynamic.AddEdge(1, 2).ok());
  auto base = dynamic.Snapshot();
  auto edgeless = DynamicGraph(4).Snapshot();
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(edgeless.ok());

  PendingEdits edits;
  ASSERT_TRUE(edits.Apply(*base, {{EdgeUpdate::Kind::kDelete, 0, 1}}).ok());
  EXPECT_EQ(edits.Merge(*edgeless).status().code(),
            StatusCode::kFailedPrecondition);

  edits.Clear();
  EXPECT_EQ(edits.net_edges(), 0);
  EXPECT_EQ(edits.dirty_vertices(), 0u);
  auto copy = edits.Merge(*base);
  ASSERT_TRUE(copy.ok());
  ExpectBitIdentical(*base, *copy);
}

TEST(DynamicGraphTest, MemoryBytesGrowsWithEdges) {
  DynamicGraph small(100);
  DynamicGraph big(100);
  for (NodeId v = 0; v + 1 < 100; ++v) {
    ASSERT_TRUE(big.AddEdge(v, v + 1).ok());
  }
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

class UpdateStreamTest : public ::testing::TestWithParam<double> {};

TEST_P(UpdateStreamTest, StreamRepaysAgainstLiveEdgeSet) {
  const double delete_fraction = GetParam();
  auto base = GenerateErdosRenyi(40, 200, /*seed=*/11);
  ASSERT_TRUE(base.ok());
  auto stream =
      GenerateUpdateStream(*base, 500, delete_fraction, /*seed=*/3);
  ASSERT_EQ(stream.size(), 500u);

  // Every update must apply cleanly in order: deletions always target a
  // live edge by construction.
  DynamicGraph graph = DynamicGraph::FromGraph(*base);
  ASSERT_TRUE(graph.Apply(stream).ok());

  size_t deletes = 0;
  for (const auto& update : stream) {
    if (update.kind == EdgeUpdate::Kind::kDelete) ++deletes;
    EXPECT_NE(update.src, update.dst) << "inserts never add self-loops";
  }
  if (delete_fraction == 0.0) {
    EXPECT_EQ(deletes, 0u);
  } else {
    // Loose binomial band (n=500).
    EXPECT_GT(deletes, 500 * delete_fraction * 0.5);
    EXPECT_LT(deletes, 500 * delete_fraction * 1.5 + 10);
  }
  EXPECT_EQ(graph.num_edges(),
            base->num_edges() + (stream.size() - deletes) - deletes);
}

INSTANTIATE_TEST_SUITE_P(DeleteFractions, UpdateStreamTest,
                         ::testing::Values(0.0, 0.2, 0.5));

// n == 1: no non-self-loop insert exists, so the stream must degrade
// to deletions of the pre-existing edges and end short — never emit a
// self-loop insert (the redraw loop would otherwise spin forever or,
// in the old guarded form, emit src == dst).
TEST(UpdateStreamTest, SingleNodeGraphNeverEmitsSelfLoop) {
  // A 1-node graph with two self-loop edges already present (built
  // directly: GenerateUpdateStream only reads the CSR).
  auto loops = Graph::FromSortedCsr(1, {0, 2}, {0, 0});
  ASSERT_TRUE(loops.ok());
  const auto stream = GenerateUpdateStream(*loops, 50, 0.5, /*seed=*/4);
  EXPECT_LE(stream.size(), 2u) << "stream ends once no live edge remains";
  for (const auto& update : stream) {
    EXPECT_EQ(update.kind, EdgeUpdate::Kind::kDelete)
        << "single-node streams can only delete";
  }

  // Edgeless single node: nothing to delete, nothing insertable.
  auto lone = Graph::FromSortedCsr(1, {0, 0}, {});
  ASSERT_TRUE(lone.ok());
  EXPECT_TRUE(GenerateUpdateStream(*lone, 50, 0.5, /*seed=*/4).empty());
}

TEST(UpdateStreamTest, DeterministicInSeed) {
  auto base = GenerateErdosRenyi(30, 100, /*seed=*/1);
  ASSERT_TRUE(base.ok());
  auto s1 = GenerateUpdateStream(*base, 100, 0.3, 99);
  auto s2 = GenerateUpdateStream(*base, 100, 0.3, 99);
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].kind, s2[i].kind);
    EXPECT_EQ(s1[i].src, s2[i].src);
    EXPECT_EQ(s1[i].dst, s2[i].dst);
  }
}

}  // namespace
}  // namespace simpush
