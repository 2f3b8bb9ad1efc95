// ResultCache tests: the generation-keyed result cache must be
// provably safe to serve from — LRU eviction order, hard byte-budget
// enforcement, TinyLFU admission (one-shot sources cannot flush hot
// entries), ranked-only entries that answer just the top-k their prefix
// holds, zero steady-state allocations on the hit path (this binary
// links simpush_alloc_hook), and an 8-thread hammer where every hit is
// bitwise-identical to a fresh serial engine run. Runs under the
// `concurrency` ctest label so the TSan CI job covers the shard races.

#include "serve/result_cache.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "gtest/gtest.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/topk.h"
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

// A cache sized (single shard, deterministic LRU order) to hold
// exactly `capacity` entries of `num_scores`-sized results.
ResultCacheConfig SmallConfig(size_t capacity, size_t num_scores) {
  ResultCacheConfig config;
  config.byte_budget = capacity * ResultCache::EntryBytes(num_scores);
  config.shards = 1;
  return config;
}

SimPushResult MakeResult(size_t num_scores, double fill) {
  SimPushResult result;
  result.scores.assign(num_scores, fill);
  result.stats.walks_sampled = static_cast<uint64_t>(fill * 1000);
  return result;
}

// A result with one nonzero score in every `stride` (stride 20: 5%
// nonzero, the sparsity SimPush answers have on web-like graphs).
SimPushResult MakeSparseResult(size_t num_scores, size_t stride,
                               double fill) {
  SimPushResult result;
  result.scores.assign(num_scores, 0.0);
  for (size_t v = 0; v < num_scores; v += stride) {
    result.scores[v] = fill + 1e-6 * static_cast<double>(v);
  }
  return result;
}

size_t NonzeroCount(const SimPushResult& result) {
  size_t count = 0;
  for (double score : result.scores) count += score != 0.0;
  return count;
}

// The scores a full entry stores: every nonzero bit pattern, -0.0
// included.
size_t StoredCount(const SimPushResult& result) {
  size_t count = 0;
  for (double score : result.scores) {
    count += score != 0.0 || std::signbit(score);
  }
  return count;
}

// Bitwise equality: operator== on doubles would let -0.0 stand in for
// +0.0 (and fail on NaN), but a cached answer must reproduce the bits.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The service flow: every lookup touches the sketch, so simulate
// `accesses` requests for `node` (misses included) before the insert
// that follows the last miss.
void AccessThenInsert(ResultCache* cache, NodeId node, uint64_t fingerprint,
                      const SimPushResult& result, int accesses) {
  SimPushResult scratch;
  for (int i = 0; i < accesses; ++i) {
    cache->Get(node, fingerprint, &scratch);
  }
  cache->Insert(node, fingerprint, result);
}

TEST(OptionsFingerprint, CanonicalizesExactlyTheScoreAffectingFields) {
  const SimPushOptions base = FastOptions();
  // Every score-affecting field must split the key space.
  SimPushOptions changed = base;
  changed.epsilon = 0.2;
  EXPECT_NE(OptionsFingerprint(base), OptionsFingerprint(changed));
  changed = base;
  changed.decay = 0.5;
  EXPECT_NE(OptionsFingerprint(base), OptionsFingerprint(changed));
  changed = base;
  changed.delta = 1e-5;
  EXPECT_NE(OptionsFingerprint(base), OptionsFingerprint(changed));
  changed = base;
  changed.seed = 43;
  EXPECT_NE(OptionsFingerprint(base), OptionsFingerprint(changed));
  changed = base;
  changed.walk_budget_cap = 12345;
  EXPECT_NE(OptionsFingerprint(base), OptionsFingerprint(changed));
  changed = base;
  changed.use_level_detection = !base.use_level_detection;
  EXPECT_NE(OptionsFingerprint(base), OptionsFingerprint(changed));
  changed = base;
  changed.use_gamma_correction = !base.use_gamma_correction;
  EXPECT_NE(OptionsFingerprint(base), OptionsFingerprint(changed));
}

TEST(ResultCacheTest, HitReturnsStoredScoresAndStats) {
  ResultCache cache(SmallConfig(4, 16));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  const SimPushResult stored = MakeResult(16, 0.5);
  AccessThenInsert(&cache, 3, fp, stored, 1);

  SimPushResult out;
  ASSERT_TRUE(cache.Get(3, fp, &out));
  EXPECT_EQ(out.scores, stored.scores);
  EXPECT_EQ(out.stats.walks_sampled, stored.stats.walks_sampled);
  // Different node / different fingerprint miss.
  EXPECT_FALSE(cache.Get(4, fp, &out));
  EXPECT_FALSE(cache.Get(3, fp ^ 1, &out));
}

TEST(ResultCacheTest, HitIsBitIdentical) {
  // Every shape of zero and nonzero a score vector can hold: runs of
  // +0.0, a -0.0, a subnormal, 1.0 and a nonzero last score.
  SimPushResult stored;
  stored.scores.assign(64, 0.0);
  stored.scores[3] = -0.0;
  stored.scores[7] = std::numeric_limits<double>::denorm_min();
  stored.scores[8] = 1.0;
  stored.scores[20] = 0.125;
  stored.scores[63] = 3e-300;
  stored.stats.walks_sampled = 77;
  ResultCache cache(SmallConfig(4, stored.scores.size()));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  AccessThenInsert(&cache, 5, fp, stored, 1);

  SimPushResult out;
  out.scores.assign(200, 9.0);  // A warm buffer of the wrong size.
  ASSERT_TRUE(cache.Get(5, fp, &out));
  EXPECT_TRUE(SameBits(out.scores, stored.scores));
  EXPECT_TRUE(std::signbit(out.scores[3]));
  EXPECT_EQ(out.stats.walks_sampled, 77u);
}

TEST(ResultCacheTest, LruEvictionOrder) {
  // Room for exactly 3 entries, one shard.
  ResultCache cache(SmallConfig(3, 16));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  AccessThenInsert(&cache, 0, fp, MakeResult(16, 0.0), 1);  // A
  AccessThenInsert(&cache, 1, fp, MakeResult(16, 0.1), 1);  // B
  AccessThenInsert(&cache, 2, fp, MakeResult(16, 0.2), 1);  // C
  EXPECT_EQ(cache.entries(), 3u);

  // Touch A so B becomes the LRU victim, then insert D with enough
  // sketch frequency (2 accesses) to win the admission duel against
  // B's 1.
  SimPushResult out;
  ASSERT_TRUE(cache.Get(0, fp, &out));
  AccessThenInsert(&cache, 3, fp, MakeResult(16, 0.3), 2);  // D

  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_TRUE(cache.Get(0, fp, &out));   // A survived (recently used).
  EXPECT_FALSE(cache.Get(1, fp, &out));  // B was the LRU victim.
  EXPECT_TRUE(cache.Get(2, fp, &out));   // C survived.
  EXPECT_TRUE(cache.Get(3, fp, &out));   // D was admitted.
  EXPECT_GE(cache.metrics()->evictions.load(), 1u);
}

TEST(ResultCacheTest, ByteBudgetIsAHardBound) {
  const size_t budget = 3 * ResultCache::EntryBytes(64);
  ResultCacheConfig config;
  config.byte_budget = budget;
  config.shards = 1;
  ResultCache cache(config);
  const uint64_t fp = OptionsFingerprint(FastOptions());
  for (NodeId u = 0; u < 50; ++u) {
    // Ramp accesses so later inserts win their admission duels — the
    // budget must hold even when every insert is admitted.
    AccessThenInsert(&cache, u, fp, MakeResult(64, 0.01 * u),
                     1 + static_cast<int>(u));
    EXPECT_LE(cache.bytes(), budget);
    EXPECT_LE(cache.entries(), 3u);
  }
  EXPECT_GT(cache.metrics()->evictions.load(), 0u);
}

TEST(ResultCacheTest, OneShotSourceCannotEvictHotEntries) {
  ResultCache cache(SmallConfig(2, 16));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  // Two hot entries: many sketch touches each.
  AccessThenInsert(&cache, 0, fp, MakeResult(16, 0.0), 8);
  AccessThenInsert(&cache, 1, fp, MakeResult(16, 0.1), 8);
  ASSERT_EQ(cache.entries(), 2u);

  // A sweep of one-shot sources (single access each, the scan shape):
  // none may displace the hot pair.
  const uint64_t rejects_before = cache.metrics()->admission_rejects.load();
  for (NodeId u = 100; u < 120; ++u) {
    AccessThenInsert(&cache, u, fp, MakeResult(16, 0.5), 1);
  }
  SimPushResult out;
  EXPECT_TRUE(cache.Get(0, fp, &out));
  EXPECT_TRUE(cache.Get(1, fp, &out));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_GE(cache.metrics()->admission_rejects.load(), rejects_before + 20);
}

TEST(ResultCacheTest, OversizedEntryIsRejectedOutright) {
  ResultCache cache(SmallConfig(2, 16));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  EXPECT_FALSE(cache.Insert(0, fp, MakeResult(100000, 0.5)));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_GE(cache.metrics()->admission_rejects.load(), 1u);
}

TEST(ResultCacheTest, SparseEntriesAreChargedForWhatTheyStore) {
  // Budgeted for 2 dense 4 096-score entries; 5%-nonzero entries cost
  // ~18x less, so the same bytes hold many more of them.
  constexpr size_t kScores = 4096;
  ResultCache cache(SmallConfig(2, kScores));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  size_t charged = 0;
  for (NodeId u = 0; u < 40; ++u) {
    const SimPushResult result = MakeSparseResult(kScores, 20, 0.01 * (u + 1));
    ASSERT_EQ(NonzeroCount(result), 205u);
    SimPushResult scratch;
    cache.Get(u, fp, &scratch);
    if (cache.Insert(u, fp, result)) {
      charged += ResultCache::EntryBytes(NonzeroCount(result));
    }
    EXPECT_EQ(cache.bytes(), charged);
    EXPECT_LE(cache.bytes(), cache.budget_bytes());
  }
  EXPECT_GE(cache.entries(), 10u);
  EXPECT_EQ(cache.metrics()->evictions.load(), 0u);

  // Each hit still rebuilds the full-length, bit-identical vector.
  SimPushResult out;
  ASSERT_TRUE(cache.Get(0, fp, &out));
  EXPECT_TRUE(
      SameBits(out.scores, MakeSparseResult(kScores, 20, 0.01).scores));
}

TEST(ResultCacheTest, DenseEntryCostsItsFullLength) {
  constexpr size_t kScores = 4096;
  ResultCache cache(SmallConfig(2, kScores));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  AccessThenInsert(&cache, 1, fp, MakeResult(kScores, 0.5), 1);
  ASSERT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), ResultCache::EntryBytes(kScores));
  // An all-zero vector stores no scores at all.
  AccessThenInsert(&cache, 2, fp, MakeResult(kScores, 0.0), 1);
  EXPECT_EQ(cache.bytes(),
            ResultCache::EntryBytes(kScores) + ResultCache::EntryBytes(0));
  SimPushResult out;
  ASSERT_TRUE(cache.Get(2, fp, &out));
  EXPECT_TRUE(SameBits(out.scores, MakeResult(kScores, 0.0).scores));
}

// Admission duels the LRU victim before it counts nonzeros whenever a
// dense-sized entry would not fit, so a colder candidate is rejected
// even when its sparse entry would have fit in the headroom left.
TEST(ResultCacheTest, ColderCandidateLosesBeforeTheNonzeroCount) {
  constexpr size_t kScores = 4096;
  ResultCache cache(SmallConfig(2, kScores));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  AccessThenInsert(&cache, 0, fp, MakeResult(kScores, 0.5), 2);  // Victim.
  AccessThenInsert(&cache, 1, fp, MakeSparseResult(kScores, 20, 0.1), 8);
  ASSERT_EQ(cache.entries(), 2u);
  const size_t sparse_bytes = ResultCache::EntryBytes(205);
  ASSERT_GT(cache.bytes() + ResultCache::EntryBytes(kScores),
            cache.budget_bytes());
  ASSERT_LE(cache.bytes() + sparse_bytes, cache.budget_bytes());

  // Cold (1 access against the victim's 2): rejected, nothing evicted.
  const uint64_t rejects = cache.metrics()->admission_rejects.load();
  AccessThenInsert(&cache, 2, fp, MakeSparseResult(kScores, 20, 0.2), 1);
  EXPECT_EQ(cache.metrics()->admission_rejects.load(), rejects + 1);
  EXPECT_EQ(cache.entries(), 2u);

  // Warmer (3 accesses): wins the duel, then fits without an eviction.
  AccessThenInsert(&cache, 3, fp, MakeSparseResult(kScores, 20, 0.3), 3);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.metrics()->evictions.load(), 0u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

// A hand-built result for `source` with `positives` positive scores
// other than the source's own 1.0, drawn from four values so ties run
// across every rank (the prefix boundary included), interleaved with
// -0.0, negatives and runs of +0.0.
SimPushResult MakeRankedResult(NodeId source, size_t positives) {
  SimPushResult result;
  result.scores.assign(4 * positives + 16, 0.0);
  result.scores[source] = 1.0;
  size_t placed = 0;
  for (size_t v = 0; placed < positives; ++v) {
    if (v == source) continue;
    switch (v % 4) {
      case 0:
        result.scores[v] = 0.25 / static_cast<double>(1 + placed % 4);
        ++placed;
        break;
      case 1:
        result.scores[v] = -0.0;
        break;
      case 2:
        result.scores[v] = -0.5 / static_cast<double>(1 + v % 3);
        break;
      default:
        break;  // +0.0
    }
  }
  result.stats.walks_sampled = positives;
  return result;
}

// A top-k hit equals ranking the scores Get rebuilds: from the prefix
// copy (k <= R, or a prefix that holds every positive score) and from
// ranking the stored pairs (k > R past a cut prefix). Positive counts
// straddle R.
TEST(ResultCacheTest, GetTopKMatchesSelectTopKOfGet) {
  constexpr size_t R = ResultCache::kRankedPrefix;
  const uint64_t fp = OptionsFingerprint(FastOptions());
  for (const size_t positives : {size_t{0}, size_t{5}, R - 1, R, R + 1,
                                 size_t{150}}) {
    const NodeId source = 6;
    const SimPushResult stored = MakeRankedResult(source, positives);
    ResultCache cache(SmallConfig(1, stored.scores.size()));
    ASSERT_TRUE(cache.Insert(source, fp, stored));
    SimPushResult full;
    ASSERT_TRUE(cache.Get(source, fp, &full));
    const size_t nnz = NonzeroCount(full);
    for (const size_t k : {size_t{0}, size_t{1}, R, R + 1, nnz + 5}) {
      std::vector<TopKEntry> top(3, TopKEntry{1, 9.0});  // Stale contents.
      SimPushQueryStats stats;
      ASSERT_TRUE(cache.GetTopK(source, fp, k, &top, &stats));
      std::vector<TopKEntry> expected;
      SelectTopK(full.scores, k, source, &expected);
      EXPECT_TRUE(testing_util::SameRanking(top, expected))
          << "positives " << positives << " k " << k;
      EXPECT_EQ(top.size(), std::min(k, positives));
      EXPECT_EQ(stats.walks_sampled, positives);
    }
  }
}

// GetTopK is the same lookup as Get: driven by one script, a cache read
// through GetTopK hits, misses, admits and evicts exactly as one read
// through Get. The script is LruEvictionOrder's followed by
// OneShotSourceCannotEvictHotEntries' scan of one-shot sources.
TEST(ResultCacheTest, GetTopKMovesCountersAndLruLikeGet) {
  const uint64_t fp = OptionsFingerprint(FastOptions());
  std::vector<bool> outcomes[2];
  std::shared_ptr<ResultCacheMetrics> metrics[2];
  for (const bool ranked : {false, true}) {
    ResultCache cache(SmallConfig(3, 16));
    std::vector<bool>& seen = outcomes[ranked];
    const auto read = [&](NodeId node) {
      SimPushResult out;
      std::vector<TopKEntry> top;
      seen.push_back(ranked ? cache.GetTopK(node, fp, 10, &top, &out.stats)
                            : cache.Get(node, fp, &out));
    };
    const auto read_then_insert = [&](NodeId node, int reads) {
      for (int i = 0; i < reads; ++i) read(node);
      seen.push_back(cache.Insert(node, fp, MakeResult(16, 0.1 * node)));
    };
    read_then_insert(0, 1);
    read_then_insert(1, 1);
    read_then_insert(2, 1);
    read(0);
    read_then_insert(3, 2);  // Evicts the LRU victim, 1.
    for (NodeId u = 100; u < 110; ++u) read_then_insert(u, 1);
    for (NodeId u = 0; u < 4; ++u) read(u);
    metrics[ranked] = cache.metrics();
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(std::vector<bool>(outcomes[1].end() - 4, outcomes[1].end()),
            (std::vector<bool>{true, false, true, true}));
  EXPECT_EQ(metrics[0]->hits.load(), metrics[1]->hits.load());
  EXPECT_EQ(metrics[0]->misses.load(), metrics[1]->misses.load());
  EXPECT_EQ(metrics[0]->inserts.load(), metrics[1]->inserts.load());
  EXPECT_EQ(metrics[0]->evictions.load(), metrics[1]->evictions.load());
  EXPECT_EQ(metrics[0]->admission_rejects.load(),
            metrics[1]->admission_rejects.load());
  EXPECT_EQ(metrics[1]->evictions.load(), 1u);
  EXPECT_EQ(metrics[1]->admission_rejects.load(), 10u);
}

// What a top-k miss inserts: SelectTopK of the scores one past the
// ranked prefix.
std::vector<TopKEntry> RankOnePastPrefix(const SimPushResult& result,
                                         NodeId source) {
  std::vector<TopKEntry> ranked;
  SelectTopK(result.scores, ResultCache::kRankedPrefix + 1, source, &ranked);
  return ranked;
}

// A ranked-only entry answers a top-k its prefix holds with exactly
// what ranking the full vector would, and misses the rest: k past a
// prefix that was cut at kRankedPrefix.
TEST(ResultCacheTest, RankedOnlyEntryMatchesSelectTopKOfTheScores) {
  constexpr size_t R = ResultCache::kRankedPrefix;
  const uint64_t fp = OptionsFingerprint(FastOptions());
  for (const size_t positives :
       {size_t{0}, size_t{5}, R, R + 1, size_t{150}}) {
    const NodeId source = 6;
    const SimPushResult computed = MakeRankedResult(source, positives);
    ResultCache cache(SmallConfig(1, computed.scores.size()));
    ASSERT_TRUE(cache.InsertRanked(source, fp,
                                   RankOnePastPrefix(computed, source),
                                   computed.stats));
    EXPECT_EQ(cache.bytes(),
              ResultCache::RankedEntryBytes(std::min(positives, R)));
    for (const size_t k : {size_t{0}, size_t{1}, R, R + 1}) {
      std::vector<TopKEntry> top(3, TopKEntry{1, 9.0});  // Stale contents.
      SimPushQueryStats stats;
      const bool hit = cache.GetTopK(source, fp, k, &top, &stats);
      EXPECT_EQ(hit, k <= R || positives <= R)
          << "positives " << positives << " k " << k;
      if (!hit) continue;
      std::vector<TopKEntry> expected;
      SelectTopK(computed.scores, k, source, &expected);
      EXPECT_TRUE(testing_util::SameRanking(top, expected))
          << "positives " << positives << " k " << k;
      EXPECT_EQ(stats.walks_sampled, positives);
    }
    SimPushResult full;
    EXPECT_FALSE(cache.Get(source, fp, &full)) << "positives " << positives;
  }
}

// Get, and a k past a cut prefix, miss a ranked-only entry like an
// absent key: the miss is counted and the entry stays the LRU victim.
TEST(ResultCacheTest, RankedOnlyMissCountsAndKeepsLruOrder) {
  constexpr size_t R = ResultCache::kRankedPrefix;
  const uint64_t fp = OptionsFingerprint(FastOptions());
  ResultCacheConfig config;
  config.byte_budget =
      ResultCache::RankedEntryBytes(R) + 2 * ResultCache::EntryBytes(16);
  config.shards = 1;
  ResultCache cache(config);
  const SimPushResult ranked = MakeRankedResult(1, 150);
  ASSERT_TRUE(
      cache.InsertRanked(1, fp, RankOnePastPrefix(ranked, 1), ranked.stats));
  ASSERT_TRUE(cache.Insert(0, fp, MakeResult(16, 0.5)));
  ASSERT_TRUE(cache.Insert(2, fp, MakeResult(16, 0.25)));
  ASSERT_EQ(cache.bytes(), cache.budget_bytes());

  const ResultCacheMetrics& metrics = *cache.metrics();
  SimPushResult out;
  std::vector<TopKEntry> top;
  EXPECT_FALSE(cache.Get(1, fp, &out));
  EXPECT_FALSE(cache.GetTopK(1, fp, R + 1, &top, &out.stats));
  EXPECT_EQ(metrics.misses.load(), 2u);
  EXPECT_EQ(metrics.hits.load(), 0u);

  // A hot ranked-only entry of the same size needs one eviction: the
  // victim is still node 1, the first inserted.
  const SimPushResult hot = MakeRankedResult(3, 150);
  for (int i = 0; i < 8; ++i) cache.GetTopK(3, fp, 10, &top, &out.stats);
  ASSERT_TRUE(cache.InsertRanked(3, fp, RankOnePastPrefix(hot, 3), hot.stats));
  EXPECT_EQ(metrics.evictions.load(), 1u);
  EXPECT_FALSE(cache.GetTopK(1, fp, 10, &top, &out.stats));
  EXPECT_TRUE(cache.Get(0, fp, &out));
  EXPECT_TRUE(cache.Get(2, fp, &out));
  EXPECT_TRUE(cache.GetTopK(3, fp, 10, &top, &out.stats));
}

// The full insert that follows a ranked-only entry's miss replaces it
// and charges the full entry's bytes in its place; one the budget
// rejects leaves it cached.
TEST(ResultCacheTest, FullInsertReplacesRankedOnlyEntry) {
  constexpr size_t R = ResultCache::kRankedPrefix;
  const uint64_t fp = OptionsFingerprint(FastOptions());
  const NodeId source = 6;
  const SimPushResult computed = MakeRankedResult(source, 150);
  const SimPushResult other = MakeResult(16, 0.5);
  ResultCache cache(SmallConfig(2, computed.scores.size()));
  ASSERT_TRUE(cache.Insert(0, fp, other));
  ASSERT_TRUE(cache.InsertRanked(source, fp,
                                 RankOnePastPrefix(computed, source),
                                 computed.stats));
  EXPECT_EQ(cache.bytes(), ResultCache::EntryBytes(NonzeroCount(other)) +
                               ResultCache::RankedEntryBytes(R));

  SimPushResult full;
  ASSERT_FALSE(cache.Get(source, fp, &full));
  ASSERT_TRUE(cache.Insert(source, fp, computed));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), ResultCache::EntryBytes(NonzeroCount(other)) +
                               ResultCache::EntryBytes(StoredCount(computed)));
  EXPECT_EQ(cache.metrics()->inserts.load(), 3u);
  EXPECT_EQ(cache.metrics()->evictions.load(), 0u);
  ASSERT_TRUE(cache.Get(source, fp, &full));
  EXPECT_TRUE(SameBits(full.scores, computed.scores));
  std::vector<TopKEntry> top, expected;
  SimPushQueryStats stats;
  ASSERT_TRUE(cache.GetTopK(source, fp, R + 1, &top, &stats));
  SelectTopK(computed.scores, R + 1, source, &expected);
  EXPECT_TRUE(testing_util::SameRanking(top, expected));

  // Too large for the budget: the full insert is rejected and the
  // ranked-only entry keeps answering.
  ResultCacheConfig tight;
  tight.byte_budget = ResultCache::RankedEntryBytes(R);
  tight.shards = 1;
  ResultCache small(tight);
  ASSERT_TRUE(small.InsertRanked(source, fp,
                                 RankOnePastPrefix(computed, source),
                                 computed.stats));
  EXPECT_FALSE(small.Insert(source, fp, computed));
  EXPECT_EQ(small.bytes(), ResultCache::RankedEntryBytes(R));
  EXPECT_TRUE(small.GetTopK(source, fp, 10, &top, &stats));
}

// InsertRanked never replaces: a full entry, or an earlier ranked-only
// one, stays as it is.
TEST(ResultCacheTest, InsertRankedLeavesPresentEntryInPlace) {
  constexpr size_t R = ResultCache::kRankedPrefix;
  const uint64_t fp = OptionsFingerprint(FastOptions());
  const NodeId source = 6;
  const SimPushResult computed = MakeRankedResult(source, 150);
  const std::vector<TopKEntry> ranked = RankOnePastPrefix(computed, source);
  ResultCache cache(SmallConfig(2, computed.scores.size()));
  ASSERT_TRUE(cache.Insert(source, fp, computed));
  const size_t full_bytes = ResultCache::EntryBytes(StoredCount(computed));
  ASSERT_EQ(cache.bytes(), full_bytes);
  EXPECT_TRUE(cache.InsertRanked(source, fp, ranked, computed.stats));
  EXPECT_EQ(cache.bytes(), full_bytes);
  EXPECT_EQ(cache.entries(), 1u);
  SimPushResult full;
  ASSERT_TRUE(cache.Get(source, fp, &full));
  EXPECT_TRUE(SameBits(full.scores, computed.scores));

  ASSERT_TRUE(cache.InsertRanked(7, fp, ranked, computed.stats));
  EXPECT_TRUE(cache.InsertRanked(7, fp, ranked, computed.stats));
  EXPECT_EQ(cache.bytes(), full_bytes + ResultCache::RankedEntryBytes(R));
  EXPECT_EQ(cache.metrics()->inserts.load(), 2u);
}

TEST(ResultCacheTest, ZeroBudgetDisablesInserts) {
  ResultCacheConfig config;
  config.byte_budget = 0;
  ResultCache cache(config);
  EXPECT_FALSE(cache.Insert(0, 1, MakeResult(16, 0.5)));
  SimPushResult out;
  EXPECT_FALSE(cache.Get(0, 1, &out));
}

TEST(ResultCacheTest, DistinctInstancesNeverCrossTalk) {
  // Tenant/generation isolation is structural: each generation owns
  // its own instance, so an entry in one can never answer for another
  // even with identical (node, fingerprint).
  ResultCache cache_a(SmallConfig(4, 16));
  ResultCache cache_b(SmallConfig(4, 16));
  const uint64_t fp = OptionsFingerprint(FastOptions());
  AccessThenInsert(&cache_a, 3, fp, MakeResult(16, 0.5), 1);
  SimPushResult out;
  EXPECT_TRUE(cache_a.Get(3, fp, &out));
  EXPECT_FALSE(cache_b.Get(3, fp, &out));
}

TEST(ResultCacheTest, SharedMetricsSurviveInstanceTurnover) {
  // The registry threads one metrics object through every generation:
  // hit counters must accumulate across cache instances.
  auto metrics = std::make_shared<ResultCacheMetrics>();
  const uint64_t fp = OptionsFingerprint(FastOptions());
  for (int generation = 0; generation < 3; ++generation) {
    ResultCacheConfig config = SmallConfig(4, 16);
    config.metrics = metrics;
    ResultCache cache(config);
    AccessThenInsert(&cache, 3, fp, MakeResult(16, 0.5), 1);
    SimPushResult out;
    EXPECT_TRUE(cache.Get(3, fp, &out));
  }
  EXPECT_EQ(metrics->hits.load(), 3u);
  EXPECT_EQ(metrics->misses.load(), 3u);
  EXPECT_EQ(metrics->inserts.load(), 3u);
}

TEST(ResultCacheZeroAlloc, HitPathSteadyState) {
  ResultCacheConfig config;
  config.byte_budget = 8u << 20;
  ResultCache cache(config);
  const uint64_t fp = OptionsFingerprint(FastOptions());
  cache.Insert(7, fp, MakeResult(4096, 0.25));

  SimPushResult out;
  ASSERT_TRUE(cache.Get(7, fp, &out));  // Warm the output buffers.

  const AllocationStats before = GetAllocationStats();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.Get(7, fp, &out));
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "cache hits must not allocate in steady state";

  // Top-k hits: a prefix copy (k = 10) and a ranking of the stored
  // pairs (k past the prefix), once the top buffer is warm.
  for (const size_t k : {size_t{10}, ResultCache::kRankedPrefix + 1}) {
    std::vector<TopKEntry> top;
    ASSERT_TRUE(cache.GetTopK(7, fp, k, &top, &out.stats));
    ASSERT_EQ(top.size(), k);
    const AllocationStats top_before = GetAllocationStats();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(cache.GetTopK(7, fp, k, &top, &out.stats));
    }
    const AllocationStats top_after = GetAllocationStats();
    EXPECT_EQ(top_after.allocations - top_before.allocations, 0u)
        << "top-" << k << " cache hits must not allocate in steady state";
  }

  // A top-10 hit on a ranked-only entry, the entry a top-k miss
  // inserts.
  const SimPushResult ranked = MakeRankedResult(8, 150);
  ASSERT_TRUE(
      cache.InsertRanked(8, fp, RankOnePastPrefix(ranked, 8), ranked.stats));
  std::vector<TopKEntry> top;
  ASSERT_TRUE(cache.GetTopK(8, fp, 10, &top, &out.stats));
  ASSERT_EQ(top.size(), 10u);
  const AllocationStats ranked_before = GetAllocationStats();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.GetTopK(8, fp, 10, &top, &out.stats));
  }
  const AllocationStats ranked_after = GetAllocationStats();
  EXPECT_EQ(ranked_after.allocations - ranked_before.allocations, 0u)
      << "ranked-only cache hits must not allocate in steady state";
}

// The headline concurrency test: 8 threads hammer a shared cache over
// a hot node set with the real engine computing misses, mixing the
// service's three read shapes on the same keys: full-vector reads
// (Get, then Insert), top-k reads the ranked prefix holds (GetTopK,
// then InsertRanked of the ranking one past the prefix) and top-k
// reads past it (GetTopK, then Insert, which replaces a ranked-only
// entry). On every hit in flight the answer must be bitwise-identical
// to a fresh serial engine run at the same options. TSan-clean.
TEST(ResultCacheConcurrency, EightThreadHammerHitsAreBitIdentical) {
  const Graph graph = testing_util::RandomGraph(200, 1200, /*seed=*/9);
  const SimPushOptions options = FastOptions();
  const EngineCore core(graph, options);
  ASSERT_TRUE(core.options_status().ok());
  const uint64_t fp = OptionsFingerprint(options);
  constexpr size_t kReadK[] = {0, 10, ResultCache::kRankedPrefix + 1};

  // Serial reference, computed up front on a private runner: each hot
  // node's scores and their top k for each ranked read.
  constexpr NodeId kHotNodes = 10;
  std::vector<std::vector<double>> reference(kHotNodes);
  std::vector<std::vector<TopKEntry>> reference_top[3];
  {
    QueryWorkspace workspace;
    QueryRunner runner(core, &workspace);
    SimPushResult result;
    for (size_t shape = 0; shape < 3; ++shape) {
      reference_top[shape].resize(kHotNodes);
    }
    for (NodeId u = 0; u < kHotNodes; ++u) {
      ASSERT_TRUE(runner.QueryInto(u, &result).ok());
      reference[u] = result.scores;
      for (size_t shape = 1; shape < 3; ++shape) {
        SelectTopK(result.scores, kReadK[shape], u,
                   &reference_top[shape][u]);
      }
    }
  }

  ResultCacheConfig config;
  config.byte_budget = 4u << 20;
  ResultCache cache(config);
  // Even nodes start ranked-only, so full reads replace entries while
  // other threads read them.
  for (NodeId u = 0; u < kHotNodes; u += 2) {
    std::vector<TopKEntry> ranked;
    SelectTopK(reference[u], ResultCache::kRankedPrefix + 1, u, &ranked);
    ASSERT_TRUE(cache.InsertRanked(u, fp, ranked, SimPushQueryStats()));
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<uint64_t> observed_hits{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryWorkspace workspace;
      QueryRunner runner(core, &workspace);
      SimPushResult result;
      std::vector<TopKEntry> top;
      uint64_t state = 0x9E3779B97F4A7C15ull ^ (t * 0x100000001B3ull);
      for (int i = 0; i < kItersPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const NodeId u = static_cast<NodeId>((state >> 33) % kHotNodes);
        const size_t shape = (state >> 20) % 3;
        const size_t k = kReadK[shape];
        const bool hit = shape == 0
                             ? cache.Get(u, fp, &result)
                             : cache.GetTopK(u, fp, k, &top, &result.stats);
        if (hit) {
          observed_hits.fetch_add(1);
        } else {
          if (!runner.QueryInto(u, &result).ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          if (k > 0 && k <= ResultCache::kRankedPrefix) {
            SelectTopK(result.scores, ResultCache::kRankedPrefix + 1, u,
                       &top);
            cache.InsertRanked(u, fp, top, result.stats);
            if (top.size() > k) top.resize(k);
          } else {
            cache.Insert(u, fp, result);
            if (k > 0) SelectTopK(result.scores, k, u, &top);
          }
        }
        // Bitwise comparison against the serial reference — a cache
        // that ever served stale, torn, or wrong-key answers fails
        // here.
        const bool same =
            shape == 0
                ? SameBits(result.scores, reference[u])
                : testing_util::SameRanking(top, reference_top[shape][u]);
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(observed_hits.load(), 0u);
  EXPECT_EQ(cache.metrics()->hits.load(), observed_hits.load());
  EXPECT_LE(cache.entries(), static_cast<size_t>(kHotNodes));
  // Nothing was evicted, so every insert past one per entry replaced a
  // ranked-only entry.
  EXPECT_EQ(cache.metrics()->evictions.load(), 0u);
  EXPECT_GT(cache.metrics()->inserts.load(), cache.entries());
}

}  // namespace
}  // namespace serve
}  // namespace simpush
