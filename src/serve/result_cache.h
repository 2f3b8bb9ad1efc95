// Generation-keyed result cache for skewed query traffic.
//
// Production SimRank query streams are Zipfian: a small set of hot
// source nodes dominates. Because generations are immutable and every
// score vector is a bit-exact function of (graph snapshot, effective
// options, source node) — the determinism contract locked in by the
// counter-based walk streams — a cached result can be served verbatim
// with zero invalidation logic. The cache is owned by its
// GraphGeneration: when a swap publishes, the old generation (and its
// cache with it) dies as soon as the last lease drops. There is no
// invalidation path because there is nothing to invalidate — entries
// can never outlive the snapshot they were computed on.
//
// Keying. An entry is identified by (generation id, source node,
// options fingerprint). The generation id is implicit: a cache belongs
// to exactly one generation and is only reachable through a lease on
// it. The fingerprint canonicalizes the *effective* options: the tenant's
// options merged with any per-request ε override, hashed over exactly
// the score-affecting fields (ε, c, δ, seed, walk cap, level
// detection, gamma correction). A request that explicitly passes the
// tenant's own ε fingerprints identically to one that passes none —
// default-vs-explicit options are the same key by construction.
//
// Admission (TinyLFU-style). Every lookup — hit or miss — bumps the
// key in a count-min frequency sketch with periodic halving, so the
// sketch remembers which sources are hot even before they are cached.
// An insert that fits in the byte budget is admitted outright. An
// insert that would require eviction must *earn* its slot: the
// candidate's sketch frequency has to exceed the LRU victim's,
// otherwise the insert is rejected (admission_rejects). This is what
// keeps a scan of one-shot sources from flushing the hot set.
//
// Storage. Two kinds of entry share one LRU and one budget. A full
// entry holds a score vector: SimPush scores are mostly zeros (the push
// phases only touch nodes near the source), so it keeps just the
// scores whose bit pattern is nonzero, as ascending (node id, score)
// pairs, and Get() scatters them back into a zeroed vector of the
// original length. -0.0 is a nonzero bit pattern and is stored, so a
// hit is bit-identical to the computed vector. A ranked-only entry
// holds no vector at all, just the ranked prefix below and the stats:
// it is what a top-k miss inserts, since almost every read is a top-k
// and a whole vector costs 20-60 times more.
//
// Ranked prefix. Every entry keeps the first min(kRankedPrefix, P)
// (node id, score) pairs of SelectTopK(scores, ·, source), where P
// counts the positive scores other than the source's, and whether they
// are all P. GetTopK answers k up to the prefix's length, or any k
// when the prefix holds all P, by copying k pairs. Past that a full
// entry ranks its stored pairs, still never touching the n zeros, and
// a ranked-only entry misses, as it does for Get. A miss on a
// ranked-only entry leaves it where it is in the LRU; the full Insert
// that follows replaces it, the one insert that replaces a key.
//
// Budget. A hard per-tenant byte budget, split evenly across shards and
// charged for what an entry actually stores: EntryBytes of a full
// entry's stored score count, which includes a whole prefix of
// kRankedPrefix pairs, and RankedEntryBytes of a ranked-only entry's
// pair count. Entries larger than a shard's budget are never admitted.
//
// Counting an entry's nonzeros is an O(n) scan, so it is only paid for
// an insert that can still be admitted: when even a dense entry
// (EntryBytes(n)) would need an eviction, the duel against the LRU
// victim runs first, and a loss rejects the insert before the scan.
// That is slightly stricter than dueling on the sparse size: within
// a shard's last EntryBytes(n) bytes of headroom, an insert whose
// sparse entry would still have fit loses the duel and is rejected.
//
// Thread-safety: all methods safe from any thread. The cache is
// sharded by key hash; each shard has its own mutex, LRU list and
// sketch, so concurrent hot-path lookups on different sources do not
// contend. Get() and GetTopK() perform no heap allocation when the
// caller's buffers are warm — the serving steady state stays at zero
// allocations per request even when it is served from cache.

#ifndef SIMPUSH_SERVE_RESULT_CACHE_H_
#define SIMPUSH_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "graph/graph.h"
#include "simpush/options.h"
#include "simpush/query_runner.h"
#include "simpush/topk.h"

namespace simpush {
namespace serve {

/// Canonical fingerprint of the score-affecting engine options.
/// Two option sets with the same fingerprint produce bit-identical
/// score vectors on the same generation; option sets differing in any
/// score-affecting field fingerprint differently (up to 64-bit hash
/// collisions, which the bit-reproducibility tests would surface).
uint64_t OptionsFingerprint(const SimPushOptions& options);

/// Lifetime cache counters, shared across a tenant's generations so
/// hit-rate statistics survive hot swaps (each swap starts an empty
/// cache, but the tenant's counters keep accumulating). The registry
/// keeps them in the tenant's TenantCounters.
struct ResultCacheMetrics {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> admission_rejects{0};
  std::atomic<uint64_t> insert_failures{0};
};

/// Configuration for one ResultCache instance.
struct ResultCacheConfig {
  /// Hard byte budget across all shards (0 disables the cache).
  size_t byte_budget = 0;
  /// Shard count (clamped to >= 1). Tests use 1 for deterministic
  /// LRU order; the registry uses the default.
  size_t shards = 8;
  /// Shared tenant counters (may be null; counters are then local).
  std::shared_ptr<ResultCacheMetrics> metrics;
};

/// Sharded LRU of SimPushResult score vectors, stored sparse or as
/// just their ranked top, with TinyLFU-style admission and a hard byte
/// budget. See file comment for the model.
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheConfig& config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks up (source, fingerprint). On a hit on a full entry,
  /// rebuilds the full score vector + stats in `*out` (no allocation
  /// when out->scores is already at capacity) and refreshes LRU
  /// position. A ranked-only entry is a miss that leaves the LRU order
  /// alone. Records the access in the frequency sketch either way, so
  /// repeated misses build up the admission credit that lets the
  /// source displace a colder entry later.
  bool Get(NodeId source, uint64_t fingerprint, SimPushResult* out);

  /// The top-k read of the same key: on a hit writes
  /// SelectTopK(scores, k, source) of the cached scores into `*top` and
  /// the stats into `*stats`. For k up to the entry's prefix length,
  /// or when its prefix holds all its positive scores, that is a copy
  /// of min(k, prefix) pairs; otherwise a full entry ranks its stored
  /// pairs, O(stored) and never O(n), and a ranked-only entry misses
  /// as it does for Get. Allocates nothing when `top` is warm. The
  /// sketch touch, LRU refresh and hit/miss counts are Get's.
  bool GetTopK(NodeId source, uint64_t fingerprint, size_t k,
               std::vector<TopKEntry>* top, SimPushQueryStats* stats);

  /// Inserts a computed result as a full entry. Best-effort: returns
  /// false (and the computed answer is simply served uncached) when
  /// the entry is over budget, loses the admission duel against the
  /// LRU victim, or the `result_cache.insert` failpoint injects a
  /// failure. A full entry already present is left in place — by the
  /// determinism contract a concurrent computation of the same key
  /// produced the same bits. A ranked-only entry of the key is
  /// replaced once the full one is admitted, its bytes counting as
  /// free room; a rejected insert leaves it cached.
  bool Insert(NodeId source, uint64_t fingerprint,
              const SimPushResult& result);

  /// Inserts a ranked-only entry: `ranked` must be
  /// SelectTopK(scores, kRankedPrefix + 1, source) of the computed
  /// scores, `stats` their stats. Its first kRankedPrefix pairs are
  /// stored, and a ranking no longer than that holds every positive
  /// score. Best-effort and admitted like Insert, but it never
  /// replaces an entry already present, full or ranked-only.
  bool InsertRanked(NodeId source, uint64_t fingerprint,
                    std::span<const TopKEntry> ranked,
                    const SimPushQueryStats& stats);

  /// Point-in-time occupancy across shards.
  size_t entries() const;
  size_t bytes() const;

  size_t budget_bytes() const { return budget_; }
  const std::shared_ptr<ResultCacheMetrics>& metrics() const {
    return metrics_;
  }

  /// Bytes one full entry holding `stored_scores` nonzero scores
  /// accounts for: 12 bytes per score + a whole ranked prefix,
  /// RankedEntryBytes(kRankedPrefix). A dense n-node vector costs
  /// EntryBytes(n). Exposed for budget math in tests and capacity
  /// planning.
  static size_t EntryBytes(size_t stored_scores);

  /// Bytes one ranked-only entry holding `pairs` prefix pairs accounts
  /// for: sizeof(TopKEntry) per pair + bookkeeping overhead.
  static size_t RankedEntryBytes(size_t pairs);

  /// Length of an entry's ranked prefix: its top positive scores in
  /// rank order, so a top-k hit with k up to this is a copy.
  static constexpr size_t kRankedPrefix = 64;

 private:
  struct Key {
    NodeId source = 0;
    uint64_t fingerprint = 0;
    bool operator==(const Key& other) const {
      return source == other.source && fingerprint == other.fingerprint;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(KeyHash(key.source, key.fingerprint));
    }
  };

  struct Entry {
    Key key;
    size_t bytes = 0;
    // False for a ranked-only entry: no score vector, just the prefix
    // and the stats.
    bool full = false;
    bool prefix_all = false;  // prefix holds all P positive scores.
    // Length of the cached score vector; every node not in `ids`
    // scores +0.0. Full entries only.
    size_t num_scores = 0;
    std::vector<NodeId> ids;  // Ascending.
    std::vector<double> values;
    // The first min(kRankedPrefix, P) pairs of SelectTopK(scores, ·,
    // source), where P counts the positive scores other than the
    // source's.
    std::vector<TopKEntry> prefix;
    SimPushQueryStats stats;

    // Whether the entry answers a read: a full one every read, a
    // ranked-only one a top-k (`k` set) its prefix holds.
    bool Answers(std::optional<size_t> k) const {
      return full ||
             (k.has_value() && (*k <= prefix.size() || prefix_all));
    }
  };
  using LruList = std::list<Entry>;

  // Count-min sketch with saturating 8-bit counters and periodic
  // halving (aging), one per shard so sketch updates ride the shard
  // mutex. Width is a fixed small power of two — the sketch only has
  // to rank hot vs cold, not count precisely.
  struct Sketch {
    static constexpr size_t kRows = 4;
    static constexpr size_t kWidth = 1024;  // Power of two.
    static constexpr uint64_t kAgePeriod = 10 * kWidth;
    uint8_t counters[kRows][kWidth] = {};
    uint64_t touches = 0;

    void Touch(uint64_t hash);
    uint32_t Estimate(uint64_t hash) const;
  };

  struct Shard {
    mutable Mutex mu;
    // Front = most recent, back = eviction victim.
    LruList lru SIMPUSH_GUARDED_BY(mu);
    std::unordered_map<Key, LruList::iterator, KeyHasher> index
        SIMPUSH_GUARDED_BY(mu);
    Sketch sketch SIMPUSH_GUARDED_BY(mu);
    size_t bytes SIMPUSH_GUARDED_BY(mu) = 0;
    // Set once by the ResultCache constructor before the shard is
    // shared; read-only thereafter, so deliberately not guarded.
    size_t budget = 0;
  };

  static uint64_t KeyHash(NodeId source, uint64_t fingerprint);
  // The lookup Get (`k` empty) and GetTopK share: touches the sketch,
  // counts the hit or miss, and on a hit moves the entry to the LRU
  // front. Returns the entry, or null on a miss, which is also what an
  // entry that does not answer the read (Entry::Answers) is.
  const Entry* Lookup(Shard& shard, uint64_t hash, NodeId source,
                      uint64_t fingerprint, std::optional<size_t> k)
      SIMPUSH_REQUIRES(shard.mu);
  // True when the shard's LRU victim is accessed at least as often as
  // a candidate of sketch frequency `candidate_freq`, i.e. the
  // candidate loses the admission duel. The shard must be non-empty.
  static bool VictimOutranks(const Shard& shard, uint32_t candidate_freq)
      SIMPUSH_REQUIRES(shard.mu);
  // Makes room for an entry of `entry_bytes`: evicts LRU victims the
  // candidate (sketch frequency `candidate_freq`) outranks until it
  // fits, counting `reclaim` bytes held by the LRU front entry it
  // replaces as free. False, counted as an admission reject, when the
  // entry exceeds the shard's budget or loses a duel.
  bool MakeRoom(Shard& shard, size_t entry_bytes, size_t reclaim,
                uint32_t candidate_freq) SIMPUSH_REQUIRES(shard.mu);
  // Links an admitted entry at the LRU front and charges its bytes.
  void Admit(Shard& shard, Entry entry) SIMPUSH_REQUIRES(shard.mu);
  // The `result_cache.insert` failpoint: true, counted as an insert
  // failure, when it injects a failed insert.
  bool InjectedInsertFailure();
  Shard& ShardFor(uint64_t key_hash) {
    return *shards_[key_hash % shards_.size()];
  }

  const size_t budget_;
  std::shared_ptr<ResultCacheMetrics> metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace simpush

#endif  // SIMPUSH_SERVE_RESULT_CACHE_H_
