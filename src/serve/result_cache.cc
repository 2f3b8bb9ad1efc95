#include "serve/result_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/failpoint.h"

namespace simpush {
namespace serve {
namespace {

// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashCombine(uint64_t h, uint64_t v) { return Mix64(h ^ Mix64(v)); }

// Bit pattern of a double with -0.0 collapsed onto +0.0, so the two
// zero encodings (both possible outputs of a JSON parse) cannot split
// one semantic option value into two cache keys.
uint64_t CanonicalBits(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t OptionsFingerprint(const SimPushOptions& options) {
  // Exactly the score-affecting fields, in a fixed order.
  uint64_t h = 0x53696D5075736821ULL;  // "SimPush!"
  h = HashCombine(h, CanonicalBits(options.decay));
  h = HashCombine(h, CanonicalBits(options.epsilon));
  h = HashCombine(h, CanonicalBits(options.delta));
  h = HashCombine(h, options.seed);
  h = HashCombine(h, options.walk_budget_cap);
  h = HashCombine(h, (options.use_level_detection ? 2u : 0u) |
                         (options.use_gamma_correction ? 1u : 0u));
  return h;
}

void ResultCache::Sketch::Touch(uint64_t hash) {
  if (++touches >= kAgePeriod) {
    touches = 0;
    for (auto& row : counters) {
      for (auto& c : row) c = static_cast<uint8_t>(c >> 1);
    }
  }
  for (size_t row = 0; row < kRows; ++row) {
    uint8_t& c = counters[row][Mix64(hash + row) & (kWidth - 1)];
    if (c < 255) ++c;
  }
}

uint32_t ResultCache::Sketch::Estimate(uint64_t hash) const {
  uint32_t estimate = 255;
  for (size_t row = 0; row < kRows; ++row) {
    estimate = std::min<uint32_t>(
        estimate, counters[row][Mix64(hash + row) & (kWidth - 1)]);
  }
  return estimate;
}

uint64_t ResultCache::KeyHash(NodeId source, uint64_t fingerprint) {
  return HashCombine(fingerprint, static_cast<uint64_t>(source));
}

size_t ResultCache::EntryBytes(size_t stored_scores) {
  return stored_scores * (sizeof(NodeId) + sizeof(double)) +
         RankedEntryBytes(kRankedPrefix);
}

size_t ResultCache::RankedEntryBytes(size_t pairs) {
  // Stored pairs dominate; kOverhead approximates the LRU list node,
  // the index slot and the vectors' malloc headers. The budget is
  // enforced against this estimate, not malloc's exact accounting —
  // what matters is that it is a hard monotone bound proportional to
  // what is stored.
  constexpr size_t kOverhead = 160;
  return pairs * sizeof(TopKEntry) + sizeof(Entry) + kOverhead;
}

bool ResultCache::VictimOutranks(const Shard& shard,
                                 uint32_t candidate_freq) {
  const Entry& victim = shard.lru.back();
  return shard.sketch.Estimate(KeyHash(victim.key.source,
                                       victim.key.fingerprint)) >=
         candidate_freq;
}

ResultCache::ResultCache(const ResultCacheConfig& config)
    : budget_(config.byte_budget),
      metrics_(config.metrics != nullptr
                   ? config.metrics
                   : std::make_shared<ResultCacheMetrics>()) {
  const size_t shard_count = std::max<size_t>(1, config.shards);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->budget = budget_ / shard_count;
  }
}

const ResultCache::Entry* ResultCache::Lookup(Shard& shard, uint64_t hash,
                                              NodeId source,
                                              uint64_t fingerprint,
                                              std::optional<size_t> k) {
  // Sketch sees every access, so a source that keeps missing accrues
  // the frequency it needs to win a later admission duel.
  shard.sketch.Touch(hash);
  const auto it = shard.index.find(Key{source, fingerprint});
  if (it == shard.index.end() || !it->second->Answers(k)) {
    metrics_->misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Refresh LRU position (splice: pointer relink, no allocation).
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  metrics_->hits.fetch_add(1, std::memory_order_relaxed);
  return &*it->second;
}

bool ResultCache::Get(NodeId source, uint64_t fingerprint,
                      SimPushResult* out) {
  const uint64_t hash = KeyHash(source, fingerprint);
  Shard& shard = ShardFor(hash);
  MutexLock lock(&shard.mu);
  const Entry* entry =
      Lookup(shard, hash, source, fingerprint, std::nullopt);
  if (entry == nullptr) return false;
  // assign() reuses out->scores' capacity; a warm caller buffer makes
  // the whole hit path allocation-free.
  out->scores.assign(entry->num_scores, 0.0);
  for (size_t i = 0; i < entry->ids.size(); ++i) {
    out->scores[entry->ids[i]] = entry->values[i];
  }
  out->stats = entry->stats;
  return true;
}

bool ResultCache::GetTopK(NodeId source, uint64_t fingerprint, size_t k,
                          std::vector<TopKEntry>* top,
                          SimPushQueryStats* stats) {
  const uint64_t hash = KeyHash(source, fingerprint);
  Shard& shard = ShardFor(hash);
  MutexLock lock(&shard.mu);
  const Entry* entry = Lookup(shard, hash, source, fingerprint, k);
  if (entry == nullptr) return false;
  if (k <= entry->prefix.size() || entry->prefix_all) {
    // The top k are the prefix's first k: a copy.
    const std::vector<TopKEntry>& prefix = entry->prefix;
    top->assign(prefix.begin(), prefix.begin() + std::min(k, prefix.size()));
  } else {
    SelectTopK(entry->ids, entry->values, k, source, top);
  }
  *stats = entry->stats;
  return true;
}

bool ResultCache::InjectedInsertFailure() {
  // A failed insert must degrade to "computed answer served, nothing
  // cached" — the macro's early error return does not fit a bool API,
  // so the modes are handled inline.
  static Failpoint* insert_fp =
      FailpointRegistry::Get().Register("result_cache.insert");
  if (!insert_fp->active()) return false;
  const Failpoint::Mode mode = insert_fp->mode();
  const Status fired = insert_fp->Fire();
  if (fired.ok() && mode != Failpoint::Mode::kAllocFail) return false;
  metrics_->insert_failures.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ResultCache::MakeRoom(Shard& shard, size_t entry_bytes, size_t reclaim,
                           uint32_t candidate_freq) {
  if (entry_bytes > shard.budget) {
    metrics_->admission_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Evict until the entry fits — but only past victims it outranks.
  // A cold one-shot source must not displace a hot entry: if the LRU
  // victim is accessed at least as often as the candidate, the insert
  // loses the duel and the cache keeps what it has. The replaced entry
  // sits at the LRU front, so the loop ends before it is the victim.
  while (shard.bytes - reclaim + entry_bytes > shard.budget) {
    if (VictimOutranks(shard, candidate_freq)) {
      metrics_->admission_rejects.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    metrics_->evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void ResultCache::Admit(Shard& shard, Entry entry) {
  const Key key = entry.key;
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  metrics_->inserts.fetch_add(1, std::memory_order_relaxed);
}

bool ResultCache::Insert(NodeId source, uint64_t fingerprint,
                         const SimPushResult& result) {
  if (budget_ == 0 || InjectedInsertFailure()) return false;
  const uint64_t hash = KeyHash(source, fingerprint);
  const std::vector<double>& scores = result.scores;
  Shard& shard = ShardFor(hash);
  MutexLock lock(&shard.mu);
  const Key key{source, fingerprint};
  // A full entry already present stays: a concurrent request computed
  // and inserted the same key, and by the determinism contract its
  // bits equal ours. A ranked-only one is what this insert replaces:
  // it moves to the LRU front, out of eviction's reach, and its bytes
  // count as free room.
  const auto found = shard.index.find(key);
  const bool replacing = found != shard.index.end();
  if (replacing && found->second->full) return true;
  size_t reclaim = 0;
  if (replacing) {
    shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
    reclaim = found->second->bytes;
  }
  // The duel runs before the O(n) nonzero count whenever even a dense
  // entry would need an eviction, so a losing insert never pays for
  // the scan.
  const uint32_t candidate_freq = shard.sketch.Estimate(hash);
  if (shard.bytes - reclaim + EntryBytes(scores.size()) > shard.budget &&
      shard.lru.size() > (replacing ? 1u : 0u) &&
      VictimOutranks(shard, candidate_freq)) {
    metrics_->admission_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // A score is stored when its bit pattern is nonzero, so -0.0 is kept.
  const auto stored = [&scores](size_t v) {
    uint64_t bits;
    std::memcpy(&bits, &scores[v], sizeof(bits));
    return bits != 0;
  };
  size_t num_stored = 0;
  for (size_t v = 0; v < scores.size(); ++v) num_stored += stored(v);
  const size_t entry_bytes = EntryBytes(num_stored);
  if (!MakeRoom(shard, entry_bytes, reclaim, candidate_freq)) return false;
  if (replacing) {
    shard.bytes -= reclaim;
    shard.lru.erase(found->second);
    shard.index.erase(found);
  }
  Entry entry;
  entry.key = key;
  entry.bytes = entry_bytes;
  entry.full = true;
  entry.num_scores = scores.size();
  entry.stats = result.stats;
  entry.ids.resize(num_stored);
  entry.values.resize(num_stored);
  // Branch-free gather: every score is written to slot k, which only
  // advances past a stored one. The loop ends at the last stored score,
  // so k < num_stored on every write.
  for (size_t v = 0, k = 0; k < num_stored; ++v) {
    entry.ids[k] = static_cast<NodeId>(v);
    entry.values[k] = scores[v];
    k += stored(v);
  }
  // Rank one past the prefix: a shorter result is every positive score.
  SelectTopK(entry.ids, entry.values, kRankedPrefix + 1, source,
             &entry.prefix);
  entry.prefix_all = entry.prefix.size() <= kRankedPrefix;
  if (!entry.prefix_all) entry.prefix.pop_back();
  Admit(shard, std::move(entry));
  return true;
}

bool ResultCache::InsertRanked(NodeId source, uint64_t fingerprint,
                               std::span<const TopKEntry> ranked,
                               const SimPushQueryStats& stats) {
  if (budget_ == 0 || InjectedInsertFailure()) return false;
  const uint64_t hash = KeyHash(source, fingerprint);
  Shard& shard = ShardFor(hash);
  MutexLock lock(&shard.mu);
  const Key key{source, fingerprint};
  // Whatever is present answers at least what this entry would.
  if (shard.index.contains(key)) return true;
  const size_t pairs = std::min(ranked.size(), kRankedPrefix);
  const size_t entry_bytes = RankedEntryBytes(pairs);
  if (!MakeRoom(shard, entry_bytes, 0, shard.sketch.Estimate(hash))) {
    return false;
  }
  Entry entry;
  entry.key = key;
  entry.bytes = entry_bytes;
  entry.prefix_all = ranked.size() <= kRankedPrefix;
  entry.prefix.assign(ranked.begin(), ranked.begin() + pairs);
  entry.stats = stats;
  Admit(shard, std::move(entry));
  return true;
}

size_t ResultCache::entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->index.size();
  }
  return total;
}

size_t ResultCache::bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->bytes;
  }
  return total;
}

}  // namespace serve
}  // namespace simpush
