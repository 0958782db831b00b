// A sharded, capacity-bounded transposition table memoising analysis
// results under the whole stack.
//
// Admission probes, session queries and multi-tenant service queries keep
// re-solving structurally identical subproblems — often across *different*
// tenants, since the Zobrist fingerprints they are keyed by are name-free
// (sdf/zobrist.h). One shared table turns each repeat into a bucket probe:
// entries are keyed by (fingerprint x query kind x query params) and store
// compact results (a period, WCRT bounds, up to six critical-actor ids).
//
// Correctness contract (mirrors the repo's other caches, see
// docs/ARCHITECTURE.md): a stored value is the *bitwise* result of the
// computation it memoises, so every consumer produces identical output
// with the table on, off, full, or shared by any number of threads — the
// table can only make things faster, never different. Keys carry a second
// independently-mixed 64-bit verify tag; a bucket match on the primary
// hash with a mismatched tag is counted (Stats::verify_failures) and
// treated as a miss, making a wrong-value hit require a simultaneous
// 128-bit collision.
//
// Concurrency and memory: the entry array is preallocated at construction
// and never grows; shards (power of two) are guarded by per-shard mutexes;
// lookup and store are allocation-free. Eviction is bucketed
// replace-oldest: each key maps to one kWays-entry bucket and the stalest
// entry (smallest per-shard LRU stamp) is replaced when the bucket is
// full — the same replace-oldest discipline as the admission candidate
// and service session LRUs, scoped to a bucket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

namespace procon::analysis {

/// \brief What a transposition entry memoises. Part of the key: the same
/// fingerprint under different kinds never collides.
enum class TTQuery : std::uint8_t {
  IsolationPeriod,  ///< per-app Howard period (Workbench::throughput, admission isolation)
  Latency,          ///< per-app critical-path latency (Workbench::latency)
  Bottleneck,       ///< per-app bottleneck report (Workbench::bottleneck)
  WcrtAppBound,     ///< per-app WCRT summary (isolation / worst-case period)
  WcrtActorBound,   ///< per-actor WCRT pair (waiting / response time)
  AdmissionPeriod,  ///< admission contention-predicted period per load vector
};

/// \brief A 128-bit probabilistic key: primary hash (selects shard and
/// bucket) plus an independently-mixed verify tag (guards against primary
/// collisions). Build with TTKeyBuilder.
struct TTKey {
  std::uint64_t hash = 0;    ///< bucket-selecting primary hash
  std::uint64_t verify = 0;  ///< independent tag checked on bucket match
};

/// \brief Accumulates (fingerprint, kind, params...) into a TTKey.
///
/// Both halves of the key absorb every input through independent mixing
/// chains, so two queries differing in any absorbed value (including
/// bitwise double payloads) get independent keys. Deterministic and
/// allocation-free.
class TTKeyBuilder {
 public:
  /// Starts a key for query `kind` over the structure identified by
  /// `fingerprint` (a System/SystemView/graph-component Zobrist value).
  TTKeyBuilder(std::uint64_t fingerprint, TTQuery kind) noexcept;

  /// Mixes one 64-bit parameter into both key halves.
  void absorb(std::uint64_t v) noexcept;

  /// Mixes a double parameter bitwise (no rounding: keys distinguish any
  /// two doubles that are not bit-identical, which is what the bitwise
  /// identity contract requires).
  void absorb_double(double v) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    absorb(bits);
  }

  /// The finished key.
  [[nodiscard]] TTKey key() const noexcept { return TTKey{h_, v_}; }

 private:
  std::uint64_t h_ = 0;
  std::uint64_t v_ = 0;
};

/// \brief Compact memoised result: two doubles, up to six 32-bit ids and a
/// flag byte. Large enough for every cached query kind (period + critical
/// cycle, WCRT pairs, score, admission period); results that do not fit
/// (e.g. a bottleneck report with more than six actors) are simply not
/// cached, never truncated.
struct TTValue {
  /// How many critical-actor ids fit in TTValue::ids.
  static constexpr std::size_t kMaxIds = 6;
  /// Flag bit: the memoised analysis reported a deadlock.
  static constexpr std::uint8_t kDeadlocked = 1;

  double primary = 0.0;             ///< period / score / first bound
  double secondary = 0.0;           ///< latency slack / second bound
  std::uint32_t ids[kMaxIds] = {};  ///< critical-cycle / bottleneck actor ids
  std::uint8_t id_count = 0;        ///< how many of `ids` are meaningful
  std::uint8_t flags = 0;           ///< kDeadlocked etc.
};

/// \brief The sharded, capacity-bounded transposition table. Thread-safe;
/// see the header comment for the correctness and memory contract.
class TranspositionTable {
 public:
  /// Bucket associativity: each key probes one kWays-entry bucket.
  static constexpr std::size_t kWays = 4;

  /// Creates a table holding ~`capacity` entries (rounded so every shard
  /// has a power-of-two bucket count) split over `shards` shards (rounded
  /// up to a power of two, capped so each shard keeps at least one
  /// bucket). All memory is allocated here; lookup/store never allocate.
  explicit TranspositionTable(std::size_t capacity = 1 << 16,
                              std::size_t shards = 16);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// Probes the table. On a hit copies the stored value into `out`,
  /// refreshes the entry's LRU stamp and returns true. A primary-hash
  /// match with a mismatched verify tag counts as a verify failure and a
  /// miss. Allocation-free.
  [[nodiscard]] bool lookup(const TTKey& key, TTValue& out) noexcept;

  /// Inserts or refreshes `value` under `key`. An existing entry with the
  /// same 128-bit key is overwritten in place; otherwise an empty slot in
  /// the bucket is used, and if none exists the bucket's oldest entry (by
  /// LRU stamp) is evicted. Allocation-free.
  void store(const TTKey& key, const TTValue& value) noexcept;

  /// Total entry slots across all shards.
  [[nodiscard]] std::size_t capacity() const noexcept;

  /// Number of shards (power of two).
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// \brief Per-shard counter snapshot (see Stats).
  struct ShardStats {
    std::uint64_t hits = 0;             ///< lookups returning a value
    std::uint64_t misses = 0;           ///< lookups returning nothing
    std::uint64_t stores = 0;           ///< store() calls (insert or refresh)
    std::uint64_t evictions = 0;        ///< entries replaced while still live
    std::uint64_t verify_failures = 0;  ///< primary-hash matches rejected by tag
  };

  /// \brief Aggregate counter snapshot with the per-shard breakdown,
  /// surfaced through Workbench/AnalysisService introspection and the CLI
  /// `tt-stats` serve line.
  struct Stats {
    std::uint64_t hits = 0;             ///< sum of ShardStats::hits
    std::uint64_t misses = 0;           ///< sum of ShardStats::misses
    std::uint64_t stores = 0;           ///< sum of ShardStats::stores
    std::uint64_t evictions = 0;        ///< sum of ShardStats::evictions
    std::uint64_t verify_failures = 0;  ///< sum of ShardStats::verify_failures
    std::vector<ShardStats> shards;     ///< per-shard breakdown, shard order

    /// hits / (hits + misses); 0 when no lookups happened yet.
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// Snapshots all counters (locks each shard briefly; allocates the
  /// per-shard vector — introspection only, not for hot paths).
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t verify = 0;
    std::uint64_t stamp = 0;  // 0 = empty; else per-shard LRU clock value
    TTValue value;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries;  // bucket_count * kWays, fixed size
    std::uint64_t clock = 0;     // LRU stamp source, monotonically increasing
    ShardStats stats;
  };

  [[nodiscard]] Shard& shard_of(const TTKey& key) noexcept {
    return shards_[key.hash & shard_mask_];
  }
  [[nodiscard]] std::size_t bucket_of(const TTKey& key) const noexcept {
    return ((key.hash >> shard_bits_) & bucket_mask_) * kWays;
  }

  std::vector<Shard> shards_;
  std::uint64_t shard_mask_ = 0;
  std::uint32_t shard_bits_ = 0;
  std::uint64_t bucket_mask_ = 0;  // per-shard bucket count - 1
};

}  // namespace procon::analysis
