// Cost-weighted, byte-budgeted cache of hot computed slices and roll-ups.
//
// Eviction is GreedyDual-Size: every resident entry carries a priority
//
//   H = L + cost / bytes
//
// where L is an aging clock (the priority of the last victim) and
// cost/bytes is the recompute-cost-per-byte of the entry. A hit refreshes
// H against the current clock, so the policy degrades to LRU when costs
// are uniform and otherwise keeps entries that are expensive to rebuild
// relative to the budget they occupy. Eviction pops the minimum-H entry
// until the byte budget holds; ties break on insertion sequence, so the
// policy is deterministic for a given operation order.
//
// The budget is charged in result-payload bytes (QueryResult::bytes), the
// same currency the builders' live view bytes are accounted in;
// `peak_bytes` is the cache's high-water mark, mirroring the builders'
// `peak_live_bytes`. Entries larger than the whole budget are rejected
// rather than evicting everything.
//
// Thread safety: all operations take an internal mutex. The mutex guards
// only the cache's own index — cube reads never pass through it (the
// engine's snapshot read path is lock-free; docs/SERVING.md).
//
// Telemetry: event counts (hits/misses/insertions/evictions/rejections)
// live in obs::Registry counters named cubist_serving_cache_*, registered
// in the registry the constructor is given (the engine passes its own);
// `stats()` reads them back, so the struct is a view over the registry,
// not a second ledger. Resident/peak byte state stays in plain fields —
// the eviction loop is logic, not telemetry — and is mirrored into
// gauges after every mutation. Evictions additionally emit an
// obs::Instant on the "serving" track when tracing is on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "serving/query.h"

namespace cubist::serving {

/// Counter snapshot; `bytes`/`peak_bytes` are payload bytes resident now
/// and at the high-water mark.
struct SliceCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t rejected = 0;  // larger than the whole budget
  std::int64_t entries = 0;
  std::int64_t bytes = 0;
  std::int64_t peak_bytes = 0;

  double hit_rate() const {
    const std::int64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class SliceCache {
 public:
  /// `budget_bytes` must be positive; it bounds resident payload bytes.
  /// Event counters and byte gauges register in `registry` (nullptr =
  /// a cache-private registry, keeping tests with several caches
  /// isolated).
  explicit SliceCache(std::int64_t budget_bytes,
                      obs::Registry* registry = nullptr);

  /// The cached result for `key`, or nullptr (a miss). A hit refreshes
  /// the entry's GreedyDual priority.
  std::shared_ptr<const QueryResult> get(const std::string& key);

  /// Inserts `result` under `key`, charging `result->bytes()` against
  /// the budget and evicting minimum-priority entries to fit. `cost` is
  /// the recompute cost estimate (input cells scanned). Re-inserting an
  /// existing key keeps the resident entry (results are deterministic,
  /// so both copies are equal).
  void put(const std::string& key, std::shared_ptr<const QueryResult> result,
           double cost);

  SliceCacheStats stats() const;
  std::int64_t budget_bytes() const { return budget_; }

  void clear();

 private:
  struct Entry {
    std::shared_ptr<const QueryResult> result;
    double cost = 0;
    std::int64_t bytes = 0;
    // Position in the eviction index (priority, sequence).
    std::pair<double, std::uint64_t> rank;
  };

  // Evicts minimum-priority entries until `need` more bytes fit.
  // Caller holds mutex_.
  void evict_to_fit(std::int64_t need);

  // Pushes the resident byte state into the export gauges. Caller holds
  // mutex_.
  void publish_gauges();

  const std::int64_t budget_;
  mutable std::mutex mutex_;
  double clock_ = 0.0;       // L: priority of the last victim
  std::uint64_t seq_ = 0;    // deterministic tie-break
  std::unordered_map<std::string, Entry> entries_;
  // (priority, sequence) -> key; begin() is the next victim.
  std::map<std::pair<double, std::uint64_t>, std::string> by_priority_;
  // Eviction-loop state (authoritative); mirrored to gauges for export.
  std::int64_t bytes_ = 0;
  std::int64_t peak_bytes_ = 0;
  // Event counts live in the registry; stats() reads them back.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* peak_bytes_gauge_ = nullptr;
};

}  // namespace cubist::serving
