// SharedQueryCache: the engine-lifetime warm-state seam for serving
// workloads (ROADMAP "serving-scale cache architecture").
//
// One instance per engine (= per worker thread) bundles every structure
// whose contents are pure functions of (graph, oracle structure, source)
// and therefore legal to reuse across queries without changing results:
//
//   - the forward-upward-search cache (fwd_search_cache.h), which replaces
//     the per-query BucketScanState::fwd_cache when attached;
//   - the resumable-slot pool promoted to engine lifetime (CLOCK eviction,
//     retrieval/resumable_retriever.h);
//   - an optional immutable FwdSnapshot prewarmed at service start and
//     shared read-only by every worker (no locks on the read path — each
//     worker writes only to its own cache).
//
// Generation invalidation: the cache binds to a structure checksum
// (WarmStateChecksum below). Rebinding to a different structure — a new
// graph, a rebuilt CH — drops all warm state and any mismatched snapshot,
// so stale distances can never serve a query. Queries opt out per-request
// via QueryOptions::use_shared_cache; cold and warm runs are bit-identical
// (the differential harness's SKYSR_XCACHE axis).

#ifndef SKYSR_CACHE_SHARED_QUERY_CACHE_H_
#define SKYSR_CACHE_SHARED_QUERY_CACHE_H_

#include <cstdint>
#include <memory>

#include "cache/fwd_search_cache.h"
#include "retrieval/resumable_retriever.h"

namespace skysr {

class Graph;
class ChOracle;

/// Digest of the structures warm state depends on: graph shape and, with an
/// index, the CH oracle's order-sensitive upward-CSR checksum. Engines and
/// snapshot builders must derive it the same way so bindings match.
uint64_t WarmStateChecksum(const Graph& g, const ChOracle* oracle);

struct SharedCacheConfig {
  /// Forward-search cache entries (CLOCK eviction). Each entry holds one
  /// source's upward settles — tens to a few hundred records on CH.
  size_t fwd_capacity = 1024;
  /// Resumable slots kept across queries; 0 defers to the engine's
  /// cost-model default (RetrieverCostModel::ResumableSlots). Each slot
  /// owns O(|V|) arrays — size this, not fwd_capacity, when memory-bound.
  int resume_slots = 0;
};

/// Aggregated observability counters (ServiceMetrics folds per-task deltas
/// of these into its wait-free atomics).
struct SharedCacheCounters {
  int64_t fwd_hits = 0;        // private-cache + snapshot hits
  int64_t fwd_misses = 0;      // searches that had to run
  int64_t fwd_evictions = 0;
  int64_t resume_reuses = 0;
  int64_t resume_evictions = 0;
};

class SharedQueryCache {
 public:
  explicit SharedQueryCache(SharedCacheConfig config = {});

  /// Binds the cache to a structure generation. Rebinding to a different
  /// checksum invalidates all warm state; a resident snapshot built against
  /// another structure is dropped. BssrEngine::AttachSharedCache calls this.
  void Bind(uint64_t structure_checksum);
  uint64_t bound_checksum() const { return checksum_; }

  /// Drops all warm state (keeps binding, config, and counters).
  void Invalidate();

  /// Installs the read-only prewarmed snapshot (refused — dropped — if its
  /// checksum mismatches a live binding).
  void SetSnapshot(std::shared_ptr<const FwdSnapshot> snapshot);
  const FwdSnapshot* snapshot() const { return snapshot_.get(); }

  /// Counts a snapshot-served forward lookup (the snapshot itself is
  /// immutable and shared, so hit accounting lives here).
  void CountSnapshotHit() { ++snapshot_hits_; }

  FwdSearchCache& fwd_cache() { return fwd_cache_; }
  ResumablePool& resume_pool() { return resume_pool_; }
  const SharedCacheConfig& config() const { return config_; }

  SharedCacheCounters Counters() const;

  /// Bytes held by warm state (snapshot bytes are shared across workers and
  /// reported once by the service, not per cache).
  int64_t ResidentBytes() const;

 private:
  SharedCacheConfig config_;
  FwdSearchCache fwd_cache_;
  ResumablePool resume_pool_;
  std::shared_ptr<const FwdSnapshot> snapshot_;
  uint64_t checksum_ = 0;
  bool bound_ = false;
  int64_t snapshot_hits_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_CACHE_SHARED_QUERY_CACHE_H_
