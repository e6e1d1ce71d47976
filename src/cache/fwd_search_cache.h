// Forward-upward-search cache: the forward-search half of the warm-state
// subsystem (src/cache/).
//
// A forward upward search from a source (with its incrementally folded
// exact path sums, see retrieval/category_buckets.h) is a pure function of
// (source, CH structure): nothing about it depends on the query. Every
// position and NNinit hop expanding from one source reuses it within a
// query, and serving workloads repeat sources across queries, so the cache
// keeps the records behind size-bounded CLOCK eviction for as long as its
// SharedQueryCache lives. Storage is per-entry recycled vectors (a victim's
// capacity is reused by its replacement), so a hit-dominated steady state
// allocates nothing.
//
// Two layers, matching the serving deployment:
//
//   FwdSnapshot      immutable CSR over a prewarmed source set, shared by
//                    every QueryService worker via shared_ptr and read with
//                    no locks (it never mutates after Finalize()).
//   FwdSearchCache   per-worker mutable write-back cache with CLOCK
//                    eviction; single-threaded like the engine that owns it.
//
// Bit-identity: entries store exactly the records the search produced, so a
// replay is indistinguishable from a fresh search — cold and warm queries
// return bit-identical skylines (tests/xcache_test.cc and the differential
// harness's SKYSR_XCACHE axis enforce this). Only work counters change.

#ifndef SKYSR_CACHE_FWD_SEARCH_CACHE_H_
#define SKYSR_CACHE_FWD_SEARCH_CACHE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace skysr {

/// One cached forward-search settle: the rounded upward distance plus the
/// exact path-order sum from the source (the fold bucket scans re-sum
/// from). BucketScanState::FwdSettle aliases it.
struct FwdSearchSettle {
  VertexId vertex;
  Weight df;
  Weight fsum;
};

/// Immutable forward-search snapshot over a fixed source set. Built once
/// (BuildFwdSnapshot in retrieval/bucket_retriever.h), then shared across
/// worker threads and read lock-free. Finalize() must be called before the
/// first Find().
class FwdSnapshot {
 public:
  /// Appends one source's settle records (ignored if the source is already
  /// present). Build-time only.
  void Add(VertexId source, std::span<const FwdSearchSettle> settles);

  /// Sorts the key table; no Add() afterwards.
  void Finalize();

  /// The source's records, or an empty span when not prewarmed.
  std::span<const FwdSearchSettle> Find(VertexId source) const;

  /// Structure generation the snapshot was built against (see
  /// WarmStateChecksum in shared_query_cache.h); caches refuse snapshots
  /// bound to another structure.
  void set_structure_checksum(uint64_t c) { structure_checksum_ = c; }
  uint64_t structure_checksum() const { return structure_checksum_; }

  size_t size() const { return keys_.size(); }
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(keys_.capacity() * sizeof(Key) +
                                pool_.capacity() * sizeof(FwdSearchSettle));
  }

 private:
  struct Key {
    VertexId source;
    int64_t offset;
    int64_t count;
  };
  std::vector<Key> keys_;  // sorted by source after Finalize()
  std::vector<FwdSearchSettle> pool_;
  uint64_t structure_checksum_ = 0;
  bool finalized_ = false;
};

/// Size-bounded, CLOCK-evicting forward-search cache. Single-threaded: one
/// instance per engine (= per worker thread), like the QueryWorkspace.
class FwdSearchCache {
 public:
  struct Counters {
    int64_t hits = 0;       // Lookup() served from a resident entry
    int64_t misses = 0;     // Lookup() found nothing (an Insert follows)
    int64_t evictions = 0;  // entries displaced by CLOCK
  };

  explicit FwdSearchCache(size_t capacity) { Configure(capacity); }

  /// Sets the entry bound. Shrinking (or any change) drops resident
  /// entries; counters survive.
  void Configure(size_t capacity);

  /// The source's records, or an empty span (a search always settles its
  /// source, so emptiness is unambiguous). Hits set the entry's CLOCK
  /// reference bit.
  std::span<const FwdSearchSettle> Lookup(VertexId source);

  /// Inserts (or replaces) the source's records, evicting by CLOCK when at
  /// capacity, and returns the stored span — stable until this entry is
  /// itself evicted, which only an Insert for a different source can do.
  std::span<const FwdSearchSettle> Insert(
      VertexId source, std::span<const FwdSearchSettle> settles);

  /// Drops every entry; keeps per-entry vector capacity and counters.
  void Clear();

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  const Counters& counters() const { return counters_; }

  /// Resident bytes: entry storage plus the slot index.
  int64_t MemoryBytes() const;

 private:
  struct Entry {
    VertexId source = kInvalidVertex;
    uint8_t ref = 0;  // CLOCK second-chance bit
    std::vector<FwdSearchSettle> settles;
  };

  static constexpr int32_t kEmptySlot = -1;
  static constexpr int32_t kTombstone = -2;

  int32_t* SlotOf(VertexId source);        // first matching or empty slot
  void IndexInsert(VertexId source, int32_t entry_idx);
  void IndexErase(VertexId source);
  void RebuildIndex();

  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t hand_ = 0;  // CLOCK hand over entries_[0..size_)
  size_t tombstones_ = 0;
  std::vector<Entry> entries_;
  std::vector<int32_t> slots_;  // open addressing: entry index / empty / tomb
  Counters counters_;
};

}  // namespace skysr

#endif  // SKYSR_CACHE_FWD_SEARCH_CACHE_H_
