#include "cache/shared_query_cache.h"

#include <utility>

#include "graph/graph.h"
#include "index/ch_oracle.h"

namespace skysr {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

uint64_t WarmStateChecksum(const Graph& g, const ChOracle* oracle) {
  uint64_t h = 0x5ca1ab1e0ddba11ULL;
  h = Mix(h, static_cast<uint64_t>(g.num_vertices()));
  h = Mix(h, static_cast<uint64_t>(g.num_edges()));
  h = Mix(h, static_cast<uint64_t>(g.num_pois()));
  if (oracle != nullptr) {
    h = Mix(h, static_cast<uint64_t>(OracleKind::kCh) + 1);
    h = Mix(h, oracle->StructureChecksum());
  }
  return h;
}

SharedQueryCache::SharedQueryCache(SharedCacheConfig config)
    : config_(config), fwd_cache_(config.fwd_capacity) {}

void SharedQueryCache::Bind(uint64_t structure_checksum) {
  if (bound_ && checksum_ == structure_checksum) return;
  if (bound_) Invalidate();
  bound_ = true;
  checksum_ = structure_checksum;
  if (snapshot_ != nullptr &&
      snapshot_->structure_checksum() != structure_checksum) {
    snapshot_.reset();
  }
}

void SharedQueryCache::Invalidate() {
  fwd_cache_.Clear();
  resume_pool_.Clear();
  snapshot_.reset();
}

void SharedQueryCache::SetSnapshot(
    std::shared_ptr<const FwdSnapshot> snapshot) {
  if (bound_ && snapshot != nullptr &&
      snapshot->structure_checksum() != checksum_) {
    return;  // wrong structure generation — keep serving without it
  }
  snapshot_ = std::move(snapshot);
}

SharedCacheCounters SharedQueryCache::Counters() const {
  SharedCacheCounters c;
  const FwdSearchCache::Counters& f = fwd_cache_.counters();
  c.fwd_hits = f.hits + snapshot_hits_;
  c.fwd_misses = f.misses;
  c.fwd_evictions = f.evictions;
  c.resume_reuses = resume_pool_.reuses();
  c.resume_evictions = resume_pool_.evictions();
  return c;
}

int64_t SharedQueryCache::ResidentBytes() const {
  return fwd_cache_.MemoryBytes() + resume_pool_.MemoryBytes();
}

}  // namespace skysr
