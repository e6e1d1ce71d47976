#include "cache/fwd_search_cache.h"

#include <algorithm>
#include <cassert>

namespace skysr {

namespace {

// SplitMix64 finalizer: the slot index hashes raw vertex ids, which are
// dense small integers, so identity hashing would cluster.
uint64_t HashVertex(VertexId v) {
  uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void FwdSnapshot::Add(VertexId source,
                      std::span<const FwdSearchSettle> settles) {
  assert(!finalized_);
  for (const Key& k : keys_) {
    if (k.source == source) return;
  }
  keys_.push_back({source, static_cast<int64_t>(pool_.size()),
                   static_cast<int64_t>(settles.size())});
  pool_.insert(pool_.end(), settles.begin(), settles.end());
}

void FwdSnapshot::Finalize() {
  std::sort(keys_.begin(), keys_.end(),
            [](const Key& a, const Key& b) { return a.source < b.source; });
  finalized_ = true;
}

std::span<const FwdSearchSettle> FwdSnapshot::Find(VertexId source) const {
  assert(finalized_);
  const auto it = std::lower_bound(
      keys_.begin(), keys_.end(), source,
      [](const Key& k, VertexId s) { return k.source < s; });
  if (it == keys_.end() || it->source != source) return {};
  return {pool_.data() + it->offset, static_cast<size_t>(it->count)};
}

void FwdSearchCache::Configure(size_t capacity) {
  capacity_ = std::max<size_t>(capacity, 1);
  Clear();
  entries_.resize(capacity_);
  // Keep the table at most half full even with every entry resident, so
  // probe chains stay short and an empty slot always exists.
  slots_.assign(NextPow2(4 * capacity_), kEmptySlot);
}

std::span<const FwdSearchSettle> FwdSearchCache::Lookup(VertexId source) {
  const int32_t* slot = SlotOf(source);
  if (*slot < 0) {
    ++counters_.misses;
    return {};
  }
  Entry& e = entries_[*slot];
  e.ref = 1;
  ++counters_.hits;
  return {e.settles.data(), e.settles.size()};
}

std::span<const FwdSearchSettle> FwdSearchCache::Insert(
    VertexId source, std::span<const FwdSearchSettle> settles) {
  int32_t* slot = SlotOf(source);
  size_t idx;
  if (*slot >= 0) {
    idx = static_cast<size_t>(*slot);  // replace in place
  } else if (size_ < capacity_) {
    idx = size_++;
    IndexInsert(source, static_cast<int32_t>(idx));
  } else {
    // CLOCK second chance: clear reference bits until an unreferenced
    // victim appears (within one sweep, since cleared bits stay clear).
    while (entries_[hand_].ref != 0) {
      entries_[hand_].ref = 0;
      hand_ = (hand_ + 1) % size_;
    }
    idx = hand_;
    hand_ = (hand_ + 1) % size_;
    IndexErase(entries_[idx].source);
    IndexInsert(source, static_cast<int32_t>(idx));
    ++counters_.evictions;
  }
  Entry& e = entries_[idx];
  e.source = source;
  e.ref = 1;
  e.settles.assign(settles.begin(), settles.end());
  return {e.settles.data(), e.settles.size()};
}

void FwdSearchCache::Clear() {
  for (size_t i = 0; i < size_; ++i) {
    entries_[i].source = kInvalidVertex;
    entries_[i].ref = 0;
    entries_[i].settles.clear();
  }
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  size_ = 0;
  hand_ = 0;
  tombstones_ = 0;
}

int64_t FwdSearchCache::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(slots_.capacity() * sizeof(int32_t) +
                                       entries_.capacity() * sizeof(Entry));
  for (const Entry& e : entries_) {
    bytes += static_cast<int64_t>(e.settles.capacity() *
                                  sizeof(FwdSearchSettle));
  }
  return bytes;
}

int32_t* FwdSearchCache::SlotOf(VertexId source) {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(HashVertex(source)) & mask;
  int32_t* first_tomb = nullptr;
  while (true) {
    int32_t& s = slots_[i];
    if (s == kEmptySlot) {
      return first_tomb != nullptr ? first_tomb : &s;
    }
    if (s == kTombstone) {
      if (first_tomb == nullptr) first_tomb = &s;
    } else if (entries_[s].source == source) {
      return &s;
    }
    i = (i + 1) & mask;
  }
}

void FwdSearchCache::IndexInsert(VertexId source, int32_t entry_idx) {
  int32_t* slot = SlotOf(source);
  if (*slot == kTombstone) --tombstones_;
  *slot = entry_idx;
  // Tombstone buildup lengthens probe chains; rebuilding in place (no
  // allocation) restores them once live + dead slots pass half the table.
  if (size_ + tombstones_ > slots_.size() / 2) RebuildIndex();
}

void FwdSearchCache::IndexErase(VertexId source) {
  int32_t* slot = SlotOf(source);
  assert(*slot >= 0);
  *slot = kTombstone;
  ++tombstones_;
}

void FwdSearchCache::RebuildIndex() {
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  tombstones_ = 0;
  for (size_t i = 0; i < size_; ++i) {
    if (entries_[i].source == kInvalidVertex) continue;
    *SlotOf(entries_[i].source) = static_cast<int32_t>(i);
  }
}

}  // namespace skysr
