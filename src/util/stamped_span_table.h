// Open-addressing hash table whose values are (offset, count) spans into one
// shared append-only std::vector pool, with O(1) whole-table clear via epoch
// stamping.
//
// This is the storage shape behind the per-query caches of the BSSR hot
// path (the §5.3.4 candidate cache, the Q_b dominance store): entries are
// written once per key per round, read many times, and the whole structure
// resets between rounds. Neither the table nor the pool shrinks on Clear(),
// so a steady-state round allocates nothing. Replacing an entry orphans its old
// span until the next Clear(); orphaned bytes are bounded by the work that
// produced them.

#ifndef SKYSR_UTIL_STAMPED_SPAN_TABLE_H_
#define SKYSR_UTIL_STAMPED_SPAN_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"

namespace skysr {

/// Record: the pooled element type. Meta: per-entry metadata stored inline.
template <typename Record, typename Meta>
class StampedSpanTable {
 public:
  struct Entry {
    uint64_t key;
    uint32_t stamp;
    uint32_t offset;  // span start in the pool
    uint32_t count;   // span length
    Meta meta;
  };

  /// Entry for `key` written this round, or nullptr.
  const Entry* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      const Entry& slot = slots_[i];
      if (slot.stamp != stamp_) return nullptr;  // empty this round
      if (slot.key == key) return &slot;
    }
  }

  /// Mutable lookup; the pointer is valid until the next Commit() (which may
  /// grow the slot array) or Clear().
  Entry* FindMutable(uint64_t key) {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Entry& slot = slots_[i];
      if (slot.stamp != stamp_) return nullptr;  // empty this round
      if (slot.key == key) return &slot;
    }
  }

  std::span<const Record> SpanOf(const Entry& e) const {
    return {pool_.data() + e.offset, e.count};
  }

  /// Mutable span view: lets a committed entry's records be updated in
  /// place, e.g. dominance records strengthened by later routes.
  std::span<Record> MutableSpanOf(const Entry& e) {
    return {pool_.data() + e.offset, e.count};
  }

  /// The shared pool. A producer appends its records here (remember the
  /// pool size beforehand), then Commit()s the span.
  std::vector<Record>& pool() { return pool_; }
  const std::vector<Record>& pool() const { return pool_; }

  /// Inserts or replaces the entry for `key`, whose records are
  /// pool()[pool_offset..end).
  void Commit(uint64_t key, size_t pool_offset, Meta meta) {
    SKYSR_DCHECK(pool_offset <= pool_.size());
    if ((size_ + 1) * 4 >= slots_.size() * 3) Grow();
    Entry* slot = FindSlot(key);
    if (slot->stamp == stamp_) {
      ++replacements_;  // old span stays orphaned until Clear()
    } else {
      slot->stamp = stamp_;
      slot->key = key;
      ++size_;
    }
    slot->offset = static_cast<uint32_t>(pool_offset);
    slot->count = static_cast<uint32_t>(pool_.size() - pool_offset);
    slot->meta = meta;
  }

  /// O(1) amortized: bumps the stamp and resets the pool, both keeping
  /// their capacity (a full sweep happens only on 32-bit stamp wrap).
  void Clear() {
    if (++stamp_ == 0) {
      for (Entry& slot : slots_) slot.stamp = 0;
      stamp_ = 1;
    }
    size_ = 0;
    pool_.clear();
  }

  int64_t size() const { return static_cast<int64_t>(size_); }
  int64_t replacements() const { return replacements_; }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Entry) +
                                pool_.capacity() * sizeof(Record));
  }

 private:
  static size_t Hash(uint64_t key) {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 17);
  }

  /// First slot holding `key` this round, or the empty slot to claim.
  Entry* FindSlot(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Entry& slot = slots_[i];
      if (slot.stamp != stamp_ || slot.key == key) return &slot;
    }
  }

  void Grow() {
    const size_t new_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Entry> old = std::move(slots_);
    // Fresh slots carry stamp 0; stamp_ is never 0, so they read as empty.
    slots_.assign(new_cap, Entry{0, 0, 0, 0, Meta{}});
    for (const Entry& slot : old) {
      if (slot.stamp != stamp_) continue;
      const size_t mask = slots_.size() - 1;
      for (size_t i = Hash(slot.key) & mask;; i = (i + 1) & mask) {
        if (slots_[i].stamp != stamp_) {
          slots_[i] = slot;
          break;
        }
      }
    }
  }

  std::vector<Entry> slots_;  // power-of-two size
  std::vector<Record> pool_;
  uint32_t stamp_ = 1;
  size_t size_ = 0;
  int64_t replacements_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_UTIL_STAMPED_SPAN_TABLE_H_
