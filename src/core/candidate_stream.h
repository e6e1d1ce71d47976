// The candidate stream of one expansion and the prune-floor filter the
// engine reads it through.
//
// An expansion search emits (vertex, dist, sim) triples in non-decreasing
// dist order; the on-the-fly cache (§5.3.4) keeps them per (source,
// position) in one flat std::vector pool, and the engine replays a stream
// with one scalar loop: stop at the first candidate at or beyond the
// Lemma 5.3 budget, pass the rest through the floor filter below.
//
// PruneFloorTable holds the query-lifetime prune floors the engine skips
// candidates with. The engine's consume() prune conditions for a candidate
// are functions of (position, parent accumulator, similarity) that are
// monotone in the extended length, and the skyline thresholds they compare
// against only tighten while a query runs. So once ONE candidate is pruned
// by such a condition, every later candidate of ANY expansion with the same
// (position, accumulator bits, similarity bits) and extended length >= the
// recorded floor is certain to be pruned the same way — skipping it without
// invoking consume() is exact, not heuristic. Keying on the accumulator's
// bit pattern is what makes the floors transferable across expansions:
// equal bits mean agg.Extend produces bit-equal scores, hence identical
// threshold lookups. Adversarial same-tree queries re-expand thousands of
// routes sharing (position, acc), which is exactly where replays burn time.

#ifndef SKYSR_CORE_CANDIDATE_STREAM_H_
#define SKYSR_CORE_CANDIDATE_STREAM_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace skysr {

/// One PoI vertex found by an expansion search.
struct ExpansionCandidate {
  VertexId vertex;
  Weight dist;
  double sim;
};

/// Query-lifetime prune floors, direct-mapped on (position, accumulator
/// bits, similarity bits). See the header comment for the exactness
/// argument; a collision evicts the resident floor (less skipping, never a
/// wrong skip — every hit verifies the full key before skipping). Cleared
/// per query in O(1) via an epoch stamp.
class PruneFloorTable {
 public:
  static constexpr uint32_t kSlots = 4096;  // 32 B each: 128 KiB resident

  PruneFloorTable() : slots_(kSlots) {}

  void Clear() {
    ++epoch_;
    if (epoch_ == 0) {  // stamp wrap: invalidate eagerly, once per 2^32
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  /// True when a recorded floor proves a candidate with this key and
  /// extended length `nlen` would be pruned by consume().
  bool Skippable(uint64_t acc_bits, int32_t position, double sim,
                 Weight nlen) const {
    const uint64_t sim_bits = std::bit_cast<uint64_t>(sim);
    const Slot& s = slots_[IndexOf(acc_bits, position, sim_bits)];
    return s.epoch == epoch_ && s.acc_bits == acc_bits &&
           s.sim_bits == sim_bits && s.position == position &&
           nlen >= s.floor;
  }

  /// Records that consume() pruned a candidate with this key at extended
  /// length `nlen` by a length-monotone condition.
  void Note(uint64_t acc_bits, int32_t position, double sim, Weight nlen) {
    const uint64_t sim_bits = std::bit_cast<uint64_t>(sim);
    Slot& s = slots_[IndexOf(acc_bits, position, sim_bits)];
    if (s.epoch == epoch_ && s.acc_bits == acc_bits &&
        s.sim_bits == sim_bits && s.position == position) {
      if (nlen < s.floor) s.floor = nlen;
    } else {
      s = Slot{acc_bits, sim_bits, nlen, position, epoch_};
    }
  }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Slot));
  }

 private:
  struct Slot {
    uint64_t acc_bits = 0;
    uint64_t sim_bits = 0;
    Weight floor = 0;
    int32_t position = 0;
    uint32_t epoch = 0;
  };

  static uint32_t IndexOf(uint64_t acc_bits, int32_t position,
                          uint64_t sim_bits) {
    uint64_t h = acc_bits ^ (sim_bits * 0x9e3779b97f4a7c15ULL) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(position)) *
                  0xbf58476d1ce4e5b9ULL);
    h ^= h >> 29;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 32;
    return static_cast<uint32_t>(h) & (kSlots - 1);
  }

  std::vector<Slot> slots_;
  uint32_t epoch_ = 1;  // slots start at epoch 0: all stale
};

}  // namespace skysr

#endif  // SKYSR_CORE_CANDIDATE_STREAM_H_
