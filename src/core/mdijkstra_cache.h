// On-the-fly caching (§5.3.4): memoizes expansion-search results keyed by
// (source vertex, sequence position) for the duration of ONE query. BSSR
// frequently re-expands the same PoI vertex for the same next category; the
// cached candidates replace the whole graph search. Entries whose covered
// radius is too small for a later, larger budget are rebuilt and replaced.
// The cache is cleared when the query finishes — the paper notes the search
// spaces of different queries rarely overlap.
//
// Storage is allocation-free in steady state: a stamped span table (see
// util/stamped_span_table.h) holds (offset, count) spans into one shared
// candidate vector — no owning vector per entry, O(1) clear per query. A
// hit hands the engine a span of that vector, which it replays with the one
// scalar budget loop every candidate stream goes through.

#ifndef SKYSR_CORE_MDIJKSTRA_CACHE_H_
#define SKYSR_CORE_MDIJKSTRA_CACHE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_stream.h"
#include "core/modified_dijkstra.h"
#include "graph/types.h"
#include "util/stamped_span_table.h"

namespace skysr {

/// Per-query memo of expansion searches. Entry metadata is the search's
/// ExpansionOutcome: entry->meta.covered_radius / entry->meta.exhausted.
class MdijkstraCache {
  using Table = StampedSpanTable<ExpansionCandidate, ExpansionOutcome>;

 public:
  using Entry = Table::Entry;

  /// Cached entry for (source, position), or nullptr.
  const Entry* Find(VertexId source, int position) const {
    return table_.Find(KeyOf(source, position));
  }

  /// The candidates of a found entry, in non-decreasing distance order: a
  /// view into the shared pool, valid until the pool next grows.
  std::span<const ExpansionCandidate> CandidatesOf(const Entry& e) const {
    return table_.SpanOf(e);
  }

  /// The shared candidate pool. An expansion search appends its candidates
  /// here (remember the pool size beforehand), then Commit()s the span.
  std::vector<ExpansionCandidate>& pool() { return table_.pool(); }
  const std::vector<ExpansionCandidate>& pool() const { return table_.pool(); }

  /// Inserts or replaces the entry for (source, position), whose candidates
  /// are pool()[pool_offset..end).
  void Commit(VertexId source, int position, size_t pool_offset,
              const ExpansionOutcome& outcome) {
    table_.Commit(KeyOf(source, position), pool_offset, outcome);
  }

  void Clear() { table_.Clear(); }
  int64_t size() const { return table_.size(); }
  int64_t replacements() const { return table_.replacements(); }
  int64_t MemoryBytes() const { return table_.MemoryBytes(); }

 private:
  static uint64_t KeyOf(VertexId source, int position) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(source)) << 16) |
           static_cast<uint64_t>(static_cast<uint32_t>(position) & 0xffff);
  }

  Table table_;
};

}  // namespace skysr

#endif  // SKYSR_CORE_MDIJKSTRA_CACHE_H_
