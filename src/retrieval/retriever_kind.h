// Which PoI-retrieval backend answers an expansion search (src/retrieval/).
// Standalone (no library dependencies) so core/query.h can carry the knob
// without pulling the retrieval subsystem into every translation unit.

#ifndef SKYSR_RETRIEVAL_RETRIEVER_KIND_H_
#define SKYSR_RETRIEVAL_RETRIEVER_KIND_H_

#include <optional>
#include <string_view>

namespace skysr {

/// Backend choice for the modified-Dijkstra expansions (§5's Algorithm 2
/// searches). Every choice is exact — skylines are bit-identical across all
/// of them; the knob trades nothing but speed.
enum class RetrieverKind {
  /// Per-expansion cost model: category-bucket scans where the candidate
  /// set is sparse enough to beat a graph search, graph searches otherwise.
  /// The production default.
  kAuto,
  /// Never use the bucket tables: every expansion is a graph search (the
  /// classic settle loop, or a resumable slot in deferred-Lemma-5.5 mode).
  kSettle,
  /// Force the category-bucket tables for every eligible expansion
  /// (deferred-Lemma-5.5 mode with tables attached); the differential
  /// harness uses this to pin the bucket paths.
  kBucket,
};

inline const char* RetrieverKindName(RetrieverKind kind) {
  switch (kind) {
    case RetrieverKind::kAuto:
      return "auto";
    case RetrieverKind::kSettle:
      return "settle";
    case RetrieverKind::kBucket:
      return "bucket";
  }
  return "auto";
}

inline std::optional<RetrieverKind> ParseRetrieverKind(std::string_view name) {
  if (name == "auto") return RetrieverKind::kAuto;
  if (name == "settle") return RetrieverKind::kSettle;
  if (name == "bucket") return RetrieverKind::kBucket;
  return std::nullopt;
}

}  // namespace skysr

#endif  // SKYSR_RETRIEVAL_RETRIEVER_KIND_H_
