// Which PoI-retrieval backend answers an expansion search (src/retrieval/).
// Standalone (no library dependencies) so core/query.h can carry the knob
// without pulling the retrieval subsystem into every translation unit.

#ifndef SKYSR_RETRIEVAL_RETRIEVER_KIND_H_
#define SKYSR_RETRIEVAL_RETRIEVER_KIND_H_

#include <optional>
#include <string_view>

namespace skysr {

/// How much of a query the category-bucket tables answer: NNinit hops
/// (§5.3.1) and the modified-Dijkstra expansions of deferred-Lemma-5.5
/// mode (§5's Algorithm 2 searches). It takes effect
/// only on engines with bucket tables attached; without them every choice
/// runs the classic graph searches. Every choice is exact — skylines are
/// bit-identical across all of them; the knob trades nothing but speed.
enum class RetrieverKind {
  /// Cost models per hop and expansion: bucket tables where the candidate
  /// set is sparse enough to beat a graph search, graph searches otherwise.
  /// The production default.
  kAuto,
  /// Never use the bucket tables: every hop and expansion is a graph
  /// search (the classic settle loop, or a resumable slot in
  /// deferred-Lemma-5.5 mode).
  kSettle,
  /// Answer every NNinit hop and eligible expansion
  /// (deferred-Lemma-5.5 mode) from the tables; the differential harness
  /// uses this to pin the bucket paths.
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
