// Query model: category predicates per position (§6 "complex category
// requirement"), query options toggling each optimization, and the
// per-position matcher that resolves PoI similarities during traversal.

#ifndef SKYSR_CORE_QUERY_H_
#define SKYSR_CORE_QUERY_H_

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "category/category_forest.h"
#include "category/similarity.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "retrieval/retriever_kind.h"
#include "util/stamped_array.h"
#include "util/status.h"

namespace skysr {

/// What a single sequence position asks for. The plain paper query is a
/// single category (`any_of = {c}`); the §6 extension supports disjunction
/// (several `any_of` entries), conjunction (`all_of`, meaningful for
/// multi-category PoIs) and negation (`none_of`).
struct CategoryPredicate {
  /// The PoI must semantically match at least one of these; its similarity
  /// is the best one achieved. Must be non-empty.
  std::vector<CategoryId> any_of;
  /// The PoI must be associated with every one of these (i.e. have a
  /// category inside each subtree).
  std::vector<CategoryId> all_of;
  /// The PoI must not be associated with any of these.
  std::vector<CategoryId> none_of;

  static CategoryPredicate Single(CategoryId c) {
    CategoryPredicate p;
    p.any_of.push_back(c);
    return p;
  }
};

/// A SkySR query: start vertex, category sequence, optional destination
/// (§6 "SkySR with destination": the distance from the last PoI to the
/// destination is added to the length score).
struct Query {
  VertexId start = kInvalidVertex;
  std::vector<CategoryPredicate> sequence;
  std::optional<VertexId> destination;

  int size() const { return static_cast<int>(sequence.size()); }
};

/// Convenience: a plain single-category-per-position query.
Query MakeSimpleQuery(VertexId start, std::span<const CategoryId> categories);
Query MakeSimpleQuery(VertexId start,
                      std::initializer_list<CategoryId> categories);

/// Order in which BSSR's bulk queue expands partial routes (§5.3.2).
enum class QueueDiscipline {
  /// Size desc, then semantic asc, then length asc — the paper's proposal.
  kProposed,
  /// Plain length asc — the conventional baseline the paper compares with.
  kDistanceBased,
};

/// How a multi-category PoI's similarity is aggregated (§6).
enum class MultiCategoryMode {
  kMaxSimilarity,
  kAverageSimilarity,
};

/// Per-query knobs. Defaults enable every optimization (the configuration
/// the paper calls "BSSR"); switching all four off gives "BSSR w/o Opt".
struct QueryOptions {
  bool use_initial_search = true;   // §5.3.1 NNinit
  bool use_lower_bounds = true;     // §5.3.3 ls / lp minimum distances
  bool use_cache = true;            // §5.3.4 on-the-fly caching
  QueueDiscipline queue_discipline = QueueDiscipline::kProposed;  // §5.3.2
  MultiCategoryMode multi_category = MultiCategoryMode::kMaxSimilarity;
  SemanticAggregation aggregation = SemanticAggregation::kProduct;
  /// Similarity function; null selects the paper's Eq. (6) Wu–Palmer.
  std::shared_ptr<const SimilarityFunction> similarity;
  /// Wall-clock budget; exceeded runs return partial results flagged
  /// timed_out (used to reproduce the paper's "did not finish" bars).
  double time_budget_seconds = std::numeric_limits<double>::infinity();
  /// How much of the query the category-bucket tables answer (see
  /// src/retrieval/retriever_kind.h): NNinit hops, lower-bound legs and
  /// deferred-Lemma-5.5 expansions. Bucket work requires tables attached to
  /// the engine; everything else runs the classic graph searches. Like the
  /// toggles above, every choice is exact.
  RetrieverKind retriever = RetrieverKind::kAuto;
  /// Diagnostics: when set, the engine allocates and fills a QueryExplain
  /// (src/obs/explain.h) attached to the QueryResult — which retrieval
  /// backend the cost model picked, per-layer cache hit/miss/bytes, and the
  /// pruning-attribution split. Off (the default) costs one branch per
  /// attribution site and zero allocations; results are bit-identical
  /// either way, so the flag is NOT part of the result-cache key.
  bool explain = false;
};

/// Resolves one sequence position against PoIs: similarity (0 = no match),
/// perfect-match tests, and the largest non-perfect similarity (δ input).
class PositionMatcher {
 public:
  PositionMatcher(const Graph& g, const CategoryForest& forest,
                  const SimilarityFunction& fn, const CategoryPredicate& pred,
                  MultiCategoryMode mode);

  /// Attaches an epoch-stamped per-PoI memo (owner must Prepare() it for
  /// g.num_pois() slots with default -1 and keep it alive). PoI similarity
  /// is fixed for the matcher's lifetime, so the first evaluation per PoI is
  /// cached; every later lookup — per-settle in the expansion search, the
  /// full-PoI scans of NNinit and the lower bounds — is an array read. The
  /// engine wires its workspace memos here; matchers without one just
  /// evaluate each time.
  void AttachSimCache(StampedArray<double>* cache) { sim_cache_ = cache; }

  /// Similarity of the PoI for this position; 0 when the PoI does not match
  /// (wrong trees, or all_of / none_of constraints violated).
  double SimOfPoi(PoiId p) const {
    if (sim_cache_ == nullptr) return EvalSimOfPoi(p);
    const double cached = sim_cache_->Get(p);
    if (cached >= 0.0) return cached;
    const double sim = EvalSimOfPoi(p);
    sim_cache_->Set(p, sim);
    return sim;
  }

  /// Similarity of the PoI hosted at `v`; 0 for plain road vertices.
  double SimOfVertex(VertexId v) const {
    const PoiId p = g_->PoiAtVertex(v);
    return p == kInvalidPoi ? 0.0 : SimOfPoi(p);
  }

  bool IsPerfect(PoiId p) const { return SimOfPoi(p) == 1.0; }

  /// Largest achievable similarity strictly below 1 (Lemma 5.8's σ).
  /// Conservatively 1.0 in average mode, where mixtures can exceed any
  /// single-category similarity (a δ of 0 is always safe; see DESIGN.md).
  double max_non_perfect_sim() const { return max_non_perfect_; }

  /// The trees reachable by this position's any_of categories (used to
  /// decide whether Lemma 5.5 blocker tracking is required; see DESIGN.md).
  const std::vector<TreeId>& trees() const { return trees_; }

 private:
  /// Uncached predicate evaluation (none_of / all_of walks + table max).
  double EvalSimOfPoi(PoiId p) const;

  const Graph* g_;
  const CategoryForest* forest_;
  MultiCategoryMode mode_;
  std::vector<SimilarityTable> tables_;  // one per any_of category
  std::vector<CategoryId> all_of_;
  std::vector<CategoryId> none_of_;
  std::vector<TreeId> trees_;
  double max_non_perfect_ = 0.0;
  StampedArray<double>* sim_cache_ = nullptr;  // borrowed, may be null
};

/// Validates a query against a graph + forest (ranges, non-empty sequence,
/// non-empty any_of per position).
Status ValidateQuery(const Graph& g, const CategoryForest& forest,
                     const Query& q);

}  // namespace skysr

#endif  // SKYSR_CORE_QUERY_H_
