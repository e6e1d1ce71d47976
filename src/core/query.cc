#include "core/query.h"

#include <algorithm>

namespace skysr {

Query MakeSimpleQuery(VertexId start, std::span<const CategoryId> categories) {
  Query q;
  q.start = start;
  q.sequence.reserve(categories.size());
  for (CategoryId c : categories) {
    q.sequence.push_back(CategoryPredicate::Single(c));
  }
  return q;
}

Query MakeSimpleQuery(VertexId start,
                      std::initializer_list<CategoryId> categories) {
  return MakeSimpleQuery(
      start, std::span<const CategoryId>(categories.begin(),
                                         categories.size()));
}

PositionMatcher::PositionMatcher(const Graph& g, const CategoryForest& forest,
                                 const SimilarityFunction& fn,
                                 const CategoryPredicate& pred,
                                 MultiCategoryMode mode)
    : g_(&g),
      forest_(&forest),
      mode_(mode),
      all_of_(pred.all_of),
      none_of_(pred.none_of) {
  tables_.reserve(pred.any_of.size());
  for (CategoryId c : pred.any_of) {
    tables_.emplace_back(forest, fn, c);
    const TreeId t = forest.TreeOf(c);
    if (std::find(trees_.begin(), trees_.end(), t) == trees_.end()) {
      trees_.push_back(t);
    }
  }
}

double PositionMatcher::EvalSimOfPoi(PoiId p) const {
  const std::span<const CategoryId> cats = g_->PoiCategories(p);

  // Negation: the PoI must not be associated with any excluded category
  // (i.e. none of its categories lies in an excluded subtree).
  for (CategoryId banned : none_of_) {
    for (CategoryId c : cats) {
      if (forest_->IsAncestorOrSelf(banned, c)) return 0.0;
    }
  }
  // Conjunction: for every required category, some PoI category must lie in
  // its subtree.
  for (CategoryId required : all_of_) {
    bool found = false;
    for (CategoryId c : cats) {
      if (forest_->IsAncestorOrSelf(required, c)) {
        found = true;
        break;
      }
    }
    if (!found) return 0.0;
  }

  // Disjunction: best similarity over the alternatives; within one
  // alternative, multi-category PoIs aggregate by max or average (§6).
  double best = 0.0;
  for (const SimilarityTable& table : tables_) {
    double value = 0.0;
    if (mode_ == MultiCategoryMode::kMaxSimilarity) {
      for (CategoryId c : cats) value = std::max(value, table.SimOf(c));
    } else {
      double sum = 0.0;
      for (CategoryId c : cats) sum += table.SimOf(c);
      value = sum / static_cast<double>(cats.size());
    }
    best = std::max(best, value);
  }
  return best;
}

Status ValidateQuery(const Graph& g, const CategoryForest& forest,
                     const Query& q) {
  if (q.start < 0 || q.start >= g.num_vertices()) {
    return Status::InvalidArgument("query start vertex out of range");
  }
  if (q.sequence.empty()) {
    return Status::InvalidArgument("query sequence is empty");
  }
  if (q.destination &&
      (*q.destination < 0 || *q.destination >= g.num_vertices())) {
    return Status::InvalidArgument("query destination out of range");
  }
  for (const CategoryPredicate& p : q.sequence) {
    if (p.any_of.empty()) {
      return Status::InvalidArgument("position predicate needs any_of");
    }
    for (CategoryId c : p.any_of) {
      if (!forest.Valid(c)) {
        return Status::InvalidArgument("unknown category in any_of");
      }
    }
    for (CategoryId c : p.all_of) {
      if (!forest.Valid(c)) {
        return Status::InvalidArgument("unknown category in all_of");
      }
    }
    for (CategoryId c : p.none_of) {
      if (!forest.Valid(c)) {
        return Status::InvalidArgument("unknown category in none_of");
      }
    }
  }
  return Status::OK();
}

}  // namespace skysr
