// The naive SkySR solution the paper compares against (§4, §7.1): run one
// OSR query per super-category sequence of S_q — with either the
// Dijkstra-based or the PNE engine — score each returned route against the
// ORIGINAL query, and skyline-filter.
//
// Exactness caveat (DESIGN.md): this enumeration provably returns the exact
// skyline for LCA-determined similarities such as the paper's Eq. (6) with
// the product aggregator; for other similarity functions it may miss skyline
// points. Tests compare it against BSSR under the default configuration.

#ifndef SKYSR_BASELINE_NAIVE_SKYSR_H_
#define SKYSR_BASELINE_NAIVE_SKYSR_H_

#include <vector>

#include "core/bssr_engine.h"
#include "core/query.h"

namespace skysr {

/// Which OSR engine the naive baseline iterates.
enum class OsrEngineKind { kDijkstraBased, kPne };

/// Extra accounting for the naive baseline.
struct NaiveRunInfo {
  int64_t osr_queries = 0;
  int64_t vertices_settled = 0;
};

/// Runs the naive baseline. Requires a plain query (single category per
/// position, no all_of/none_of). Returns the same QueryResult shape as
/// BssrEngine::Run; stats fields that do not apply stay zero.
Result<QueryResult> RunNaiveSkySr(const Graph& g, const CategoryForest& forest,
                                  const Query& query,
                                  const QueryOptions& options,
                                  OsrEngineKind engine,
                                  NaiveRunInfo* info = nullptr);

}  // namespace skysr

#endif  // SKYSR_BASELINE_NAIVE_SKYSR_H_
