// Query workload generation (§7.1): random start vertices; categories drawn
// from the leaves with the most PoIs ("we select only categories that have a
// large number of PoI vertices"), constrained to distinct trees.

#ifndef SKYSR_WORKLOAD_QUERY_GEN_H_
#define SKYSR_WORKLOAD_QUERY_GEN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/query.h"
#include "util/status.h"
#include "workload/dataset.h"

namespace skysr {

struct QueryGenParams {
  int count = 100;
  int sequence_size = 3;
  /// Candidate categories = the `popular_pool` leaves with the most PoIs.
  int popular_pool = 20;
  /// Require pairwise distinct trees across positions (the paper's setting).
  bool distinct_trees = true;
  uint64_t seed = 99;
};

/// Generates `count` queries over the dataset.
std::vector<Query> GenerateQueries(const Dataset& dataset,
                                   const QueryGenParams& params);

// --- Batch workload files -------------------------------------------------
//
// A workload file is the replayable form of a query batch: one query per
// line, `start|dest|POS;POS;...` with `-` for "no destination". Blank lines
// and `#` comments are ignored. Each position POS is a comma-separated list
// of predicate terms using category names as in taxonomy.txt:
//
//   Cafe                          single any_of category (the common case)
//   Cafe,Bar                      any_of disjunction (§6)
//   Cafe,+Food                    ...with an all_of constraint
//   Cafe,!Fast Food               ...with a none_of constraint
//
// A term prefixed `+` joins the position's all_of list, `!` its none_of
// list; unprefixed terms are any_of (at least one is required). Together
// with the deterministic generators (GenerateQueries, MakeScenarioQueries)
// this makes a benchmark run fully reproducible: generate once with a seed,
// replay anywhere (skysr_cli batch, tests).
//
// Format note: ',' became a term separator when complex predicates were
// added, so category names may no longer contain it (the writer rejects
// them; no built-in taxonomy uses one). Files written by the earlier
// simple-only format load unchanged as long as names are comma-free.

/// Serializes queries, including complex all_of/none_of predicates. Returns
/// InvalidArgument for category names the text format cannot represent
/// (names containing ',', ';' or '|', or starting with '+' or '!').
Status WriteWorkloadFile(const std::string& path, const Dataset& dataset,
                         std::span<const Query> queries);

/// Parses a workload file written by WriteWorkloadFile. Every query it
/// returns passes ValidateQuery against `dataset`; a line that would not
/// (a bad or out-of-range vertex id, an unknown category, a position
/// without any_of terms, an empty sequence) is an InvalidArgument naming
/// `path:line`.
Result<std::vector<Query>> LoadWorkloadFile(const std::string& path,
                                            const Dataset& dataset);

}  // namespace skysr

#endif  // SKYSR_WORKLOAD_QUERY_GEN_H_
