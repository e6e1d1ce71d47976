// The three benchmark workloads. Each builds its inputs from the run seed,
// measures a fixed amount of work sized to the requested seconds, checks
// every timed answer against the reference engine and fills the report.
//
//   paper_city  the paper's §7 setting: distinct-tree k=2..5 queries from
//               unique starts on the Tokyo-like city, one closed-loop engine
//               with the CH oracle, bucket tables and a shared query cache
//               (a service worker's setup). Runs only the classic path, so
//               it is the bypass side for retrieval and cache changes.
//   flex_tail   the semantic-hierarchy-flexible mix (any_of / all_of /
//               none_of terms, same-tree positions, destinations) on a
//               cluster scenario graph, same engine setup. Deferred
//               Lemma 5.5 mode makes bucket retrieval, the forward-search
//               cache and Q_b pruning do their work here; a few queries
//               set the tail.
//   serve_city  QueryService with 3 workers under a closed-loop stream (6
//               in flight) of Zipf-skewed hub-start queries with repeats:
//               queue wait, the result cache and the persistent resumable
//               slots only work here.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunPaperCity(const RunArgs& args, Report* report);
void RunFlexTail(const RunArgs& args, Report* report);
void RunServeCity(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
