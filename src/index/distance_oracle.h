// Index-layer vocabulary shared by the CH oracle (index/ch_oracle.h) and its
// consumers: the `flat|ch` oracle names, the heap item of the upward
// searches, and the per-thread OracleWorkspace.
//
// The one distance index is ChOracle (contraction hierarchies). Everything
// reaches it through the category-bucket tables (src/retrieval/), which
// answer NNinit hops and deferred expansions. "flat" names the index-free
// configuration: plain graph searches throughout.
//
// Exactness contract (load-bearing — the differential harness demands
// bit-identical skylines with and without the index): every distance the
// index layer returns is the SAME double a reference graph Dijkstra would
// return, not merely a value within floating-point noise of it. The bucket
// scans achieve this by unpacking the winning up-down paths into original
// edges and re-summing source->target in path order (the association order
// Dijkstra's relaxations use). When several distinct shortest paths exist,
// their path-order sums coincide for exact (integer-valued) weights and
// differ with probability zero for continuously distributed weights;
// randomized tests in tests/index_test.cc and tests/retrieval_test.cc
// assert the equality across all scenario graph families.
//
// Thread safety: the oracle is immutable after construction; all query
// methods are const and take a caller-owned OracleWorkspace. Share one
// oracle across threads, give each thread its own workspace (the
// QueryService does exactly that).

#ifndef SKYSR_INDEX_DISTANCE_ORACLE_H_
#define SKYSR_INDEX_DISTANCE_ORACLE_H_

#include <optional>
#include <string_view>

#include "graph/dijkstra_workspace.h"
#include "graph/types.h"
#include "util/dary_heap.h"
#include "util/stamped_array.h"

namespace skysr {

/// The `--oracle` names: kFlat runs without an index, kCh builds (or loads)
/// the contraction hierarchy. The numeric value is the kind byte of saved
/// index headers (index_io.h), so it never changes: kCh stays 1, and 0 or 2
/// (a retired landmark index) is rejected on load.
enum class OracleKind {
  kFlat = 0,
  kCh = 1,
};

/// "flat" / "ch".
const char* OracleKindName(OracleKind kind);
/// Inverse of OracleKindName; nullopt for unknown names.
std::optional<OracleKind> ParseOracleKind(std::string_view name);

/// Heap item for oracle-internal searches (CH upward Dijkstra). The
/// (dist, vertex) comparator is the deterministic settle order the
/// bit-exactness contract depends on.
struct OracleHeapItem {
  Weight dist;
  VertexId vertex;
  bool operator<(const OracleHeapItem& o) const {
    if (dist != o.dist) return dist < o.dist;
    return vertex < o.vertex;
  }
};

class QueryTrace;  // src/obs/query_trace.h — forward-declared to keep the
                   // index layer free of the obs headers

/// Per-thread scratch for upward searches and bucket-table scans, reusable
/// across calls: two upward searches with the relaxed CSR edge per vertex
/// (for path unpacking).
struct OracleWorkspace {
  DijkstraWorkspace fwd;
  DijkstraWorkspace bwd;
  StampedArray<int32_t> fwd_edge;  // CSR edge index that set fwd dist
  StampedArray<int32_t> bwd_edge;
  DaryHeap<OracleHeapItem> heap;   // search frontier (CH upward searches)
  /// Borrowed tracer (src/obs/): the bucket-served NNinit hops, and only
  /// they, record kOracleTable spans into it. Null or disabled — the
  /// default — costs one branch per hop. The workspace is
  /// per-engine like the trace, so sharing the oracle across threads stays
  /// sound.
  QueryTrace* trace = nullptr;
};

}  // namespace skysr

#endif  // SKYSR_INDEX_DISTANCE_ORACLE_H_
