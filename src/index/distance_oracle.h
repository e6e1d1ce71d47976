// Pluggable distance-oracle API: the index layer's contract with every
// distance consumer (NNinit seeding, §5.3.3 lower bounds, OSR destination
// tails, the CLI and the QueryService).
//
// An oracle is an immutable, preprocessed view of one Graph that answers
// exact point-to-point shortest-path distances and many-to-many distance
// tables. Two implementations exist:
//
//   FlatOracle  graph Dijkstra, no preprocessing (the default; identical to
//               the pre-index code paths)
//   ChOracle    contraction hierarchies: edge-difference node ordering,
//               shortcut insertion, bidirectional upward query, bucket-based
//               many-to-many
//
// Exactness contract (load-bearing — the differential harness demands
// bit-identical skylines across oracles): Distance() and Table() return the
// SAME double a reference graph Dijkstra would return, not merely a value
// within floating-point noise of it. ChOracle achieves this by unpacking the
// winning up-down path into original edges and re-summing source->target in
// path order (the association order Dijkstra's relaxations use). When
// several distinct shortest paths exist, their path-order sums coincide for
// exact (integer-valued) weights and differ with probability zero for
// continuously distributed weights; randomized tests in tests/index_test.cc
// assert the equality across all scenario graph families.
//
// Thread safety: oracles are immutable after construction; all query methods
// are const and take a caller-owned OracleWorkspace. Share one oracle across
// threads, give each thread its own workspace (the QueryService does exactly
// that).

#ifndef SKYSR_INDEX_DISTANCE_ORACLE_H_
#define SKYSR_INDEX_DISTANCE_ORACLE_H_

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/dijkstra_workspace.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/dary_heap.h"
#include "util/stamped_array.h"

namespace skysr {

/// Which oracle implementation backs a DistanceOracle. The numeric value is
/// the kind byte of saved index headers (index_io.h), so it never changes:
/// kCh stays 1, and 2 (a retired landmark index) is rejected on load.
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

/// Flat scratch for ChOracle::Table(): backward search trees stored as
/// target-major sorted record spans (binary-search lookup replaces the old
/// per-call hash maps) and per-vertex buckets built by counting scatter.
/// Everything keeps capacity across calls, so a warmed workspace runs
/// tables allocation-free.
struct ChTableScratch {
  struct BwdRecord {
    VertexId vertex;
    Weight db;
    VertexId parent;  // backward-search tree link, for path unpacking
    int32_t edge;     // CSR edge index that set the label
  };
  struct BucketEntry {
    int32_t target;
    Weight db;
  };
  std::vector<BwdRecord> records;       // per-target spans, sorted by vertex
  std::vector<int64_t> target_offsets;  // span bounds, size num_targets + 1
  StampedArray<int32_t> bucket_head;    // vertex -> first entry (-1 = none)
  StampedArray<int32_t> bucket_count;   // vertex -> entry count
  std::vector<BucketEntry> entries;     // per-vertex, target-ascending
  std::vector<VertexId> touched;        // vertices owning a bucket
  std::vector<std::pair<VertexId, Weight>> settled;
  std::vector<Weight> best;
  std::vector<Weight> weights;
  std::vector<std::pair<VertexId, int32_t>> chain;
  std::vector<VertexId> meets;  // Distance()'s meeting candidates
};

class QueryTrace;  // src/obs/query_trace.h — forward-declared to keep the
                   // index layer free of the obs headers

/// Per-thread scratch for oracle queries, reusable across calls. The members
/// cover the needs of every implementation (flat keeps a plain Dijkstra
/// workspace; CH runs two upward searches and remembers the relaxed CSR edge
/// per vertex for path unpacking).
struct OracleWorkspace {
  DijkstraWorkspace fwd;
  DijkstraWorkspace bwd;
  StampedArray<int32_t> fwd_edge;  // CSR edge index that set fwd dist
  StampedArray<int32_t> bwd_edge;
  DaryHeap<OracleHeapItem> heap;   // search frontier (CH upward searches)
  DaryHeap<OracleHeapItem> heap2;  // opposite side of bidirectional queries
  ChTableScratch table;
  /// Borrowed tracer (src/obs/): Table() implementations record
  /// kOracleTable spans into it. Null or disabled — the default — costs one
  /// branch per table call. The workspace is per-engine like the trace, so
  /// sharing the oracle across threads stays sound.
  QueryTrace* trace = nullptr;
};

/// Immutable exact distance index over one Graph.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  virtual OracleKind kind() const = 0;
  virtual const Graph& graph() const = 0;

  /// Exact shortest-path distance (kInfWeight when unreachable), bit-equal
  /// to a reference graph Dijkstra (see the exactness contract above).
  virtual Weight Distance(VertexId source, VertexId target,
                          OracleWorkspace& ws) const = 0;

  /// Exact many-to-many table: out[i * targets.size() + j] =
  /// Distance(sources[i], targets[j]). `out` must hold
  /// sources.size() * targets.size() entries. The base implementation loops
  /// Distance(); ChOracle overrides it with a bucket search that amortizes
  /// the backward work across sources.
  virtual void Table(std::span<const VertexId> sources,
                     std::span<const VertexId> targets, OracleWorkspace& ws,
                     Weight* out) const;

  /// True when Table() beats looping Distance() (ChOracle's bucket search).
  /// Consumers with a cheaper specialized plan for flat oracles (e.g.
  /// NNinit's single-Dijkstra chain) use this to pick a code path.
  virtual bool SupportsFastTable() const { return false; }

  /// Rough settles one Table() endpoint (or one Distance() side) costs —
  /// the oracle's self-measured search-space size. Consumers weigh it
  /// against the cost of a plain graph search when choosing a code path:
  /// CH upward spaces are tiny on road-like graphs but can approach the
  /// whole graph on expander-like ones. Defaults to the whole graph.
  virtual int64_t ApproxSearchSettles() const {
    return graph().num_vertices();
  }

  /// Heap footprint of the index structures in bytes.
  virtual int64_t MemoryBytes() const = 0;
};

}  // namespace skysr

#endif  // SKYSR_INDEX_DISTANCE_ORACLE_H_
