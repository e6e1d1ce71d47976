#include "index/ch_oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/binary_io.h"
#include "util/dary_heap.h"
#include "util/logging.h"
#include "util/timer.h"

namespace skysr {
namespace {

// Witness-search settle caps. The cheap cap serves the priority
// simulations (one per vertex up front plus one per queue pop); on the
// 26k-vertex Tokyo-like city they run 66k times and take about two thirds
// of the build, the contractions with the thorough cap the rest. Hitting a
// cap conservatively adds the shortcut, which costs space but never
// correctness.
constexpr int kSimWitnessCap = 64;
constexpr int kContractWitnessCap = 800;

// Priority simulations of very high-degree vertices (late-stage hubs of
// expander-like graphs) skip their witness searches entirely and
// pessimistically assume every shortcut is needed — which both bounds the
// otherwise quadratic simulation cost and pushes hubs to the top of the
// hierarchy, where they belong.
constexpr int64_t kSimPairLimit = 4096;

// Heap items reuse the workspace-level OracleHeapItem (distance_oracle.h)
// so query-time searches can borrow the caller's persistent heap instead of
// allocating one per call.
using UpItem = OracleHeapItem;

/// True when `v` can be stalled (stall-on-demand): some opposite-direction
/// upward edge reaches it strictly cheaper than its label, so the label is
/// provably not a shortest-path distance in G and expanding it cannot
/// contribute to any optimal up-down path.
bool Stalled(const std::vector<int64_t>& stall_offsets,
             const std::vector<ChEdge>& stall_edges, const VertexId v,
             const Weight dist, const DijkstraWorkspace& ws) {
  const auto b = static_cast<size_t>(stall_offsets[v]);
  const auto e = static_cast<size_t>(stall_offsets[v + 1]);
  for (size_t idx = b; idx < e; ++idx) {
    const ChEdge& ed = stall_edges[idx];
    if (ws.HasDist(ed.to) && ws.Dist(ed.to) + ed.weight < dist) return true;
  }
  return false;
}

/// Full upward Dijkstra over one CSR side with stall-on-demand against the
/// opposite side's CSR. Distances/parents land in `ws`, the relaxing CSR
/// edge index in `edge_of`, settles (in order) in `settled`.
void RunUpwardSearch(const std::vector<int64_t>& offsets,
                     const std::vector<ChEdge>& edges,
                     const std::vector<int64_t>& stall_offsets,
                     const std::vector<ChEdge>& stall_edges, VertexId source,
                     int64_t n, DijkstraWorkspace& ws,
                     StampedArray<int32_t>& edge_of,
                     DaryHeap<OracleHeapItem>& heap,
                     std::vector<std::pair<VertexId, Weight>>* settled) {
  ws.Prepare(n);
  edge_of.Prepare(n, -1);
  heap.clear();
  ws.SetDist(source, 0, kInvalidVertex);
  heap.push(UpItem{0, source});
  while (!heap.empty()) {
    const UpItem item = heap.pop();
    if (ws.Settled(item.vertex)) continue;
    ws.MarkSettled(item.vertex);
    settled->emplace_back(item.vertex, item.dist);
    if (Stalled(stall_offsets, stall_edges, item.vertex, item.dist, ws)) {
      continue;
    }
    const auto b = static_cast<size_t>(offsets[item.vertex]);
    const auto e = static_cast<size_t>(offsets[item.vertex + 1]);
    for (size_t idx = b; idx < e; ++idx) {
      const ChEdge& ed = edges[idx];
      if (ws.Settled(ed.to)) continue;
      const Weight nd = item.dist + ed.weight;
      if (nd < ws.Dist(ed.to)) {
        ws.SetDist(ed.to, nd, item.vertex);
        edge_of.Set(ed.to, static_cast<int32_t>(idx));
        heap.push(UpItem{nd, ed.to});
      }
    }
  }
}

/// Mutable build-time edge. Lists are kept deduplicated per (pair,
/// direction) with the minimum weight.
struct BuildEdge {
  VertexId to;
  Weight weight;
  VertexId mid;
};

/// Inserts or improves the edge to `e.to`; returns true when the list
/// changed (new entry or smaller weight).
bool AddOrImprove(std::vector<BuildEdge>* list, const BuildEdge& e) {
  for (BuildEdge& have : *list) {
    if (have.to == e.to) {
      if (e.weight < have.weight) {
        have = e;
        return true;
      }
      return false;
    }
  }
  list->push_back(e);
  return true;
}

void EraseEdgeTo(std::vector<BuildEdge>* list, VertexId to) {
  for (size_t i = 0; i < list->size(); ++i) {
    if ((*list)[i].to == to) {
      (*list)[i] = list->back();
      list->pop_back();
      return;
    }
  }
}

}  // namespace

ChOracle ChOracle::Build(const Graph& g) {
  WallTimer timer;
  ChOracle ch(g);
  const int64_t n = g.num_vertices();
  ch.rank_.assign(static_cast<size_t>(n), 0);

  // Mutable remaining-graph adjacency (parallel input edges deduplicated,
  // self-loops dropped — neither can carry a shortest path further).
  std::vector<std::vector<BuildEdge>> out(static_cast<size_t>(n));
  std::vector<std::vector<BuildEdge>> in(static_cast<size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    for (const Neighbor& nb : g.OutEdges(v)) {
      if (nb.to == v) continue;
      AddOrImprove(&out[static_cast<size_t>(v)],
                   BuildEdge{nb.to, nb.weight, kInvalidVertex});
      AddOrImprove(&in[static_cast<size_t>(nb.to)],
                   BuildEdge{v, nb.weight, kInvalidVertex});
    }
  }

  std::vector<char> contracted(static_cast<size_t>(n), 0);
  std::vector<int32_t> deleted_neighbors(static_cast<size_t>(n), 0);
  // Hierarchy level: one more than the highest contracted neighbor. Folding
  // it into the priority spreads contractions across the graph, which keeps
  // the upward search spaces (and therefore query times) small.
  std::vector<int32_t> level(static_cast<size_t>(n), 0);

  // Bounded witness Dijkstra from `u` over the remaining graph, skipping
  // `avoid`, deciding for every target w (a live out-neighbor of `avoid`
  // other than u, with candidate length cand = c(u,avoid) + c(avoid,w))
  // whether a path of length <= cand avoids `avoid`. A target is witnessed
  // as soon as a relaxation gives it a tentative distance <= cand — that
  // distance is a real path length and later relaxations only shorten it —
  // and needs a shortcut once it settles above cand or the search ends
  // without witnessing it. The search stops when every target is decided;
  // its limit is the largest undecided candidate, and relaxations past the
  // limit are not pushed. The heap order is total (distance, vertex), so
  // each cut drops only a suffix of the settle sequence the unpruned search
  // to the largest candidate would run, a suffix that cannot change any
  // verdict; settle-cap outcomes, and with them the hierarchy, are those of
  // the unpruned search.
  struct WitnessTarget {
    VertexId to;
    Weight cand;
    bool witnessed;
    bool decided;
  };
  std::vector<WitnessTarget> targets;
  std::vector<int32_t> target_of(static_cast<size_t>(n), -1);
  DijkstraWorkspace wws;
  DaryHeap<UpItem> wheap;
  const auto witness_search = [&](VertexId u, VertexId avoid, int cap) {
    int64_t undecided = static_cast<int64_t>(targets.size());
    Weight limit = -1;
    for (const WitnessTarget& t : targets) limit = std::max(limit, t.cand);
    const auto decide = [&](WitnessTarget& t, bool witnessed) {
      t.witnessed = witnessed;
      t.decided = true;
      --undecided;
      if (t.cand < limit) return;
      limit = -1;
      for (const WitnessTarget& o : targets) {
        if (!o.decided) limit = std::max(limit, o.cand);
      }
    };
    wws.Prepare(n);
    wheap.clear();
    wws.SetDist(u, 0, kInvalidVertex);
    wheap.push(UpItem{0, u});
    int settles = 0;
    while (undecided > 0 && !wheap.empty()) {
      const UpItem item = wheap.pop();
      if (wws.Settled(item.vertex)) continue;
      if (item.dist > limit || ++settles > cap) break;
      wws.MarkSettled(item.vertex);
      ++ch.build_stats_.witness_settled;
      const int32_t ti = target_of[static_cast<size_t>(item.vertex)];
      if (ti >= 0 && !targets[static_cast<size_t>(ti)].decided &&
          item.dist > targets[static_cast<size_t>(ti)].cand) {
        decide(targets[static_cast<size_t>(ti)], /*witnessed=*/false);
      }
      for (const BuildEdge& e : out[static_cast<size_t>(item.vertex)]) {
        if (e.to == avoid || contracted[static_cast<size_t>(e.to)]) continue;
        const Weight nd = item.dist + e.weight;
        if (nd > limit || !(nd < wws.Dist(e.to))) continue;
        wws.SetDist(e.to, nd, item.vertex);
        wheap.push(UpItem{nd, e.to});
        const int32_t wi = target_of[static_cast<size_t>(e.to)];
        if (wi >= 0 && !targets[static_cast<size_t>(wi)].decided &&
            nd <= targets[static_cast<size_t>(wi)].cand) {
          decide(targets[static_cast<size_t>(wi)], /*witnessed=*/true);
        }
      }
    }
  };

  // Counts (apply=false) or inserts (apply=true) the shortcuts contracting
  // `v` requires; also reports how many remaining-graph edges v's removal
  // deletes. One witness search per live in-neighbor.
  const auto process = [&](VertexId v, bool apply,
                           int cap) -> std::pair<int64_t, int64_t> {
    int64_t shortcuts = 0, removed = 0;
    const auto& vin = in[static_cast<size_t>(v)];
    const auto& vout = out[static_cast<size_t>(v)];
    for (const BuildEdge& oe : vout) {
      if (!contracted[static_cast<size_t>(oe.to)]) ++removed;
    }
    const int64_t pair_bound = static_cast<int64_t>(vin.size()) *
                               static_cast<int64_t>(vout.size());
    if (!apply && pair_bound > kSimPairLimit) {
      // Too big to simulate: assume the worst (see kSimPairLimit).
      for (const BuildEdge& ie : vin) {
        if (!contracted[static_cast<size_t>(ie.to)]) ++removed;
      }
      return {pair_bound, removed};
    }
    for (const BuildEdge& ie : vin) {
      if (contracted[static_cast<size_t>(ie.to)]) continue;
      ++removed;
      const VertexId u = ie.to;
      targets.clear();
      for (const BuildEdge& oe : vout) {
        if (oe.to == u || contracted[static_cast<size_t>(oe.to)]) continue;
        target_of[static_cast<size_t>(oe.to)] =
            static_cast<int32_t>(targets.size());
        targets.push_back(
            WitnessTarget{oe.to, ie.weight + oe.weight, false, false});
      }
      if (targets.empty()) continue;
      witness_search(u, v, cap);
      for (const WitnessTarget& t : targets) {
        target_of[static_cast<size_t>(t.to)] = -1;
        if (t.witnessed) continue;  // witness path suffices
        ++shortcuts;
        if (apply) {
          const bool changed = AddOrImprove(&out[static_cast<size_t>(u)],
                                            BuildEdge{t.to, t.cand, v});
          AddOrImprove(&in[static_cast<size_t>(t.to)],
                       BuildEdge{u, t.cand, v});
          if (changed) ++ch.num_shortcuts_;
        }
      }
    }
    return {shortcuts, removed};
  };

  const auto priority = [&](VertexId v) -> int64_t {
    const auto [shortcuts, removed] = process(v, /*apply=*/false,
                                              kSimWitnessCap);
    return 8 * (shortcuts - removed) +
           2 * deleted_neighbors[static_cast<size_t>(v)] +
           level[static_cast<size_t>(v)];
  };

  struct PrioItem {
    int64_t prio;
    VertexId vertex;
    bool operator<(const PrioItem& o) const {
      if (prio != o.prio) return prio < o.prio;
      return vertex < o.vertex;
    }
  };
  DaryHeap<PrioItem> pq;
  for (VertexId v = 0; v < n; ++v) pq.push(PrioItem{priority(v), v});

  std::vector<std::vector<ChEdge>> frozen_fwd(static_cast<size_t>(n));
  std::vector<std::vector<ChEdge>> frozen_bwd(static_cast<size_t>(n));
  int32_t next_rank = 0;
  while (!pq.empty()) {
    const PrioItem top = pq.pop();
    const VertexId v = top.vertex;
    if (contracted[static_cast<size_t>(v)]) continue;
    // Lazy update: contract only if the recomputed priority still wins.
    const int64_t prio = priority(v);
    if (!pq.empty() && prio > pq.top().prio) {
      pq.push(PrioItem{prio, v});
      continue;
    }

    ch.rank_[static_cast<size_t>(v)] = next_rank++;
    process(v, /*apply=*/true, kContractWitnessCap);
    contracted[static_cast<size_t>(v)] = 1;

    // Freeze v's live edges — every surviving endpoint outranks v — and
    // unlink v from the remaining graph.
    for (const BuildEdge& oe : out[static_cast<size_t>(v)]) {
      if (contracted[static_cast<size_t>(oe.to)]) continue;
      frozen_fwd[static_cast<size_t>(v)].push_back(
          ChEdge{oe.weight, oe.to, oe.mid});
      EraseEdgeTo(&in[static_cast<size_t>(oe.to)], v);
      ++deleted_neighbors[static_cast<size_t>(oe.to)];
      level[static_cast<size_t>(oe.to)] =
          std::max(level[static_cast<size_t>(oe.to)],
                   level[static_cast<size_t>(v)] + 1);
    }
    for (const BuildEdge& ie : in[static_cast<size_t>(v)]) {
      if (contracted[static_cast<size_t>(ie.to)]) continue;
      frozen_bwd[static_cast<size_t>(v)].push_back(
          ChEdge{ie.weight, ie.to, ie.mid});
      EraseEdgeTo(&out[static_cast<size_t>(ie.to)], v);
      ++deleted_neighbors[static_cast<size_t>(ie.to)];
      level[static_cast<size_t>(ie.to)] =
          std::max(level[static_cast<size_t>(ie.to)],
                   level[static_cast<size_t>(v)] + 1);
    }
    out[static_cast<size_t>(v)].clear();
    in[static_cast<size_t>(v)].clear();
  }

  // CSR-ify the frozen per-vertex lists.
  const auto csr = [n](const std::vector<std::vector<ChEdge>>& lists,
                       std::vector<int64_t>* offsets,
                       std::vector<ChEdge>* edges) {
    offsets->assign(static_cast<size_t>(n) + 1, 0);
    for (int64_t v = 0; v < n; ++v) {
      (*offsets)[static_cast<size_t>(v) + 1] =
          (*offsets)[static_cast<size_t>(v)] +
          static_cast<int64_t>(lists[static_cast<size_t>(v)].size());
    }
    edges->clear();
    edges->reserve(static_cast<size_t>((*offsets)[static_cast<size_t>(n)]));
    for (int64_t v = 0; v < n; ++v) {
      for (const ChEdge& e : lists[static_cast<size_t>(v)]) {
        edges->push_back(e);
      }
    }
  };
  csr(frozen_fwd, &ch.up_fwd_offsets_, &ch.up_fwd_edges_);
  csr(frozen_bwd, &ch.up_bwd_offsets_, &ch.up_bwd_edges_);

  ch.MeasureSearchCost();
  ch.build_stats_.build_ms = timer.ElapsedMillis();
  ch.build_stats_.shortcuts_added = ch.num_shortcuts_;
  return ch;
}

void ChOracle::ForwardUpwardSearch(
    VertexId source, OracleWorkspace& ws,
    std::vector<std::pair<VertexId, Weight>>* settled) const {
  RunUpwardSearch(up_fwd_offsets_, up_fwd_edges_, up_bwd_offsets_,
                  up_bwd_edges_, source, g_->num_vertices(), ws.fwd,
                  ws.fwd_edge, ws.heap, settled);
}

void ChOracle::BackwardUpwardSearch(
    VertexId target, OracleWorkspace& ws,
    std::vector<std::pair<VertexId, Weight>>* settled) const {
  RunUpwardSearch(up_bwd_offsets_, up_bwd_edges_, up_fwd_offsets_,
                  up_fwd_edges_, target, g_->num_vertices(), ws.bwd,
                  ws.bwd_edge, ws.heap, settled);
}

void ChOracle::UnpackFwdEdgeAt(int64_t idx,
                               std::vector<Weight>* weights) const {
  const auto it = std::upper_bound(up_fwd_offsets_.begin(),
                                   up_fwd_offsets_.end(), idx);
  const auto owner = static_cast<VertexId>(
      std::distance(up_fwd_offsets_.begin(), it) - 1);
  UnpackFwd(owner, up_fwd_edges_[static_cast<size_t>(idx)], weights);
}

void ChOracle::UnpackBwdEdgeAt(int64_t idx,
                               std::vector<Weight>* weights) const {
  const auto it = std::upper_bound(up_bwd_offsets_.begin(),
                                   up_bwd_offsets_.end(), idx);
  const auto owner = static_cast<VertexId>(
      std::distance(up_bwd_offsets_.begin(), it) - 1);
  UnpackBwd(owner, up_bwd_edges_[static_cast<size_t>(idx)], weights);
}

uint64_t ChOracle::StructureChecksum() const {
  const auto mix = [](uint64_t* d, uint64_t v) {
    *d = (*d ^ (v + 0x9E3779B97F4A7C15ULL)) * 0xBF58476D1CE4E5B9ULL;
    *d ^= *d >> 31;
  };
  uint64_t d = 0xC4B1'5C4E'7531'0001ULL;
  const auto mix_side = [&](const std::vector<int64_t>& offsets,
                            const std::vector<ChEdge>& edges) {
    mix(&d, static_cast<uint64_t>(edges.size()));
    for (const int64_t o : offsets) mix(&d, static_cast<uint64_t>(o));
    for (const ChEdge& e : edges) {
      mix(&d, std::bit_cast<uint64_t>(e.weight));
      mix(&d, static_cast<uint64_t>(static_cast<uint32_t>(e.to)));
      mix(&d, static_cast<uint64_t>(static_cast<uint32_t>(e.mid)));
    }
  };
  mix_side(up_fwd_offsets_, up_fwd_edges_);
  mix_side(up_bwd_offsets_, up_bwd_edges_);
  return d;
}

void ChOracle::MeasureSearchCost() {
  const int64_t n = g_->num_vertices();
  if (n == 0) {
    avg_up_settles_ = 1;
    return;
  }
  const int64_t samples = std::min<int64_t>(32, n);
  OracleWorkspace ws;
  std::vector<std::pair<VertexId, Weight>> settled;
  int64_t total = 0;
  for (int64_t i = 0; i < samples; ++i) {
    settled.clear();
    RunUpwardSearch(up_fwd_offsets_, up_fwd_edges_, up_bwd_offsets_,
                    up_bwd_edges_, static_cast<VertexId>((n * i) / samples),
                    n, ws.fwd, ws.fwd_edge, ws.heap, &settled);
    total += static_cast<int64_t>(settled.size());
  }
  avg_up_settles_ = std::max<int64_t>(1, total / samples);
}

const ChEdge& ChOracle::FrozenEdge(VertexId mid, VertexId to,
                                   bool fwd) const {
  const std::span<const ChEdge> edges = fwd ? UpFwd(mid) : UpBwd(mid);
  for (const ChEdge& e : edges) {
    if (e.to == to) return e;
  }
  SKYSR_CHECK_MSG(false, "CH shortcut references a missing component edge");
  return edges[0];  // unreachable
}

void ChOracle::UnpackFwd(VertexId owner, const ChEdge& e,
                         std::vector<Weight>* weights) const {
  if (e.mid == kInvalidVertex) {
    weights->push_back(e.weight);
    return;
  }
  UnpackBwd(e.mid, FrozenEdge(e.mid, owner, /*fwd=*/false), weights);
  UnpackFwd(e.mid, FrozenEdge(e.mid, e.to, /*fwd=*/true), weights);
}

void ChOracle::UnpackBwd(VertexId owner, const ChEdge& e,
                         std::vector<Weight>* weights) const {
  if (e.mid == kInvalidVertex) {
    weights->push_back(e.weight);
    return;
  }
  UnpackBwd(e.mid, FrozenEdge(e.mid, e.to, /*fwd=*/false), weights);
  UnpackFwd(e.mid, FrozenEdge(e.mid, owner, /*fwd=*/true), weights);
}

int64_t ChOracle::MemoryBytes() const {
  return static_cast<int64_t>(
      rank_.capacity() * sizeof(int32_t) +
      (up_fwd_offsets_.capacity() + up_bwd_offsets_.capacity()) *
          sizeof(int64_t) +
      (up_fwd_edges_.capacity() + up_bwd_edges_.capacity()) *
          sizeof(ChEdge));
}

Status ChOracle::SavePayload(std::FILE* f) const {
  static_assert(sizeof(ChEdge) == 16, "ChEdge must be padding-free");
  if (!binary_io::WriteVec(f, rank_) ||
      !binary_io::WriteVec(f, up_fwd_offsets_) ||
      !binary_io::WriteVec(f, up_fwd_edges_) ||
      !binary_io::WriteVec(f, up_bwd_offsets_) ||
      !binary_io::WriteVec(f, up_bwd_edges_) ||
      !binary_io::WritePod(f, num_shortcuts_)) {
    return Status::IOError("short write of CH index payload");
  }
  return Status::OK();
}

Result<ChOracle> ChOracle::LoadPayload(std::FILE* f, const Graph& g) {
  ChOracle ch(g);
  if (!binary_io::ReadVec(f, &ch.rank_) ||
      !binary_io::ReadVec(f, &ch.up_fwd_offsets_) ||
      !binary_io::ReadVec(f, &ch.up_fwd_edges_) ||
      !binary_io::ReadVec(f, &ch.up_bwd_offsets_) ||
      !binary_io::ReadVec(f, &ch.up_bwd_edges_) ||
      !binary_io::ReadPod(f, &ch.num_shortcuts_)) {
    return Status::IOError("corrupt or truncated CH index payload");
  }
  if (!ch.WellFormed()) {
    return Status::IOError("CH index payload is inconsistent with the graph");
  }
  ch.MeasureSearchCost();
  return ch;
}

bool ChOracle::WellFormed() const {
  const auto n = static_cast<size_t>(g_->num_vertices());
  if (rank_.size() != n || up_fwd_offsets_.size() != n + 1 ||
      up_bwd_offsets_.size() != n + 1 ||
      !binary_io::IsCsrOffsets(up_fwd_offsets_, up_fwd_edges_.size()) ||
      !binary_io::IsCsrOffsets(up_bwd_offsets_, up_bwd_edges_.size())) {
    return false;
  }
  // The contraction order must be a permutation of [0, n).
  std::vector<uint8_t> seen(n, 0);
  for (const int32_t r : rank_) {
    if (r < 0 || static_cast<size_t>(r) >= n || seen[static_cast<size_t>(r)]) {
      return false;
    }
    seen[static_cast<size_t>(r)] = 1;
  }
  const auto rank = [&](VertexId v) { return rank_[static_cast<size_t>(v)]; };
  const auto has_edge = [](std::span<const ChEdge> edges, VertexId to) {
    for (const ChEdge& e : edges) {
      if (e.to == to) return true;
    }
    return false;
  };
  // Every upward edge climbs in rank, and a shortcut's middle is ranked
  // below both ends and owns both component edges. Unpacking recurses into
  // edges owned by strictly lower-ranked vertices, so it terminates, and
  // FrozenEdge always finds its component.
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    for (const bool fwd : {true, false}) {
      for (const ChEdge& e : fwd ? UpFwd(v) : UpBwd(v)) {
        if (e.to < 0 || static_cast<size_t>(e.to) >= n ||
            rank(e.to) <= rank(v) || !(e.weight >= 0) ||
            !std::isfinite(e.weight)) {
          return false;
        }
        if (e.mid == kInvalidVertex) continue;
        if (e.mid < 0 || static_cast<size_t>(e.mid) >= n ||
            rank(e.mid) >= rank(v) ||
            !has_edge(fwd ? UpBwd(e.mid) : UpFwd(e.mid), v) ||
            !has_edge(fwd ? UpFwd(e.mid) : UpBwd(e.mid), e.to)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace skysr
