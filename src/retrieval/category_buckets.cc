#include "retrieval/category_buckets.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "index/distance_oracle.h"
#include "util/binary_io.h"
#include "util/timer.h"

namespace skysr {
namespace {

// PoIs per block of the build's backward searches. An index with fewer
// PoIs than one block is built on the calling thread alone.
constexpr int64_t kPoiBlock = 256;

/// One block's backward searches: the PoIs' vertex-sorted settle lists back
/// to back, with each PoI's end offset.
struct SettleBlock {
  std::vector<PoiBucketSettle> settles;
  std::vector<size_t> ends;
  bool ready = false;  // guarded by the build's mutex
};

}  // namespace

void CategoryBucketIndex::BuildDerived() {
  // Per-vertex entry CSR: the per-PoI settle lists inverted, so a forward
  // settle reads its bucket entries with one offset lookup. Sorted by
  // (vertex, poi) via counting sort for determinism.
  const int64_t n = g_->num_vertices();
  vertex_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const PoiBucketSettle& s : settles_) {
    ++vertex_offsets_[static_cast<size_t>(s.vertex) + 1];
  }
  for (int64_t v = 0; v < n; ++v) {
    vertex_offsets_[static_cast<size_t>(v) + 1] +=
        vertex_offsets_[static_cast<size_t>(v)];
  }
  entries_.assign(settles_.size(), BucketEntry{});
  std::vector<int64_t> cursor(vertex_offsets_.begin(),
                              vertex_offsets_.end() - 1);
  // Visiting PoIs in id order fills each vertex's range in ascending poi
  // order — a stable counting sort by (vertex, poi).
  for (PoiId p = 0; p < g_->num_pois(); ++p) {
    for (const PoiBucketSettle& s : SettlesOf(p)) {
      entries_[static_cast<size_t>(cursor[static_cast<size_t>(s.vertex)]++)] =
          BucketEntry{s.db, s.vertex, p};
    }
  }

  // An upward edge's unpack is fixed at build time, so the recursion
  // through shortcut middles runs once per edge here instead of once per
  // query-time re-sum.
  std::vector<Weight> buf;
  const auto build_side = [&](bool fwd, std::vector<int64_t>* woff,
                              std::vector<Weight>* pool) {
    const int64_t num_edges =
        fwd ? ch_->NumUpFwdEdges() : ch_->NumUpBwdEdges();
    woff->assign(static_cast<size_t>(num_edges) + 1, 0);
    pool->clear();
    for (int64_t idx = 0; idx < num_edges; ++idx) {
      buf.clear();
      if (fwd) {
        ch_->UnpackFwdEdgeAt(idx, &buf);
      } else {
        ch_->UnpackBwdEdgeAt(idx, &buf);
      }
      pool->insert(pool->end(), buf.begin(), buf.end());
      (*woff)[static_cast<size_t>(idx) + 1] =
          static_cast<int64_t>(pool->size());
    }
  };
  build_side(/*fwd=*/true, &fwd_edge_woff_, &fwd_edge_weights_);
  build_side(/*fwd=*/false, &bwd_edge_woff_, &bwd_edge_weights_);
}

void CategoryBucketIndex::BuildCategoryTables() {
  const Graph& g = *g_;
  const int64_t num_pois = g.num_pois();
  // Distinct own-categories and the per-category PoI lists. A multi-category
  // PoI is bucketed once per distinct own-category (matchers filter per PoI,
  // scans dedupe per PoI).
  CategoryId max_cat = -1;
  for (PoiId p = 0; p < num_pois; ++p) {
    for (const CategoryId c : g.PoiCategories(p)) {
      max_cat = std::max(max_cat, c);
    }
  }
  cat_slot_.assign(static_cast<size_t>(max_cat) + 1, -1);
  for (PoiId p = 0; p < num_pois; ++p) {
    for (const CategoryId c : g.PoiCategories(p)) {
      if (cat_slot_[static_cast<size_t>(c)] < 0) {
        cat_slot_[static_cast<size_t>(c)] = 0;  // mark present
        categories_.push_back(c);
      }
    }
  }
  std::sort(categories_.begin(), categories_.end());
  for (size_t s = 0; s < categories_.size(); ++s) {
    cat_slot_[static_cast<size_t>(categories_[s])] = static_cast<int32_t>(s);
  }
  const size_t num_slots = categories_.size();
  std::vector<std::vector<PoiId>> cat_pois(num_slots);
  std::vector<CategoryId> seen;  // dedupe duplicate categories on one PoI
  for (PoiId p = 0; p < num_pois; ++p) {
    seen.clear();
    for (const CategoryId c : g.PoiCategories(p)) {
      if (std::find(seen.begin(), seen.end(), c) != seen.end()) continue;
      seen.push_back(c);
      cat_pois[static_cast<size_t>(cat_slot_[static_cast<size_t>(c)])]
          .push_back(p);
    }
  }
  cat_poi_offsets_.assign(num_slots + 1, 0);
  for (size_t s = 0; s < num_slots; ++s) {
    cat_poi_offsets_[s + 1] =
        cat_poi_offsets_[s] + static_cast<int64_t>(cat_pois[s].size());
    for (const PoiId p : cat_pois[s]) cat_pois_.push_back(p);
  }
}

void CategoryBucketIndex::BuildSettles() {
  const Graph& g = *g_;
  const ChOracle& ch = *ch_;
  const int64_t num_pois = g.num_pois();
  // Workers run the searches block by block into a ring of one slot per
  // worker, and this thread appends the blocks in PoI order (it runs blocks
  // itself while the next one to append is unfinished). A worker claims
  // block b only once block b - workers is appended, so at most `workers`
  // blocks are buffered beside the growing table. The slots are sized
  // here, on the calling thread, for 1.5 times the oracle's mean search
  // size: a block rarely outgrows them, so the workers allocate almost
  // nothing that would stay resident in their own malloc arenas after the
  // build.
  const int64_t num_blocks = (num_pois + kPoiBlock - 1) / kPoiBlock;
  const int64_t workers = std::clamp<int64_t>(
      std::thread::hardware_concurrency(), 1, std::max<int64_t>(num_blocks, 1));
  std::vector<SettleBlock> slots(static_cast<size_t>(workers));
  for (SettleBlock& slot : slots) {
    slot.settles.reserve(
        static_cast<size_t>(3 * kPoiBlock * ch.ApproxSearchSettles() / 2));
    slot.ends.reserve(static_cast<size_t>(kPoiBlock));
  }
  std::mutex mu;
  std::condition_variable cv;
  int64_t next_block = 0;  // next block to claim
  int64_t appended = 0;    // blocks appended to the index
  std::exception_ptr error;

  // Runs the backward searches of block b into its slot.
  const auto search_block = [&](int64_t b, OracleWorkspace& ws,
                                std::vector<std::pair<VertexId, Weight>>&
                                    settled) {
    SettleBlock& slot = slots[static_cast<size_t>(b % workers)];
    slot.settles.clear();
    slot.ends.clear();
    const auto end =
        static_cast<PoiId>(std::min(num_pois, (b + 1) * kPoiBlock));
    for (PoiId p = static_cast<PoiId>(b * kPoiBlock); p < end; ++p) {
      settled.clear();
      ch.BackwardUpwardSearch(g.VertexOfPoi(p), ws, &settled);
      const size_t begin = slot.settles.size();
      for (const auto& [v, d] : settled) {
        slot.settles.push_back(
            PoiBucketSettle{d, v, ws.bwd.Parent(v), ws.bwd_edge.Get(v), 0});
      }
      std::sort(slot.settles.begin() + static_cast<std::ptrdiff_t>(begin),
                slot.settles.end(),
                [](const PoiBucketSettle& x, const PoiBucketSettle& y) {
                  return x.vertex < y.vertex;
                });
      slot.ends.push_back(slot.settles.size());
    }
  };
  // True when some block is unclaimed and its slot is free (mu held).
  const auto claimable = [&] {
    return next_block < std::min(num_blocks, appended + workers);
  };
  const auto worker = [&] {
    OracleWorkspace ws;
    std::vector<std::pair<VertexId, Weight>> settled;
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] {
        return error || next_block >= num_blocks || claimable();
      });
      if (error || next_block >= num_blocks) return;
      const int64_t b = next_block++;
      lock.unlock();
      try {
        search_block(b, ws, settled);
      } catch (...) {
        lock.lock();
        if (!error) error = std::current_exception();
        cv.notify_all();
        return;
      }
      lock.lock();
      slots[static_cast<size_t>(b % workers)].ready = true;
      cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  poi_offsets_.assign(static_cast<size_t>(num_pois) + 1, 0);
  try {
    for (int64_t t = 1; t < workers; ++t) threads.emplace_back(worker);
    OracleWorkspace ws;
    std::vector<std::pair<VertexId, Weight>> settled;
    std::unique_lock<std::mutex> lock(mu);
    for (int64_t b = 0; b < num_blocks && !error; ++b) {
      SettleBlock& slot = slots[static_cast<size_t>(b % workers)];
      while (true) {
        cv.wait(lock, [&] { return slot.ready || error || claimable(); });
        if (slot.ready || error) break;
        const int64_t c = next_block++;
        lock.unlock();
        search_block(c, ws, settled);
        lock.lock();
        slots[static_cast<size_t>(c % workers)].ready = true;
      }
      if (error) break;
      lock.unlock();
      // Appended PoI by PoI, so the table's capacity (and MemoryBytes())
      // grows the same whatever the worker count.
      PoiId p = static_cast<PoiId>(b * kPoiBlock);
      size_t begin = 0;
      for (const size_t end : slot.ends) {
        settles_.insert(
            settles_.end(),
            slot.settles.begin() + static_cast<std::ptrdiff_t>(begin),
            slot.settles.begin() + static_cast<std::ptrdiff_t>(end));
        poi_offsets_[static_cast<size_t>(p) + 1] =
            static_cast<int64_t>(settles_.size());
        ++build_stats_.backward_searches;
        ++p;
        begin = end;
      }
      lock.lock();
      slot.ready = false;
      appended = b + 1;
      cv.notify_all();
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::current_exception();
    cv.notify_all();
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

CategoryBucketIndex CategoryBucketIndex::Build(const Graph& g,
                                               const ChOracle& ch) {
  SKYSR_CHECK_MSG(&ch.graph() == &g,
                  "bucket index must be built over the oracle's own graph");
  WallTimer timer;
  CategoryBucketIndex index(g, ch);
  index.BuildCategoryTables();
  index.BuildSettles();
  index.BuildDerived();
  index.build_stats_.settles_stored =
      static_cast<int64_t>(index.settles_.size());
  index.build_stats_.build_ms = timer.ElapsedMillis();
  return index;
}

int64_t CategoryBucketIndex::MemoryBytes() const {
  return static_cast<int64_t>(
      categories_.capacity() * sizeof(CategoryId) +
      cat_slot_.capacity() * sizeof(int32_t) +
      cat_poi_offsets_.capacity() * sizeof(int64_t) +
      cat_pois_.capacity() * sizeof(PoiId) +
      vertex_offsets_.capacity() * sizeof(int64_t) +
      entries_.capacity() * sizeof(BucketEntry) +
      poi_offsets_.capacity() * sizeof(int64_t) +
      settles_.capacity() * sizeof(PoiBucketSettle) +
      (fwd_edge_woff_.capacity() + bwd_edge_woff_.capacity()) *
          sizeof(int64_t) +
      (fwd_edge_weights_.capacity() + bwd_edge_weights_.capacity()) *
          sizeof(Weight));
}

Status CategoryBucketIndex::SavePayload(std::FILE* f) const {
  static_assert(sizeof(BucketEntry) == 16,
                "BucketEntry must be padding-free");
  static_assert(sizeof(PoiBucketSettle) == 24,
                "PoiBucketSettle must be padding-free");
  if (!binary_io::WriteVec(f, categories_) ||
      !binary_io::WriteVec(f, cat_slot_) ||
      !binary_io::WriteVec(f, cat_poi_offsets_) ||
      !binary_io::WriteVec(f, cat_pois_) ||
      !binary_io::WriteVec(f, poi_offsets_) ||
      !binary_io::WriteVec(f, settles_)) {
    return Status::IOError("short write of bucket-index payload");
  }
  return Status::OK();
}

Result<CategoryBucketIndex> CategoryBucketIndex::LoadPayload(
    std::FILE* f, const Graph& g, const ChOracle& ch) {
  CategoryBucketIndex index(g, ch);
  if (!binary_io::ReadVec(f, &index.categories_) ||
      !binary_io::ReadVec(f, &index.cat_slot_) ||
      !binary_io::ReadVec(f, &index.cat_poi_offsets_) ||
      !binary_io::ReadVec(f, &index.cat_pois_) ||
      !binary_io::ReadVec(f, &index.poi_offsets_) ||
      !binary_io::ReadVec(f, &index.settles_)) {
    return Status::IOError("corrupt or truncated bucket-index payload");
  }
  // Structural validation: sizes, offset monotonicity, and every stored
  // index within range — a corrupt payload that passed the header
  // checksums must still fail loudly here, never read out of bounds at
  // query time (ResumMeet walks parent links and raw edge indices). The
  // category tables are a pure function of the (checksum-verified) PoI
  // assignment, so they must equal a fresh derivation exactly.
  CategoryBucketIndex derived(g, ch);
  derived.BuildCategoryTables();
  bool ok = index.categories_ == derived.categories_ &&
            index.cat_slot_ == derived.cat_slot_ &&
            index.cat_poi_offsets_ == derived.cat_poi_offsets_ &&
            index.cat_pois_ == derived.cat_pois_ &&
            index.poi_offsets_.size() ==
                static_cast<size_t>(g.num_pois()) + 1 &&
            binary_io::IsCsrOffsets(index.poi_offsets_, index.settles_.size());
  if (ok) {
    const int64_t num_bwd_edges = ch.NumUpBwdEdges();
    std::vector<uint8_t> visit;   // 0 unvisited / 1 on current chain / 2 ok
    std::vector<int64_t> chain;
    for (PoiId p = 0; ok && p < g.num_pois(); ++p) {
      const std::span<const PoiBucketSettle> span = index.SettlesOf(p);
      for (size_t i = 0; ok && i < span.size(); ++i) {
        const PoiBucketSettle& s = span[i];
        ok = s.vertex >= 0 && s.vertex < g.num_vertices() && s.db >= 0 &&
             std::isfinite(s.db) &&
             (i == 0 || span[i - 1].vertex < s.vertex) &&  // strictly sorted
             (s.parent == kInvalidVertex
                  ? s.edge == -1
                  : s.edge >= 0 && s.edge < num_bwd_edges);
      }
      if (!ok) break;
      // Every parent link must resolve within this PoI's own span and the
      // links must be acyclic — the exact-walk's loop (and its
      // termination) depends on both. One amortized-linear pass: follow
      // each unresolved chain to a root or an already-validated settle,
      // failing on a missing parent or a revisit of the current chain.
      visit.assign(span.size(), 0);
      for (size_t i = 0; ok && i < span.size(); ++i) {
        if (visit[i] != 0) continue;
        chain.clear();
        int64_t cur = static_cast<int64_t>(i);
        while (true) {
          visit[static_cast<size_t>(cur)] = 1;
          chain.push_back(cur);
          const PoiBucketSettle& s = span[static_cast<size_t>(cur)];
          if (s.parent == kInvalidVertex) break;
          const auto it = std::lower_bound(
              span.begin(), span.end(), s.parent,
              [](const PoiBucketSettle& a, VertexId v) {
                return a.vertex < v;
              });
          if (it == span.end() || it->vertex != s.parent) {
            ok = false;  // parent not in the span
            break;
          }
          const int64_t next = it - span.begin();
          if (visit[static_cast<size_t>(next)] == 1) {
            ok = false;  // cycle
            break;
          }
          if (visit[static_cast<size_t>(next)] == 2) break;
          cur = next;
        }
        for (const int64_t idx : chain) {
          visit[static_cast<size_t>(idx)] = 2;
        }
      }
    }
  }
  if (!ok) {
    return Status::IOError(
        "bucket-index payload is inconsistent with the graph");
  }
  // The per-vertex entry CSR and per-edge unpack pools are derived data
  // bound to the (already checksum-verified) dataset and CH build: cheaper
  // to rebuild at load than to store.
  index.BuildDerived();
  index.build_stats_.settles_stored =
      static_cast<int64_t>(index.settles_.size());
  return index;
}

}  // namespace skysr
