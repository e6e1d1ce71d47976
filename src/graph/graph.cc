#include "graph/graph.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/binary_io.h"

namespace skysr {

bool Graph::IsConnected() const {
  const int64_t n = num_vertices();
  if (n == 0) return true;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::vector<VertexId> stack = {0};
  seen[0] = 1;
  int64_t count = 1;
  // For directed graphs this checks weak connectivity only if edges happen to
  // be symmetric; road networks in this library are built symmetric unless
  // the user opts into one-way edges explicitly.
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (const Neighbor& nb : OutEdges(v)) {
      if (!seen[static_cast<size_t>(nb.to)]) {
        seen[static_cast<size_t>(nb.to)] = 1;
        ++count;
        stack.push_back(nb.to);
      }
    }
  }
  return count == n;
}

int64_t Graph::MemoryBytes() const {
  int64_t bytes = 0;
  bytes += static_cast<int64_t>(offsets_.capacity() * sizeof(int64_t));
  bytes += static_cast<int64_t>(adj_.capacity() * sizeof(Neighbor));
  bytes += static_cast<int64_t>((xs_.capacity() + ys_.capacity()) *
                                sizeof(double));
  bytes += static_cast<int64_t>(poi_of_vertex_.capacity() * sizeof(PoiId));
  bytes += static_cast<int64_t>(poi_vertex_.capacity() * sizeof(VertexId));
  bytes += static_cast<int64_t>(poi_cat_offsets_.capacity() * sizeof(int32_t));
  bytes += static_cast<int64_t>(poi_cats_.capacity() * sizeof(CategoryId));
  for (const auto& s : poi_names_) {
    bytes += static_cast<int64_t>(sizeof(std::string) + s.capacity());
  }
  return bytes;
}

namespace {

using binary_io::IsCsrOffsets;
using binary_io::ReadPod;
using binary_io::ReadVec;
using binary_io::WriteVec;

constexpr char kMagic[8] = {'S', 'K', 'Y', 'S', 'R', 'G', '1', '\0'};

}  // namespace

Status Graph::SaveBinary(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f) == 1;
  const uint8_t directed = directed_ ? 1 : 0;
  ok = ok && std::fwrite(&directed, 1, 1, f) == 1;
  ok = ok && std::fwrite(&num_edges_, sizeof(num_edges_), 1, f) == 1;
  ok = ok &&
       std::fwrite(&total_edge_weight_, sizeof(total_edge_weight_), 1, f) == 1;
  ok = ok && WriteVec(f, offsets_) && WriteVec(f, adj_) && WriteVec(f, xs_) &&
       WriteVec(f, ys_) && WriteVec(f, poi_of_vertex_) &&
       WriteVec(f, poi_vertex_) && WriteVec(f, poi_cat_offsets_) &&
       WriteVec(f, poi_cats_);
  // Names as length-prefixed blobs.
  const uint64_t nn = poi_names_.size();
  ok = ok && std::fwrite(&nn, sizeof(nn), 1, f) == 1;
  for (uint64_t i = 0; ok && i < nn; ++i) {
    const uint64_t len = poi_names_[i].size();
    ok = std::fwrite(&len, sizeof(len), 1, f) == 1 &&
         (len == 0 || std::fwrite(poi_names_[i].data(), 1, len, f) == len);
  }
  std::fclose(f);
  if (!ok) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<Graph> Graph::LoadBinary(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  char magic[8];
  Graph g;
  bool ok = std::fread(magic, sizeof(magic), 1, f) == 1 &&
            std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  uint8_t directed = 0;
  ok = ok && ReadPod(f, &directed);
  g.directed_ = directed != 0;
  ok = ok && ReadPod(f, &g.num_edges_) && ReadPod(f, &g.total_edge_weight_);
  ok = ok && ReadVec(f, &g.offsets_) && ReadVec(f, &g.adj_) &&
       ReadVec(f, &g.xs_) && ReadVec(f, &g.ys_) &&
       ReadVec(f, &g.poi_of_vertex_) && ReadVec(f, &g.poi_vertex_) &&
       ReadVec(f, &g.poi_cat_offsets_) && ReadVec(f, &g.poi_cats_);
  uint64_t nn = 0;
  ok = ok && ReadPod(f, &nn) && (nn == 0 || nn == g.poi_vertex_.size());
  if (ok) {
    g.poi_names_.resize(nn);
    for (uint64_t i = 0; ok && i < nn; ++i) {
      uint64_t len = 0;
      ok = ReadPod(f, &len) && len <= binary_io::RemainingBytes(f);
      if (ok && len > 0) {
        g.poi_names_[i].resize(len);
        ok = std::fread(g.poi_names_[i].data(), 1, len, f) == len;
      }
    }
  }
  std::fclose(f);
  if (!ok) return Status::IOError("corrupt or truncated snapshot: " + path);
  if (!g.WellFormed()) {
    return Status::IOError("snapshot fails structural validation: " + path);
  }
  return g;
}

bool Graph::WellFormed() const {
  // Vertex and PoI ids are int32, so both counts must fit.
  if (offsets_.empty() || offsets_.size() - 1 > INT32_MAX ||
      poi_vertex_.size() > INT32_MAX) {
    return false;
  }
  const auto n = static_cast<int64_t>(offsets_.size()) - 1;
  const auto num_pois = static_cast<int64_t>(poi_vertex_.size());
  if (!IsCsrOffsets(offsets_, adj_.size()) || num_edges_ < 0 ||
      static_cast<uint64_t>(num_edges_) > adj_.size()) {
    return false;
  }
  for (const Neighbor& nb : adj_) {
    if (nb.to < 0 || nb.to >= n || !(nb.weight >= 0) ||
        !std::isfinite(nb.weight)) {
      return false;
    }
  }
  if (xs_.size() != ys_.size() ||
      (!xs_.empty() && xs_.size() != static_cast<size_t>(n))) {
    return false;
  }
  // PoI placement: a bijection between the PoI ids and the vertices that
  // host them, each PoI with at least one non-negative category.
  if (poi_of_vertex_.size() != static_cast<size_t>(n) ||
      poi_cat_offsets_.size() != poi_vertex_.size() + 1 ||
      !IsCsrOffsets(poi_cat_offsets_, poi_cats_.size())) {
    return false;
  }
  int64_t hosted = 0;
  for (const PoiId p : poi_of_vertex_) {
    if (p == kInvalidPoi) continue;
    if (p < 0 || p >= num_pois) return false;
    ++hosted;
  }
  if (hosted != num_pois) return false;
  for (PoiId p = 0; p < num_pois; ++p) {
    const VertexId v = poi_vertex_[static_cast<size_t>(p)];
    if (v < 0 || v >= n || poi_of_vertex_[static_cast<size_t>(v)] != p ||
        poi_cat_offsets_[static_cast<size_t>(p)] ==
            poi_cat_offsets_[static_cast<size_t>(p) + 1]) {
      return false;
    }
  }
  for (const CategoryId c : poi_cats_) {
    if (c < 0) return false;
  }
  return true;
}

}  // namespace skysr
