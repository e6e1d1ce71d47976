#include "graph/io.h"

#include <fstream>
#include <limits>
#include <string>

#include "graph/graph_builder.h"
#include "util/string_util.h"

namespace skysr {
namespace {

// Invokes `fn(line_no, fields)` for every non-empty, non-comment line.
template <typename Fn>
Status ForEachLine(const std::string& path, Fn&& fn) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    SKYSR_RETURN_NOT_OK(fn(line_no, SplitWhitespace(trimmed)));
  }
  return Status::OK();
}

Status ParseError(const std::string& path, int64_t line_no,
                  const std::string& what) {
  return Status::IOError(path + ":" + std::to_string(line_no) + ": " + what);
}

}  // namespace

Result<Graph> LoadRoadNetwork(const std::string& node_path,
                              const std::string& edge_path) {
  GraphBuilder builder(/*directed=*/false);
  int64_t expected_id = 0;
  Status st = ForEachLine(
      node_path,
      [&](int64_t line_no,
          const std::vector<std::string_view>& f) -> Status {
        if (f.size() != 3) {
          return ParseError(node_path, line_no, "expected `id x y`");
        }
        int64_t id;
        double x, y;
        if (!ParseInt64(f[0], &id) || !ParseDouble(f[1], &x) ||
            !ParseDouble(f[2], &y)) {
          return ParseError(node_path, line_no, "malformed number");
        }
        if (id != expected_id) {
          return ParseError(node_path, line_no,
                            "node ids must be dense and ascending from 0");
        }
        ++expected_id;
        builder.AddVertex(x, y);
        return Status::OK();
      });
  SKYSR_RETURN_NOT_OK(st);

  st = ForEachLine(
      edge_path,
      [&](int64_t line_no,
          const std::vector<std::string_view>& f) -> Status {
        if (f.size() != 4) {
          return ParseError(edge_path, line_no, "expected `id n1 n2 w`");
        }
        int64_t id, n1, n2;
        double w;
        if (!ParseInt64(f[0], &id) || !ParseInt64(f[1], &n1) ||
            !ParseInt64(f[2], &n2) || !ParseDouble(f[3], &w)) {
          return ParseError(edge_path, line_no, "malformed number");
        }
        // Checked before narrowing to VertexId: 2^32 + 1 must not wrap to 1.
        if (n1 < 0 || n1 >= expected_id || n2 < 0 || n2 >= expected_id) {
          return ParseError(edge_path, line_no, "edge endpoint out of range");
        }
        builder.AddEdge(static_cast<VertexId>(n1), static_cast<VertexId>(n2),
                        w);
        return Status::OK();
      });
  SKYSR_RETURN_NOT_OK(st);
  return builder.Build();
}

Result<std::vector<PoiPoint>> LoadPoiPoints(const std::string& poi_path) {
  std::vector<PoiPoint> pois;
  Status st = ForEachLine(
      poi_path,
      [&](int64_t line_no,
          const std::vector<std::string_view>& f) -> Status {
        if (f.size() < 3) {
          return ParseError(poi_path, line_no, "expected `x y cat [name]`");
        }
        PoiPoint p;
        int64_t cat;
        if (!ParseDouble(f[0], &p.x) || !ParseDouble(f[1], &p.y) ||
            !ParseInt64(f[2], &cat)) {
          return ParseError(poi_path, line_no, "malformed number");
        }
        if (cat < 0 || cat > std::numeric_limits<CategoryId>::max()) {
          return ParseError(poi_path, line_no, "category id out of range");
        }
        p.categories.push_back(static_cast<CategoryId>(cat));
        for (size_t i = 3; i < f.size(); ++i) {
          if (!p.name.empty()) p.name += ' ';
          p.name.append(f[i]);
        }
        pois.push_back(std::move(p));
        return Status::OK();
      });
  SKYSR_RETURN_NOT_OK(st);
  return pois;
}

Result<Graph> LoadDataset(const std::string& node_path,
                          const std::string& edge_path,
                          const std::string& poi_path) {
  SKYSR_ASSIGN_OR_RETURN(Graph base, LoadRoadNetwork(node_path, edge_path));
  SKYSR_ASSIGN_OR_RETURN(std::vector<PoiPoint> pois, LoadPoiPoints(poi_path));
  return EmbedPoisOnEdges(base, pois);
}

}  // namespace skysr
