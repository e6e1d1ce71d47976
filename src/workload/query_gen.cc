#include "workload/query_gen.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace skysr {

std::vector<Query> GenerateQueries(const Dataset& dataset,
                                   const QueryGenParams& params) {
  const Graph& g = dataset.graph;
  const CategoryForest& forest = dataset.forest;
  Rng rng(params.seed);

  // Popularity = number of PoIs whose primary category is the leaf.
  std::unordered_map<CategoryId, int64_t> counts;
  for (PoiId p = 0; p < g.num_pois(); ++p) {
    ++counts[g.PoiPrimaryCategory(p)];
  }
  std::vector<std::pair<CategoryId, int64_t>> ranked(counts.begin(),
                                                     counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  size_t pool = std::min<size_t>(ranked.size(),
                                 static_cast<size_t>(params.popular_pool));
  SKYSR_CHECK_MSG(pool > 0, "dataset has no PoIs");
  // Widen the pool until it spans enough distinct trees for the constraint.
  if (params.distinct_trees) {
    std::vector<TreeId> seen;
    size_t i = 0;
    for (; i < ranked.size() &&
           static_cast<int>(seen.size()) < params.sequence_size;
         ++i) {
      const TreeId t = forest.TreeOf(ranked[i].first);
      if (std::find(seen.begin(), seen.end(), t) == seen.end()) {
        seen.push_back(t);
      }
    }
    SKYSR_CHECK_MSG(static_cast<int>(seen.size()) >= params.sequence_size,
                    "fewer category trees with PoIs than sequence positions");
    pool = std::max(pool, i);
  }
  std::vector<CategoryId> candidates;
  candidates.reserve(pool);
  for (size_t i = 0; i < pool; ++i) candidates.push_back(ranked[i].first);

  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(params.count));
  for (int qi = 0; qi < params.count; ++qi) {
    std::vector<CategoryId> cats;
    std::vector<TreeId> used_trees;
    int guard = 0;
    while (static_cast<int>(cats.size()) < params.sequence_size) {
      SKYSR_CHECK_MSG(++guard < 100000,
                      "cannot satisfy distinct-tree constraint; "
                      "increase popular_pool or reduce sequence_size");
      const CategoryId c = candidates[rng.UniformU64(candidates.size())];
      const TreeId t = forest.TreeOf(c);
      if (params.distinct_trees &&
          std::find(used_trees.begin(), used_trees.end(), t) !=
              used_trees.end()) {
        continue;
      }
      if (std::find(cats.begin(), cats.end(), c) != cats.end()) continue;
      cats.push_back(c);
      used_trees.push_back(t);
    }
    Query q = MakeSimpleQuery(
        static_cast<VertexId>(rng.UniformU64(
            static_cast<uint64_t>(g.num_vertices()))),
        cats);
    queries.push_back(std::move(q));
  }
  return queries;
}

namespace {

/// A name is representable when the grammar's separators and prefixes
/// cannot be confused with it and the loader's Trim gives it back intact.
Status CheckRepresentable(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("empty category name");
  }
  if (name.find(',') != std::string::npos ||
      name.find(';') != std::string::npos ||
      name.find('|') != std::string::npos ||
      name.find('\n') != std::string::npos ||
      name.find('\r') != std::string::npos) {
    return Status::InvalidArgument("category name '" + name +
                                   "' contains a workload-file separator");
  }
  if (name.front() == '+' || name.front() == '!') {
    return Status::InvalidArgument("category name '" + name +
                                   "' starts with a predicate prefix");
  }
  if (Trim(name) != name) {
    return Status::InvalidArgument("category name '" + name +
                                   "' has leading/trailing whitespace");
  }
  return Status::OK();
}

}  // namespace

Status WriteWorkloadFile(const std::string& path, const Dataset& dataset,
                         std::span<const Query> queries) {
  std::ostringstream out;
  out << "# skysr workload: " << queries.size() << " queries over "
      << dataset.name << "\n";
  for (const Query& q : queries) {
    out << q.start << '|';
    if (q.destination.has_value()) {
      out << *q.destination;
    } else {
      out << '-';
    }
    out << '|';
    for (size_t i = 0; i < q.sequence.size(); ++i) {
      const CategoryPredicate& p = q.sequence[i];
      if (p.any_of.empty()) {
        // The loader (and ValidateQuery) require at least one any_of term;
        // refuse to write a file the library itself cannot read back.
        return Status::InvalidArgument(
            "position without any_of categories is not representable");
      }
      if (i > 0) out << ';';
      bool first_term = true;
      const auto term = [&](const char* prefix, CategoryId c) -> Status {
        const std::string& name = dataset.forest.Name(c);
        SKYSR_RETURN_NOT_OK(CheckRepresentable(name));
        if (!first_term) out << ',';
        first_term = false;
        out << prefix << name;
        return Status::OK();
      };
      for (CategoryId c : p.any_of) SKYSR_RETURN_NOT_OK(term("", c));
      for (CategoryId c : p.all_of) SKYSR_RETURN_NOT_OK(term("+", c));
      for (CategoryId c : p.none_of) SKYSR_RETURN_NOT_OK(term("!", c));
    }
    out << '\n';
  }
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  file << out.str();
  if (!file.flush()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<std::vector<Query>> LoadWorkloadFile(const std::string& path,
                                            const Dataset& dataset) {
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open " + path);
  std::vector<Query> queries;
  std::string line;
  int lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto err = [&](const std::string& what) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + what);
    };
    // A vertex id of the dataset's graph: range-checked before the
    // narrowing cast, so 2^32 cannot wrap to vertex 0.
    const auto parse_vertex = [&](std::string_view field, VertexId* out) {
      int64_t v = 0;
      if (!ParseInt64(Trim(field), &v) || v < 0 ||
          v >= dataset.graph.num_vertices()) {
        return false;
      }
      *out = static_cast<VertexId>(v);
      return true;
    };
    const auto fields = Split(trimmed, '|');
    if (fields.size() != 3) return err("expected start|dest|categories");
    Query q;
    if (!parse_vertex(fields[0], &q.start)) {
      return err("bad or out-of-range start vertex");
    }
    if (Trim(fields[1]) != "-") {
      VertexId dest = 0;
      if (!parse_vertex(fields[1], &dest)) {
        return err("bad or out-of-range destination");
      }
      q.destination = dest;
    }
    for (const auto pos : Split(fields[2], ';')) {
      CategoryPredicate pred;
      for (const auto raw_term : Split(pos, ',')) {
        std::string_view term = Trim(raw_term);
        if (term.empty()) return err("empty predicate term");
        std::vector<CategoryId>* target = &pred.any_of;
        if (term.front() == '+') {
          target = &pred.all_of;
          term = Trim(term.substr(1));
        } else if (term.front() == '!') {
          target = &pred.none_of;
          term = Trim(term.substr(1));
        }
        const CategoryId c = dataset.forest.FindByName(term);
        if (c == kInvalidCategory) {
          return err("unknown category '" + std::string(term) + "'");
        }
        target->push_back(c);
      }
      if (pred.any_of.empty()) {
        return err("position needs at least one any_of category");
      }
      q.sequence.push_back(std::move(pred));
    }
    if (q.sequence.empty()) return err("empty category sequence");
    queries.push_back(std::move(q));
  }
  return queries;
}

}  // namespace skysr
