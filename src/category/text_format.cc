#include "category/text_format.h"

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace skysr {

std::string ForestToText(const CategoryForest& forest) {
  std::string out;
  struct Frame {
    CategoryId id;
    int depth;
  };
  std::vector<Frame> stack;
  for (TreeId t = 0; t < forest.num_trees(); ++t) {
    stack.push_back(Frame{forest.RootOf(t), 0});
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      out.append(static_cast<size_t>(f.depth) * 2, ' ');
      out += forest.Name(f.id);
      out += '\n';
      const auto kids = forest.Children(f.id);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back(Frame{*it, f.depth + 1});
      }
    }
  }
  return out;
}

Result<CategoryForest> ForestFromText(const std::string& text) {
  CategoryForestBuilder builder;
  std::istringstream in(text);
  std::string line;
  std::vector<CategoryId> ancestry;  // ancestry[d] = last node at depth d
  // FindByName answers one category per name, so names must be unique.
  std::unordered_map<std::string, int64_t> line_of_name;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    size_t indent = 0;
    while (indent < line.size() && line[indent] == ' ') ++indent;
    if (indent % 2 != 0) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": odd indentation");
    }
    const size_t depth = indent / 2;
    if (depth > ancestry.size()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": indentation jumps a level");
    }
    std::string name(trimmed);
    const auto [seen, inserted] = line_of_name.emplace(name, line_no);
    if (!inserted) {
      return Status::InvalidArgument(
          "lines " + std::to_string(seen->second) + " and " +
          std::to_string(line_no) + ": duplicate category name '" + name +
          "'");
    }
    CategoryId id;
    if (depth == 0) {
      id = builder.AddRoot(std::move(name));
    } else {
      id = builder.AddChild(ancestry[depth - 1], std::move(name));
    }
    ancestry.resize(depth);
    ancestry.push_back(id);
  }
  return builder.Build();
}

Result<CategoryForest> LoadForestFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return ForestFromText(buf.str());
}

}  // namespace skysr
