#include "index/distance_oracle.h"

#include "obs/query_trace.h"

namespace skysr {

const char* OracleKindName(OracleKind kind) {
  switch (kind) {
    case OracleKind::kFlat:
      return "flat";
    case OracleKind::kCh:
      return "ch";
  }
  return "?";
}

std::optional<OracleKind> ParseOracleKind(std::string_view name) {
  if (name == "flat") return OracleKind::kFlat;
  if (name == "ch") return OracleKind::kCh;
  return std::nullopt;
}

void DistanceOracle::Table(std::span<const VertexId> sources,
                           std::span<const VertexId> targets,
                           OracleWorkspace& ws, Weight* out) const {
  TraceSpan span(ws.trace, TracePhase::kOracleTable);
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      out[i * targets.size() + j] = Distance(sources[i], targets[j], ws);
    }
  }
}

}  // namespace skysr
