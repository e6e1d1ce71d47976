#include "index/oracle_factory.h"

#include <cstdlib>

namespace skysr {

std::unique_ptr<DistanceOracle> MakeOracle(OracleKind kind, const Graph& g) {
  switch (kind) {
    case OracleKind::kFlat:
      return std::make_unique<FlatOracle>(g);
    case OracleKind::kCh:
      return std::make_unique<ChOracle>(ChOracle::Build(g));
  }
  return std::make_unique<FlatOracle>(g);
}

std::optional<OracleKind> OracleKindFromEnv(OracleKind def) {
  const char* v = std::getenv("SKYSR_ORACLE");
  if (v == nullptr || *v == '\0') return def;
  return ParseOracleKind(v);
}

}  // namespace skysr
