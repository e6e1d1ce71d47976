#include "index/distance_oracle.h"

#include <cstdlib>

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

std::optional<OracleKind> OracleKindFromEnv(OracleKind def) {
  const char* v = std::getenv("SKYSR_ORACLE");
  if (v == nullptr || *v == '\0') return def;
  return ParseOracleKind(v);
}

}  // namespace skysr
