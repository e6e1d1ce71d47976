// Construction helpers tying the oracle implementations together: build by
// kind, or load a saved index file — the one-stop entry point for the CLI,
// the benches, the differential harness and the QueryService.

#ifndef SKYSR_INDEX_ORACLE_FACTORY_H_
#define SKYSR_INDEX_ORACLE_FACTORY_H_

#include <memory>
#include <string>

#include "index/ch_oracle.h"
#include "index/distance_oracle.h"
#include "index/flat_oracle.h"
#include "index/index_io.h"
#include "util/status.h"

namespace skysr {

/// Builds an oracle of the given kind over `g` (which must outlive it).
/// kFlat is free; kCh preprocesses the graph.
std::unique_ptr<DistanceOracle> MakeOracle(OracleKind kind, const Graph& g);

/// Reads SKYSR_ORACLE from the environment ("flat" / "ch");
/// `def` when unset, nullopt when set to an unknown name.
std::optional<OracleKind> OracleKindFromEnv(OracleKind def);

}  // namespace skysr

#endif  // SKYSR_INDEX_ORACLE_FACTORY_H_
