// Binary persistence for built distance-oracle indexes, in the style of
// Graph::SaveBinary (graph/io): a magic + kind + graph-checksum header
// followed by the CH payload. Files conventionally carry the `.chidx`
// extension; LoadOracleIndex checks the kind byte in the header and rejects
// anything but CH.
//
// The header embeds a checksum of the graph the index was built for;
// loading against any other graph fails with an explicit "rebuild the
// index" error instead of silently answering wrong distances.

#ifndef SKYSR_INDEX_INDEX_IO_H_
#define SKYSR_INDEX_INDEX_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph.h"
#include "index/ch_oracle.h"
#include "util/status.h"

namespace skysr {

/// Order-sensitive digest of the graph's structure and weights (vertex
/// count, adjacency, weight bit patterns, directedness, PoI placement).
/// Equal graphs hash equal; any structural edit a rebuilt index would
/// notice changes the sum.
uint64_t GraphChecksum(const Graph& g);

/// Order-sensitive digest of the PoI assignment — vertex placement plus the
/// per-PoI category lists. The category-bucket tables (src/retrieval/)
/// depend on it beyond the graph structure: reassigning categories changes
/// which buckets a PoI lands in without moving a single edge, so their
/// saved form embeds this alongside GraphChecksum.
uint64_t PoiAssignmentChecksum(const Graph& g);

/// Writes the CH index to `path`.
Status SaveOracleIndex(const ChOracle& oracle, const std::string& path);

/// Loads an index built by SaveOracleIndex and binds it to `g`. Fails with
/// a descriptive IOError when the file was built for a different graph
/// (checksum mismatch) or is corrupt.
Result<std::unique_ptr<ChOracle>> LoadOracleIndex(const std::string& path,
                                                  const Graph& g);

/// Conventional file extension of a saved CH index.
inline constexpr const char* kOracleIndexExtension = "chidx";

}  // namespace skysr

#endif  // SKYSR_INDEX_INDEX_IO_H_
