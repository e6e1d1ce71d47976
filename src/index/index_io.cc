#include "index/index_io.h"

#include <bit>
#include <cstring>
#include <string>

#include "util/binary_io.h"
#include "util/rng.h"

namespace skysr {
namespace {

constexpr char kIndexMagic[8] = {'S', 'K', 'Y', 'I', 'D', 'X', '1', '\0'};

void Mix(uint64_t* digest, uint64_t v) {
  uint64_t s = *digest ^ (v + 0x9E3779B97F4A7C15ULL);
  *digest = SplitMix64(s);
}

}  // namespace

uint64_t GraphChecksum(const Graph& g) {
  uint64_t d = 0xC4C3'5157'5352'1D18ULL;
  Mix(&d, static_cast<uint64_t>(g.num_vertices()));
  Mix(&d, static_cast<uint64_t>(g.num_edges()));
  Mix(&d, g.directed() ? 1 : 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Neighbor& nb : g.OutEdges(v)) {
      Mix(&d, static_cast<uint64_t>(static_cast<uint32_t>(nb.to)));
      Mix(&d, std::bit_cast<uint64_t>(nb.weight));
    }
  }
  // PoI placement matters to oracle consumers (NNinit tables, leg bounds),
  // so fold it in too.
  for (PoiId p = 0; p < g.num_pois(); ++p) {
    Mix(&d, static_cast<uint64_t>(static_cast<uint32_t>(g.VertexOfPoi(p))));
  }
  return d;
}

uint64_t PoiAssignmentChecksum(const Graph& g) {
  uint64_t d = 0xB0C4'E7A1'5051'2D02ULL;
  Mix(&d, static_cast<uint64_t>(g.num_pois()));
  for (PoiId p = 0; p < g.num_pois(); ++p) {
    Mix(&d, static_cast<uint64_t>(static_cast<uint32_t>(g.VertexOfPoi(p))));
    const auto cats = g.PoiCategories(p);
    Mix(&d, cats.size());
    for (const CategoryId c : cats) {
      Mix(&d, static_cast<uint64_t>(static_cast<uint32_t>(c)));
    }
  }
  return d;
}

Status SaveOracleIndex(const ChOracle& oracle, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  const uint8_t kind = static_cast<uint8_t>(OracleKind::kCh);
  const uint64_t checksum = GraphChecksum(oracle.graph());
  bool ok = std::fwrite(kIndexMagic, sizeof(kIndexMagic), 1, f) == 1 &&
            binary_io::WritePod(f, kind) && binary_io::WritePod(f, checksum);
  Status payload = Status::OK();
  if (ok) payload = oracle.SavePayload(f);
  std::fclose(f);
  if (!ok) return Status::IOError("short write: " + path);
  return payload;
}

Result<std::unique_ptr<ChOracle>> LoadOracleIndex(const std::string& path,
                                                  const Graph& g) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  char magic[8];
  uint8_t kind_byte = 0;
  uint64_t checksum = 0;
  const bool header_ok =
      std::fread(magic, sizeof(magic), 1, f) == 1 &&
      std::memcmp(magic, kIndexMagic, sizeof(kIndexMagic)) == 0 &&
      binary_io::ReadPod(f, &kind_byte) && binary_io::ReadPod(f, &checksum);
  if (!header_ok) {
    std::fclose(f);
    return Status::IOError("not an oracle index file: " + path);
  }
  if (kind_byte != static_cast<uint8_t>(OracleKind::kCh)) {
    std::fclose(f);
    return Status::IOError("unsupported oracle index kind " +
                           std::to_string(kind_byte) + " in " + path +
                           "; only CH indexes load, rebuild it with "
                           "`skysr_cli index build`");
  }
  if (checksum != GraphChecksum(g)) {
    std::fclose(f);
    return Status::IOError(
        "index file " + path +
        " was built for a different graph (checksum mismatch); rebuild it "
        "against this dataset with `skysr_cli index build`");
  }
  auto loaded = ChOracle::LoadPayload(f, g);
  std::fclose(f);
  if (!loaded.ok()) return loaded.status();
  return std::make_unique<ChOracle>(std::move(loaded).ValueOrDie());
}

}  // namespace skysr
