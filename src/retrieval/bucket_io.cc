#include "retrieval/bucket_io.h"

#include <cstdio>
#include <cstring>

#include "index/index_io.h"
#include "util/binary_io.h"

namespace skysr {
namespace {

constexpr char kBucketMagic[8] = {'S', 'K', 'Y', 'B', 'K', 'T', '1', '\0'};

}  // namespace

const char* BucketIndexExtension() { return "cbkt"; }

Status SaveBucketIndex(const CategoryBucketIndex& index,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  const uint64_t graph_sum = GraphChecksum(index.graph());
  const uint64_t assign_sum = PoiAssignmentChecksum(index.graph());
  const uint64_t ch_sum = index.oracle().StructureChecksum();
  const bool ok = std::fwrite(kBucketMagic, sizeof(kBucketMagic), 1, f) == 1 &&
                  binary_io::WritePod(f, graph_sum) &&
                  binary_io::WritePod(f, assign_sum) &&
                  binary_io::WritePod(f, ch_sum);
  Status payload = Status::OK();
  if (ok) payload = index.SavePayload(f);
  std::fclose(f);
  if (!ok) return Status::IOError("short write: " + path);
  return payload;
}

Result<CategoryBucketIndex> LoadBucketIndex(const std::string& path,
                                            const Graph& g,
                                            const ChOracle& ch) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  char magic[8];
  uint64_t graph_sum = 0, assign_sum = 0, ch_sum = 0;
  const bool header_ok =
      std::fread(magic, sizeof(magic), 1, f) == 1 &&
      std::memcmp(magic, kBucketMagic, sizeof(kBucketMagic)) == 0 &&
      binary_io::ReadPod(f, &graph_sum) && binary_io::ReadPod(f, &assign_sum) &&
      binary_io::ReadPod(f, &ch_sum);
  if (!header_ok) {
    std::fclose(f);
    return Status::IOError("not a bucket-index file: " + path);
  }
  const char* mismatch = nullptr;
  if (graph_sum != GraphChecksum(g)) {
    mismatch = "graph";
  } else if (assign_sum != PoiAssignmentChecksum(g)) {
    mismatch = "PoI assignment";
  } else if (ch_sum != ch.StructureChecksum()) {
    mismatch = "CH oracle build";
  }
  if (mismatch != nullptr) {
    std::fclose(f);
    return Status::IOError(
        "bucket index " + path + " was built for a different " + mismatch +
        " (checksum mismatch); rebuild it against this dataset with "
        "`skysr_cli index build`");
  }
  auto loaded = CategoryBucketIndex::LoadPayload(f, g, ch);
  std::fclose(f);
  return loaded;
}

}  // namespace skysr
