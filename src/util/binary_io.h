// Length-prefixed POD framing shared by every binary file the library
// persists: graph snapshots (graph.bin), oracle indexes (.chidx) and
// category-bucket tables (.cbkt).
//
// Readers treat the file as hostile: a vector's element count is checked
// against the bytes left in the file before anything is allocated, so a
// corrupt count fails the read instead of requesting gigabytes. Loaders
// then validate every id and offset they read (IsCsrOffsets below covers
// the offset arrays) before the structure is used.

#ifndef SKYSR_UTIL_BINARY_IO_H_
#define SKYSR_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <vector>

namespace skysr::binary_io {

template <typename T>
bool WritePod(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadPod(std::FILE* f, T* v) {
  return std::fread(v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool WriteVec(std::FILE* f, const std::vector<T>& v) {
  const uint64_t n = v.size();
  if (!WritePod(f, n)) return false;
  if (n == 0) return true;
  return std::fwrite(v.data(), sizeof(T), n, f) == n;
}

/// Bytes between the read position and the end of `f`; 0 when the stream
/// cannot seek.
inline uint64_t RemainingBytes(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  if (std::fseek(f, pos, SEEK_SET) != 0 || end < pos) return 0;
  return static_cast<uint64_t>(end - pos);
}

template <typename T>
bool ReadVec(std::FILE* f, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadPod(f, &n)) return false;
  if (n > RemainingBytes(f) / sizeof(T)) return false;
  v->resize(n);
  if (n == 0) return true;
  return std::fread(v->data(), sizeof(T), n, f) == n;
}

/// True when `offsets` is a CSR offset array over `total` items: starts at
/// 0, never decreases, and ends at `total`.
template <typename T>
bool IsCsrOffsets(const std::vector<T>& offsets, uint64_t total) {
  if (offsets.empty() || offsets.front() != 0 ||
      static_cast<uint64_t>(offsets.back()) != total) {
    return false;
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return true;
}

}  // namespace skysr::binary_io

#endif  // SKYSR_UTIL_BINARY_IO_H_
