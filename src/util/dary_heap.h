// Cache-friendly d-ary min-heap used as the priority queue of every Dijkstra
// variant in the library. Supports push/pop only; Dijkstra uses lazy deletion
// (stale entries are skipped via the settled check), which for road networks
// outperforms decrease-key heaps in practice.

#ifndef SKYSR_UTIL_DARY_HEAP_H_
#define SKYSR_UTIL_DARY_HEAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace skysr {

/// Min-heap over T with arity D (default 4). `Less` orders elements;
/// top() is the minimum.
template <typename T, typename Less = std::less<T>, int D = 4>
class DaryHeap {
  static_assert(D >= 2, "heap arity must be at least 2");

 public:
  explicit DaryHeap(Less less = Less()) : less_(std::move(less)) {}

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  /// Largest size() observed since construction or ResetPeak().
  size_t peak_size() const { return peak_size_; }
  void ResetPeak() { peak_size_ = items_.size(); }

  void clear() { items_.clear(); }
  void reserve(size_t n) { items_.reserve(n); }

  /// The stored elements in heap (not sorted) order, read-only.
  const std::vector<T>& items() const { return items_; }

  /// The minimum element. Requires !empty().
  const T& top() const {
    SKYSR_DCHECK(!items_.empty());
    return items_.front();
  }

  void push(T value) {
    items_.push_back(std::move(value));
    SiftUp(items_.size() - 1);
    if (items_.size() > peak_size_) peak_size_ = items_.size();
  }

  template <typename... Args>
  void emplace(Args&&... args) {
    push(T(std::forward<Args>(args)...));
  }

  /// Removes and returns the minimum element. Requires !empty().
  T pop() {
    SKYSR_DCHECK(!items_.empty());
    T out = std::move(items_.front());
    T last = std::move(items_.back());
    items_.pop_back();
    if (!items_.empty()) SiftDown(std::move(last));
    return out;
  }

 private:
  /// Hole-based percolation: one move per level instead of a three-move
  /// swap — the heap is the inner loop of every Dijkstra in the library.
  void SiftUp(size_t i) {
    T value = std::move(items_[i]);
    while (i > 0) {
      const size_t parent = (i - 1) / D;
      if (!less_(value, items_[parent])) break;
      items_[i] = std::move(items_[parent]);
      i = parent;
    }
    items_[i] = std::move(value);
  }

  /// Sifts `value` down from the root hole left by pop().
  void SiftDown(T value) {
    const size_t n = items_.size();
    size_t i = 0;
    while (true) {
      const size_t first_child = i * D + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      const size_t last_child = std::min(first_child + D, n);
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (less_(items_[c], items_[best])) best = c;
      }
      if (!less_(items_[best], value)) break;
      items_[i] = std::move(items_[best]);
      i = best;
    }
    items_[i] = std::move(value);
  }

  std::vector<T> items_;
  Less less_;
  size_t peak_size_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_UTIL_DARY_HEAP_H_
