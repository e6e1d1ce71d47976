// A bounded multi-producer / multi-consumer queue built on a ring buffer
// guarded by a mutex and two condition variables. This is the submission
// channel between QueryService clients and its worker pool: producers block
// (or fail fast with TryPush) when the service is saturated, giving natural
// backpressure instead of unbounded memory growth under overload.

#ifndef SKYSR_SERVICE_BOUNDED_QUEUE_H_
#define SKYSR_SERVICE_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace skysr {

/// Bounded MPMC FIFO. All operations are thread-safe. After Close(),
/// producers fail immediately and consumers drain the remaining items before
/// seeing "empty" (std::nullopt), so no accepted work is ever dropped.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : buffer_(capacity == 0 ? 1 : capacity) {
    SKYSR_DCHECK(capacity > 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room (or the queue is closed). Returns false when
  /// the queue was closed before the item could be enqueued.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return size_ < buffer_.size() || closed_; });
    if (closed_) return false;
    Enqueue(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ == buffer_.size()) return false;
      Enqueue(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return size_ > 0 || closed_; });
    if (size_ == 0) return std::nullopt;  // closed and drained
    T item = Dequeue();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Marks the queue closed. Idempotent; wakes all waiters.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  size_t capacity() const { return buffer_.size(); }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  // Both require mu_ held.
  void Enqueue(T item) {
    buffer_[(head_ + size_) % buffer_.size()] = std::move(item);
    ++size_;
  }
  T Dequeue() {
    T item = std::move(buffer_[head_]);
    head_ = (head_ + 1) % buffer_.size();
    --size_;
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> buffer_;
  size_t head_ = 0;
  size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace skysr

#endif  // SKYSR_SERVICE_BOUNDED_QUEUE_H_
