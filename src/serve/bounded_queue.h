// Bounded multi-producer admission queue for the serving engine.
//
// Many producer threads try_push concurrently; one batcher drains. Admission
// control is the point: a full queue rejects (try_push returns false, the
// item is left with the caller) instead of blocking or growing, so overload
// sheds load at the front door with an immediate, observable decision — the
// caller completes the request with kResourceExhausted and the client can
// back off. Mutex-guarded rather than lock-free: besides the commit
// hand-shake, the hand-off is the only cross-thread synchronization the
// serving pipeline needs (epochs publish between query batches, see
// src/serve/engine.h), and a lock held for one push or one bounded drain is
// nanoseconds against a millisecond batch.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace weg::serve {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }

  // Producer side. Moves `item` in and returns true, or returns false with
  // `item` untouched when the queue is full (the request is rejected and
  // the caller still owns its completion handle).
  bool try_push(T& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    return true;
  }

  // Consumer (batcher) side: moves out up to `max_n` items in FIFO order,
  // appending to `out`. Returns how many were taken.
  size_t drain_into(std::vector<T>& out, size_t max_n) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    while (n < max_n && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++n;
    }
    return n;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.empty();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<T> items_;
};

}  // namespace weg::serve
