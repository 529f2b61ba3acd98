// Core parallel sequence primitives: reduce, scan, pack/filter. These are the
// building blocks the paper assumes from prior work ([9], [14]): all run in
// linear work / reads-writes and O(log n) (reduce) or O(log n) levels (scan)
// depth on the binary fork-join model.
//
// Instrumentation: each primitive charges its large-memory traffic in bulk
// through asym::count_read / asym::count_write (n reads + O(n / block) +
// output writes), which matches the per-operation counting a fully
// element-instrumented version would produce while keeping the inner loops
// branch-free.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/parallel/parallel_for.h"

namespace weg::primitives {

inline constexpr size_t kBlockSize = 2048;

inline size_t num_blocks(size_t n) { return (n + kBlockSize - 1) / kBlockSize; }

// Allocator whose argument-less construct() default-initializes, so
// resize() of an UninitVector of a trivial T leaves the new slots unwritten.
// A parallel loop that then fills every slot is their first touch, in place
// of a serial zero fill ahead of it.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

// Parallel reduction with an associative combiner. O(n) work, O(log n) depth,
// no large-memory writes (the partial results live in symmetric memory).
template <typename T, typename Combine>
T reduce(const std::vector<T>& a, T identity, Combine combine) {
  size_t n = a.size();
  if (n == 0) return identity;
  asym::count_read(n);
  size_t nb = num_blocks(n);
  std::vector<T> partial(nb, identity);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * kBlockSize, hi = std::min(n, lo + kBlockSize);
        T acc = identity;
        for (size_t i = lo; i < hi; ++i) acc = combine(acc, a[i]);
        partial[b] = acc;
      },
      1);
  T total = identity;
  for (size_t b = 0; b < nb; ++b) total = combine(total, partial[b]);
  return total;
}

template <typename T>
T reduce_add(const std::vector<T>& a) {
  return reduce(a, T{}, std::plus<T>{});
}

namespace detail {

// Core of the two-pass blocked exclusive scan, without asym charging: the
// shared engine for scan_exclusive below (which charges its traffic) and for
// scans over uncharged bookkeeping buffers — the per-block histogram offsets
// in counting_sort / the sampling semisort, which model scratch counters the
// same way the histograms themselves always have, and the post-sorted
// interval tree's CSR offsets, which its build has never charged.
template <typename T>
T scan_exclusive_raw(T* a, size_t n) {
  if (n == 0) return T{};
  size_t nb = num_blocks(n);
  std::vector<T> sums(nb);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * kBlockSize, hi = std::min(n, lo + kBlockSize);
        T acc{};
        for (size_t i = lo; i < hi; ++i) acc += a[i];
        sums[b] = acc;
      },
      1);
  T total{};
  for (size_t b = 0; b < nb; ++b) {
    T s = sums[b];
    sums[b] = total;
    total += s;
  }
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * kBlockSize, hi = std::min(n, lo + kBlockSize);
        T acc = sums[b];
        for (size_t i = lo; i < hi; ++i) {
          T v = a[i];
          a[i] = acc;
          acc += v;
        }
      },
      1);
  return total;
}

}  // namespace detail

// Exclusive prefix sum, in place; returns the overall total. Two-pass blocked
// scan: O(n) work (n reads + n writes to large memory), O(log n) depth.
template <typename T>
T scan_exclusive(std::vector<T>& a) {
  size_t n = a.size();
  if (n == 0) return T{};
  asym::count_read(n);
  asym::count_write(n);
  return detail::scan_exclusive_raw(a.data(), n);
}

// Stable parallel pack of a computed sequence: get(i) for every i in [0, n)
// with flag(i), in index order. O(n) reads, output-sized writes plus
// O(n / kBlockSize) bookkeeping. Depth O(log n).
template <typename Flag, typename Get>
auto pack_index(size_t n, Flag flag, Get get)
    -> std::vector<decltype(get(size_t{0}))> {
  size_t nb = num_blocks(n);
  std::vector<size_t> counts(nb, 0);
  asym::count_read(n);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * kBlockSize, hi = std::min(n, lo + kBlockSize);
        size_t c = 0;
        for (size_t i = lo; i < hi; ++i) c += flag(i) ? 1 : 0;
        counts[b] = c;
      },
      1);
  size_t total = 0;
  for (size_t b = 0; b < nb; ++b) {
    size_t c = counts[b];
    counts[b] = total;
    total += c;
  }
  std::vector<decltype(get(size_t{0}))> out(total);
  asym::count_write(total);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * kBlockSize, hi = std::min(n, lo + kBlockSize);
        size_t pos = counts[b];
        for (size_t i = lo; i < hi; ++i) {
          if (flag(i)) out[pos++] = get(i);
        }
      },
      1);
  return out;
}

// Stable parallel pack: keeps a[i] where flag(i) is true.
template <typename T, typename Flag>
std::vector<T> pack(const std::vector<T>& a, Flag flag) {
  return pack_index(a.size(), flag, [&](size_t i) { return a[i]; });
}

template <typename T, typename Pred>
std::vector<T> filter(const std::vector<T>& a, Pred pred) {
  return pack(a, [&](size_t i) { return pred(a[i]); });
}

// Parallel map producing a new sequence. n reads + n writes.
template <typename T, typename F>
auto map(const std::vector<T>& a, F f) -> std::vector<decltype(f(a[0]))> {
  using R = decltype(f(a[0]));
  std::vector<R> out(a.size());
  asym::count_read(a.size());
  asym::count_write(a.size());
  parallel::parallel_for(0, a.size(), [&](size_t i) { out[i] = f(a[i]); });
  return out;
}

// Parallel tabulate.
template <typename F>
auto tabulate(size_t n, F f) -> std::vector<decltype(f(size_t{0}))> {
  using R = decltype(f(size_t{0}));
  std::vector<R> out(n);
  asym::count_write(n);
  parallel::parallel_for(0, n, [&](size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace weg::primitives
