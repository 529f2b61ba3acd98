// Parallel batched-query engine shared by every query structure.
//
// Executes Q independent read-only queries with a deterministic two-phase
// plan — the flat fan-out-then-compact idiom:
//   1. count pass:  sizes[i] = count(i) over all queries in parallel,
//   2. exclusive scan over the per-query sizes (primitives::scan_exclusive),
//   3. report pass: report(i, out + offsets[i]) writes query i's results
//      into its pre-claimed slice of one flat output array.
// Each result is written exactly once (the paper's write-efficiency budget
// applied to query output), and the decomposition is a function of the input
// alone — no pass depends on scheduling — so asym read/write totals are
// bit-identical at every worker count, matching the determinism contract of
// the parallel builds.
//
// Contract: count(i) must return exactly the number of items report(i, out)
// writes, and both must be pure functions of the structure and query i (the
// standard count/report pairing every traversal visitor provides).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/core/status.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/sequence.h"

namespace weg::parallel {

// Flat result of a batched reporting query: all queries' items concatenated,
// with offsets() delimiting query i's slice as [offsets()[i], offsets()[i+1]).
// Because a slice is addressed purely by offset arithmetic, results compose:
// the sharded layer merges per-shard BatchResults (planner-routed
// sub-batches) by summing per-query counts, re-scanning, and concatenating
// slices — without this class knowing about shards. The items live in a
// primitives::UninitVector: every producer writes each slot of the array it
// allocates, so allocation is not a serial zero fill ahead of the parallel
// pass that writes the slots.
//
// Error propagation: a result carries a Status (OK by default). A producer
// that fails mid-pipeline — a poisoned per-shard sub-batch under fault
// injection, an invalid query family — marks its result with set_status();
// every merge that consumes a poisoned result propagates the poison to the
// merged result instead of silently concatenating garbage, so the caller
// sees exactly one non-OK status at the top. A poisoned result's slices are
// empty.
template <typename T>
class BatchResult {
 public:
  using value_type = T;

  BatchResult() = default;
  BatchResult(primitives::UninitVector<T> items, std::vector<size_t> offsets)
      : items_(std::move(items)), offsets_(std::move(offsets)) {}
  // A poisoned (empty) result carrying `status`.
  explicit BatchResult(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  void set_status(Status status) {
    status_ = std::move(status);
    if (!status_.ok()) {
      items_.clear();
      offsets_.clear();
    }
  }

  size_t num_queries() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t total() const { return items_.size(); }
  size_t count(size_t q) const { return offsets_[q + 1] - offsets_[q]; }
  const T* begin(size_t q) const { return items_.data() + offsets_[q]; }
  const T* end(size_t q) const { return items_.data() + offsets_[q + 1]; }
  // Query q's slice as an owned vector (test/example convenience).
  std::vector<T> result(size_t q) const {
    return std::vector<T>(begin(q), end(q));
  }

  const primitives::UninitVector<T>& items() const { return items_; }
  const std::vector<size_t>& offsets() const { return offsets_; }

 private:
  Status status_;  // OK unless the producer poisoned this result
  primitives::UninitVector<T> items_;
  std::vector<size_t> offsets_;  // size Q + 1
};

// Runs body(lo, hi) over the fixed blocks of `Block` consecutive queries of
// [0, num_queries), one steallable task per block (grain 1: a block of
// queries is far heavier than the tens-of-ns fork cost).
template <size_t Block, typename Body>
void for_each_block(size_t num_queries, Body&& body) {
  static_assert(Block > 0);
  parallel_for(
      0, (num_queries + Block - 1) / Block,
      [&](size_t b) {
        size_t lo = b * Block;
        body(lo, std::min(num_queries, lo + Block));
      },
      1);
}

// The two-phase plan over blocks of `Block` queries, for traversals that
// walk a block together (src/core/lane_walk.h):
//   count(lo, hi, sizes)           sets sizes[q] for every q in [lo, hi),
//   report(lo, hi, items, offsets) writes query q's items at
//                                  items + offsets[q] for every q in [lo, hi).
// The sizes array is bookkeeping traffic charged in bulk, like the
// primitives. The item array is allocated without a fill: the report pass
// writes every slot, so it is each page's first touch.
template <typename T, size_t Block, typename CountBlock, typename ReportBlock>
BatchResult<T> batch_two_phase_blocks(size_t num_queries, CountBlock&& count,
                                      ReportBlock&& report) {
  std::vector<size_t> offsets(num_queries + 1, 0);
  for_each_block<Block>(num_queries, [&](size_t lo, size_t hi) {
    count(lo, hi, offsets.data());
  });
  asym::count_write(num_queries);
  // Exclusive scan turns sizes into slice offsets; the trailing zero slot
  // receives the grand total.
  primitives::scan_exclusive(offsets);
  primitives::UninitVector<T> items(offsets[num_queries]);
  for_each_block<Block>(num_queries, [&](size_t lo, size_t hi) {
    report(lo, hi, items.data(), offsets.data());
  });
  return BatchResult<T>(std::move(items), std::move(offsets));
}

// The two-phase plan one query at a time: count(q) and report(q, out) are
// invoked once per query, from worker threads.
template <typename T, typename Count, typename Report>
BatchResult<T> batch_two_phase(size_t num_queries, Count&& count,
                               Report&& report) {
  return batch_two_phase_blocks<T, 1>(
      num_queries,
      [&](size_t q, size_t, size_t* sizes) { sizes[q] = count(q); },
      [&](size_t q, size_t, T* items, const size_t* offsets) {
        report(q, items + offsets[q]);
      });
}

// Fixed-size-output batches (counting queries, k-NN with known k, ANN): one
// output slot per query, no scan needed. Still deterministic: slot q is
// written by query q alone. The blocked form hands f(lo, hi, out) a block
// of `Block` consecutive queries, which sets out[q] for each q in [lo, hi).
template <typename T, size_t Block, typename F>
std::vector<T> batch_map_blocks(size_t num_queries, F&& f) {
  std::vector<T> out(num_queries);
  for_each_block<Block>(num_queries, [&](size_t lo, size_t hi) {
    f(lo, hi, out.data());
  });
  asym::count_write(num_queries);
  return out;
}

template <typename T, typename F>
std::vector<T> batch_map(size_t num_queries, F&& f) {
  return batch_map_blocks<T, 1>(
      num_queries, [&](size_t q, size_t, T* out) { out[q] = f(q); });
}

}  // namespace weg::parallel
