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
// slices — without this class knowing about shards.
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
  BatchResult(std::vector<T> items, std::vector<size_t> offsets)
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

  const std::vector<T>& items() const { return items_; }
  const std::vector<size_t>& offsets() const { return offsets_; }

 private:
  Status status_;  // OK unless the producer poisoned this result
  std::vector<T> items_;
  std::vector<size_t> offsets_;  // size Q + 1
};

// The two-phase plan. Count and Report are invoked once per query, from
// worker threads (grain 1: one steallable task per query — queries are far
// heavier than the tens-of-ns fork cost). The sizes array is bookkeeping
// traffic charged in bulk, like the primitives.
template <typename T, typename Count, typename Report>
BatchResult<T> batch_two_phase(size_t num_queries, Count&& count,
                               Report&& report) {
  std::vector<size_t> offsets(num_queries + 1, 0);
  parallel_for(
      0, num_queries, [&](size_t q) { offsets[q] = count(q); }, 1);
  asym::count_write(num_queries);
  // Exclusive scan turns sizes into slice offsets; the trailing zero slot
  // receives the grand total.
  primitives::scan_exclusive(offsets);
  std::vector<T> items(offsets[num_queries]);
  parallel_for(
      0, num_queries, [&](size_t q) { report(q, items.data() + offsets[q]); },
      1);
  return BatchResult<T>(std::move(items), std::move(offsets));
}

// Fixed-size-output batches (counting queries, k-NN with known k, ANN): one
// output slot per query, no scan needed. Still deterministic: slot q is
// written by query q alone.
template <typename T, typename F>
std::vector<T> batch_map(size_t num_queries, F&& f) {
  std::vector<T> out(num_queries);
  parallel_for(
      0, num_queries, [&](size_t q) { out[q] = f(q); }, 1);
  asym::count_write(num_queries);
  return out;
}

}  // namespace weg::parallel
