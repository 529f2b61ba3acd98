// Lane-interleaved walks: the one kernel behind every latency-hidden tree
// descent in the repo.
//
// A pointer-chasing descent spends its time on one dependent cache miss per
// level. When a block of independent searches walks the same read-only
// structure, interleaving them hides most of that latency: each pass over
// the block advances every live lane by one level, and a lane prefetches
// what its next step reads before the pass moves on to the other lanes, so
// by the time the pass comes round again that node is usually in cache.
// Callers:
//   * the write-efficient sort's tracing step (sort::Tree::trace_block,
//     src/sort/incremental_sort.cc),
//   * the static interval tree's stabbing walk
//     (StaticIntervalTree::stab_lanes, src/augtree/interval_tree.cc).
//
// Counting: a lane is charged exactly what a lone search pays, but the
// charges are tallied in registers (Tally) and paid once per block, so the
// per-access counter update leaves the hot loop and asym totals stay
// bit-identical to a lane-by-lane run.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "src/asym/counters.h"

namespace weg::core {

// Large-memory reads and writes counted by a walk, charged in one call.
struct Tally {
  uint64_t reads = 0;
  uint64_t writes = 0;

  void charge() const {
    asym::count_read(reads);
    asym::count_write(writes);
  }
};

// Advances lanes 0..m-1 (m <= Lanes) in lockstep until every lane is done.
// step(l) moves lane l one level down and returns true while the lane is
// live — after prefetching what its next step reads — or false once it has
// finished. Each pass visits the live lanes in ascending order, and the
// finished ones are compacted out of the live list.
template <size_t Lanes, typename Step>
void walk_lanes(size_t m, Step&& step) {
  static_assert(Lanes > 0 && Lanes <= 256, "lane ids are bytes");
  assert(m <= Lanes);
  uint8_t live[Lanes];
  for (size_t l = 0; l < m; ++l) live[l] = static_cast<uint8_t>(l);
  while (m > 0) {
    size_t kept = 0;
    for (size_t j = 0; j < m; ++j) {
      uint8_t l = live[j];
      if (step(size_t{l})) live[kept++] = l;
    }
    m = kept;
  }
}

}  // namespace weg::core
