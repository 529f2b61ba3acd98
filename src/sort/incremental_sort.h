// Write-efficient parallel comparison sorting (Section 4).
//
// Both variants insert keys into a binary search tree with no rebalancing
// (Algorithm 1), processing all uninserted keys in parallel rounds with a
// priority-write on the contended child slot (the key earliest in the random
// insertion order wins).
//
//  * Classic (Algorithm 1, parallel): every active key attempts one
//    priority-write per round while descending one level per round, so the
//    total number of large-memory writes is Θ(n log n) whp — this is the
//    baseline the paper improves on.
//  * Write-efficient (Theorem 4.1): prefix doubling. The initial round
//    builds the tree on the first n/log^2 n keys with the classic algorithm;
//    each subsequent round doubles the tree. Within a round, each new key
//    first *traces* down the existing tree (reads only — the tree is the
//    history DAG of Section 3.1, with the search path as the unique visible
//    path) to its empty leaf slot, keys are semisorted by slot ("bucket"),
//    and each bucket is resolved locally with one write per key. Buckets
//    whose resolution exceeds c3*log log n BST levels are frozen and their
//    keys (plus any later keys entering the frozen subtree) are postponed to
//    a final classic round, giving O(log^2 n) depth overall with o(n) extra
//    writes (Theorem 4.1).
//
// Implementation notes. The tracing step walks a fixed block of keys down
// the tree together, one level per pass over the block, prefetching each
// key's next node, so a task keeps many cache misses in flight; each key is
// still charged two reads per level and one write for its bucket record,
// exactly as a lone search would be. The sorted output is emitted in
// parallel: the subtrees below a fixed cut depth are sized, then each writes
// its in-order run at its offset — reads only, plus the output writes. Both
// constants are fixed, so outputs and asym counts are the same at every
// worker count.
//
// Keys are uint64_t; ties are broken by insertion position, so duplicate
// keys are fully supported.
#pragma once

#include <cstdint>
#include <vector>

#include "src/asym/counters.h"

namespace weg::sort {

struct SortStats {
  asym::Counts cost;        // large-memory reads/writes of the measured sort
  size_t rounds = 0;        // parallel rounds (depth proxy)
  size_t postponed = 0;     // keys deferred to the final round (WE variant)
  size_t tree_height = 0;   // height of the resulting BST
};

// Algorithm 1, parallel rounds with priority-writes. Θ(n log n) writes.
std::vector<uint64_t> incremental_sort_classic(
    const std::vector<uint64_t>& keys, SortStats* stats = nullptr);

// Theorem 4.1: prefix doubling + DAG tracing + bucket finishing. O(n) writes,
// O(n log n) reads in expectation. `cutoff` is the bucket finishing depth
// c3*log log n; 0 selects it automatically.
std::vector<uint64_t> incremental_sort_we(const std::vector<uint64_t>& keys,
                                          SortStats* stats = nullptr,
                                          size_t cutoff = 0);

// Same algorithm, but returns the sorted *permutation*: order[i] is the index
// of the i-th smallest key (ties by index). Used by the post-sorted
// constructions of Section 7.2, which need ranks rather than values.
std::vector<uint32_t> incremental_sort_we_order(
    const std::vector<uint64_t>& keys, SortStats* stats = nullptr,
    size_t cutoff = 0);

// Variant for callers whose input order is NOT random (e.g. keys collected
// from an existing structure during a reconstruction): applies an O(m)-write
// deterministic shuffle first, restoring the random-order precondition of
// Theorem 4.1, then composes the permutations.
std::vector<uint32_t> incremental_sort_we_order_anyorder(
    const std::vector<uint64_t>& keys, SortStats* stats = nullptr);

// Maps a finite double to a uint64 whose unsigned order matches the double
// order (standard sign-flip trick), so double sequences can be sorted with
// the write-efficient integer-keyed sorter.
uint64_t double_to_sortable(double d);

}  // namespace weg::sort
