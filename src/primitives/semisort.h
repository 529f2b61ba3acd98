// Semisorting and integer (counting/radix) sort.
//
// The paper uses two grouping black boxes:
//  * parallel semisort [34]: group records with equal keys in linear expected
//    work/writes and O(log^2 n) depth (used to deliver points to triangles /
//    kd-tree leaves in the incremental rounds);
//  * radix sort over a key range of O(n log n) [48] (used by the post-sorted
//    interval-tree construction in Section 7.2).
//
// The integer sorts are a stable blocked counting sort over bounded keys:
// per-block histograms, a transposed parallel scan over the (block x bucket)
// counters, and a scatter pass into pre-claimed slices. For keys bounded by
// O(n log n) this is linear work and writes with O(log n)-ish depth, exactly
// the budget the paper allots.
//
// Semisort of arbitrary hashable keys dispatches on size:
//  * large inputs take the sample-based heavy/light plan in
//    semisort_sample.h (hash, sample at rate 1/log n, dedicated buckets for
//    keys with sample frequency >= log n, analytically sized light buckets);
//  * small inputs keep the classic hash-bucket path below, where the plan
//    overhead would dominate.
// Both paths share one contract, load-bearing for every consumer (pbatched
// k-d builds, incremental-sort rounds): the same
// (records permuted, group start offsets) API, output and bulk asym
// read/write totals bitwise identical at every worker count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/asym/counters.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/semisort_sample.h"
#include "src/primitives/sequence.h"

namespace weg::primitives {

// Stable counting sort of `records` by key(record) in [0, num_buckets).
// Returns the bucket start offsets (size num_buckets + 1).
// Work O(n + num_buckets), writes O(n + num_buckets), depth O(log n).
//
// There is no hard bucket cap (the old 2^16 ceiling silently coarsened
// grouping for n >> 2^18): instead the block size adapts to the bucket
// count, so the (block x bucket) counter matrix stays at O(n + num_buckets)
// words — ~16 bytes of bookkeeping per record worst case including the
// transposed scan copy. The trade is parallelism granularity: very wide
// bucket spaces mean fewer, larger blocks (fewer steallable chunks but no
// counter blowup); callers wanting finer placement chunks should narrow the
// key space instead.
template <typename T, typename KeyFn>
std::vector<size_t> counting_sort(std::vector<T>& records, size_t num_buckets,
                                  KeyFn key) {
  size_t n = records.size();
  constexpr size_t kMinBlock = 1 << 14;
  size_t block = std::max(kMinBlock, num_buckets);
  size_t nb = (n + block - 1) / block;
  if (nb == 0) nb = 1;
  asym::count_read(n);

  // hist[b * num_buckets + k] = #records with key k in block b.
  std::vector<size_t> hist(nb * num_buckets, 0);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        size_t* h = hist.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) ++h[key(records[i])];
      },
      1);

  // Column-major (bucket-major) offset scan so each bucket's blocks land in
  // rank order — parallelized via the shared blocked scan core: transpose,
  // scan, transpose back. The counters are bookkeeping and stay uncharged;
  // only the bucket-offset output is charged, as before.
  std::vector<size_t> offsets(num_buckets + 1);
  if (nb == 1) {
    detail::scan_exclusive_raw(hist.data(), num_buckets);
    for (size_t k = 0; k < num_buckets; ++k) offsets[k] = hist[k];
  } else {
    std::vector<size_t> col(nb * num_buckets);
    parallel::parallel_for(0, num_buckets, [&](size_t k) {
      for (size_t b = 0; b < nb; ++b) {
        col[k * nb + b] = hist[b * num_buckets + k];
      }
    });
    detail::scan_exclusive_raw(col.data(), col.size());
    parallel::parallel_for(0, num_buckets, [&](size_t k) {
      offsets[k] = col[k * nb];
      for (size_t b = 0; b < nb; ++b) {
        hist[b * num_buckets + k] = col[k * nb + b];
      }
    });
  }
  offsets[num_buckets] = n;
  asym::count_write(num_buckets);

  std::vector<T> out(n);
  asym::count_write(n);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        size_t* h = hist.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) out[h[key(records[i])]++] = records[i];
      },
      1);
  records.swap(out);
  return offsets;
}

// LSD radix sort by key(record) in [0, range). Uses 16-bit digits, so for
// range = O(n log n) this is a constant number of counting-sort passes —
// matching the [48] black box the paper invokes.
template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& records, uint64_t range, KeyFn key) {
  constexpr uint64_t kDigit = 1 << 16;
  uint64_t shifted = 1;
  for (int shift = 0; shifted < range; shift += 16, shifted <<= 16) {
    counting_sort(records, static_cast<size_t>(std::min<uint64_t>(
                               kDigit, (range >> shift) + 1)),
                  [&](const T& r) {
                    return static_cast<size_t>((key(r) >> shift) &
                                               (kDigit - 1));
                  });
  }
}

namespace detail {

// Classic small-n semisort: hash keys into ~n/4 buckets (expected O(1)
// size), group each bucket locally, emit boundaries. Below
// kSemisortSampledMinN a sampling plan costs more than it saves.
template <typename T, typename KeyFn, typename HashFn>
std::vector<size_t> semisort_classic(std::vector<T>& records, KeyFn key,
                                     HashFn hash, SemisortStats* stats) {
  size_t n = records.size();
  size_t buckets = 1;
  while (buckets < n / 4 + 16 && buckets < (1u << 16)) buckets <<= 1;
  auto offsets = counting_sort(records, buckets, [&](const T& r) {
    return static_cast<size_t>(hash(static_cast<uint64_t>(key(r))) &
                               (buckets - 1));
  });
  asym::count_read(n);  // the grouping sweep over the bucketed records
  group_buckets(records, offsets, key);
  auto starts = emit_group_starts(records, key);
  if (stats != nullptr) {
    *stats = SemisortStats{};
    stats->n = n;
    stats->light_buckets = buckets;
    stats->groups = starts.size() - 1;
  }
  return starts;
}

}  // namespace detail

// Groups records by an arbitrary integer key (not necessarily bounded):
// semisort per [34]. `hash` must map equal keys to equal 64-bit
// fingerprints (the default is the usual invertible mix); `stats`, when
// non-null, receives the plan shape. Returns (records permuted so equal
// keys are adjacent, group start offsets). Clients are the pbatched k-d
// incremental rounds and the incremental-sort bucket rounds.
template <typename T, typename KeyFn, typename HashFn>
std::vector<size_t> semisort_by_hashed(std::vector<T>& records, KeyFn key,
                                       HashFn hash,
                                       SemisortStats* stats = nullptr) {
  size_t n = records.size();
  if (n == 0) {
    if (stats != nullptr) *stats = SemisortStats{};
    return {0};
  }
  if (n < detail::kSemisortSampledMinN) {
    return detail::semisort_classic(records, key, hash, stats);
  }
  return detail::semisort_sampled(records, key, hash, stats);
}

template <typename T, typename KeyFn>
std::vector<size_t> semisort_by(std::vector<T>& records, KeyFn key,
                                SemisortStats* stats = nullptr) {
  return semisort_by_hashed(
      records, key, [](uint64_t x) { return hash64(x); }, stats);
}

}  // namespace weg::primitives
