// Experiment SEMISORT (Section 3 black box [34]): sample-based heavy/light
// semisort vs the pre-sampling hash-bucket semisort, across the distribution
// matrix (uniform / Zipf(1.0) / all-equal) at 2^16..2^24 plus a
// planner-shaped small-key-universe row (64 distinct keys, the shard-bitmask
// workload of the query planner). The claims: the sampled plan is never
// slower on uniform keys and wins big on skew, because heavy keys get
// dedicated buckets (no serial O(g log g) local sort of a giant group) and
// the offset scan is parallel instead of serial over (buckets x blocks).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench/common.h"
#include "src/primitives/semisort.h"

namespace weg {
namespace {

// The seed's semisort, vendored verbatim (modulo namespace) from
// src/primitives/semisort.h as of the PR that precedes the sampling plan, so
// the old-vs-new rows compare real code, not a strawman: serial column-major
// offset scan, hash buckets capped at 2^16, serial per-bucket local sorts,
// serial group-boundary emission.
namespace legacy {

template <typename T, typename KeyFn>
std::vector<size_t> counting_sort(std::vector<T>& records, size_t num_buckets,
                                  KeyFn key) {
  size_t n = records.size();
  constexpr size_t kBlock = 1 << 14;
  size_t nb = (n + kBlock - 1) / kBlock;
  if (nb == 0) nb = 1;
  asym::count_read(n);

  std::vector<size_t> hist(nb * num_buckets, 0);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
        size_t* h = hist.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) ++h[key(records[i])];
      },
      1);

  std::vector<size_t> offsets(num_buckets + 1, 0);
  size_t total = 0;
  for (size_t k = 0; k < num_buckets; ++k) {
    offsets[k] = total;
    for (size_t b = 0; b < nb; ++b) {
      size_t c = hist[b * num_buckets + k];
      hist[b * num_buckets + k] = total;
      total += c;
    }
  }
  offsets[num_buckets] = total;
  asym::count_write(num_buckets);

  std::vector<T> out(n);
  asym::count_write(n);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
        size_t* h = hist.data() + b * num_buckets;
        for (size_t i = lo; i < hi; ++i) out[h[key(records[i])]++] = records[i];
      },
      1);
  records.swap(out);
  return offsets;
}

template <typename T, typename KeyFn>
std::vector<size_t> semisort_by(std::vector<T>& records, KeyFn key) {
  size_t n = records.size();
  if (n == 0) return {0};
  size_t buckets = 1;
  while (buckets < n / 4 + 16 && buckets < (1u << 16)) buckets <<= 1;
  auto hash64 = [](uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  };
  auto offsets = counting_sort(records, buckets, [&](const T& r) {
    return static_cast<size_t>(hash64(static_cast<uint64_t>(key(r))) &
                               (buckets - 1));
  });
  std::vector<size_t> group_starts;
  group_starts.reserve(n / 4 + 4);
  for (size_t b = 0; b < buckets; ++b) {
    size_t lo = offsets[b], hi = offsets[b + 1];
    if (lo == hi) continue;
    std::sort(records.begin() + static_cast<ptrdiff_t>(lo),
              records.begin() + static_cast<ptrdiff_t>(hi),
              [&](const T& x, const T& y) { return key(x) < key(y); });
  }
  asym::count_read(n);
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || key(records[i]) != key(records[i - 1])) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(n);
  asym::count_write(group_starts.size());
  return group_starts;
}

}  // namespace legacy

enum class Dist { kUniform, kZipf, kAllEqual, kPlannerKeys };

std::vector<uint64_t> workload(Dist d, size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<uint64_t> v(n);
  switch (d) {
    case Dist::kUniform:
      for (auto& x : v) x = rng.next();
      break;
    case Dist::kZipf: {
      // Universe capped at 2^20 so the CDF table setup stays out of the
      // measured region's noise floor at 2^24.
      primitives::ZipfDistribution zipf(std::min<size_t>(n, 1 << 20), 1.0);
      for (auto& x : v) x = zipf(rng);
      break;
    }
    case Dist::kAllEqual:
      std::fill(v.begin(), v.end(), 0xFEEDULL);
      break;
    case Dist::kPlannerKeys:
      // Target-shard bitmasks, as the shard-pruning planner once grouped
      // them: a tiny key universe where every key is heavy.
      for (auto& x : v) x = rng.next_bounded(64);
      break;
  }
  return v;
}

template <Dist D>
void BM_Legacy(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  auto data = workload(D, n, 0x5E31 + n);
  asym::Counts cost;
  size_t groups = 0;
  for (auto _ : state) {
    auto copy = data;
    asym::Region r;
    auto starts = legacy::semisort_by(copy, [](uint64_t x) { return x; });
    benchmark::DoNotOptimize(copy);
    cost = r.delta();
    groups = starts.size() - 1;
  }
  bench::report_cost(state, cost, double(n));
  state.counters["groups"] = double(groups);
}

template <Dist D>
void BM_Sampled(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  auto data = workload(D, n, 0x5E31 + n);
  asym::Counts cost;
  primitives::SemisortStats st;
  for (auto _ : state) {
    auto copy = data;
    asym::Region r;
    auto starts =
        primitives::semisort_by(copy, [](uint64_t x) { return x; }, &st);
    benchmark::DoNotOptimize(copy);
    benchmark::DoNotOptimize(starts);
    cost = r.delta();
  }
  bench::report_cost(state, cost, double(n));
  state.counters["groups"] = double(st.groups);
  state.counters["heavy_keys"] = double(st.heavy_keys);
  state.counters["heavy_frac"] = st.n ? double(st.heavy_records) / st.n : 0;
}

#define SEMISORT_PAIR(NAME, DIST, RANGE_LO, RANGE_HI)          \
  BENCHMARK(BM_Legacy<DIST>)                                   \
      ->Name("BM_LegacySemisort" NAME)                         \
      ->RangeMultiplier(16)                                    \
      ->Range(RANGE_LO, RANGE_HI)                              \
      ->Unit(benchmark::kMillisecond)                          \
      ->Iterations(1);                                         \
  BENCHMARK(BM_Sampled<DIST>)                                  \
      ->Name("BM_SampledSemisort" NAME)                        \
      ->RangeMultiplier(16)                                    \
      ->Range(RANGE_LO, RANGE_HI)                              \
      ->Unit(benchmark::kMillisecond)                          \
      ->Iterations(1)

SEMISORT_PAIR("Uniform", Dist::kUniform, 1 << 16, 1 << 24);
SEMISORT_PAIR("Zipf", Dist::kZipf, 1 << 16, 1 << 24);
SEMISORT_PAIR("AllEqual", Dist::kAllEqual, 1 << 16, 1 << 24);
// Planner-shaped row: one size is enough — the point is the tiny key
// universe (64 shard masks), not the scaling curve.
SEMISORT_PAIR("PlannerKeys", Dist::kPlannerKeys, 1 << 16, 1 << 16);

#undef SEMISORT_PAIR

}  // namespace
}  // namespace weg

int main(int argc, char** argv) {
  weg::bench::banner(
      "SEMISORT  |  sample-based heavy/light semisort (Section 3 black box)",
      "Counters are per record. Claim: the sampled plan matches the legacy\n"
      "hash-bucket semisort on uniform keys and beats it on skewed keys\n"
      "(Zipf / all-equal / planner bitmasks), where heavy keys get dedicated\n"
      "buckets and single-key buckets skip their local sort.");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
