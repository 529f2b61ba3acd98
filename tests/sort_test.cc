// Incremental comparison sort tests (Section 4): correctness of the classic
// parallel BST sort and the write-efficient prefix-doubling variant across
// sizes / duplicate densities, the Theorem 4.1 write bound (linear writes vs
// Θ(n log n) for the classic variant), and the order-returning API.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/primitives/random.h"
#include "tests/testing_util.h"
#include "src/sort/incremental_sort.h"

namespace weg::sort {
namespace {

using weg::testing::random_vec;

class SortSizes
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(SortSizes, ClassicSorts) {
  auto [n, range] = GetParam();
  auto keys = random_vec(n, 1 + n, range);
  auto ref = keys;
  std::sort(ref.begin(), ref.end());
  SortStats st;
  EXPECT_EQ(incremental_sort_classic(keys, &st), ref);
}

TEST_P(SortSizes, WriteEfficientSorts) {
  auto [n, range] = GetParam();
  auto keys = random_vec(n, 2 + n, range);
  auto ref = keys;
  std::sort(ref.begin(), ref.end());
  SortStats st;
  EXPECT_EQ(incremental_sort_we(keys, &st), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SortSizes,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 10, 100, 1000, 50000),
                       ::testing::Values(0ull, 7ull, 1000ull)));

TEST(IncrementalSort, OrderVariantIsASortingPermutation) {
  auto keys = random_vec(20000, 3, 500);
  auto order = incremental_sort_we_order(keys);
  ASSERT_EQ(order.size(), keys.size());
  std::vector<uint8_t> seen(keys.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(seen[order[i]], 0);
    seen[order[i]] = 1;
    if (i > 0) {
      ASSERT_LE(keys[order[i - 1]], keys[order[i]]);
    }
  }
}

TEST(IncrementalSort, OrderBreaksTiesByIndex) {
  std::vector<uint64_t> keys{5, 5, 5, 5, 5};
  auto order = incremental_sort_we_order(keys);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(IncrementalSort, Theorem41LinearWrites) {
  // Writes of the WE sort grow ~linearly while the classic variant grows
  // ~n log n: the ratio classic/WE must increase with n.
  double prev_ratio = 0;
  for (size_t n : {1ul << 14, 1ul << 17}) {
    auto keys = random_vec(n, 4, 0);
    SortStats c, w;
    incremental_sort_classic(keys, &c);
    incremental_sort_we(keys, &w);
    EXPECT_LT(w.cost.writes, c.cost.writes);
    double ratio = double(c.cost.writes) / double(w.cost.writes);
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
    // WE writes bounded by a fixed constant per key.
    EXPECT_LT(w.cost.writes, 10 * n);
  }
}

TEST(IncrementalSort, PostponedFractionIsSmall) {
  auto keys = random_vec(1 << 16, 5, 0);
  SortStats st;
  incremental_sort_we(keys, &st);
  EXPECT_LT(st.postponed, keys.size() / 20);
}

TEST(IncrementalSort, TreeHeightIsLogarithmic) {
  size_t n = 1 << 16;
  auto keys = random_vec(n, 6, 0);
  SortStats c, w;
  incremental_sort_classic(keys, &c);
  incremental_sort_we(keys, &w);
  // Random BSTs have height < 4 log2 n whp.
  EXPECT_LT(c.tree_height, 4 * 16u);
  EXPECT_LT(w.tree_height, 5 * 16u);  // cutoff chains add a little
}

TEST(IncrementalSort, RoundsPolylog) {
  auto keys = random_vec(1 << 16, 7, 0);
  SortStats c;
  incremental_sort_classic(keys, &c);
  // Classic rounds == tree height (one level per round).
  EXPECT_EQ(c.rounds, c.tree_height);
}

TEST(IncrementalSort, SmallCutoffStillSorts) {
  auto keys = random_vec(20000, 8, 0);
  auto ref = keys;
  std::sort(ref.begin(), ref.end());
  SortStats st;
  EXPECT_EQ(incremental_sort_we(keys, &st, /*cutoff=*/2), ref);
  EXPECT_GT(st.postponed, 0u);  // tiny cutoff forces postponements
}

TEST(IncrementalSort, AlreadySortedInput) {
  // Sorted order is adversarial for BST shape but the WE variant's random-
  // order assumption concerns cost, not correctness.
  std::vector<uint64_t> keys(3000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  auto ref = keys;
  EXPECT_EQ(incremental_sort_we(keys), ref);
  EXPECT_EQ(incremental_sort_classic(keys), ref);
}

// Goldens for the order-returning WE sort: FNV-1a of the permutation and
// the exact asym counts. They pin the tracing kernel's block edges (n below
// the lane width, n not a multiple of it) and a tiny cutoff that freezes
// nodes while other keys of the same block are still tracing. The p=1/2/8
// reruns of this suite (tests/CMakeLists.txt) make them a cross-worker-count
// determinism check as well.
uint64_t fnv1a(const std::vector<uint32_t>& v) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t w : v) {
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((w >> (8 * b)) & 0xFF)) * 1099511628211ULL;
    }
  }
  return h;
}

struct OrderGolden {
  size_t n;
  uint64_t range;
  size_t cutoff;
  uint64_t fingerprint;
  uint64_t reads, writes;
  size_t postponed;
};

class OrderGoldens : public ::testing::TestWithParam<OrderGolden> {};

TEST_P(OrderGoldens, PermutationAndCountsArePinned) {
  const OrderGolden& g = GetParam();
  auto keys = random_vec(g.n, 10 + g.n, g.range);
  SortStats st;
  auto order = incremental_sort_we_order(keys, &st, g.cutoff);
  ASSERT_EQ(order.size(), g.n);
  for (size_t i = 1; i < order.size(); ++i) {
    ASSERT_TRUE(keys[order[i - 1]] < keys[order[i]] ||
                (keys[order[i - 1]] == keys[order[i]] &&
                 order[i - 1] < order[i]));
  }
  EXPECT_EQ(fnv1a(order), g.fingerprint);
  EXPECT_EQ(st.cost.reads, g.reads);
  EXPECT_EQ(st.cost.writes, g.writes);
  EXPECT_EQ(st.postponed, g.postponed);
}

INSTANTIATE_TEST_SUITE_P(
    LaneEdges, OrderGoldens,
    ::testing::Values(
        // n below the lane width: every tracing block is partial.
        OrderGolden{11, 0, 0, 13690292737311217736ULL, 107, 132, 0},
        // n not a multiple of the lane width; duplicate keys build long
        // equal-key chains, so some buckets freeze at the default cutoff.
        OrderGolden{50021, 1000, 0, 4649528284405249254ULL, 4693410, 260317,
                    4994},
        // cutoff 2 freezes bucket roots mid-round: later lanes of a block
        // meet frozen nodes and are postponed.
        OrderGolden{20007, 0, 2, 10798640866624940874ULL, 1259620, 159057,
                    11387}));

TEST(DoubleToSortable, MonotoneOverDoubles) {
  primitives::Rng rng(9);
  std::vector<double> ds;
  for (int i = 0; i < 10000; ++i) {
    ds.push_back((rng.next_double() - 0.5) * 1e9);
  }
  ds.push_back(0.0);
  ds.push_back(-0.0);
  ds.push_back(1e-300);
  ds.push_back(-1e-300);
  std::sort(ds.begin(), ds.end());
  for (size_t i = 1; i < ds.size(); ++i) {
    if (ds[i - 1] < ds[i]) {
      EXPECT_LT(double_to_sortable(ds[i - 1]), double_to_sortable(ds[i]));
    } else {
      EXPECT_LE(double_to_sortable(ds[i - 1]), double_to_sortable(ds[i]));
    }
  }
}

}  // namespace
}  // namespace weg::sort
