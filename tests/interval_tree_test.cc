// Interval tree tests (Sections 7.1-7.3): static classic vs post-sorted
// construction equivalence and write bounds (Theorem 7.1), stabbing queries
// against brute force across interval patterns (including duplicate and
// degenerate endpoints), and the α-labeled dynamic tree under mixed
// workloads with structural validation (Corollary 7.2 path statistics).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "src/augtree/interval_tree.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg::augtree {

// Reads a static tree's private layout: one FNV-1a fingerprint each of
// keys_, the two CSR offset arrays and the two per-node lists (coordinate
// bits, then id).
class IntervalTreeTestPeer {
 public:
  struct Layout {
    uint64_t keys, left_off, right_off, by_left, by_right;
  };

  static Layout layout(const StaticIntervalTree& t) {
    return {fingerprint(t.keys_), fingerprint(t.node_left_off_),
            fingerprint(t.node_right_off_), fingerprint(t.by_left_),
            fingerprint(t.by_right_)};
  }

 private:
  struct Fnv {
    uint64_t h = 1469598103934665603ULL;
    void add(uint64_t w) {
      for (int b = 0; b < 8; ++b) {
        h = (h ^ ((w >> (8 * b)) & 0xFF)) * 1099511628211ULL;
      }
    }
  };
  static uint64_t word(double d) { return std::bit_cast<uint64_t>(d); }
  static uint64_t word(uint32_t w) { return w; }
  template <typename Vec>
  static uint64_t fingerprint(const Vec& v) {
    Fnv f;
    for (const auto& x : v) {
      if constexpr (requires { x.first; }) {
        f.add(word(x.first));
        f.add(word(x.second));
      } else {
        f.add(word(x));
      }
    }
    return f.h;
  }
};

namespace {

enum class Pattern { kShort, kMixed, kNested, kPointLike, kSharedEndpoints };

std::vector<Interval> make_intervals(Pattern pat, size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = 0, b = 0;
    switch (pat) {
      case Pattern::kShort:
        a = rng.next_double();
        b = a + rng.next_double() * 0.01;
        break;
      case Pattern::kMixed:
        a = rng.next_double();
        b = a + rng.next_double() * rng.next_double();
        break;
      case Pattern::kNested:
        a = 0.5 - double(i + 1) / double(2 * n + 4);
        b = 0.5 + double(i + 1) / double(2 * n + 4);
        break;
      case Pattern::kPointLike:
        a = rng.next_double();
        b = a;  // zero length
        break;
      case Pattern::kSharedEndpoints:
        a = double(rng.next_bounded(20)) / 20.0;
        b = a + double(1 + rng.next_bounded(5)) / 20.0;
        break;
    }
    ivs[i] = Interval{a, b, uint32_t(i)};
  }
  return ivs;
}

size_t brute_stab(const std::vector<Interval>& ivs, double q) {
  size_t c = 0;
  for (auto& iv : ivs) c += iv.contains(q) ? 1 : 0;
  return c;
}

class StaticIT
    : public ::testing::TestWithParam<std::tuple<Pattern, size_t>> {};

TEST_P(StaticIT, BothBuildsAnswerStabsCorrectly) {
  auto [pat, n] = GetParam();
  auto ivs = make_intervals(pat, n, 31 + n);
  auto tc = StaticIntervalTree::build_classic(ivs);
  auto tp = StaticIntervalTree::build_postsorted(ivs);
  EXPECT_TRUE(tc.validate(ivs));
  EXPECT_TRUE(tp.validate(ivs));
  primitives::Rng rng(n + 1);
  for (int t = 0; t < 25; ++t) {
    double q = rng.next_double();
    size_t ref = brute_stab(ivs, q);
    EXPECT_EQ(tc.stab(q).size(), ref);
    EXPECT_EQ(tp.stab(q).size(), ref);
    EXPECT_EQ(tc.stab_count(q), ref);
    EXPECT_EQ(tp.stab_count(q), ref);
  }
  // Query exactly at endpoints too (tie handling).
  for (size_t i = 0; i < std::min<size_t>(n, 10); ++i) {
    for (double q : {ivs[i].l, ivs[i].r}) {
      size_t ref = brute_stab(ivs, q);
      EXPECT_EQ(tc.stab(q).size(), ref) << "endpoint query";
      EXPECT_EQ(tp.stab(q).size(), ref) << "endpoint query";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, StaticIT,
    ::testing::Combine(::testing::Values(Pattern::kShort, Pattern::kMixed,
                                         Pattern::kNested, Pattern::kPointLike,
                                         Pattern::kSharedEndpoints),
                       ::testing::Values(1, 2, 16, 300, 5000)));

TEST(StaticIT, EmptyTree) {
  std::vector<Interval> none;
  auto t = StaticIntervalTree::build_postsorted(none);
  EXPECT_TRUE(t.stab(0.5).empty());
  EXPECT_EQ(t.stab_count(0.5), 0u);
}

TEST(StaticIT, StabReturnsActualIds) {
  auto ivs = make_intervals(Pattern::kMixed, 500, 33);
  auto t = StaticIntervalTree::build_postsorted(ivs);
  double q = 0.5;
  auto ids = t.stab(q);
  for (uint32_t id : ids) EXPECT_TRUE(ivs[id].contains(q));
}

TEST(StaticIT, Theorem71WriteBound) {
  // Post-sorted construction writes grow ~linearly; the classic baseline
  // grows ~n log n: the ratio must widen and the WE constant stay bounded.
  double prev_ratio = 0;
  for (size_t n : {1ul << 14, 1ul << 17}) {
    auto ivs = make_intervals(Pattern::kMixed, n, 35);
    StaticIntervalTree::Stats sc, sp;
    StaticIntervalTree::build_classic(ivs, &sc);
    StaticIntervalTree::build_postsorted(ivs, &sp);
    EXPECT_LT(sp.cost.writes, sc.cost.writes) << "n=" << n;
    double ratio = double(sc.cost.writes) / double(sp.cost.writes);
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
    EXPECT_LT(sp.cost.writes, 32 * n);
  }
}

TEST(StaticIT, CountingQueryWritesNothing) {
  auto ivs = make_intervals(Pattern::kMixed, 10000, 37);
  auto t = StaticIntervalTree::build_postsorted(ivs);
  asym::Region r;
  t.stab_count(0.5);
  EXPECT_EQ(r.delta().writes, 0u);
}

// Layout goldens for the post-sorted build: keys_, both CSR offset arrays
// and both per-node lists, byte for byte, plus the build's exact asym
// counts. The inputs cover short random intervals, endpoints so heavily
// duplicated that one node's run spans several pack blocks, a single interval,
// and 2n a power of two (the +inf padding then fills half of keys_). The
// p=1/2/8 reruns of this suite (tests/CMakeLists.txt) make them a
// cross-worker-count determinism check as well. The counts were recaptured
// once, when the build began to write the left-endpoint rank directory
// (d = 2n/64 + 1 words): its masks cost d writes and its prefix scan d reads
// and d writes, so reads rose by d and writes by 2d; the fingerprints did
// not move.
std::vector<Interval> clustered_endpoints(size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = 0, b = 0;
    if (i % 4 != 3) {  // straddles 0.5, so most share one node
      a = double(rng.next_bounded(16)) / 32.0;
      b = 0.5 + double(rng.next_bounded(16)) / 32.0;
    } else {  // point-like, on a 16-value grid
      a = b = double(rng.next_bounded(16)) / 16.0;
    }
    ivs[i] = Interval{a, b, uint32_t(i)};
  }
  return ivs;
}

struct LayoutGolden {
  const char* name;
  std::vector<Interval> (*input)();
  IntervalTreeTestPeer::Layout layout;
  uint64_t reads, writes;
};

void PrintTo(const LayoutGolden& g, std::ostream* os) { *os << g.name; }

class PostsortedLayout : public ::testing::TestWithParam<LayoutGolden> {};

TEST_P(PostsortedLayout, LayoutAndCountsArePinned) {
  const LayoutGolden& g = GetParam();
  auto ivs = g.input();
  StaticIntervalTree::Stats st;
  auto t = StaticIntervalTree::build_postsorted(ivs, &st);
  ASSERT_TRUE(t.validate(ivs));
  auto got = IntervalTreeTestPeer::layout(t);
  EXPECT_EQ(got.keys, g.layout.keys);
  EXPECT_EQ(got.left_off, g.layout.left_off);
  EXPECT_EQ(got.right_off, g.layout.right_off);
  EXPECT_EQ(got.by_left, g.layout.by_left);
  EXPECT_EQ(got.by_right, g.layout.by_right);
  EXPECT_EQ(st.cost.reads, g.reads);
  EXPECT_EQ(st.cost.writes, g.writes);
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, PostsortedLayout,
    ::testing::Values(
        LayoutGolden{"fixed20000",
                     [] { return testing::fixed_intervals(20000, 0x60D); },
                     {0x1d3d9d44b848d432ULL, 0xac981d4aa5d55a63ULL,
                      0xac981d4aa5d55a63ULL, 0xce6c897901b36bf4ULL,
                      0xc58813c8710a70a4ULL},
                     1911700, 427937},
        LayoutGolden{"clustered12000",
                     [] { return clustered_endpoints(12000, 0xC1A5); },
                     {0x6239a1e0f82818d6ULL, 0x63d6e519c7e15ec6ULL,
                      0x63d6e519c7e15ec6ULL, 0xa7994a55acabd1dcULL,
                      0xfe0ccb16e5b14078ULL},
                     31101783, 8609524},
        LayoutGolden{"single",
                     [] { return std::vector<Interval>{{0.25, 0.75, 0}}; },
                     {0x26a16fc8443dca22ULL, 0xe71868dec0bbb6e3ULL,
                      0xe71868dec0bbb6e3ULL, 0xc99f51472ff9aa1aULL,
                      0xc19016f699640692ULL},
                     21, 40},
        LayoutGolden{"pow2",
                     [] { return make_intervals(Pattern::kMixed, 2048, 41); },
                     {0xbd541b199af64215ULL, 0x5e2f8ab4d7c5addaULL,
                      0x5e2f8ab4d7c5addaULL, 0xfda30767973186bdULL,
                      0x4de892da5cc591d6ULL},
                     159078, 44015}),
    [](const ::testing::TestParamInfo<LayoutGolden>& info) {
      return std::string(info.param.name);
    });

// The stabbing walk runs probes in lanes of 8 (a lane whose probe equals a
// stored key finishes with the fork step). Batches of every block shape —
// empty, one, a partial block, a full one, one past, and 1023 — must return
// per probe exactly the serial stab(q), in order, and the serial count; and
// they must charge exactly the summed serial charges plus the batch
// bookkeeping (the sizes array and its scan). Probes mix random points,
// stored endpoints (which fork) and NaN, on the duplicate-endpoint input, a
// random one and an empty tree; the suite's p=1/2/8 reruns vary the workers.
// An FNV-1a fingerprint of every batch's items, in order, pins the order
// itself; it was captured from the one-probe recursive walk the lanes
// replaced.
TEST(StaticIT, LaneWalkBatchesMatchSerialStabs) {
  uint64_t order = 1469598103934665603ULL;
  std::vector<std::vector<Interval>> inputs = {
      clustered_endpoints(12000, 0xC1A5),
      testing::fixed_intervals(5000, 0x1A4E), {}};
  for (const auto& ivs : inputs) {
    SCOPED_TRACE("n = " + std::to_string(ivs.size()));
    auto t = StaticIntervalTree::build_postsorted(ivs);
    primitives::Rng rng(0x1A4E + ivs.size());
    size_t forks = 0;
    for (size_t nq : {0, 1, 7, 8, 9, 1023}) {
      SCOPED_TRACE("batch of " + std::to_string(nq));
      std::vector<double> qs(nq);
      for (size_t i = 0; i < nq; ++i) {
        qs[i] = rng.next_double();
        if (i % 4 == 3) qs[i] = std::nan("");
        if (i % 4 != 0 || ivs.empty()) continue;
        const Interval& iv = ivs[rng.next_bounded(ivs.size())];
        qs[i] = i % 8 == 0 ? iv.l : iv.r;
      }
      std::vector<std::vector<uint32_t>> want(nq);
      std::vector<size_t> want_count(nq);
      asym::Counts report{}, count{};
      for (size_t i = 0; i < nq; ++i) {
        asym::Region r;
        want[i] = t.stab(qs[i]);
        report = report + r.delta();
        asym::Region c;
        want_count[i] = t.stab_count(qs[i]);
        count = count + c.delta();
        EXPECT_EQ(want[i].size(), brute_stab(ivs, qs[i]));
        EXPECT_EQ(want_count[i], want[i].size());
        for (const Interval& iv : ivs) forks += iv.l == qs[i] ? 1 : 0;
      }
      asym::Region rb;
      auto b = t.stab_batch(qs);
      asym::Counts cb = rb.delta();
      ASSERT_EQ(b.num_queries(), nq);
      for (size_t i = 0; i < nq; ++i) {
        EXPECT_EQ(b.result(i), want[i]) << "probe " << i;
      }
      for (uint32_t id : b.items()) order = (order ^ id) * 1099511628211ULL;
      EXPECT_EQ(cb.reads, count.reads + report.reads + (nq + 1));
      EXPECT_EQ(cb.writes, report.writes + nq + (nq + 1));

      asym::Region rc;
      EXPECT_EQ(t.stab_count_batch(qs), want_count);
      asym::Counts cc = rc.delta();
      EXPECT_EQ(cc.reads, count.reads);
      EXPECT_EQ(cc.writes, nq);
    }
    if (!ivs.empty()) {
      EXPECT_GT(forks, 0u);
    }
  }
  EXPECT_EQ(order, 0xfc51b6b76301d1caULL);
}

// Counts by endpoint rank against brute force, for both builds: the
// duplicate-endpoint input, zero-length intervals on a grid (their two
// endpoints tie), a mixed input, one interval and none. Probes are every
// stored endpoint and its two neighbouring doubles, grid values, random
// points, and ±inf and NaN; stab_count, stab_count_batch and stab_batch's
// slice sizes must all equal the brute count, and validate() checks the
// rank directory itself.
TEST(StaticIT, RankCountsMatchBruteForce) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Interval> zero_len(3000);
  primitives::Rng zrng(0x2E50);
  for (size_t i = 0; i < zero_len.size(); ++i) {
    double a = double(zrng.next_bounded(64)) / 64.0;
    double b = i % 3 == 0 ? a + double(zrng.next_bounded(4)) / 64.0 : a;
    zero_len[i] = Interval{a, b, uint32_t(i)};
  }
  std::vector<std::vector<Interval>> inputs = {
      clustered_endpoints(12000, 0xC1A5), zero_len,
      make_intervals(Pattern::kMixed, 2048, 41), {{0.25, 0.75, 0}}, {}};
  for (const auto& ivs : inputs) {
    SCOPED_TRACE("n = " + std::to_string(ivs.size()));
    std::vector<double> qs = {inf, -inf, std::nan(""), 0.0, 1.0, 0.5};
    for (size_t i = 0; i < ivs.size(); i += 7) {
      for (double e : {ivs[i].l, ivs[i].r}) {
        qs.push_back(e);
        qs.push_back(std::nextafter(e, -inf));
        qs.push_back(std::nextafter(e, inf));
      }
    }
    for (int g = 0; g <= 64; ++g) qs.push_back(double(g) / 64.0);
    primitives::Rng rng(0x4A7C + ivs.size());
    for (int i = 0; i < 200; ++i) qs.push_back(rng.next_double());
    for (auto build : {&StaticIntervalTree::build_postsorted,
                       &StaticIntervalTree::build_classic}) {
      auto t = build(ivs, nullptr);
      ASSERT_TRUE(t.validate(ivs));
      auto counts = t.stab_count_batch(qs);
      auto b = t.stab_batch(qs);
      ASSERT_EQ(counts.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        size_t want = brute_stab(ivs, qs[i]);
        EXPECT_EQ(t.stab_count(qs[i]), want) << "probe " << qs[i];
        EXPECT_EQ(counts[i], want) << "probe " << qs[i];
        EXPECT_EQ(b.count(i), want) << "probe " << qs[i];
      }
    }
  }
}

// The static builds have no error channel: a non-finite endpoint or l > r
// would make the rank count and the stabbing walk disagree, so both builds
// stop the program with the dynamic paths' message.
TEST(StaticITDeathTest, MalformedRecordsAbort) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto ok = testing::fixed_intervals(100, 0xDEAD);
  auto with = [&](Interval bad) {
    auto ivs = ok;
    bad.id = 40;
    ivs[40] = bad;
    return ivs;
  };
  const double inf = std::numeric_limits<double>::infinity();
  auto inverted = with({0.7, 0.3, 0});
  auto nan_end = with({std::nan(""), 0.5, 0});
  auto inf_end = with({0.2, inf, 0});
  EXPECT_DEATH(StaticIntervalTree::build_postsorted(inverted),
               "build_postsorted: inverted interval");
  EXPECT_DEATH(StaticIntervalTree::build_postsorted(nan_end),
               "build_postsorted: non-finite endpoint on interval id 40");
  EXPECT_DEATH(StaticIntervalTree::build_classic(inverted),
               "build_classic: inverted interval");
  EXPECT_DEATH(StaticIntervalTree::build_classic(inf_end),
               "build_classic: non-finite endpoint on interval id 40");
}

class DynamicIT : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicIT, MixedWorkloadMatchesBrute) {
  uint64_t alpha = GetParam();
  DynamicIntervalTree t(alpha);
  primitives::Rng rng(39 + alpha);
  std::vector<Interval> alive;
  uint32_t next_id = 0;
  for (size_t op = 0; op < 6000; ++op) {
    uint64_t r = rng.next_bounded(10);
    if (r < 6 || alive.empty()) {
      double a = rng.next_double();
      Interval iv{a, a + rng.next_double() * 0.2, next_id++};
      t.insert(iv);
      alive.push_back(iv);
    } else if (r < 8) {
      size_t i = rng.next_bounded(alive.size());
      ASSERT_TRUE(t.erase(alive[i]));
      alive.erase(alive.begin() + long(i));
    } else {
      double q = rng.next_double();
      ASSERT_EQ(t.stab(q).size(), brute_stab(alive, q)) << "op " << op;
      ASSERT_EQ(t.stab_count(q), brute_stab(alive, q));
    }
  }
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), alive.size());
}

INSTANTIATE_TEST_SUITE_P(Alphas, DynamicIT,
                         ::testing::Values(2, 4, 8, 16, 64));

TEST(DynamicIT, EraseSemantics) {
  DynamicIntervalTree t(4);
  Interval a{0.1, 0.5, 1}, b{0.2, 0.6, 2};
  t.insert(a);
  t.insert(b);
  EXPECT_FALSE(t.erase(Interval{0.1, 0.5, 99}));  // wrong id
  EXPECT_TRUE(t.erase(a));
  EXPECT_FALSE(t.erase(a));  // already erased
  EXPECT_EQ(t.stab(0.3).size(), 1u);
}

TEST(DynamicIT, Corollary72PathStatistics) {
  // The number of critical nodes on any root-leaf path is O(log_alpha n) and
  // the total path length is O(alpha log_alpha n).
  for (uint64_t alpha : {2ull, 8ull}) {
    DynamicIntervalTree t(alpha);
    primitives::Rng rng(41);
    size_t n = 20000;
    for (uint32_t i = 0; i < n; ++i) {
      double a = rng.next_double();
      t.insert(Interval{a, a + 0.01, i});
    }
    double la = std::log(double(2 * n)) / std::log(double(alpha));
    EXPECT_LE(t.critical_on_path_max(), size_t(4 * la + 10))
        << "alpha=" << alpha;
    EXPECT_LE(t.height(), size_t(double(4 * alpha + 2) * la + 20))
        << "alpha=" << alpha;
  }
}

TEST(DynamicIT, LargerAlphaFewerUpdateWrites) {
  // Theorem 7.4: writes per update scale as log_alpha n.
  size_t n = 30000;
  uint64_t w2, w16;
  for (uint64_t alpha : {2ull, 16ull}) {
    DynamicIntervalTree t(alpha);
    primitives::Rng rng(43);
    // warm up
    for (uint32_t i = 0; i < n; ++i) {
      double a = rng.next_double();
      t.insert(Interval{a, a + 0.01, i});
    }
    asym::Region r;
    for (uint32_t i = 0; i < 2000; ++i) {
      double a = rng.next_double();
      t.insert(Interval{a, a + 0.01, static_cast<uint32_t>(n + i)});
    }
    (alpha == 2 ? w2 : w16) = r.delta().writes;
  }
  EXPECT_LT(w16, w2);
}

TEST(DynamicIT, BulkInsertMatchesIncremental) {
  primitives::Rng rng(45);
  auto base = make_intervals(Pattern::kMixed, 3000, 47);
  auto batch = make_intervals(Pattern::kShort, 2000, 49);
  for (auto& iv : batch) iv.id += 10000;
  DynamicIntervalTree t(4);
  for (auto& iv : base) t.insert(iv);
  ASSERT_TRUE(t.bulk_insert(batch).ok());
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), base.size() + batch.size());
  std::vector<Interval> all = base;
  all.insert(all.end(), batch.begin(), batch.end());
  for (int q = 0; q < 25; ++q) {
    double x = rng.next_double();
    EXPECT_EQ(t.stab(x).size(), brute_stab(all, x));
  }
}

TEST(DynamicIT, BulkInsertIntoEmpty) {
  DynamicIntervalTree t(4);
  auto batch = make_intervals(Pattern::kMixed, 1000, 51);
  ASSERT_TRUE(t.bulk_insert(batch).ok());
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), batch.size());
  EXPECT_EQ(t.stab(0.5).size(), brute_stab(batch, 0.5));
}

TEST(DynamicIT, BulkInsertWritesLessThanIncremental) {
  // Section 7.3.5: a large bulk costs fewer writes than one-by-one inserts.
  auto base = make_intervals(Pattern::kMixed, 5000, 53);
  auto batch = make_intervals(Pattern::kMixed, 5000, 55);
  for (auto& iv : batch) iv.id += 100000;
  uint64_t bulk_writes, incr_writes;
  {
    DynamicIntervalTree t(4);
    for (auto& iv : base) t.insert(iv);
    asym::Region r;
    ASSERT_TRUE(t.bulk_insert(batch).ok());
    bulk_writes = r.delta().writes;
  }
  {
    DynamicIntervalTree t(4);
    for (auto& iv : base) t.insert(iv);
    asym::Region r;
    for (auto& iv : batch) t.insert(iv);
    incr_writes = r.delta().writes;
  }
  EXPECT_LT(bulk_writes, incr_writes);
}

}  // namespace
}  // namespace weg::augtree
