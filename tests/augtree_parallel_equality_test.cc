// Parallel/serial equality for the augmented trees: every structure is built
// on fixed-seed inputs large enough to engage the parallel construction
// paths (n >> the ~2k sequential cutoff) and must answer a fixed query set
// identically to a serial brute-force oracle. The CMake registration reruns
// this suite at WEG_NUM_THREADS=1, 2 and 8, so a parallel build answering
// differently from a serial build fails one of the runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/augtree/priority_tree.h"
#include "src/augtree/range_tree.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg::augtree {
namespace {

constexpr size_t kN = 50000;  // several fork levels above the ~2k cutoff

std::vector<Interval> fixed_intervals(size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.next_double();
    ivs[i] = Interval{a, a + rng.next_double() * 0.05, uint32_t(i)};
  }
  return ivs;
}

std::vector<uint32_t> brute_stab(const std::vector<Interval>& ivs, double q) {
  std::vector<uint32_t> out;
  for (const Interval& iv : ivs) {
    if (iv.l <= q && q <= iv.r) out.push_back(iv.id);
  }
  return out;
}

std::vector<uint32_t> sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ParallelEquality, StaticIntervalTreesMatchBruteForce) {
  auto ivs = fixed_intervals(kN, 0xA11CE);
  auto classic = StaticIntervalTree::build_classic(ivs);
  auto postsorted = StaticIntervalTree::build_postsorted(ivs);
  ASSERT_TRUE(classic.validate(ivs));
  ASSERT_TRUE(postsorted.validate(ivs));
  primitives::Rng rng(0xBEEF);
  for (int t = 0; t < 64; ++t) {
    double q = rng.next_double();
    auto expect = sorted(brute_stab(ivs, q));
    EXPECT_EQ(sorted(classic.stab(q)), expect);
    EXPECT_EQ(sorted(postsorted.stab(q)), expect);
    EXPECT_EQ(classic.stab_count(q), expect.size());
    EXPECT_EQ(postsorted.stab_count(q), expect.size());
  }
}

TEST(ParallelEquality, DynamicIntervalTreeBulkMatchesBruteForce) {
  auto ivs = fixed_intervals(kN, 0xD1CE);
  DynamicIntervalTree t(4);
  // Empty-tree bulk build takes the balanced-build path.
  ASSERT_TRUE(t.bulk_insert(ivs).ok());
  ASSERT_TRUE(t.validate());
  primitives::Rng rng(0xF00D);
  for (int q = 0; q < 48; ++q) {
    double x = rng.next_double();
    auto expect = sorted(brute_stab(ivs, x));
    EXPECT_EQ(sorted(t.stab(x)), expect);
    EXPECT_EQ(t.stab_count(x), expect.size());
  }
}

std::vector<uint32_t> brute_range(const std::vector<PPoint>& pts, double xl,
                                  double xr, double yb, double yt) {
  std::vector<uint32_t> out;
  for (const PPoint& p : pts) {
    if (p.x >= xl && p.x <= xr && p.y >= yb && p.y <= yt) out.push_back(p.id);
  }
  return out;
}

TEST(ParallelEquality, RangeTreesMatchBruteForce) {
  auto pts = testing::random_ppoints(kN, 0x5EED);
  auto classic = StaticRangeTree::build(pts);
  auto alpha = AlphaRangeTree::build(pts, 4);
  ASSERT_TRUE(classic.validate());
  ASSERT_TRUE(alpha.validate());
  primitives::Rng rng(0xCAFE);
  for (int t = 0; t < 32; ++t) {
    double xl = rng.next_double(), yb = rng.next_double();
    double xr = xl + rng.next_double() * 0.2;
    double yt = yb + rng.next_double() * 0.2;
    auto expect = sorted(brute_range(pts, xl, xr, yb, yt));
    EXPECT_EQ(sorted(classic.query(xl, xr, yb, yt)), expect);
    EXPECT_EQ(sorted(alpha.query(xl, xr, yb, yt)), expect);
    EXPECT_EQ(classic.query_count(xl, xr, yb, yt), expect.size());
    EXPECT_EQ(alpha.query_count(xl, xr, yb, yt), expect.size());
  }
}

std::vector<uint32_t> brute_3sided(const std::vector<PPoint>& pts, double xl,
                                   double xr, double yb) {
  std::vector<uint32_t> out;
  for (const PPoint& p : pts) {
    if (p.x >= xl && p.x <= xr && p.y >= yb) out.push_back(p.id);
  }
  return out;
}

TEST(ParallelEquality, StaticPriorityTreesMatchBruteForce) {
  auto pts = testing::random_ppoints(kN, 0xFACE);
  auto classic = StaticPriorityTree::build_classic(pts);
  auto postsorted = StaticPriorityTree::build_postsorted(pts);
  ASSERT_TRUE(classic.validate());
  ASSERT_TRUE(postsorted.validate());
  primitives::Rng rng(0xB0BA);
  for (int t = 0; t < 32; ++t) {
    double xl = rng.next_double(), yb = 1.0 - rng.next_double() * 0.3;
    double xr = xl + rng.next_double() * 0.2;
    auto expect = sorted(brute_3sided(pts, xl, xr, yb));
    EXPECT_EQ(sorted(classic.query(xl, xr, yb)), expect);
    EXPECT_EQ(sorted(postsorted.query(xl, xr, yb)), expect);
    EXPECT_EQ(classic.query_count(xl, xr, yb), expect.size());
    EXPECT_EQ(postsorted.query_count(xl, xr, yb), expect.size());
  }
}

TEST(ParallelEquality, ConstructionCountsAreScheduleIndependent) {
  // Every construction executes the same set of counted accesses regardless
  // of schedule, so repeat builds must report bit-identical read/write
  // counts even when work stealing interleaves them differently (the p=8
  // rerun of this suite exercises exactly that).
  auto ivs = fixed_intervals(kN, 0xC0DE);
  StaticIntervalTree::Stats i1{}, i2{};
  StaticIntervalTree::build_postsorted(ivs, &i1);
  StaticIntervalTree::build_postsorted(ivs, &i2);
  EXPECT_EQ(i1.cost.reads, i2.cost.reads);
  EXPECT_EQ(i1.cost.writes, i2.cost.writes);

  auto pts = testing::random_ppoints(kN, 0xC0DE);
  StaticPriorityTree::Stats p1{}, p2{};
  StaticPriorityTree::build_classic(pts, &p1);
  StaticPriorityTree::build_classic(pts, &p2);
  EXPECT_EQ(p1.cost.reads, p2.cost.reads);
  EXPECT_EQ(p1.cost.writes, p2.cost.writes);

  asym::Counts r1, r2;
  StaticRangeTree::build(pts);  // warm: exclude counter-slot registration
  {
    asym::Region region;
    StaticRangeTree::build(pts);
    r1 = region.delta();
  }
  {
    asym::Region region;
    StaticRangeTree::build(pts);
    r2 = region.delta();
  }
  EXPECT_EQ(r1.reads, r2.reads);
  EXPECT_EQ(r1.writes, r2.writes);
}

TEST(ParallelEquality, BulkBuildCountsMatchSerialGolden) {
  // Golden counts captured from the serial (WEG_NUM_THREADS=1) code path.
  // The p>1 reruns of this suite take the parallel id-slice/cursor paths,
  // which must charge exactly the same reads and writes — this is the
  // cross-worker-count half of the count-determinism claim (the repeat-build
  // test below covers schedule independence at a fixed worker count).
  // If an algorithm's counting legitimately changes, recapture at p=1.
  auto ivs = fixed_intervals(20000, 0x60D);
  DynamicIntervalTree t(4);
  asym::Region region;
  ASSERT_TRUE(t.bulk_insert(ivs).ok());
  auto c = region.delta();
  // Recaptured for the sampling semisort: interval bulk builds sort their
  // endpoints through write-efficient incremental-sort rounds, whose large
  // rounds now take the sampled heavy/light plan (sample read pass + grouped
  // bucket writes). Verified bitwise-identical at p=1 and p=8 before pinning.
  // +20000 reads since the rebuild's ivs_ lookups are charged (one per
  // interval the final whole-tree rebuild reassigns).
  EXPECT_EQ(c.reads, 2676220u);
  EXPECT_EQ(c.writes, 810881u);

  // Same guard for the α range tree, whose build_balanced also keeps a
  // serial twin next to the shared parallel id-slice path.
  auto pts = testing::random_ppoints(20000, 0x60D);
  asym::Counts rc;
  AlphaRangeTree::build(pts, 4, &rc);
  // Recaptured for the sampling semisort (same incremental-sort shift as the
  // interval tree above); identical at p=1 and p=8.
  EXPECT_EQ(rc.reads, 2160280u);
  EXPECT_EQ(rc.writes, 589819u);
}

TEST(ParallelEquality, DynamicPriorityTreeRebuildsMatchBruteForce) {
  // Incremental inserts trigger weight-doubling rebuilds; the root rebuilds
  // past ~4k points take the parallel pre-grown-pool path.
  auto pts = testing::random_ppoints(20000, 0xD00D);
  DynamicPriorityTree t(4);
  for (const PPoint& p : pts) t.insert(p);
  ASSERT_TRUE(t.validate());
  EXPECT_GT(t.rebuilds(), 0u);
  primitives::Rng rng(0x1DEA);
  for (int q = 0; q < 32; ++q) {
    double xl = rng.next_double(), yb = 1.0 - rng.next_double() * 0.3;
    double xr = xl + rng.next_double() * 0.2;
    auto expect = sorted(brute_3sided(pts, xl, xr, yb));
    EXPECT_EQ(sorted(t.query(xl, xr, yb)), expect);
    EXPECT_EQ(t.query_count(xl, xr, yb), expect.size());
  }
}

// ---------------------------------------------------------------------------
// Update-path goldens: the α-labeled trees under single inserts and erases.
// ---------------------------------------------------------------------------

// What one fixed update sequence leaves behind: the asym counts of the
// updates, the rebuild count and shape, one tree-specific figure
// (critical_on_path_max for intervals, inner_entries for the range tree, 0
// for the priority tree) and an FNV-1a fingerprint of the sorted answers to
// a fixed query set.
struct UpdateGolden {
  uint64_t alpha;
  uint64_t reads, writes;
  size_t rebuilds, height, extra;
  uint64_t answers;
};

struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void add(uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((w >> (8 * b)) & 0xFF)) * 1099511628211ULL;
    }
  }
  void add_answer(const std::vector<uint32_t>& ids) {
    add(ids.size());
    for (uint32_t id : sorted(ids)) add(id);
  }
};

// Runs `ops` single updates against `t` drawn from `pool` in order: three in
// four insert the next unused record, the rest erase a random live one (the
// erase must succeed). Returns the live records.
template <typename Tree, typename Rec>
std::vector<Rec> run_updates(Tree& t, const std::vector<Rec>& pool, size_t ops,
                             uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Rec> alive;
  size_t next = 0;
  for (size_t op = 0; op < ops; ++op) {
    if (rng.next_bounded(4) < 3 || alive.empty()) {
      t.insert(pool[next]);
      alive.push_back(pool[next++]);
    } else {
      size_t i = rng.next_bounded(alive.size());
      EXPECT_TRUE(t.erase(alive[i]));
      alive[i] = alive.back();
      alive.pop_back();
    }
  }
  return alive;
}

// Enough updates that the trees pass several whole-tree rebuilds above the
// sequential cutoff (the parallel marking, filter and build paths run).
constexpr size_t kUpdateOps = 8000;

void expect_golden(const UpdateGolden& got, const UpdateGolden& want,
                   const char* tree) {
  SCOPED_TRACE(std::string(tree) + " alpha=" + std::to_string(want.alpha));
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.rebuilds, want.rebuilds);
  EXPECT_EQ(got.height, want.height);
  EXPECT_EQ(got.extra, want.extra);
  EXPECT_EQ(got.answers, want.answers);
}

TEST(ParallelEquality, IntervalUpdatePathsMatchGolden) {
  // Single inserts and erases, then a bulk_insert into the non-empty tree
  // and a bulk_erase of half the live intervals (a whole-tree compaction).
  // Captured from the tree's own α code before the three α-labeled trees
  // shared one skeleton; equal at p=1/2/8. Reads recaptured once when the
  // ivs_ lookups of rebuilds and erases became counted reads (+41184 at
  // α=2, +31775 at α=8; nothing else moved).
  const UpdateGolden kWant[] = {
      {2, 1480340, 783411, 3681, 13, 12, 2844270123325244603u},
      {8, 1326104, 561968, 3492, 13, 4, 5779050461974236794u},
  };
  for (const UpdateGolden& want : kWant) {
    auto pool = fixed_intervals(kUpdateOps, 0x1A7E + want.alpha);
    auto extra = testing::fixed_intervals(3000, 0xB01D, kUpdateOps);
    DynamicIntervalTree t(want.alpha);
    asym::Region region;
    auto alive = run_updates(t, pool, kUpdateOps, 0x0B5 + want.alpha);
    ASSERT_TRUE(t.bulk_insert(extra).ok());
    alive.insert(alive.end(), extra.begin(), extra.end());
    std::vector<Interval> gone, kept;
    for (size_t i = 0; i < alive.size(); ++i) {
      (i % 2 == 0 ? gone : kept).push_back(alive[i]);
    }
    auto erased = t.bulk_erase(gone);
    ASSERT_TRUE(erased.ok());
    EXPECT_EQ(erased.value(), gone.size());
    auto c = region.delta();
    ASSERT_TRUE(t.validate());
    EXPECT_EQ(t.size(), kept.size());
    Fnv f;
    primitives::Rng rng(0x57AB);
    for (int q = 0; q < 64; ++q) {
      double x = rng.next_double();
      auto got = t.stab(x);
      EXPECT_EQ(sorted(got), sorted(brute_stab(kept, x)));
      f.add_answer(got);
    }
    expect_golden({want.alpha, c.reads, c.writes, t.rebuilds(), t.height(),
                   t.critical_on_path_max(), f.h},
                  want, "interval");
  }
}

TEST(ParallelEquality, RangeUpdatePathsMatchGolden) {
  // Captured like the interval block above.
  const UpdateGolden kWant[] = {
      {2, 2087736, 1183075, 1931, 14, 41177, 8163965657013772196u},
      {8, 872787, 450305, 1751, 16, 14380, 2950692907923485537u},
  };
  for (const UpdateGolden& want : kWant) {
    auto pool = testing::random_ppoints(kUpdateOps, 0x2A7E + want.alpha);
    AlphaRangeTree t(want.alpha);
    asym::Region region;
    auto alive = run_updates(t, pool, kUpdateOps, 0x1B5 + want.alpha);
    auto c = region.delta();
    ASSERT_TRUE(t.validate());
    EXPECT_EQ(t.size(), alive.size());
    Fnv f;
    primitives::Rng rng(0x57AC);
    for (int q = 0; q < 32; ++q) {
      double xl = rng.next_double(), yb = rng.next_double();
      double xr = xl + rng.next_double() * 0.2;
      double yt = yb + rng.next_double() * 0.2;
      auto got = t.query(xl, xr, yb, yt);
      EXPECT_EQ(sorted(got), sorted(brute_range(alive, xl, xr, yb, yt)));
      f.add_answer(got);
    }
    expect_golden({want.alpha, c.reads, c.writes, t.rebuilds(), t.height(),
                   t.inner_entries(), f.h},
                  want, "range");
  }
}

TEST(ParallelEquality, PriorityUpdatePathsMatchGolden) {
  // Captured once subtree rebuilds kept dead points, before the shared
  // skeleton. Rebuilds that dropped them left the ancestors' weights high,
  // so doublings fired early: 793202/314079 reads/writes and 2113 rebuilds
  // at α=2, 626069/232602 and 1699 at α=8, with the same answers.
  // Recaptured at α=2 when the §7.3.2 exception began to unmark fresh roots
  // that hold a point (858894/337269 before; α=8 and the rebuilds, shape
  // and answers did not move).
  const UpdateGolden kWant[] = {
      {2, 858826, 334657, 2100, 15, 0, 644807457434223178u},
      {8, 670616, 246612, 1687, 17, 0, 2461409611222178998u},
  };
  for (const UpdateGolden& want : kWant) {
    auto pool = testing::random_ppoints(kUpdateOps, 0x3A7E + want.alpha);
    DynamicPriorityTree t(want.alpha);
    asym::Region region;
    auto alive = run_updates(t, pool, kUpdateOps, 0x2B5 + want.alpha);
    auto c = region.delta();
    ASSERT_TRUE(t.validate());
    EXPECT_EQ(t.size(), alive.size());
    Fnv f;
    primitives::Rng rng(0x57AD);
    for (int q = 0; q < 32; ++q) {
      double xl = rng.next_double(), yb = 1.0 - rng.next_double() * 0.3;
      double xr = xl + rng.next_double() * 0.2;
      auto got = t.query(xl, xr, yb);
      EXPECT_EQ(sorted(got), sorted(brute_3sided(alive, xl, xr, yb)));
      f.add_answer(got);
    }
    expect_golden({want.alpha, c.reads, c.writes, t.rebuilds(), t.height(), 0,
                   f.h},
                  want, "priority");
  }
}

}  // namespace
}  // namespace weg::augtree
