// The asynchronous serving engine (src/serve/engine.h) on top of the
// sharded epoch layer. Trace mode is the determinism anchor: a fixed
// request trace replayed with the injected logical clock must produce
// bitwise-identical admission decisions, batch boundaries, versions, and
// query results at every worker count (the CMake registration reruns the
// suite at WEG_NUM_THREADS=1/2/8, and the tsan-parallel preset runs it
// under TSan). The suite pins:
//   * fixed-trace determinism against a brute-force per-version oracle,
//   * deterministic admission rejection when the queue capacity is hit,
//   * size- and deadline-triggered flushes on the injected clock, and the
//     default work-conserving policy flushing each request at admission,
//   * per-request Status isolation (malformed records, duplicate ids, and
//     query_poison faults fail their own request, batch-mates succeed),
//   * ScopedFault(shard_apply): the engine retries, propagates the failure
//     to exactly the epoch's requests, and serves normally once disarmed,
//   * live-mode snapshot isolation: every concurrent query's reply matches
//     the brute-force oracle at exactly the version it reports, also across
//     range rebalances published between query batches, and under the
//     default Config with concurrent query and update producers,
//   * live mode with max_batch = 0 serves and stops (the value acts as 1),
//   * a range rebalance published by a replay through the commit
//     hand-shake, and the failure count of a submit to a stopped engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/core/status.h"
#include "src/geom/point.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/fault.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "src/serve/engine.h"

namespace weg {
namespace {

using augtree::DynamicIntervalTree;
using augtree::Interval;
using kdtree::LogForest;
using parallel::Routing;
using parallel::Sharded;
using serve::Config;
using serve::RequestKind;

using IntervalEngine = serve::Engine<DynamicIntervalTree>;
using Event = serve::TraceEvent<DynamicIntervalTree>;
using Outcome = serve::TraceOutcome<DynamicIntervalTree>;

std::vector<Interval> make_intervals(size_t n, uint64_t seed, double lo,
                                     double hi, double len, uint32_t id0) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = lo + rng.next_double() * (hi - lo);
    ivs[i] = Interval{a, a + rng.next_double() * len, id0 + uint32_t(i)};
  }
  return ivs;
}

std::vector<uint32_t> brute_stab(const std::vector<Interval>& live, double q) {
  std::vector<uint32_t> ids;
  for (const Interval& iv : live) {
    if (iv.contains(q)) ids.push_back(iv.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The k nearest live points to q in the canonical (distance, coordinates)
// order.
std::vector<geom::Point2> brute_knn(const std::vector<geom::Point2>& live,
                                    const geom::Point2& q, size_t k) {
  std::vector<std::pair<double, geom::Point2>> by_dist;
  for (const geom::Point2& p : live) {
    by_dist.emplace_back(geom::squared_distance(p, q), p);
  }
  k = std::min(k, by_dist.size());
  std::partial_sort(by_dist.begin(), by_dist.begin() + k, by_dist.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first < b.first;
                      return a.second.coords < b.second.coords;
                    });
  std::vector<geom::Point2> want;
  for (size_t j = 0; j < k; ++j) want.push_back(by_dist[j].second);
  return want;
}

Event q_at(uint64_t t, double q) {
  Event e;
  e.kind = RequestKind::kQuery;
  e.at_us = t;
  e.query = q;
  return e;
}
Event ins_at(uint64_t t, Interval iv) {
  Event e;
  e.kind = RequestKind::kInsert;
  e.at_us = t;
  e.rec = iv;
  return e;
}
Event ers_at(uint64_t t, Interval iv) {
  Event e;
  e.kind = RequestKind::kErase;
  e.at_us = t;
  e.rec = iv;
  return e;
}

// Replays the committed updates of a trace run to reconstruct the live set
// at each published version, then checks every query outcome against a
// brute-force stab of exactly the version it reports — the snapshot an
// engine query sees must be some whole epoch, never a partial apply.
void check_against_oracle(const std::vector<Event>& trace,
                          const std::vector<Outcome>& out,
                          const std::vector<Interval>& base) {
  std::map<uint64_t, std::vector<size_t>> by_version;  // version -> events
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != RequestKind::kQuery && out[i].status.ok()) {
      by_version[out[i].version].push_back(i);
    }
  }
  std::map<uint64_t, std::vector<Interval>> live_at;  // version -> live set
  std::vector<Interval> live = base;
  live_at[1] = live;  // bulk_load publishes version 1
  for (const auto& [ver, events] : by_version) {
    for (size_t i : events) {  // commit order: all inserts, then all erases
      if (trace[i].kind == RequestKind::kInsert) live.push_back(trace[i].rec);
    }
    for (size_t i : events) {
      if (trace[i].kind != RequestKind::kErase) continue;
      live.erase(std::remove(live.begin(), live.end(), trace[i].rec),
                 live.end());
    }
    live_at[ver] = live;
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != RequestKind::kQuery || !out[i].status.ok()) continue;
    auto it = live_at.find(out[i].version);
    ASSERT_NE(it, live_at.end())
        << "query " << i << " reports unknown version " << out[i].version;
    std::vector<uint32_t> got = out[i].items;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_stab(it->second, trace[i].query))
        << "query " << i << " at version " << out[i].version;
  }
}

// A mixed query/insert/erase trace with timestamps that exercise both size
// and deadline flush triggers. Pure function of the seed.
std::vector<Event> mixed_trace(const std::vector<Interval>& base,
                               uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Event> trace;
  uint64_t t = 0;
  uint32_t next_id = 10000;
  size_t next_erase = 0;
  for (size_t i = 0; i < 220; ++i) {
    t += 17 + rng.next_bounded(60);
    if (i % 5 == 4) {
      double a = rng.next_double();
      trace.push_back(ins_at(t, Interval{a, a + 0.03, next_id++}));
    } else if (i % 11 == 10 && next_erase + 7 < base.size()) {
      trace.push_back(ers_at(t, base[next_erase]));
      next_erase += 7;
    } else {
      trace.push_back(q_at(t, rng.next_double()));
    }
  }
  return trace;
}

TEST(ServingTrace, FixedTraceIsDeterministicAndMatchesOracle) {
  Config cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  cfg.max_delay_us = 300;
  const auto base = make_intervals(256, 1, 0.0, 1.0, 0.05, 0);
  const auto trace = mixed_trace(base, 7);

  auto run = [&] {
    IntervalEngine eng(cfg, Routing::kHash, 4);
    EXPECT_TRUE(eng.bulk_load(base).ok());
    auto out = eng.run_trace(trace);
    return std::make_pair(std::move(out), eng.stats());
  };
  auto [out1, st1] = run();
  auto [out2, st2] = run();

  ASSERT_EQ(out1.size(), trace.size());
  for (size_t i = 0; i < out1.size(); ++i) {
    EXPECT_EQ(out1[i].status.code(), out2[i].status.code()) << i;
    EXPECT_EQ(out1[i].items, out2[i].items) << i;
    EXPECT_EQ(out1[i].version, out2[i].version) << i;
    EXPECT_EQ(out1[i].completed_at_us, out2[i].completed_at_us) << i;
  }
  EXPECT_EQ(st1.query_batches, st2.query_batches);
  EXPECT_EQ(st1.size_flushes, st2.size_flushes);
  EXPECT_EQ(st1.deadline_flushes, st2.deadline_flushes);
  EXPECT_EQ(st1.epochs_committed, st2.epochs_committed);
  EXPECT_EQ(st1.batch_size_hist, st2.batch_size_hist);

  // The trace commits several epochs and never overruns the queue.
  EXPECT_GT(st1.epochs_committed, 2u);
  EXPECT_EQ(st1.queries_rejected, 0u);
  EXPECT_EQ(st1.updates_rejected, 0u);
  EXPECT_EQ(st1.requests_failed, 0u);
  for (const Outcome& o : out1) EXPECT_TRUE(o.status.ok());
  check_against_oracle(trace, out1, base);
}

TEST(ServingTrace, AdmissionRejectsDeterministicallyWhenQueueFull) {
  Config cfg;
  cfg.queue_capacity = 4;
  cfg.max_batch = 8;
  cfg.max_delay_us = 1000;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  ASSERT_TRUE(eng.bulk_load(make_intervals(64, 2, 0.0, 1.0, 0.1, 0)).ok());

  std::vector<Event> trace;
  for (int i = 0; i < 6; ++i) trace.push_back(q_at(0, 0.5));
  trace.push_back(q_at(2000, 0.25));
  auto out = eng.run_trace(trace);

  // Exactly the 5th and 6th submissions overflow the capacity-4 queue and
  // are rejected at their own admission time.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(out[i].status.ok()) << i;
    EXPECT_EQ(out[i].completed_at_us, 1000u) << i;  // deadline of t=0
  }
  for (size_t i : {size_t{4}, size_t{5}}) {
    EXPECT_EQ(out[i].status.code(), StatusCode::kResourceExhausted) << i;
    EXPECT_EQ(out[i].completed_at_us, 0u) << i;
    EXPECT_TRUE(out[i].items.empty()) << i;
  }
  // The t=2000 query drains at its own deadline after the trace ends.
  EXPECT_TRUE(out[6].status.ok());
  EXPECT_EQ(out[6].completed_at_us, 3000u);

  auto st = eng.stats();
  EXPECT_EQ(st.queries_admitted, 5u);
  EXPECT_EQ(st.queries_rejected, 2u);
  EXPECT_EQ(st.deadline_flushes, 1u);
  EXPECT_EQ(st.drain_flushes, 1u);
}

TEST(ServingTrace, SizeAndDeadlineTriggersOnInjectedClock) {
  Config cfg;
  cfg.queue_capacity = 100;
  cfg.max_batch = 4;
  cfg.max_delay_us = 500;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  ASSERT_TRUE(eng.bulk_load(make_intervals(64, 3, 0.0, 1.0, 0.1, 0)).ok());

  // 4 queries at t=0..3 hit max_batch and flush immediately at t=3; the
  // 3 queries at t=1000,1100,1200 flush when the oldest waiter's deadline
  // expires at t=1500 (the t=9000 event advances the clock past it).
  std::vector<Event> trace;
  for (uint64_t t = 0; t < 4; ++t) trace.push_back(q_at(t, 0.5));
  for (uint64_t t : {1000, 1100, 1200}) {
    trace.push_back(q_at(t, 0.5));
  }
  trace.push_back(q_at(9000, 0.5));
  auto out = eng.run_trace(trace);

  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].completed_at_us, 3u) << i;
  for (size_t i = 4; i < 7; ++i) EXPECT_EQ(out[i].completed_at_us, 1500u) << i;
  EXPECT_EQ(out[7].completed_at_us, 9500u);  // end-of-trace drain
  auto st = eng.stats();
  EXPECT_EQ(st.size_flushes, 1u);
  EXPECT_EQ(st.deadline_flushes, 1u);
  EXPECT_EQ(st.drain_flushes, 1u);
  // One batch of 4 (bit_width bucket 3) and two of 3 and 1 (buckets 2, 1).
  EXPECT_EQ(st.batch_size_hist[3], 1u);
  EXPECT_EQ(st.batch_size_hist[2], 1u);
  EXPECT_EQ(st.batch_size_hist[1], 1u);
}

// The shipped default is work-conserving. A replay's batches take no
// logical time, so the batcher is free at every admission: each request
// flushes at its own admission time, and every flush below max_batch counts
// as a deadline flush (the last one drains at the end of the trace).
TEST(ServingTrace, DefaultConfigFlushesAtAdmission) {
  const Config cfg;
  const auto base = make_intervals(256, 1, 0.0, 1.0, 0.05, 0);
  const auto trace = mixed_trace(base, 7);
  IntervalEngine eng(cfg, Routing::kRange, 4);
  ASSERT_TRUE(eng.bulk_load(base).ok());
  auto out = eng.run_trace(trace);

  ASSERT_EQ(out.size(), trace.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].status.ok()) << i << ": " << out[i].status.to_string();
    EXPECT_EQ(out[i].admitted_at_us, trace[i].at_us) << i;
    EXPECT_EQ(out[i].completed_at_us, out[i].admitted_at_us) << i;
  }
  auto st = eng.stats();
  EXPECT_EQ(st.size_flushes, 0u);
  EXPECT_EQ(st.drain_flushes, 1u);
  EXPECT_EQ(st.deadline_flushes + st.drain_flushes,
            st.query_batches + st.epochs_committed);
  EXPECT_EQ(st.batch_size_hist[1], trace.size());  // one request per flush
  EXPECT_GT(st.epochs_committed, 2u);
  check_against_oracle(trace, out, base);
}

TEST(ServingTrace, MalformedUpdatesFailAloneBatchMatesCommit) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Config cfg;
  cfg.max_batch = 16;
  cfg.max_delay_us = 100;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  const auto base = make_intervals(32, 4, 0.0, 1.0, 0.1, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());

  std::vector<Event> trace;
  trace.push_back(ins_at(0, Interval{0.1, 0.2, 1000}));   // good
  trace.push_back(ins_at(1, Interval{kNaN, 0.5, 1001}));  // NaN endpoint
  trace.push_back(ins_at(2, Interval{0.9, 0.1, 1002}));   // inverted
  trace.push_back(ins_at(3, Interval{0.3, 0.4, 1003}));   // good
  trace.push_back(ins_at(4, Interval{0.5, 0.6, 1003}));   // dup id in epoch
  trace.push_back(ers_at(5, base[0]));                    // good erase
  trace.push_back(q_at(500, 0.15));
  auto out = eng.run_trace(trace);

  EXPECT_TRUE(out[0].status.ok());
  EXPECT_EQ(out[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out[3].status.ok());
  EXPECT_EQ(out[4].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out[5].status.ok());
  // The good requests rode one epoch: same committed version for all three.
  EXPECT_EQ(out[0].version, 2u);
  EXPECT_EQ(out[3].version, 2u);
  EXPECT_EQ(out[5].version, 2u);
  EXPECT_EQ(eng.stats().requests_failed, 3u);
  check_against_oracle(trace, out, base);
}

TEST(ServingTrace, QueryPoisonFailsOnlyRequestsOnArmedShard) {
  Config cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  IntervalEngine eng(cfg, Routing::kRange, 4);
  // Short intervals across [0,100): under range routing the planner sends a
  // low stab to shard 0 and a high stab to the top shard only.
  const auto base = make_intervals(256, 5, 0.0, 100.0, 0.5, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());

  // Stab at actual record endpoints so the planner provably visits the
  // shard holding that record: the lowest left endpoint lives in shard 0
  // (the armed shard), the highest in the top shard, whose coverage stays
  // clear of shard 0's.
  auto by_l = [](const Interval& a, const Interval& b) { return a.l < b.l; };
  double lo_q = std::min_element(base.begin(), base.end(), by_l)->l;
  double hi_q = std::max_element(base.begin(), base.end(), by_l)->l;

  fault::ScopedFault poison("query_poison", 0, 0);  // exact pin: shard 0
  std::vector<Event> trace;
  trace.push_back(q_at(0, lo_q));  // routed to the armed shard
  trace.push_back(q_at(1, hi_q));  // routed clear of it
  trace.push_back(q_at(2, hi_q));
  auto out = eng.run_trace(trace);

  EXPECT_EQ(out[0].status.code(), StatusCode::kFaultInjected);
  EXPECT_TRUE(out[0].items.empty());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_TRUE(out[2].status.ok());
  std::vector<uint32_t> got = out[1].items;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, brute_stab(base, hi_q));
  EXPECT_EQ(eng.stats().requests_failed, 1u);
}

TEST(ServingTrace, ShardApplyFaultRetriesPropagatesAndRecovers) {
  Config cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.commit_retries = 2;
  IntervalEngine eng(cfg, Routing::kHash, 4);
  const auto base = make_intervals(64, 6, 0.0, 1.0, 0.1, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());

  {
    fault::ScopedFault fail("shard_apply", 0, 0);  // shard 0 always fails
    std::vector<Event> trace;
    trace.push_back(ins_at(0, Interval{0.1, 0.2, 2000}));
    trace.push_back(ins_at(1, Interval{0.3, 0.4, 2001}));
    trace.push_back(ins_at(2, Interval{0.5, 0.6, 2002}));
    auto out = eng.run_trace(trace);
    // All commit attempts trip: the epoch's requests carry the fault, the
    // engine rolls back and keeps serving epoch 1.
    for (const Outcome& o : out) {
      EXPECT_EQ(o.status.code(), StatusCode::kFaultInjected);
    }
    auto st = eng.stats();
    EXPECT_EQ(st.epochs_failed, 1u);
    EXPECT_EQ(st.commit_retries, uint64_t(cfg.commit_retries));
    EXPECT_EQ(eng.version(), 1u);
  }

  // Disarmed: the same engine commits the next epoch — not wedged.
  std::vector<Event> trace;
  trace.push_back(ins_at(0, Interval{0.1, 0.2, 2000}));
  trace.push_back(ins_at(1, Interval{0.3, 0.4, 2001}));
  trace.push_back(q_at(500, 0.15));
  auto out = eng.run_trace(trace);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_EQ(out[0].version, 2u);
  ASSERT_TRUE(out[2].status.ok());
  std::vector<uint32_t> got = out[2].items;
  std::sort(got.begin(), got.end());
  auto live = base;
  live.push_back(Interval{0.1, 0.2, 2000});
  live.push_back(Interval{0.3, 0.4, 2001});
  EXPECT_EQ(got, brute_stab(live, 0.15));
  EXPECT_EQ(eng.version(), 2u);
  EXPECT_EQ(eng.stats().epochs_committed, 1u);
}

// A kNN engine over the 2-d log forest: determinism between identical
// engines and membership of every reply in the correct epoch's live set.
TEST(ServingTrace, KnnEngineServesPointFamily) {
  using PointEngine = serve::Engine<LogForest<2>>;
  using PEvent = serve::TraceEvent<LogForest<2>>;
  Config cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.knn_k = 4;

  primitives::Rng rng(11);
  std::vector<geom::Point2> base(128);
  for (auto& p : base) p = {rng.next_double(), rng.next_double()};

  std::vector<PEvent> trace;
  for (int i = 0; i < 8; ++i) {  // one query batch against version 1
    PEvent e;
    e.kind = RequestKind::kQuery;
    e.at_us = uint64_t(i);
    e.query = {rng.next_double(), rng.next_double()};
    trace.push_back(e);
  }
  std::vector<geom::Point2> extra(8);
  for (size_t i = 0; i < extra.size(); ++i) {
    extra[i] = {rng.next_double(), rng.next_double()};
    PEvent e;
    e.kind = RequestKind::kInsert;
    e.at_us = 200 + i;
    e.rec = extra[i];
    trace.push_back(e);
  }
  PEvent last;
  last.kind = RequestKind::kQuery;
  last.at_us = 1000;
  last.query = {0.5, 0.5};
  trace.push_back(last);

  auto run = [&] {
    PointEngine eng(cfg, Routing::kHash, 2);
    EXPECT_TRUE(eng.bulk_load(base).ok());
    return eng.run_trace(trace);
  };
  auto out1 = run();
  auto out2 = run();
  ASSERT_EQ(out1.size(), out2.size());
  auto key = [](const geom::Point2& p) { return std::make_pair(p[0], p[1]); };
  std::set<std::pair<double, double>> in_base, in_all;
  for (const auto& p : base) in_base.insert(key(p));
  in_all = in_base;
  for (const auto& p : extra) in_all.insert(key(p));
  for (size_t i = 0; i < out1.size(); ++i) {
    EXPECT_EQ(out1[i].status.code(), out2[i].status.code()) << i;
    EXPECT_EQ(out1[i].version, out2[i].version) << i;
    ASSERT_EQ(out1[i].items.size(), out2[i].items.size()) << i;
    for (size_t j = 0; j < out1[i].items.size(); ++j) {
      EXPECT_EQ(key(out1[i].items[j]), key(out2[i].items[j])) << i;
    }
    if (trace[i].kind != RequestKind::kQuery || !out1[i].status.ok()) continue;
    EXPECT_EQ(out1[i].items.size(), cfg.knn_k) << i;
    const auto& members = out1[i].version == 1 ? in_base : in_all;
    for (const auto& p : out1[i].items) {
      EXPECT_TRUE(members.count(key(p))) << i;
    }
  }
  // The final query ran after the insert epoch committed.
  EXPECT_EQ(out1.back().version, 2u);
}

// Trace mode over a range-routed forest: a skewed insert trace overloads
// the top shard, so epochs are followed by range rebalances, which the
// replay prepares and publishes through the same commit hand-shake steps as
// live mode. No query batch runs beside a prepare, the replay is
// deterministic, and every kNN reply equals the brute-force answer over
// exactly the version it reports.
TEST(ServingTrace, RebalancePublishesThroughTheHandShake) {
  using PointEngine = serve::Engine<LogForest<2>>;
  using PEvent = serve::TraceEvent<LogForest<2>>;
  using geom::Point2;
  Config cfg;
  cfg.queue_capacity = 256;
  cfg.max_batch = 64;
  cfg.max_delay_us = 200;
  cfg.knn_k = 4;
  primitives::Rng rng(33);
  std::vector<Point2> base(512);
  for (auto& p : base) p = {rng.next_double(), rng.next_double()};

  // Every insert lands in the top shard's slab of the seeded partition.
  std::vector<PEvent> trace;
  for (uint64_t round = 0; round < 12; ++round) {
    for (uint64_t j = 0; j < 96; ++j) {
      PEvent e;
      e.kind = RequestKind::kInsert;
      e.at_us = round * 300 + j;
      e.rec = {0.97 + 0.02 * rng.next_double(), rng.next_double()};
      trace.push_back(e);
      if (j % 2 == 0) {
        e.kind = RequestKind::kQuery;
        e.query = {rng.next_double(), rng.next_double()};
        trace.push_back(e);
      }
    }
  }

  auto run = [&] {
    PointEngine eng(cfg, Routing::kRange, 4);
    EXPECT_TRUE(eng.bulk_load(base).ok());
    auto out = eng.run_trace(trace);
    EXPECT_GT(eng.snapshot()->rebalances(), 0u);
    EXPECT_EQ(eng.stats().overlap_batches, 0u);
    EXPECT_EQ(eng.stats().requests_failed, 0u);
    return out;
  };
  auto out1 = run();
  auto out2 = run();
  ASSERT_EQ(out1.size(), trace.size());
  ASSERT_EQ(out2.size(), trace.size());
  for (size_t i = 0; i < out1.size(); ++i) {
    ASSERT_TRUE(out1[i].status.ok()) << i << ": " << out1[i].status.to_string();
    EXPECT_EQ(out1[i].status.code(), out2[i].status.code()) << i;
    EXPECT_EQ(out1[i].items, out2[i].items) << i;
    EXPECT_EQ(out1[i].version, out2[i].version) << i;
    EXPECT_EQ(out1[i].completed_at_us, out2[i].completed_at_us) << i;
  }

  std::map<uint64_t, std::vector<Point2>> by_version;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind == RequestKind::kInsert) {
      by_version[out1[i].version].push_back(trace[i].rec);
    }
  }
  std::map<uint64_t, std::vector<Point2>> live_at;
  std::vector<Point2> live = base;
  live_at[1] = live;
  for (const auto& [ver, pts] : by_version) {
    live.insert(live.end(), pts.begin(), pts.end());
    live_at[ver] = live;
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != RequestKind::kQuery) continue;
    auto it = live_at.find(out1[i].version);
    ASSERT_NE(it, live_at.end()) << "unknown version " << out1[i].version;
    EXPECT_EQ(out1[i].items,
              brute_knn(it->second, trace[i].query, cfg.knn_k))
        << "query " << i << " at version " << out1[i].version;
  }
}

// Live mode: real producer/batcher/committer threads. Every query reply
// must match the brute-force oracle at exactly the version it reports —
// a query that observed a half-applied epoch or a torn flip would mismatch.
TEST(ServingLive, SnapshotIsolationUnderConcurrentCommits) {
  Config cfg;
  cfg.queue_capacity = 8192;
  cfg.max_batch = 64;
  cfg.max_delay_us = 200;
  IntervalEngine eng(cfg, Routing::kHash, 4);
  const auto base = make_intervals(512, 8, 0.0, 1.0, 0.05, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());
  eng.start();

  primitives::Rng rng(21);
  std::vector<std::pair<Interval, std::future<Expected<uint64_t>>>> updates;
  std::vector<std::pair<double, std::future<Expected<IntervalEngine::QueryReply>>>>
      queries;
  uint32_t next_id = 50000;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int j = 0; j < 64; ++j) {
      double a = rng.next_double();
      Interval iv{a, a + 0.03, next_id++};
      updates.emplace_back(iv, eng.submit_insert(iv));
    }
    for (int j = 0; j < 80; ++j) {
      double q = rng.next_double();
      queries.emplace_back(q, eng.submit_query(q));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  eng.stop();

  std::map<uint64_t, std::vector<Interval>> by_version;
  for (auto& [iv, fut] : updates) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_GT(r.value(), 1u);
    by_version[r.value()].push_back(iv);
  }
  std::map<uint64_t, std::vector<Interval>> live_at;
  std::vector<Interval> live = base;
  live_at[1] = live;
  for (auto& [ver, ivs] : by_version) {
    live.insert(live.end(), ivs.begin(), ivs.end());
    live_at[ver] = live;
  }
  size_t checked = 0;
  for (auto& [q, fut] : queries) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    auto it = live_at.find(r.value().version);
    ASSERT_NE(it, live_at.end()) << "unknown version " << r.value().version;
    std::vector<uint32_t> got = r.value().items;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_stab(it->second, q));
    ++checked;
  }
  EXPECT_EQ(checked, queries.size());
  auto st = eng.stats();
  EXPECT_EQ(st.epochs_committed, by_version.size());
  EXPECT_EQ(eng.version(), 1 + st.epochs_committed);
  EXPECT_EQ(st.requests_failed, 0u);
}

// Live mode over a range-routed forest: a skewed insert stream overloads
// one shard, so the committer prepares rebalances while query batches run
// and the batcher publishes them between batches. A rebalance migrates
// records without a new version, so every kNN reply must still equal the
// brute-force answer over exactly the version it reports.
TEST(ServingLive, RebalancePublishesWhileQueriesRun) {
  using PointEngine = serve::Engine<LogForest<2>>;
  using geom::Point2;
  Config cfg;
  cfg.queue_capacity = 8192;
  cfg.max_batch = 64;
  cfg.max_delay_us = 200;
  cfg.knn_k = 4;
  PointEngine eng(cfg, Routing::kRange, 4);
  primitives::Rng rng(31);
  std::vector<Point2> base(512);
  for (auto& p : base) p = {rng.next_double(), rng.next_double()};
  ASSERT_TRUE(eng.bulk_load(base).ok());
  eng.start();

  // Every insert lands in the top shard's slab of the seeded partition.
  std::vector<std::pair<Point2, std::future<Expected<uint64_t>>>> updates;
  std::vector<std::pair<Point2, std::future<Expected<PointEngine::QueryReply>>>>
      queries;
  for (int round = 0; round < 12; ++round) {
    for (int j = 0; j < 96; ++j) {
      Point2 p{0.97 + 0.02 * rng.next_double(), rng.next_double()};
      updates.emplace_back(p, eng.submit_insert(p));
    }
    for (int j = 0; j < 48; ++j) {
      Point2 q{rng.next_double(), rng.next_double()};
      queries.emplace_back(q, eng.submit_query(q));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  eng.stop();

  std::map<uint64_t, std::vector<Point2>> by_version;
  for (auto& [p, fut] : updates) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    by_version[r.value()].push_back(p);
  }
  std::map<uint64_t, std::vector<Point2>> live_at;
  std::vector<Point2> live = base;
  live_at[1] = live;
  for (auto& [ver, pts] : by_version) {
    live.insert(live.end(), pts.begin(), pts.end());
    live_at[ver] = live;
  }
  for (auto& [q, fut] : queries) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    auto it = live_at.find(r.value().version);
    ASSERT_NE(it, live_at.end()) << "unknown version " << r.value().version;
    EXPECT_EQ(r.value().items, brute_knn(it->second, q, cfg.knn_k))
        << "version " << r.value().version;
  }
  EXPECT_GT(eng.snapshot()->rebalances(), 0u);
  EXPECT_EQ(eng.size(), live.size());
  EXPECT_EQ(eng.stats().requests_failed, 0u);
}

// The shipped default in live mode: a range-routed forest engine on a
// default Config, fed by a query producer and an update producer at once.
// Batches form only from what arrives while the batcher is busy, and epochs
// from what arrives while the committer is; every kNN reply must equal the
// brute-force answer over exactly the version it reports.
TEST(ServingLive, DefaultConfigServesCorrectly) {
  using PointEngine = serve::Engine<LogForest<2>>;
  using geom::Point2;
  const Config cfg;
  PointEngine eng(cfg, Routing::kRange, 4);
  primitives::Rng rng(41);
  std::vector<Point2> base(1024);
  for (auto& p : base) p = {rng.next_double(), rng.next_double()};
  ASSERT_TRUE(eng.bulk_load(base).ok());
  eng.start();

  // Even updates insert a fresh point, odd ones erase a distinct base point.
  std::vector<std::pair<RequestKind, Point2>> sent;
  std::vector<std::future<Expected<uint64_t>>> acks;
  std::thread updater([&] {
    primitives::Rng urng(42);
    for (size_t i = 0; i < 400; ++i) {
      if (i % 2 == 0) {
        Point2 p{urng.next_double(), urng.next_double()};
        sent.emplace_back(RequestKind::kInsert, p);
        acks.push_back(eng.submit_insert(p));
      } else {
        sent.emplace_back(RequestKind::kErase, base[i / 2]);
        acks.push_back(eng.submit_erase(base[i / 2]));
      }
      if (i % 8 == 7) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  std::vector<std::pair<Point2, std::future<Expected<PointEngine::QueryReply>>>>
      queries;
  std::thread querier([&] {
    primitives::Rng qrng(43);
    for (int i = 0; i < 1500; ++i) {
      Point2 q{qrng.next_double(), qrng.next_double()};
      queries.emplace_back(q, eng.submit_query(q));
      if (i % 16 == 15) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  updater.join();
  querier.join();
  eng.stop();

  // Each epoch applies its inserts, then its erases.
  std::map<uint64_t, std::vector<size_t>> by_version;
  for (size_t i = 0; i < acks.size(); ++i) {
    auto r = acks[i].get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    by_version[r.value()].push_back(i);
  }
  std::map<uint64_t, std::vector<Point2>> live_at;
  std::vector<Point2> live = base;
  live_at[1] = live;
  for (const auto& [ver, idx] : by_version) {
    for (size_t i : idx) {
      if (sent[i].first == RequestKind::kInsert) live.push_back(sent[i].second);
    }
    for (size_t i : idx) {
      if (sent[i].first != RequestKind::kErase) continue;
      auto at = std::find(live.begin(), live.end(), sent[i].second);
      ASSERT_NE(at, live.end());
      live.erase(at);
    }
    live_at[ver] = live;
  }
  for (auto& [q, fut] : queries) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    auto it = live_at.find(r.value().version);
    ASSERT_NE(it, live_at.end()) << "unknown version " << r.value().version;
    EXPECT_EQ(r.value().items, brute_knn(it->second, q, cfg.knn_k))
        << "version " << r.value().version;
  }
  auto st = eng.stats();
  EXPECT_EQ(st.requests_failed, 0u);
  EXPECT_EQ(st.epochs_committed, by_version.size());
  EXPECT_EQ(eng.version(), 1 + st.epochs_committed);
  EXPECT_EQ(eng.size(), live.size());
  EXPECT_GT(st.deadline_flushes, 0u);
}

// max_batch = 0 acts as 1 in live mode too: the batcher drains and serves
// each request instead of draining nothing forever (stop() would never
// return).
TEST(ServingLive, ZeroMaxBatchServesAndStops) {
  Config cfg;
  cfg.max_batch = 0;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  const auto base = make_intervals(64, 12, 0.0, 1.0, 0.1, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());
  eng.start();
  const Interval iv{0.45, 0.55, 7777};
  auto ins = eng.submit_insert(iv);
  auto q = eng.submit_query(0.5);
  ASSERT_EQ(ins.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  ASSERT_EQ(q.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  auto u = ins.get();
  ASSERT_TRUE(u.ok()) << u.status().to_string();
  EXPECT_EQ(u.value(), 2u);
  auto r = q.get();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  std::vector<Interval> live = base;
  if (r.value().version == 2) live.push_back(iv);
  std::vector<uint32_t> got = r.value().items;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, brute_stab(live, 0.5));
  eng.stop();
  EXPECT_EQ(eng.stats().requests_failed, 0u);
}

// Concurrent producers from several threads (the TSan target for the
// admission queues and the batcher/committer hand-off), plus the
// stop/restart contract.
TEST(ServingLive, ConcurrentProducersAndRestart) {
  Config cfg;
  cfg.queue_capacity = 4096;
  cfg.max_batch = 32;
  cfg.max_delay_us = 150;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  ASSERT_TRUE(eng.bulk_load(make_intervals(128, 9, 0.0, 1.0, 0.1, 0)).ok());
  eng.start();

  constexpr int kThreads = 4;
  std::vector<std::vector<std::future<Expected<IntervalEngine::QueryReply>>>>
      qfuts(kThreads);
  std::vector<std::vector<std::future<Expected<uint64_t>>>> ufuts(kThreads);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      primitives::Rng rng(100 + uint64_t(t));
      for (int i = 0; i < 25; ++i) {
        qfuts[t].push_back(eng.submit_query(rng.next_double()));
        if (i % 3 == 0) {
          double a = rng.next_double();
          ufuts[t].push_back(eng.submit_insert(
              Interval{a, a + 0.05, uint32_t(90000 + t * 1000 + i)}));
        }
      }
    });
  }
  for (auto& th : producers) th.join();
  eng.stop();

  for (int t = 0; t < kThreads; ++t) {
    for (auto& f : qfuts[t]) {
      auto r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      EXPECT_GE(r.value().version, 1u);
    }
    for (auto& f : ufuts[t]) {
      auto r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().to_string();
    }
  }

  // Stopped: a submit completes immediately with FailedPrecondition and
  // counts as a failed request, like the requests stop() itself fails.
  const uint64_t failed = eng.stats().requests_failed;
  auto rejected = eng.submit_query(0.5).get();
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(eng.stats().requests_failed, failed + 1);

  // Restart serves again.
  eng.start();
  auto again = eng.submit_query(0.5).get();
  EXPECT_TRUE(again.ok()) << again.status().to_string();
  eng.stop();
}

// The sharded layer's snapshot handle: pins the published version and
// reports invalid the moment another epoch is published into the layer.
TEST(ShardedSnapshot, PinsVersionAndDetectsCommits) {
  Sharded<DynamicIntervalTree> layer(2);
  ASSERT_TRUE(layer.bulk_insert(make_intervals(32, 10, 0.0, 1.0, 0.1, 0)).ok());
  auto snap = layer.snapshot();
  EXPECT_TRUE(snap.valid());
  EXPECT_EQ(snap.version(), layer.version());
  EXPECT_EQ(snap->size(), layer.size());

  layer.stage_insert(Interval{0.1, 0.2, 500});
  EXPECT_TRUE(snap.valid());  // staging publishes nothing
  ASSERT_TRUE(layer.commit().ok());
  EXPECT_FALSE(snap.valid());  // the pinned epoch is gone

  parallel::ShardedSnapshot<DynamicIntervalTree> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.valid());
}

}  // namespace
}  // namespace weg
