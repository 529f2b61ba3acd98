// The serving workload of the repository benchmark, the open-loop live
// harness that drives serve::Engine, the brute-force oracle that checks its
// replies, and the traced per-layer replay.
//
// A workload is a seeded data set plus a seeded request schedule. Live runs
// send the schedule through Engine::submit_* from one generator thread and
// observe completions from one completion thread; every latency is measured
// from the request's scheduled send time. The traced replay sends a prefix
// of the same schedule through Engine::run_trace, reconstructs its flushes,
// and replays them against a pair of parallel::Sharded replicas, timing and
// asym-counting every public call from the outside.
#pragma once

#include <array>
#include <bit>
#include <cstring>
#include <future>
#include <mutex>
#include <numbers>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/interval_tree.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "src/serve/engine.h"
#include "wegbench/bench_lib.h"

namespace wegbench {

using weg::Expected;
using weg::Status;
using weg::augtree::Interval;
using weg::geom::Point2;
using weg::kdtree::LogForest;
using weg::parallel::Routing;
using weg::parallel::Sharded;
using weg::primitives::Rng;
using weg::primitives::hash64;
using weg::serve::RequestKind;

// Each workload's data set (preloaded records, kNN cluster centers, build
// inputs) comes from this constant, and --seed drives only the request
// stream: arrival times, probes and fresh inserts. A seeded data set changes
// tree shapes and rebuild points from seed to seed, which doubled the
// run-to-run spread of update latency on a commit-heavy workload.
inline constexpr uint64_t kDataSeed = 0x5eed0da7aULL;

// --- brute-force references -----------------------------------------------

// The k nearest points to q (skipping those with alive[i] == 0) in the
// canonical (squared distance, coordinates) order every k-d kNN publishes.
inline std::vector<Point2> brute_knn(const std::vector<Point2>& pts,
                                     const std::vector<uint8_t>* alive,
                                     const Point2& q, size_t k) {
  auto before = [](const std::pair<double, Point2>& a,
                   const std::pair<double, Point2>& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second.coords < b.second.coords;
  };
  std::vector<std::pair<double, Point2>> best;  // sorted, at most k
  for (size_t i = 0; i < pts.size(); ++i) {
    if (alive != nullptr && !(*alive)[i]) continue;
    std::pair<double, Point2> c{weg::geom::squared_distance(pts[i], q), pts[i]};
    if (best.size() == k && !before(c, best.back())) continue;
    best.insert(std::upper_bound(best.begin(), best.end(), c, before), c);
    if (best.size() > k) best.pop_back();
  }
  std::vector<Point2> out;
  for (const auto& [d, p] : best) out.push_back(p);
  return out;
}

// The ids of every interval containing q, ascending.
inline std::vector<uint32_t> brute_stab(const std::vector<Interval>& ivs,
                                        double q) {
  std::vector<uint32_t> ids;
  for (const Interval& iv : ivs) {
    if (iv.contains(q)) ids.push_back(iv.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- workloads -------------------------------------------------------------

// serve_knn_readmostly: range-routed point-forest shards over clustered
// data, so the planner prunes most shards of every kNN probe and commits are
// cheap forest updates.
struct KnnWorkload {
  using Structure = LogForest<2>;
  using Record = Point2;
  using Query = Point2;
  using Item = Point2;
  static constexpr const char* kName = "serve_knn_readmostly";
  static constexpr const char* kCloneSpan = "kdtree.clone";
  static constexpr const char* kInsertSpan = "kdtree.bulk_insert";
  static constexpr const char* kEraseSpan = "kdtree.bulk_erase";
  static constexpr Routing kRouting = Routing::kRange;
  static constexpr size_t kFanout = 4;
  static constexpr size_t kPreload = size_t{1} << 18;
  static constexpr uint32_t kUpdateEvery = 64;
  static constexpr size_t kClusters = 64;
  static constexpr double kSigma = 0.01;
  static constexpr double kRatePerS = 12000;
  static constexpr double kQueryLimitMs = 10;
  static constexpr double kUpdateLimitMs = 20;
  static constexpr size_t kTraceEvents = 8192;

  KnnWorkload() {
    Rng rng(hash64(kDataSeed ^ 0xc1a57e25ULL));
    for (Point2& c : centers_) {
      c[0] = 0.05 + 0.9 * rng.next_double();
      c[1] = 0.05 + 0.9 * rng.next_double();
    }
  }

  Record make_record(Rng& rng, uint32_t /*id*/) const {
    return near_cluster(rng, kSigma);
  }
  // Probes fall near the clusters, a little wider than the data.
  Query probe(Rng& rng) const { return near_cluster(rng, 2 * kSigma); }

  // Brute-force reference: the k nearest live points in the (squared
  // distance, coordinates) order the sharded top-k merge publishes.
  class Oracle {
   public:
    void insert(const Record& p) {
      index_.emplace(p.coords, pts_.size());
      pts_.push_back(p);
      alive_.push_back(1);
    }
    void erase(const Record& p) {
      auto it = index_.find(p.coords);
      if (it == index_.end()) return;
      alive_[it->second] = 0;
      index_.erase(it);
    }
    std::vector<Item> answer(const Query& q, size_t k) const {
      return brute_knn(pts_, &alive_, q, k);
    }

   private:
    struct CoordHash {
      size_t operator()(const std::array<double, 2>& c) const {
        return hash64(std::bit_cast<uint64_t>(c[0]) ^
                      hash64(std::bit_cast<uint64_t>(c[1])));
      }
    };
    std::vector<Point2> pts_;
    std::vector<uint8_t> alive_;
    std::unordered_map<std::array<double, 2>, size_t, CoordHash> index_;
  };

 private:
  Point2 near_cluster(Rng& rng, double sigma) const {
    const Point2& c = centers_[rng.next_bounded(kClusters)];
    // Box-Muller: two independent normals from two uniforms.
    double u1 = 1.0 - rng.next_double(), u2 = rng.next_double();
    double rad = sigma * std::sqrt(-2.0 * std::log(u1));
    Point2 p;
    p[0] = c[0] + rad * std::cos(2 * std::numbers::pi * u2);
    p[1] = c[1] + rad * std::sin(2 * std::numbers::pi * u2);
    return p;
  }

  std::array<Point2, kClusters> centers_{};
};

// --- schedule --------------------------------------------------------------

template <typename W>
using EventT = weg::serve::TraceEvent<typename W::Structure>;
template <typename W>
using EngineT = weg::serve::Engine<typename W::Structure>;

template <typename W>
struct Schedule {
  std::vector<typename W::Record> preload;
  std::vector<EventT<W>> events;
};

// The data set and the seeded request schedule: `preload_n` records, then
// Poisson arrivals at `rate_per_s` over `duration_us`. Every kUpdateEvery-th
// request is an update, alternately inserting a record with a fresh id and
// erasing the oldest preloaded record not yet erased (acknowledged by the
// bulk load, so the erase always finds it); the rest are queries. A pure
// function of its arguments: data, arrival times and payloads come from
// three independent SplitMix64 streams, the first derived from kDataSeed
// and the other two from `seed`.
template <typename W>
Schedule<W> make_schedule(const W& w, uint64_t seed, size_t preload_n,
                          double rate_per_s, double duration_us) {
  Schedule<W> s;
  Rng data(hash64(kDataSeed ^ 0x9d1e0ULL));
  Rng payload(hash64(seed ^ 0x9a710adULL));
  s.preload.reserve(preload_n);
  for (size_t i = 0; i < preload_n; ++i) {
    s.preload.push_back(w.make_record(data, static_cast<uint32_t>(i)));
  }
  std::vector<double> at =
      poisson_arrivals(hash64(seed ^ 0xa7717a1ULL), rate_per_s, duration_us);
  s.events.resize(at.size());
  uint32_t next_id = static_cast<uint32_t>(preload_n);
  size_t erase_next = 0;
  uint64_t updates = 0;
  for (size_t i = 0; i < at.size(); ++i) {
    EventT<W>& ev = s.events[i];
    ev.at_us = static_cast<uint64_t>(at[i]);
    if (i % W::kUpdateEvery != W::kUpdateEvery - 1) {
      ev.kind = RequestKind::kQuery;
      ev.query = w.probe(payload);
    } else if (updates++ % 2 == 1 && erase_next < s.preload.size()) {
      ev.kind = RequestKind::kErase;
      ev.rec = s.preload[erase_next++];
    } else {
      ev.kind = RequestKind::kInsert;
      ev.rec = w.make_record(payload, next_id++);
    }
  }
  return s;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

// Replays the committed updates into a fresh oracle in version order and
// checks every sampled query reply against it at the reply's version.
// `updates` holds (version, trace index) for every acknowledged update.
template <typename W>
size_t check_with_oracle(
    const Schedule<W>& sch, size_t k,
    std::vector<std::pair<uint64_t, uint32_t>> updates,
    std::vector<std::tuple<uint64_t, uint32_t, std::vector<typename W::Item>>>
        sampled,
    std::string* error) {
  typename W::Oracle oracle;
  for (const auto& r : sch.preload) oracle.insert(r);
  std::sort(updates.begin(), updates.end());
  std::sort(sampled.begin(), sampled.end(),
            [](const auto& a, const auto& b) {
              return std::get<0>(a) < std::get<0>(b);
            });
  size_t u = 0, mismatches = 0;
  for (const auto& [version, idx, items] : sampled) {
    // An epoch applies its inserts, then its erases (Sharded::commit).
    while (u < updates.size() && updates[u].first <= version) {
      size_t e = u;
      while (e < updates.size() && updates[e].first == updates[u].first) ++e;
      for (size_t j = u; j < e; ++j) {
        const auto& ev = sch.events[updates[j].second];
        if (ev.kind == RequestKind::kInsert) oracle.insert(ev.rec);
      }
      for (size_t j = u; j < e; ++j) {
        const auto& ev = sch.events[updates[j].second];
        if (ev.kind == RequestKind::kErase) oracle.erase(ev.rec);
      }
      u = e;
    }
    if (!bitwise_equal(oracle.answer(sch.events[idx].query, k), items)) {
      if (mismatches++ == 0 && error != nullptr) {
        *error = "query " + std::to_string(idx) + " at version " +
                 std::to_string(version) + " disagrees with the oracle";
      }
    }
  }
  return mismatches;
}

// --- live open-loop run ----------------------------------------------------

struct LiveResult {
  uint64_t sent = 0;       // measured requests
  uint64_t completed = 0;  // measured requests that completed OK
  uint64_t failed = 0;     // measured requests rejected or failed
  uint64_t slo_met = 0;    // completed OK within the latency limit
  std::vector<double> query_ms, update_ms, lag_ms;
  weg::asym::Counts window_cost;
  double window_s = 0;
  weg::serve::Stats before, after;
  size_t oracle_checked = 0;
  size_t oracle_mismatches = 0;
  std::string error;
};

// Sleeps until t. No spinning: at tens of thousands of requests per second
// a spinning generator would take a core from the engine under test. The
// timer slack makes sends late in small bursts; latency is measured from
// the scheduled time, so the lateness is charged, and gen.lag_p99_ms
// reports it.
inline void wait_until(Clock::time_point t) {
  auto now = Clock::now();
  if (now < t) std::this_thread::sleep_for(t - now);
}

// Sends the schedule to a started engine: one generator thread submits each
// request at its scheduled time regardless of completions (open loop), and
// one completion thread timestamps each reply when its future becomes
// ready. Requests scheduled before `warmup_us` are sent and checked but not
// measured. Every `sample_every`-th query reply is kept for the oracle.
template <typename W>
LiveResult run_live(EngineT<W>& eng, const Schedule<W>& sch, size_t k,
                    double warmup_us, size_t sample_every) {
  using Item = typename W::Item;
  using QF = std::future<Expected<typename EngineT<W>::QueryReply>>;
  using UF = std::future<Expected<uint64_t>>;
  const auto& ev = sch.events;
  const size_t n = ev.size();
  std::vector<double> sent_us(n, 0), done_us(n, 0);
  std::vector<uint8_t> ok(n, 0);
  std::vector<uint64_t> version(n, 0);
  std::vector<std::tuple<uint64_t, uint32_t, std::vector<Item>>> sampled;

  size_t first_measured = n;
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<double>(ev[i].at_us) >= warmup_us) {
      first_measured = i;
      break;
    }
  }

  LiveResult res;
  std::mutex mu;
  std::vector<std::pair<uint32_t, QF>> q_inbox;
  std::vector<std::pair<uint32_t, UF>> u_inbox;
  bool gen_done = false;
  Clock::time_point window_start{};
  weg::asym::Counts cost0;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::thread gen([&] {
    for (size_t i = 0; i < n; ++i) {
      wait_until(t0 + std::chrono::microseconds(ev[i].at_us));
      if (i == first_measured) {
        window_start = Clock::now();
        cost0 = weg::asym::total();
        res.before = eng.stats();
      }
      sent_us[i] = us_since(t0);
      if (ev[i].kind == RequestKind::kQuery) {
        QF f = eng.submit_query(ev[i].query);
        std::lock_guard<std::mutex> lk(mu);
        q_inbox.emplace_back(static_cast<uint32_t>(i), std::move(f));
      } else {
        UF f = ev[i].kind == RequestKind::kInsert ? eng.submit_insert(ev[i].rec)
                                                  : eng.submit_erase(ev[i].rec);
        std::lock_guard<std::mutex> lk(mu);
        u_inbox.emplace_back(static_cast<uint32_t>(i), std::move(f));
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    gen_done = true;
  });

  std::thread completer([&] {
    std::vector<std::pair<uint32_t, QF>> pq;
    std::vector<std::pair<uint32_t, UF>> pu;
    auto ready = [](auto& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    };
    for (;;) {
      bool finished;
      {
        std::lock_guard<std::mutex> lk(mu);
        for (auto& x : q_inbox) pq.push_back(std::move(x));
        for (auto& x : u_inbox) pu.push_back(std::move(x));
        q_inbox.clear();
        u_inbox.clear();
        finished = gen_done;
      }
      bool progress = false;
      for (size_t j = 0; j < pq.size();) {
        if (!ready(pq[j].second)) {
          ++j;
          continue;
        }
        uint32_t i = pq[j].first;
        done_us[i] = us_since(t0);
        auto r = pq[j].second.get();
        ok[i] = r.ok();
        if (r.ok()) {
          version[i] = r.value().version;
          if (i % sample_every == 0) {
            sampled.emplace_back(r.value().version, i,
                                 std::move(r.value().items));
          }
        }
        pq[j] = std::move(pq.back());
        pq.pop_back();
        progress = true;
      }
      for (size_t j = 0; j < pu.size();) {
        if (!ready(pu[j].second)) {
          ++j;
          continue;
        }
        uint32_t i = pu[j].first;
        done_us[i] = us_since(t0);
        auto r = pu[j].second.get();
        ok[i] = r.ok();
        if (r.ok()) version[i] = r.value();
        pu[j] = std::move(pu.back());
        pu.pop_back();
        progress = true;
      }
      if (finished && pq.empty() && pu.empty()) break;
      if (progress) continue;
      // Block briefly on the oldest query (queries complete in batch
      // order), else on any update, so a completion wakes us promptly.
      if (!pq.empty()) {
        pq.front().second.wait_for(std::chrono::microseconds(200));
      } else if (!pu.empty()) {
        pu.front().second.wait_for(std::chrono::microseconds(200));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  gen.join();
  completer.join();
  res.window_cost = weg::asym::total() - cost0;
  res.after = eng.stats();
  if (first_measured < n) {
    res.window_s =
        std::chrono::duration<double>(Clock::now() - window_start).count();
  }

  std::vector<std::pair<uint64_t, uint32_t>> acked;
  for (size_t i = 0; i < n; ++i) {
    bool query = ev[i].kind == RequestKind::kQuery;
    if (!query && ok[i]) {
      acked.emplace_back(version[i], static_cast<uint32_t>(i));
    }
    if (i < first_measured) continue;
    ++res.sent;
    res.lag_ms.push_back((sent_us[i] - static_cast<double>(ev[i].at_us)) /
                         1000);
    if (!ok[i]) {
      ++res.failed;
      continue;
    }
    ++res.completed;
    double lat = (done_us[i] - static_cast<double>(ev[i].at_us)) / 1000;
    (query ? res.query_ms : res.update_ms).push_back(lat);
    if (lat <= (query ? W::kQueryLimitMs : W::kUpdateLimitMs)) ++res.slo_met;
  }
  res.oracle_checked = sampled.size();
  res.oracle_mismatches =
      check_with_oracle<W>(sch, k, std::move(acked), std::move(sampled),
                           &res.error);
  return res;
}

// --- traced replay ---------------------------------------------------------

// Per-layer results of one replay pass over the reconstructed flushes.
struct LayerStats {
  std::vector<double> query_batch_ms;
  std::vector<double> commit_ms, catchup_ms;
  std::vector<double> clone_ms, insert_ms, erase_ms;  // per epoch, all shards
  uint64_t queries = 0, updates = 0;
  weg::asym::Counts query_cost, commit_cost, clone_cost, insert_cost,
      erase_cost;
  uint64_t planner_queries = 0, planner_visits = 0;
  size_t query_batches = 0, epochs = 0;
  double core_ms = 0;  // wall time of the replayed Sharded calls alone
  std::string error;
};

template <typename W>
using ShardedT = Sharded<typename W::Structure>;

template <typename W>
std::unique_ptr<ShardedT<W>> loaded_replica(const Schedule<W>& sch) {
  auto rep = std::make_unique<ShardedT<W>>(W::kRouting, W::kFanout);
  Status s = rep->bulk_insert(sch.preload);
  if (!s.ok()) return nullptr;
  return rep;
}

// One pass of the replay. With `log` recording, every public call into the
// sharded layer gets a span and an asym count. With `detail` as well, the
// pass checks every result against run_trace, each epoch first re-runs
// every touched shard's clone + bulk_insert + bulk_erase on a standalone
// copy; core_ms excludes that extra work. A pass without `detail`
// makes only the sharded calls, with or without spans, which is what
// trace.overhead_frac compares.
template <typename W>
LayerStats replay_pass(const Schedule<W>& sch,
                       const std::vector<EventT<W>>& trace,
                       const std::vector<weg::serve::TraceOutcome<
                           typename W::Structure>>& outcomes,
                       const std::vector<Flush>& flushes,
                       const weg::serve::Config& cfg, SpanLog& log,
                       bool detail) {
  using Structure = typename W::Structure;
  using Record = typename W::Record;
  using Traits = weg::serve::ServeTraits<Structure>;
  const bool rec_on = log.on();
  LayerStats st;
  std::unique_ptr<ShardedT<W>> rep[2] = {loaded_replica(sch),
                                         loaded_replica(sch)};
  if (!rep[0] || !rep[1]) {
    st.error = "replica bulk load failed";
    return st;
  }
  size_t read = 0;
  double excluded_ms = 0;
  auto pass_start = Clock::now();
  for (size_t step = 0; step < flushes.size(); ++step) {
    const Flush& fl = flushes[step];
    if (!fl.epoch) {
      std::vector<typename W::Query> qs;
      qs.reserve(fl.members.size());
      for (uint32_t i : fl.members) qs.push_back(trace[i].query);
      int64_t sp = log.begin("sharded.query_batch", step);
      auto snap = rep[read]->snapshot();
      auto res = Traits::run(*snap, qs, cfg);
      Span s = log.end(sp);
      if (!rec_on) continue;
      st.query_batch_ms.push_back(s.ms());
      st.query_cost = st.query_cost + s.cost;
      st.queries += qs.size();
      ++st.query_batches;
      if (!detail) continue;
      auto check_start = Clock::now();
      if (!res.ok() || snap.version() != fl.version) {
        st.error = "query batch " + std::to_string(step) + " failed";
        return st;
      }
      for (size_t j = 0; j < fl.members.size(); ++j) {
        if (!bitwise_equal(res.result(j), outcomes[fl.members[j]].items)) {
          st.error = "replayed query " + std::to_string(fl.members[j]) +
                     " differs from run_trace";
          return st;
        }
      }
      excluded_ms += ms_since(check_start);
      continue;
    }

    std::vector<Record> ins, ers;
    for (uint32_t i : fl.members) {
      (trace[i].kind == RequestKind::kInsert ? ins : ers)
          .push_back(trace[i].rec);
    }
    ShardedT<W>& write = *rep[1 - read];
    if (detail) {
      auto split_start = Clock::now();
      double clone = 0, insert = 0, erase = 0;
      for (size_t sh = 0; sh < W::kFanout; ++sh) {
        std::vector<Record> si, se;
        for (const Record& r : ins) {
          if (write.shard_of(r) == sh) si.push_back(r);
        }
        for (const Record& r : ers) {
          if (write.shard_of(r) == sh) se.push_back(r);
        }
        if (si.empty() && se.empty()) continue;
        int64_t c = log.begin(W::kCloneSpan, step, static_cast<int>(sh));
        Structure copy(write.shard(sh));
        Span cs = log.end(c);
        clone += cs.ms();
        st.clone_cost = st.clone_cost + cs.cost;
        if (!si.empty()) {
          int64_t b = log.begin(W::kInsertSpan, step, static_cast<int>(sh));
          Status s = copy.bulk_insert(si);
          Span bs = log.end(b);
          insert += bs.ms();
          st.insert_cost = st.insert_cost + bs.cost;
          if (!s.ok()) st.error = "standalone bulk_insert: " + s.message();
        }
        if (!se.empty()) {
          int64_t e = log.begin(W::kEraseSpan, step, static_cast<int>(sh));
          Expected<size_t> r = copy.bulk_erase(se);
          Span es = log.end(e);
          erase += es.ms();
          st.erase_cost = st.erase_cost + es.cost;
          if (!r.ok() || r.value() != se.size()) {
            st.error = "standalone bulk_erase missed records";
          }
        }
      }
      st.clone_ms.push_back(clone);
      st.insert_ms.push_back(insert);
      st.erase_ms.push_back(erase);
      excluded_ms += ms_since(split_start);
    }
    int64_t cm = log.begin("sharded.commit", step);
    for (const Record& r : ins) write.stage_insert(r);
    for (const Record& r : ers) write.stage_erase(r);
    Expected<uint64_t> v = write.commit();
    Span cs = log.end(cm);
    read = 1 - read;
    ShardedT<W>& stale = *rep[1 - read];
    int64_t cu = log.begin("sharded.catchup", step);
    for (const Record& r : ins) stale.stage_insert(r);
    for (const Record& r : ers) stale.stage_erase(r);
    Expected<uint64_t> v2 = stale.commit();
    Span us = log.end(cu);
    if (!v.ok() || !v2.ok() || v.value() != fl.version ||
        v2.value() != fl.version) {
      st.error = "epoch " + std::to_string(fl.version) + " did not replay";
      return st;
    }
    if (rec_on) {
      st.commit_ms.push_back(cs.ms());
      st.catchup_ms.push_back(us.ms());
      st.commit_cost = st.commit_cost + cs.cost;
      st.updates += fl.members.size();
      ++st.epochs;
    }
  }
  st.core_ms = ms_since(pass_start) - excluded_ms;
  for (const auto& r : rep) {
    st.planner_queries += r->planner_queries();
    st.planner_visits += r->planner_shard_visits();
  }
  return st;
}

struct ReplayResult {
  LayerStats layers;
  double overhead_frac = 0;
  size_t flushes = 0;
  std::string error;
};

// The traced run: the first `n_events` requests of the schedule go through
// Engine::run_trace, whose logical clock fixes every batch and epoch
// boundary; those flushes are then replayed against fresh replica pairs:
// three times for the overhead estimate, then once recording spans and
// per-shard detail into `log`.
template <typename W>
ReplayResult traced_replay(const Schedule<W>& sch, size_t n_events,
                           const weg::serve::Config& cfg, SpanLog& log) {
  ReplayResult out;
  std::vector<EventT<W>> trace(
      sch.events.begin(),
      sch.events.begin() + static_cast<long>(std::min(n_events,
                                                      sch.events.size())));
  std::vector<weg::serve::TraceOutcome<typename W::Structure>> outcomes;
  {
    EngineT<W> eng(cfg, W::kRouting, W::kFanout);
    if (Status s = eng.bulk_load(sch.preload); !s.ok()) {
      out.error = "engine bulk load: " + s.message();
      return out;
    }
    outcomes = eng.run_trace(trace);
  }
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].status.ok()) {
      out.error = "run_trace request " + std::to_string(i) + " failed: " +
                  outcomes[i].status.message();
      return out;
    }
  }
  std::vector<Flush> flushes = reconstruct_flushes(outcomes, [&](size_t i) {
    return trace[i].kind != RequestKind::kQuery;
  });
  out.flushes = flushes.size();
  // Tracing overhead: a spans-only pass against the mean of bare passes
  // run before and after it, so neither side gets all the cold caches.
  SpanLog off(false, Clock::now());
  SpanLog discard(true, Clock::now());
  LayerStats bare1 = replay_pass<W>(sch, trace, outcomes, flushes, cfg, off,
                                    false);
  LayerStats spans = replay_pass<W>(sch, trace, outcomes, flushes, cfg,
                                    discard, false);
  LayerStats bare2 = replay_pass<W>(sch, trace, outcomes, flushes, cfg, off,
                                    false);
  out.layers = replay_pass<W>(sch, trace, outcomes, flushes, cfg, log, true);
  for (const LayerStats* p : {&bare1, &spans, &bare2, &out.layers}) {
    if (out.error.empty()) out.error = p->error;
  }
  double bare_ms = 0.5 * (bare1.core_ms + bare2.core_ms);
  if (bare_ms > 0) out.overhead_frac = spans.core_ms / bare_ms - 1.0;
  return out;
}

}  // namespace wegbench
