// Pipelined serving demo: open-loop traffic through the asynchronous serving
// engine (src/serve/engine.h) over the sharded epoch layer.
//
// Earlier revisions of this example ran the serving loop synchronously —
// stage a write batch, answer queries, commit, repeat — so updates and reads
// took turns. The engine pipelines them: producers push requests into
// bounded admission queues and move on (open loop — the offered load does
// not wait for completions); a batcher thread flushes size- or
// deadline-triggered batches; query batches run on epoch N while a
// committer thread prepares epoch N+1 against the same shards, and the
// batcher publishes it between two query batches. Every request completes
// through its own std::future<weg::Expected<T>>, so one bad request fails
// alone.
//
// Three sections:
//   1. Live serving: `rounds` rounds of mixed traffic (fresh events in,
//      oldest events out, a fixed stabbing-query mix) submitted open-loop
//      from concurrent producers; per-round rows show completions, served
//      versions, and wall time, then the engine's own stats summarize
//      batching triggers and commit/query overlap.
//   2. Per-request isolation (deterministic trace replay): malformed
//      updates — non-finite endpoint, inverted interval, an id duplicated
//      within the epoch — are screened out and fail with their own
//      InvalidArgument Status while their well-formed batch-mates commit.
//   3. Fault retry (only when WEG_FAULT_INJECTION is on): an armed
//      shard_apply fault makes the epoch's commit fail after the engine's
//      retry budget; every request in the epoch reports the fault, the
//      served version never moves, and resubmitting after disarm succeeds.
//
// The routing argument picks the shard policy: "range" (default) gives the
// shard-pruning planner contiguous per-shard key ranges; "hash" spreads
// records uniformly, so overlapping shard bounds send most queries to
// every shard.
//
//   ./examples/sharded_server [events] [fanout] [rounds] [range|hash]
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "src/augtree/interval_tree.h"
#include "src/parallel/fault.h"
#include "src/serve/engine.h"
#include "src/primitives/random.h"

using namespace weg;
using augtree::DynamicIntervalTree;
using augtree::Interval;
using parallel::Routing;

using IntervalEngine = serve::Engine<DynamicIntervalTree>;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [events] [fanout] [rounds] [range|hash]\n"
               "  events >= 1, fanout in [1, 64], rounds >= 1\n",
               prog);
  return 2;
}

// Strict decimal parse: rejects empty strings, signs, trailing junk, and
// out-of-range values instead of silently truncating them to 0.
bool parse_size(const char* s, size_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 100000, fanout = 4, rounds = 6;
  if (argc > 1 && (!parse_size(argv[1], &n) || n == 0)) return usage(argv[0]);
  if (argc > 2 && (!parse_size(argv[2], &fanout) || fanout == 0 ||
                   fanout > 64)) {
    return usage(argv[0]);
  }
  if (argc > 3 && (!parse_size(argv[3], &rounds) || rounds == 0)) {
    return usage(argv[0]);
  }
  Routing routing = Routing::kRange;
  if (argc > 4) {
    if (std::strcmp(argv[4], "hash") == 0) {
      routing = Routing::kHash;
    } else if (std::strcmp(argv[4], "range") != 0) {
      return usage(argv[0]);
    }
  }
  primitives::Rng rng(2026);

  uint32_t next_id = 0;
  auto make_span = [&] {
    double t0 = rng.next_double() * 1000.0;
    return Interval{t0, t0 + rng.next_double() * 5.0, next_id++};
  };

  // Small batches and a short deadline so even the smoke-test input
  // (2000 events) exercises both flush triggers and the epoch pipeline.
  serve::Config cfg;
  cfg.max_batch = 128;
  cfg.max_delay_us = 300;
  IntervalEngine engine(cfg, routing, fanout, /*alpha=*/4);

  // Initial load: half the stream in one bulk epoch.
  std::vector<Interval> live;
  live.reserve(n);
  for (size_t i = 0; i < n / 2; ++i) live.push_back(make_span());
  if (Status s = engine.bulk_load(live); !s.ok()) {
    std::fprintf(stderr, "initial load failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("loaded %zu events into %zu %s-routed shards (version %llu)\n",
              live.size(), fanout,
              routing == Routing::kRange ? "range" : "hash",
              (unsigned long long)engine.version());

  // Fixed query mix, reused every round so the rows are comparable.
  std::vector<double> stabs(128);
  for (double& t : stabs) t = rng.next_double() * 1000.0;

  // --- 1. live open-loop serving ----------------------------------------
  engine.start();
  size_t batch = n / (2 * rounds) + 1;
  for (size_t round = 0; round < rounds; ++round) {
    auto t0 = std::chrono::steady_clock::now();

    // Updates: the oldest quarter of the live set out, `batch` fresh
    // events in. Submitted open-loop — futures are collected, not awaited,
    // until the whole round's traffic is in flight.
    std::vector<std::future<Expected<uint64_t>>> ups;
    size_t expire = live.size() / 4;
    for (size_t i = 0; i < expire; ++i) {
      ups.push_back(engine.submit_erase(live[i]));
    }
    std::vector<Interval> fresh;
    for (size_t i = 0; i < batch; ++i) {
      fresh.push_back(make_span());
      ups.push_back(engine.submit_insert(fresh.back()));
    }

    // Queries: two concurrent producers, half the mix each.
    std::vector<std::future<Expected<IntervalEngine::QueryReply>>> qfs(
        stabs.size());
    auto producer = [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) qfs[i] = engine.submit_query(stabs[i]);
    };
    std::thread qa(producer, 0, stabs.size() / 2);
    std::thread qb(producer, stabs.size() / 2, stabs.size());
    qa.join();
    qb.join();

    size_t ok_updates = 0, ok_queries = 0, failed = 0, items = 0;
    uint64_t vmin = ~uint64_t{0}, vmax = 0;
    for (auto& f : ups) {
      f.get().ok() ? ++ok_updates : ++failed;
    }
    for (auto& f : qfs) {
      auto r = f.get();
      if (!r.ok()) {
        ++failed;
        continue;
      }
      ++ok_queries;
      items += r.value().items.size();
      vmin = std::min(vmin, r.value().version);
      vmax = std::max(vmax, r.value().version);
    }
    live.erase(live.begin(), live.begin() + (long)expire);
    live.insert(live.end(), fresh.begin(), fresh.end());
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    std::printf("round %zu: +%zu/-%zu events, %zu ok updates, %zu ok queries "
                "(%zu hits, versions %llu..%llu), %zu failed, %.1f ms\n",
                round, batch, expire, ok_updates, ok_queries, items,
                (unsigned long long)vmin, (unsigned long long)vmax, failed,
                ms);
    if (failed != 0) {
      std::fprintf(stderr, "round %zu: unexpected failures\n", round);
      return 1;
    }
  }
  engine.stop();
  if (engine.size() != live.size()) {
    std::printf("SIZE MISMATCH: %zu vs %zu\n", live.size(), engine.size());
    return 1;
  }
  serve::Stats st = engine.stats();
  std::printf(
      "served %llu queries / %llu updates in %llu query batches + %llu "
      "epochs | flushes: %llu size, %llu deadline, %llu drain | overlap "
      "%.2f (version %llu)\n",
      (unsigned long long)st.queries_admitted,
      (unsigned long long)st.updates_admitted,
      (unsigned long long)st.query_batches,
      (unsigned long long)st.epochs_committed,
      (unsigned long long)st.size_flushes,
      (unsigned long long)st.deadline_flushes,
      (unsigned long long)st.drain_flushes, st.epoch_overlap_ratio(),
      (unsigned long long)engine.version());

  // --- 2. per-request isolation (deterministic trace replay) ------------
  {
    serve::Config tiny;
    tiny.max_batch = 16;
    tiny.max_delay_us = 100;
    IntervalEngine iso(tiny, Routing::kRange, 2, /*alpha=*/4);
    using Ev = IntervalEngine::Event;
    std::vector<Ev> trace;
    auto ins = [&](uint64_t at, Interval r) {
      trace.push_back(Ev{serve::RequestKind::kInsert, at, 0.0, r});
    };
    ins(0, Interval{1.0, 2.0, 900});
    ins(1, Interval{std::nan(""), 2.0, 901});  // non-finite endpoint
    ins(2, Interval{5.0, 3.0, 902});           // inverted interval
    ins(3, Interval{4.0, 6.0, 903});
    ins(4, Interval{7.0, 8.0, 903});           // id duplicated within epoch
    trace.push_back(Ev{serve::RequestKind::kQuery, 500, 1.5, Interval{}});
    auto out = iso.run_trace(trace);
    size_t rejected = 0;
    for (size_t i = 0; i < 5; ++i) {
      if (out[i].status.code() == StatusCode::kInvalidArgument) ++rejected;
    }
    if (rejected != 3 || !out[0].status.ok() || !out[3].status.ok() ||
        !out[5].status.ok() || out[5].items.size() != 1) {
      std::fprintf(stderr, "isolation demo: contract violated\n");
      return 1;
    }
    std::printf("isolation demo: 3 malformed updates failed alone "
                "[e.g. %s], 2 batch-mates committed version %llu, query "
                "served %zu hit at version %llu\n",
                out[1].status.to_string().c_str(),
                (unsigned long long)out[0].version, out[5].items.size(),
                (unsigned long long)out[5].version);
  }

#if WEG_FAULT_INJECTION
  // --- 3. fault retry: a failed epoch fails its requests, not the engine.
  // Armed shard_apply on shard 0: the commit fails after the engine's retry
  // budget, every request in the epoch carries the fault Status, and the
  // served version does not move. Disarming and resubmitting the identical
  // records commits them — the failed epoch left nothing staged behind.
  if (!fault::armed()) {
    engine.start();
    std::vector<Interval> retry;
    // One span below every existing left endpoint pins part of the batch
    // to shard 0, the armed shard, under range routing.
    retry.push_back(Interval{-1.0, 0.5, next_id++});
    for (size_t i = 0; i < 31; ++i) retry.push_back(make_span());
    uint64_t v0 = engine.version();
    size_t faulted = 0;
    {
      fault::ScopedFault guard("shard_apply", /*seed=*/0, /*nth=*/0);
      std::vector<std::future<Expected<uint64_t>>> fs;
      for (const Interval& r : retry) fs.push_back(engine.submit_insert(r));
      for (auto& f : fs) {
        if (f.get().status().code() == StatusCode::kFaultInjected) ++faulted;
      }
    }
    if (faulted == retry.size()) {
      std::vector<std::future<Expected<uint64_t>>> fs;
      for (const Interval& r : retry) fs.push_back(engine.submit_insert(r));
      uint64_t committed = 0;
      for (auto& f : fs) {
        auto r = f.get();
        if (!r.ok()) {
          std::fprintf(stderr, "fault demo: retry after disarm failed\n");
          return 1;
        }
        committed = r.value();
      }
      engine.stop();
      serve::Stats fst = engine.stats();
      if (committed <= v0 ||
          fst.commit_retries < (uint64_t)cfg.commit_retries) {
        std::fprintf(stderr, "fault demo: contract violated\n");
        return 1;
      }
      for (const Interval& r : retry) live.push_back(r);
      std::printf("fault demo: epoch failed after %llu commit retries "
                  "(version held at %llu), disarmed resubmit committed "
                  "version %llu (+%zu events)\n",
                  (unsigned long long)fst.commit_retries,
                  (unsigned long long)v0, (unsigned long long)committed,
                  retry.size());
    } else {
      // Hash routing can keep the whole batch off the armed shard; the
      // demo only asserts the contract when the fault actually fired.
      engine.stop();
      std::printf("fault demo: batch missed the armed shard "
                  "(%zu/%zu faulted), skipping retry leg\n",
                  faulted, retry.size());
    }
  }
#endif

  std::printf("final version %llu across %zu shards, %zu live events\n",
              (unsigned long long)engine.version(), fanout, live.size());
  return 0;
}
