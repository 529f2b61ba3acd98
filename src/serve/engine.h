// Asynchronous pipelined serving engine over the sharded epoch layer.
//
// The synchronous loop in examples/sharded_server.cpp (stage -> commit ->
// query) serializes updates against reads. This engine pipelines them:
//
//   producers --try_push--> [bounded MPSC queues]      (admission control)
//                               |
//                           batcher thread             (size/deadline flush)
//                   query batches     |  epoch hand-off
//                   on replica[read]  |  to committer thread
//                           |         |         |
//                     double-buffered Sharded replicas
//
// Double-buffered epochs: the engine owns TWO identical Sharded replicas.
// Queries always run against replica[read] — an immutable epoch-N snapshot —
// while the committer applies epoch N+1 (validation + prepare-then-apply,
// plain Sharded::commit()) to the other replica. When the commit lands, the
// batcher flips `read` between query batches, completes the epoch's update
// requests, and the committer replays the same delta into the now-stale twin
// so both replicas publish the same version sequence. Commit and read touch
// disjoint replicas at all times, so the only synchronization is the queue
// hand-off plus one small mutex around the commit phase transitions.
//
// Per-request failure isolation: each request completes with its own
// weg::Expected<T>. Malformed update records (non-finite coordinates,
// inverted intervals, ids duplicated within the forming epoch) are screened
// at admission-to-epoch time and fail only their own request; a poisoned
// query batch (fault injection) falls back to per-query re-execution so only
// the requests whose own sub-batch trips the fault see its Status. Structure-
// level rejects the engine cannot pre-screen (an id already live in a shard)
// still fail the whole epoch after cfg.commit_retries attempts — a
// documented limitation (docs/SERVING.md).
//
// Determinism contract: run_trace() replays a fixed request trace with a
// logical (injected) clock, single-threaded on the caller — admission
// decisions, batch boundaries, versions, and query results are a pure
// function of (trace, config), bitwise-identical at every WEG_NUM_THREADS.
// Live mode (start()/submit_*) uses the same flush logic against the wall
// clock: deadlines then affect batching boundaries, never results.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/status.h"
#include "src/parallel/sharded.h"
#include "src/serve/bounded_queue.h"

namespace weg::serve {

// Tuning knobs. docs/SERVING.md discusses the trade-offs.
struct Config {
  size_t queue_capacity = 4096;  // per admission queue (queries, updates)
  size_t max_batch = 256;        // size-triggered flush threshold
  uint64_t max_delay_us = 500;   // deadline flush: oldest waiter's max wait
  size_t knn_k = 8;              // k served by point engines' kNN family
  int commit_retries = 2;        // extra commit attempts before propagating
};

// The query family one engine serves per structure: Query in, a slice of
// Items out, executed through the sharded layer's batch API.
template <typename Structure>
struct ServeTraits;

template <>
struct ServeTraits<augtree::DynamicIntervalTree> {
  using Query = double;    // 1D stabbing query
  using Item = uint32_t;   // ids of stabbed intervals
  static parallel::BatchResult<Item> run(
      const parallel::Sharded<augtree::DynamicIntervalTree>& layer,
      const std::vector<Query>& qs, const Config&) {
    return layer.stab_batch(qs);
  }
};

template <int K>
struct ServeTraits<kdtree::LogForest<K>> {
  using Query = geom::PointK<K>;  // kNN probe point
  using Item = geom::PointK<K>;
  static parallel::BatchResult<Item> run(
      const parallel::Sharded<kdtree::LogForest<K>>& layer,
      const std::vector<Query>& qs, const Config& cfg) {
    return layer.knn_batch(qs, cfg.knn_k);
  }
};

// A completed query: the result slice plus the epoch it was served at.
template <typename Item>
struct QueryReplyT {
  std::vector<Item> items;
  uint64_t version = 0;
};

enum class RequestKind : uint8_t { kQuery, kInsert, kErase };

// One event of a deterministic replay trace: at logical time `at_us`, a
// producer submits a query or an update.
template <typename Structure>
struct TraceEvent {
  RequestKind kind = RequestKind::kQuery;
  uint64_t at_us = 0;
  typename ServeTraits<Structure>::Query query{};
  typename parallel::Sharded<Structure>::Record rec{};
};

// Per-request completion of a trace replay. `status` is the request's own
// outcome (admission reject, validation reject, commit/query failure);
// `version` is the snapshot a query ran against or the epoch an update
// committed at; `completed_at_us` is the logical flush time (== the event
// time for admission rejects).
template <typename Structure>
struct TraceOutcome {
  Status status = Status::Ok();
  std::vector<typename ServeTraits<Structure>::Item> items;
  uint64_t version = 0;
  uint64_t admitted_at_us = 0;
  uint64_t completed_at_us = 0;
};

// Engine statistics. Plain-value snapshot; collected with stats().
struct Stats {
  uint64_t queries_admitted = 0;
  uint64_t queries_rejected = 0;  // admission-queue full
  uint64_t updates_admitted = 0;
  uint64_t updates_rejected = 0;
  uint64_t requests_failed = 0;  // completed with a non-OK Status
  uint64_t query_batches = 0;
  uint64_t size_flushes = 0;      // batch reached max_batch
  uint64_t deadline_flushes = 0;  // oldest waiter reached max_delay_us
  uint64_t drain_flushes = 0;     // shutdown / trace-end drain
  uint64_t epochs_committed = 0;
  uint64_t epochs_failed = 0;
  uint64_t commit_retries = 0;
  uint64_t catchup_abandoned = 0;
  // Query batches that ran while a commit was in flight on the twin
  // replica — the pipeline-overlap evidence the bench reports.
  uint64_t overlap_batches = 0;
  // Bucket b counts flushed batches with bit_width(size) == b (size 1 ->
  // bucket 1, 2-3 -> 2, 4-7 -> 3, ...).
  std::array<uint64_t, 20> batch_size_hist{};

  double epoch_overlap_ratio() const {
    return query_batches == 0
               ? 0.0
               : static_cast<double>(overlap_batches) /
                     static_cast<double>(query_batches);
  }
};

// The serving engine. One instance serves one Structure family; see
// ServeTraits for the query each family answers. Control calls (start,
// stop, bulk_load, run_trace) must come from one thread; submit_* may be
// called from any number of producer threads while running.
template <typename Structure>
class Engine {
 public:
  using Traits = ServeTraits<Structure>;
  using Record = typename parallel::Sharded<Structure>::Record;
  using Query = typename Traits::Query;
  using Item = typename Traits::Item;
  using QueryReply = QueryReplyT<Item>;
  using Event = TraceEvent<Structure>;
  using Outcome = TraceOutcome<Structure>;

  template <typename... Args>
  Engine(const Config& cfg, parallel::Routing routing, size_t fanout,
         const Args&... args)
      : cfg_(cfg),
        query_q_(cfg.queue_capacity),
        update_q_(cfg.queue_capacity),
        start_tp_(std::chrono::steady_clock::now()) {
    // Sharded is pinned in place (atomics inside), so the twin replicas
    // live behind unique_ptrs. Identical construction + identical delta
    // sequence keeps their version counters in lockstep.
    rep_[0] = std::make_unique<parallel::Sharded<Structure>>(routing, fanout,
                                                             args...);
    rep_[1] = std::make_unique<parallel::Sharded<Structure>>(routing, fanout,
                                                             args...);
  }
  template <typename... Args>
  Engine(const Config& cfg, size_t fanout, const Args&... args)
      : Engine(cfg, parallel::Routing::kHash, fanout, args...) {}

  ~Engine() { stop(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Initial data load, applied identically to both replicas. Engine must
  // be stopped.
  Status bulk_load(const std::vector<Record>& recs) {
    assert(!running_);
    for (auto& rep : rep_) {
      if (Status s = rep->bulk_insert(recs); !s.ok()) return s;
    }
    return Status::Ok();
  }

  // --- live mode --------------------------------------------------------

  // Spawns the batcher + committer threads (two scheduler-external root
  // threads, see src/parallel/scheduler.h). No-op if already running or
  // after an abandoned catch-up left the replicas diverged (degraded()).
  void start() {
    if (running_ || degraded_) return;
    stop_requested_.store(false, std::memory_order_release);
    accepting_.store(true, std::memory_order_release);
    batcher_ = std::thread([this] { batcher_loop(); });
    committer_ = std::thread([this] { committer_loop(); });
    running_ = true;
  }

  // Drains both queues, flushes the forming batches, completes every
  // in-flight request, finishes (or abandons, see degraded()) the replica
  // catch-up, and joins both threads. Idempotent.
  void stop() {
    if (!running_) return;
    accepting_.store(false, std::memory_order_release);
    stop_requested_.store(true, std::memory_order_release);
    poke();
    batcher_.join();  // signals committer exit after the final epoch
    committer_.join();
    running_ = false;
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      committer_exit_ = false;  // allow a restart
    }
    // A producer racing stop() may have slipped a request in after the
    // batcher's final drain; fail it rather than leave its future hanging.
    std::vector<PendingQuery> leftq;
    query_q_.drain_into(leftq, ~size_t{0});
    for (PendingQuery& r : leftq) {
      r.done.set_value(Expected<QueryReply>(
          Status::FailedPrecondition("serving engine stopped")));
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<PendingUpdate> leftu;
    update_q_.drain_into(leftu, ~size_t{0});
    for (PendingUpdate& r : leftu) {
      r.done.set_value(Expected<uint64_t>(
          Status::FailedPrecondition("serving engine stopped")));
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool running() const { return running_; }
  // True after a shutdown had to abandon a replica catch-up: the twins'
  // versions diverged, so the engine refuses to restart. Only reachable
  // while a persistent injected fault is armed across stop().
  bool degraded() const { return degraded_; }

  std::future<Expected<QueryReply>> submit_query(const Query& q) {
    PendingQuery r;
    r.query = q;
    r.admitted_us = now_us();
    auto fut = r.done.get_future();
    if (!accepting_.load(std::memory_order_acquire)) {
      r.done.set_value(Expected<QueryReply>(
          Status::FailedPrecondition("serving engine is not running")));
      return fut;
    }
    if (!query_q_.try_push(r)) {
      queries_rejected_.fetch_add(1, std::memory_order_relaxed);
      r.done.set_value(Expected<QueryReply>(
          Status::ResourceExhausted("query admission queue full")));
      return fut;
    }
    queries_admitted_.fetch_add(1, std::memory_order_relaxed);
    poke();
    return fut;
  }

  std::future<Expected<uint64_t>> submit_insert(const Record& rec) {
    return submit_update(RequestKind::kInsert, rec);
  }
  std::future<Expected<uint64_t>> submit_erase(const Record& rec) {
    return submit_update(RequestKind::kErase, rec);
  }

  // --- trace mode -------------------------------------------------------

  // Deterministic replay: processes `trace` (non-decreasing at_us) inline
  // on the calling thread with the trace's logical clock — before admitting
  // the event at time T, every flush whose deadline falls at or before T
  // fires in deadline order (queries before updates on ties). Admission
  // rejects when the pending batch already holds queue_capacity requests.
  // The result is a pure function of (trace, config): bitwise-identical at
  // every worker count. Engine must be stopped.
  std::vector<Outcome> run_trace(const std::vector<Event>& trace) {
    assert(!running_);
    std::vector<Outcome> out(trace.size());
    std::vector<TraceReq> pq, pu;
    constexpr uint64_t kNever = ~uint64_t{0};
    auto deadline = [&](const std::vector<TraceReq>& pend) {
      return pend.empty() ? kNever : pend.front().at + cfg_.max_delay_us;
    };

    uint64_t prev_at = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
      const Event& ev = trace[i];
      assert(ev.at_us >= prev_at && "trace timestamps must be sorted");
      prev_at = ev.at_us;
      (void)prev_at;
      out[i].admitted_at_us = ev.at_us;
      for (;;) {  // fire every deadline due by now, chronologically
        uint64_t dq = deadline(pq), du = deadline(pu);
        if (std::min(dq, du) > ev.at_us) break;
        if (dq <= du) {
          trace_flush_queries(pq, out, dq, &deadline_flushes_);
        } else {
          trace_flush_updates(pu, out, du, &deadline_flushes_);
        }
      }
      std::vector<TraceReq>& pend = ev.kind == RequestKind::kQuery ? pq : pu;
      if (pend.size() >= cfg_.queue_capacity) {
        out[i].status = Status::ResourceExhausted(
            ev.kind == RequestKind::kQuery ? "query admission queue full"
                                           : "update admission queue full");
        out[i].completed_at_us = ev.at_us;
        auto& ctr = ev.kind == RequestKind::kQuery ? queries_rejected_
                                                   : updates_rejected_;
        ctr.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      pend.push_back(TraceReq{ev.kind, ev.at_us, i, ev.query, ev.rec});
      auto& ctr = ev.kind == RequestKind::kQuery ? queries_admitted_
                                                 : updates_admitted_;
      ctr.fetch_add(1, std::memory_order_relaxed);
      if (ev.kind == RequestKind::kQuery) {
        if (pq.size() >= cfg_.max_batch) {
          trace_flush_queries(pq, out, ev.at_us, &size_flushes_);
        }
      } else if (pu.size() >= cfg_.max_batch) {
        trace_flush_updates(pu, out, ev.at_us, &size_flushes_);
      }
    }
    while (!pq.empty() || !pu.empty()) {  // end-of-trace drain
      uint64_t dq = deadline(pq), du = deadline(pu);
      if (dq <= du) {
        trace_flush_queries(pq, out, dq, &drain_flushes_);
      } else {
        trace_flush_updates(pu, out, du, &drain_flushes_);
      }
    }
    return out;
  }

  // --- introspection ----------------------------------------------------

  // Stable only while the engine is stopped or between epochs; live-mode
  // callers race the batcher's flip and should go through submit_query.
  parallel::ShardedSnapshot<Structure> snapshot() const {
    return rep_[read_idx()]->snapshot();
  }
  uint64_t version() const { return rep_[read_idx()]->version(); }
  size_t size() const { return rep_[read_idx()]->size(); }

  Stats stats() const {
    Stats s;
    auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    s.queries_admitted = ld(queries_admitted_);
    s.queries_rejected = ld(queries_rejected_);
    s.updates_admitted = ld(updates_admitted_);
    s.updates_rejected = ld(updates_rejected_);
    s.requests_failed = ld(requests_failed_);
    s.query_batches = ld(query_batches_);
    s.size_flushes = ld(size_flushes_);
    s.deadline_flushes = ld(deadline_flushes_);
    s.drain_flushes = ld(drain_flushes_);
    s.epochs_committed = ld(epochs_committed_);
    s.epochs_failed = ld(epochs_failed_);
    s.commit_retries = ld(commit_retries_);
    s.catchup_abandoned = ld(catchup_abandoned_);
    s.overlap_batches = ld(overlap_batches_);
    for (size_t b = 0; b < s.batch_size_hist.size(); ++b) {
      s.batch_size_hist[b] = ld(batch_size_hist_[b]);
    }
    return s;
  }

 private:
  // --- shared plumbing --------------------------------------------------

  enum class CommitPhase : uint8_t { kIdle, kApplying, kApplied, kCatchingUp };

  struct PendingQuery {
    Query query{};
    uint64_t admitted_us = 0;
    std::promise<Expected<QueryReply>> done;
  };
  struct PendingUpdate {
    RequestKind kind = RequestKind::kInsert;
    Record rec{};
    uint64_t admitted_us = 0;
    std::promise<Expected<uint64_t>> done;
  };
  struct TraceReq {
    RequestKind kind;
    uint64_t at;
    size_t idx;  // position in the trace / outcome array
    Query query;
    Record rec;
  };
  // One epoch in flight between batcher and committer, guarded by
  // commit_mu_. inserts/erases survive until the catch-up replay lands so
  // the twin replica receives the identical delta.
  struct Epoch {
    std::vector<Record> inserts, erases;
    std::vector<PendingUpdate> requests;
    Status status = Status::Ok();
    uint64_t version = 0;
  };

  size_t read_idx() const { return read_idx_.load(std::memory_order_relaxed); }
  parallel::Sharded<Structure>& write_rep() {
    return *rep_[1 - read_idx()];
  }

  uint64_t now_us() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_tp_)
            .count());
  }

  void note_batch(size_t n, std::atomic<uint64_t>* trigger_ctr) {
    trigger_ctr->fetch_add(1, std::memory_order_relaxed);
    size_t b = std::min<size_t>(std::bit_width(n), batch_size_hist_.size() - 1);
    batch_size_hist_[b].fetch_add(1, std::memory_order_relaxed);
  }

  // Stages ins+ers into `rep` and commits, retrying the commit up to
  // cfg_.commit_retries extra times (transient faults); on final failure
  // the staged buffers are dropped and the replica still serves its old
  // epoch (Sharded's all-or-nothing contract).
  Expected<uint64_t> apply_delta(parallel::Sharded<Structure>& rep,
                                 const std::vector<Record>& ins,
                                 const std::vector<Record>& ers) {
    for (const Record& r : ins) rep.stage_insert(r);
    for (const Record& r : ers) rep.stage_erase(r);
    for (int attempt = 0;; ++attempt) {
      Expected<uint64_t> v = rep.commit();
      if (v.ok()) return v;
      if (attempt >= cfg_.commit_retries) {
        rep.discard_staged();
        return v;
      }
      commit_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Admission-to-epoch screening: validates each record and rejects ids
  // duplicated within the forming epoch, so a malformed request fails alone
  // instead of poisoning the commit. Returns the per-request Status, OK for
  // records that made it into the epoch.
  template <typename GetRec>
  static std::vector<Status> screen(size_t n, GetRec&& get,
                                    std::vector<Record>* ins,
                                    std::vector<Record>* ers) {
    std::vector<Status> verdict(n);
    std::unordered_set<uint32_t> epoch_ids;
    for (size_t i = 0; i < n; ++i) {
      auto [kind, rec] = get(i);
      Status s = parallel::Sharded<Structure>::validate(rec, i);
      if constexpr (requires(const Record& r) { r.id; }) {
        if (s.ok() && kind == RequestKind::kInsert &&
            !epoch_ids.insert(rec.id).second) {
          s = Status::InvalidArgument("submitted record " + std::to_string(i) +
                                      ": duplicate id " +
                                      std::to_string(rec.id) +
                                      " within epoch");
        }
      }
      if (s.ok()) {
        (kind == RequestKind::kInsert ? ins : ers)->push_back(rec);
      }
      verdict[i] = std::move(s);
    }
    return verdict;
  }

  // --- trace-mode internals ---------------------------------------------

  void trace_flush_queries(std::vector<TraceReq>& pq, std::vector<Outcome>& out,
                           uint64_t when, std::atomic<uint64_t>* trigger_ctr) {
    if (pq.empty()) return;
    note_batch(pq.size(), trigger_ctr);
    auto snap = rep_[read_idx()]->snapshot();
    std::vector<Query> qs;
    qs.reserve(pq.size());
    for (const TraceReq& r : pq) qs.push_back(r.query);
    parallel::BatchResult<Item> res = Traits::run(*snap, qs, cfg_);
    for (size_t i = 0; i < pq.size(); ++i) {
      Outcome& o = out[pq[i].idx];
      o.completed_at_us = when;
      o.version = snap.version();
      if (res.ok()) {
        o.items = res.result(i);
      } else {
        // Poisoned batch: per-request isolation by re-running each query
        // alone, so only requests whose own sub-batch trips see the fault.
        parallel::BatchResult<Item> one = Traits::run(*snap, {qs[i]}, cfg_);
        if (one.ok()) {
          o.items = one.result(0);
        } else {
          o.status = one.status();
          requests_failed_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    assert(snap.valid());
    query_batches_.fetch_add(1, std::memory_order_relaxed);
    pq.clear();
  }

  void trace_flush_updates(std::vector<TraceReq>& pu, std::vector<Outcome>& out,
                           uint64_t when, std::atomic<uint64_t>* trigger_ctr) {
    if (pu.empty()) return;
    note_batch(pu.size(), trigger_ctr);
    // A failed catch-up replay from the previous epoch must land before a
    // new epoch may start (the twins' versions would diverge otherwise).
    if (catchup_pending_) {
      Expected<uint64_t> c =
          apply_delta(write_rep(), inflight_.inserts, inflight_.erases);
      if (c.ok()) {
        catchup_pending_ = false;
        inflight_.inserts.clear();
        inflight_.erases.clear();
      } else {
        for (const TraceReq& r : pu) {
          out[r.idx].status = c.status();
          out[r.idx].completed_at_us = when;
          requests_failed_.fetch_add(1, std::memory_order_relaxed);
        }
        pu.clear();
        return;
      }
    }
    std::vector<Record> ins, ers;
    std::vector<Status> verdict = screen(
        pu.size(),
        [&](size_t i) {
          return std::pair<RequestKind, const Record&>(pu[i].kind, pu[i].rec);
        },
        &ins, &ers);
    std::vector<size_t> live;
    for (size_t i = 0; i < pu.size(); ++i) {
      if (verdict[i].ok()) {
        live.push_back(pu[i].idx);
        continue;
      }
      out[pu[i].idx].status = std::move(verdict[i]);
      out[pu[i].idx].completed_at_us = when;
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
    }
    pu.clear();
    if (live.empty()) return;
    Expected<uint64_t> r = apply_delta(write_rep(), ins, ers);
    if (r.ok()) {
      read_idx_.store(1 - read_idx(), std::memory_order_relaxed);
      epochs_committed_.fetch_add(1, std::memory_order_relaxed);
      for (size_t idx : live) {
        out[idx].version = r.value();
        out[idx].completed_at_us = when;
      }
      // Catch-up replay of the same delta into the now-stale twin.
      Expected<uint64_t> c = apply_delta(write_rep(), ins, ers);
      if (!c.ok()) {
        inflight_.inserts = std::move(ins);
        inflight_.erases = std::move(ers);
        catchup_pending_ = true;
      }
    } else {
      epochs_failed_.fetch_add(1, std::memory_order_relaxed);
      for (size_t idx : live) {
        out[idx].status = r.status();
        out[idx].completed_at_us = when;
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // --- live-mode internals ----------------------------------------------

  std::future<Expected<uint64_t>> submit_update(RequestKind kind,
                                                const Record& rec) {
    PendingUpdate r;
    r.kind = kind;
    r.rec = rec;
    r.admitted_us = now_us();
    auto fut = r.done.get_future();
    if (!accepting_.load(std::memory_order_acquire)) {
      r.done.set_value(Expected<uint64_t>(
          Status::FailedPrecondition("serving engine is not running")));
      return fut;
    }
    if (!update_q_.try_push(r)) {
      updates_rejected_.fetch_add(1, std::memory_order_relaxed);
      r.done.set_value(Expected<uint64_t>(
          Status::ResourceExhausted("update admission queue full")));
      return fut;
    }
    updates_admitted_.fetch_add(1, std::memory_order_relaxed);
    poke();
    return fut;
  }

  void poke() {
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
      wake_pending_ = true;
    }
    wake_cv_.notify_all();
  }

  CommitPhase phase() const {
    return phase_.load(std::memory_order_relaxed);
  }

  void batcher_loop() {
    std::vector<PendingQuery> pq;
    std::vector<PendingUpdate> pu;
    int stop_catchup_attempts = 0;
    for (;;) {
      pump_commit_completion();
      bool stopping = stop_requested_.load(std::memory_order_acquire);
      if (pq.size() < cfg_.max_batch) {
        query_q_.drain_into(pq, cfg_.max_batch - pq.size());
      }
      if (pu.size() < cfg_.max_batch) {
        update_q_.drain_into(pu, cfg_.max_batch - pu.size());
      }
      uint64_t now = now_us();
      if (!pq.empty()) {
        bool full = pq.size() >= cfg_.max_batch;
        bool late = now >= pq.front().admitted_us + cfg_.max_delay_us;
        if (full || late || stopping) {
          run_query_batch(pq, full     ? &size_flushes_
                              : late   ? &deadline_flushes_
                                       : &drain_flushes_);
        }
      }
      bool commit_ready = phase() == CommitPhase::kIdle && !catchup_pending();
      if (!pu.empty() && commit_ready) {
        bool full = pu.size() >= cfg_.max_batch;
        bool late = now >= pu.front().admitted_us + cfg_.max_delay_us;
        if (full || late || stopping) {
          hand_off_epoch(pu, full     ? &size_flushes_
                             : late   ? &deadline_flushes_
                                      : &drain_flushes_);
        }
      }
      maybe_retry_catchup(now, stopping, &stop_catchup_attempts);
      if (stopping && pq.empty() && pu.empty() && query_q_.empty() &&
          update_q_.empty() && phase() == CommitPhase::kIdle &&
          !catchup_pending()) {
        break;
      }
      wait_for_work(pq, pu, stopping);
    }
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      committer_exit_ = true;
    }
    commit_cv_.notify_all();
  }

  bool catchup_pending() const {
    std::lock_guard<std::mutex> lk(commit_mu_);
    return catchup_pending_;
  }

  void run_query_batch(std::vector<PendingQuery>& batch,
                       std::atomic<uint64_t>* trigger_ctr) {
    note_batch(batch.size(), trigger_ctr);
    bool overlap = phase() != CommitPhase::kIdle;
    auto snap = rep_[read_idx()]->snapshot();
    std::vector<Query> qs;
    qs.reserve(batch.size());
    for (const PendingQuery& r : batch) qs.push_back(r.query);
    parallel::BatchResult<Item> res = Traits::run(*snap, qs, cfg_);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (res.ok()) {
        batch[i].done.set_value(
            Expected<QueryReply>(QueryReply{res.result(i), snap.version()}));
        continue;
      }
      parallel::BatchResult<Item> one = Traits::run(*snap, {qs[i]}, cfg_);
      if (one.ok()) {
        batch[i].done.set_value(
            Expected<QueryReply>(QueryReply{one.result(0), snap.version()}));
      } else {
        batch[i].done.set_value(Expected<QueryReply>(one.status()));
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    assert(snap.valid());
    if (overlap) overlap_batches_.fetch_add(1, std::memory_order_relaxed);
    query_batches_.fetch_add(1, std::memory_order_relaxed);
    batch.clear();
  }

  void hand_off_epoch(std::vector<PendingUpdate>& pu,
                      std::atomic<uint64_t>* trigger_ctr) {
    note_batch(pu.size(), trigger_ctr);
    Epoch ep;
    std::vector<Status> verdict = screen(
        pu.size(),
        [&](size_t i) {
          return std::pair<RequestKind, const Record&>(pu[i].kind, pu[i].rec);
        },
        &ep.inserts, &ep.erases);
    for (size_t i = 0; i < pu.size(); ++i) {
      if (verdict[i].ok()) {
        ep.requests.push_back(std::move(pu[i]));
        continue;
      }
      pu[i].done.set_value(Expected<uint64_t>(std::move(verdict[i])));
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
    }
    pu.clear();
    if (ep.requests.empty()) return;
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      inflight_ = std::move(ep);
      phase_.store(CommitPhase::kApplying, std::memory_order_relaxed);
    }
    commit_cv_.notify_all();
  }

  // Batcher side of the commit hand-shake: when the committer parked the
  // epoch in kApplied, flip the read replica (between query batches, so no
  // reader ever observes a mutation), complete the epoch's requests, and
  // release the committer into the catch-up replay.
  void pump_commit_completion() {
    std::vector<PendingUpdate> done;
    Status st;
    uint64_t ver = 0;
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      if (phase_.load(std::memory_order_relaxed) != CommitPhase::kApplied) {
        return;
      }
      st = inflight_.status;
      ver = inflight_.version;
      done = std::move(inflight_.requests);
      inflight_.requests.clear();
      if (st.ok()) {
        read_idx_.store(1 - read_idx(), std::memory_order_relaxed);
        epochs_committed_.fetch_add(1, std::memory_order_relaxed);
        phase_.store(CommitPhase::kCatchingUp, std::memory_order_relaxed);
      } else {
        epochs_failed_.fetch_add(1, std::memory_order_relaxed);
        inflight_.inserts.clear();
        inflight_.erases.clear();
        phase_.store(CommitPhase::kIdle, std::memory_order_relaxed);
      }
    }
    commit_cv_.notify_all();
    for (PendingUpdate& r : done) {
      if (st.ok()) {
        r.done.set_value(Expected<uint64_t>(ver));
      } else {
        r.done.set_value(Expected<uint64_t>(st));
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  void maybe_retry_catchup(uint64_t now, bool stopping,
                           int* stop_catchup_attempts) {
    std::unique_lock<std::mutex> lk(commit_mu_);
    if (!catchup_pending_ || phase() != CommitPhase::kIdle) return;
    if (stopping && ++*stop_catchup_attempts > 2) {
      // Persistent failure across shutdown: give up so stop() terminates.
      // The committed data is fully served by the read replica; only the
      // stale twin is short one delta, so the engine marks itself degraded
      // and refuses to restart.
      inflight_.inserts.clear();
      inflight_.erases.clear();
      catchup_pending_ = false;
      degraded_ = true;
      catchup_abandoned_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!stopping && now < last_catchup_us_ + cfg_.max_delay_us) return;
    phase_.store(CommitPhase::kCatchingUp, std::memory_order_relaxed);
    lk.unlock();
    commit_cv_.notify_all();
  }

  void committer_loop() {
    std::unique_lock<std::mutex> lk(commit_mu_);
    for (;;) {
      commit_cv_.wait(lk, [&] {
        CommitPhase ph = phase_.load(std::memory_order_relaxed);
        return committer_exit_ || ph == CommitPhase::kApplying ||
               ph == CommitPhase::kCatchingUp;
      });
      CommitPhase ph = phase_.load(std::memory_order_relaxed);
      if (ph == CommitPhase::kApplying) {
        std::vector<Record> ins = inflight_.inserts;
        std::vector<Record> ers = inflight_.erases;
        lk.unlock();
        Expected<uint64_t> r = apply_delta(write_rep(), ins, ers);
        lk.lock();
        inflight_.status = r.status();
        inflight_.version = r.ok() ? r.value() : 0;
        phase_.store(CommitPhase::kApplied, std::memory_order_relaxed);
        // poke() takes wake_mu_; never hold commit_mu_ across it (the
        // batcher takes the two locks separately, in either order).
        lk.unlock();
        poke();  // batcher flips + completes
        lk.lock();
      } else if (ph == CommitPhase::kCatchingUp) {
        std::vector<Record> ins = inflight_.inserts;
        std::vector<Record> ers = inflight_.erases;
        lk.unlock();
        Expected<uint64_t> r = apply_delta(write_rep(), ins, ers);
        lk.lock();
        if (r.ok()) {
          inflight_.inserts.clear();
          inflight_.erases.clear();
          catchup_pending_ = false;
        } else {
          catchup_pending_ = true;
          last_catchup_us_ = now_us();
        }
        phase_.store(CommitPhase::kIdle, std::memory_order_relaxed);
        lk.unlock();
        poke();
        lk.lock();
      } else if (committer_exit_) {
        break;
      }
    }
  }

  void wait_for_work(const std::vector<PendingQuery>& pq,
                     const std::vector<PendingUpdate>& pu, bool stopping) {
    // Evaluated before wake_mu_ is taken: catchup_pending() locks
    // commit_mu_, and commit_mu_ must never nest inside wake_mu_.
    bool commit_ready =
        phase() == CommitPhase::kIdle && !catchup_pending();
    std::unique_lock<std::mutex> lk(wake_mu_);
    if (wake_pending_) {
      wake_pending_ = false;
      return;
    }
    uint64_t now = now_us();
    constexpr uint64_t kIdleWaitUs = 5000;
    uint64_t next = now + kIdleWaitUs;
    if (!pq.empty()) {
      next = std::min(next, pq.front().admitted_us + cfg_.max_delay_us);
    }
    // An update deadline only matters when the committer could accept the
    // epoch; otherwise the committer's completion poke is the wake signal.
    if (!pu.empty() && commit_ready) {
      next = std::min(next, pu.front().admitted_us + cfg_.max_delay_us);
    }
    if (stopping) next = std::min(next, now + 200);
    if (next <= now) return;
    wake_cv_.wait_for(lk, std::chrono::microseconds(next - now));
    wake_pending_ = false;
  }

  // --- members ----------------------------------------------------------

  const Config cfg_;
  std::unique_ptr<parallel::Sharded<Structure>> rep_[2];
  std::atomic<size_t> read_idx_{0};

  BoundedMpscQueue<PendingQuery> query_q_;
  BoundedMpscQueue<PendingUpdate> update_q_;

  std::thread batcher_, committer_;
  bool running_ = false;
  bool degraded_ = false;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_requested_{false};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool wake_pending_ = false;

  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::atomic<CommitPhase> phase_{CommitPhase::kIdle};
  bool committer_exit_ = false;
  bool catchup_pending_ = false;
  uint64_t last_catchup_us_ = 0;
  Epoch inflight_;

  std::chrono::steady_clock::time_point start_tp_;

  std::atomic<uint64_t> queries_admitted_{0}, queries_rejected_{0};
  std::atomic<uint64_t> updates_admitted_{0}, updates_rejected_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> query_batches_{0};
  std::atomic<uint64_t> size_flushes_{0}, deadline_flushes_{0},
      drain_flushes_{0};
  std::atomic<uint64_t> epochs_committed_{0}, epochs_failed_{0};
  std::atomic<uint64_t> commit_retries_{0}, catchup_abandoned_{0};
  std::atomic<uint64_t> overlap_batches_{0};
  std::array<std::atomic<uint64_t>, 20> batch_size_hist_{};
};

}  // namespace weg::serve
