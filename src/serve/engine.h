// Asynchronous pipelined serving engine over the sharded epoch layer.
//
// The synchronous loop in examples/sharded_server.cpp (stage -> commit ->
// query) serializes updates against reads. This engine pipelines them:
//
//   producers --try_push--> [bounded MPSC queues]      (admission control)
//                               |
//                           batcher thread             (flush when free)
//              query batches    |  publish    |  epoch hand-off
//                     |         |             v
//                     v         v         committer thread: prepare_epoch
//                   one Sharded layer <-----  (+ retries), prepare_rebalance,
//                                     reads   drop spent plans
//
// Work-conserving batching (the default, Config::max_delay_us = 0): the
// batcher flushes a forming batch as soon as it is free, so a batch holds
// exactly the requests that arrived while the previous batch ran, capped by
// max_batch; an epoch is handed off as soon as the committer is idle, and
// updates accumulate only while an epoch is in flight. A positive
// max_delay_us is an opt-in hold that waits for the oldest request to age
// that long, trading latency for larger batches. One pure function,
// next_flush, is the whole flush rule (size, deadline and drain triggers).
//
// One replica, prepared epochs: the engine serves from a single Sharded.
// The committer prepares epoch N+1 against it with Sharded::prepare_epoch,
// which only reads, so query batches keep running on epoch N meanwhile.
// The batcher publishes the prepared plan between two query batches, so no
// reader ever observes a mutation, completes the epoch's update requests,
// and hands the spent plan back: the storage the publish displaced is freed
// on the committer thread. The committer then prepares any due range
// rebalance the same way, and the batcher publishes it before the next
// epoch's hand-off. The only synchronization is the queue hand-off plus one
// small mutex around the commit phase transitions.
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
// It is the live machinery on another clock: the same request records
// (completing into outcome slots instead of promises), the same flush rule,
// and the same commit hand-shake (hand_off, commit_step, publish_prepared),
// stepped inline in zero logical time, so under the default policy every
// request flushes at its own admission time. Live mode (start()/submit_*)
// differs only in the clock — wall-clock arrivals and deadlines then affect
// batching boundaries, never results — and in where completions go.
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
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/status.h"
#include "src/parallel/sharded.h"
#include "src/serve/bounded_queue.h"

namespace weg::serve {

// Tuning knobs. docs/SERVING.md discusses the trade-offs.
struct Config {
  size_t queue_capacity = 4096;  // per admission queue (queries, updates)
  size_t max_batch = 256;        // size-triggered flush (0 acts as 1)
  // How long the oldest waiter may be held for a larger batch. 0 (the
  // default) is work-conserving: flush as soon as the batcher is free; every
  // flush below max_batch then counts as a deadline flush.
  uint64_t max_delay_us = 0;
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
  // Query batches that ran while an epoch or rebalance was being prepared
  // beside them — the pipeline-overlap evidence the bench reports.
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
  using Layer = parallel::Sharded<Structure>;
  using Record = typename Layer::Record;
  using Query = typename Traits::Query;
  using Item = typename Traits::Item;
  using QueryReply = QueryReplyT<Item>;
  using Event = TraceEvent<Structure>;
  using Outcome = TraceOutcome<Structure>;

  template <typename... Args>
  Engine(const Config& cfg, parallel::Routing routing, size_t fanout,
         const Args&... args)
      : cfg_(clamped(cfg)),
        layer_(routing, fanout, args...),
        query_q_(cfg.queue_capacity),
        update_q_(cfg.queue_capacity),
        start_tp_(std::chrono::steady_clock::now()) {}
  template <typename... Args>
  Engine(const Config& cfg, size_t fanout, const Args&... args)
      : Engine(cfg, parallel::Routing::kHash, fanout, args...) {}

  ~Engine() { stop(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Initial data load as one epoch. Engine must be stopped.
  Status bulk_load(const std::vector<Record>& recs) {
    assert(!running_);
    return layer_.bulk_insert(recs);
  }

  // --- live mode --------------------------------------------------------

  // Spawns the batcher + committer threads (two scheduler-external root
  // threads, see src/parallel/scheduler.h). No-op if already running.
  void start() {
    if (running_) return;
    stop_requested_.store(false, std::memory_order_release);
    accepting_.store(true, std::memory_order_release);
    batcher_ = std::thread([this] { batcher_loop(); });
    committer_ = std::thread([this] { committer_loop(); });
    running_ = true;
  }

  // Drains both queues, flushes the forming batches, completes every
  // in-flight request, publishes any prepared rebalance, and joins both
  // threads. Idempotent.
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
    auto fail_left = [&]<typename Req>(BoundedMpscQueue<Req>& q) {
      std::vector<Req> left;
      q.drain_into(left, ~size_t{0});
      for (auto& r : left) {
        complete(r, Status::FailedPrecondition("serving engine stopped"));
      }
    };
    fail_left(query_q_);
    fail_left(update_q_);
  }

  bool running() const { return running_; }

  std::future<Expected<QueryReply>> submit_query(const Query& q) {
    PendingQuery r;
    r.query = q;
    return submit(std::move(r), query_q_);
  }
  std::future<Expected<uint64_t>> submit_insert(const Record& rec) {
    return submit_update(RequestKind::kInsert, rec);
  }
  std::future<Expected<uint64_t>> submit_erase(const Record& rec) {
    return submit_update(RequestKind::kErase, rec);
  }

  // --- trace mode -------------------------------------------------------

  // Deterministic replay: processes `trace` (non-decreasing at_us) inline
  // on the calling thread with the trace's logical clock. Each event
  // becomes a request record that completes into its outcome slot. Before
  // the event at time T is admitted, every flush the flush rule finds due by
  // T fires (a batch the previous admission filled goes first, at that
  // admission's time); after the last event the rest drain. An epoch runs
  // the commit hand-shake's steps inline. Admission rejects when the forming
  // batch already holds queue_capacity requests. The result is a pure
  // function of (trace, config): bitwise-identical at every worker count.
  // Engine must be stopped.
  std::vector<Outcome> run_trace(const std::vector<Event>& trace) {
    assert(!running_);
    std::vector<Outcome> out(trace.size());
    std::vector<PendingQuery> pq;
    std::vector<PendingUpdate> pu;
    auto flush_due = [&](uint64_t now, bool stopping) {
      for (;;) {
        std::optional<Flush> f =
            next_flush(pq, pu, now, stopping, phase() == CommitPhase::kIdle);
        if (!f || !f->due) return;
        auto stamp = [&](auto& batch) {
          for (auto& r : batch) {
            std::get<Outcome*>(r.done)->completed_at_us = f->at;
          }
        };
        f->queries ? stamp(pq) : stamp(pu);
        flush(*f, pq, pu);
        while (commit_step()) publish_prepared();  // the committer, inline
      }
    };
    // A replayed request is built in its forming batch; a full batch
    // rejects it.
    auto enqueue = [&](auto& batch, auto... fields) {
      bool queued = batch.size() < cfg_.queue_capacity;
      admitted(batch.emplace_back(fields...), queued);
      if (!queued) batch.pop_back();
    };
    for (size_t i = 0; i < trace.size(); ++i) {
      const Event& ev = trace[i];
      assert((i == 0 || ev.at_us >= trace[i - 1].at_us) &&
             "trace timestamps must be sorted");
      out[i].admitted_at_us = out[i].completed_at_us = ev.at_us;
      flush_due(ev.at_us, false);
      if (ev.kind == RequestKind::kQuery) {
        enqueue(pq, ev.query, ev.at_us, &out[i]);
      } else {
        enqueue(pu, ev.kind, ev.rec, ev.at_us, &out[i]);
      }
    }
    flush_due(trace.empty() ? 0 : trace.back().at_us, true);
    return out;
  }

  // --- introspection ----------------------------------------------------

  // Stable only while the engine is stopped or between epochs; live-mode
  // callers race the batcher's publish and should go through submit_query.
  parallel::ShardedSnapshot<Structure> snapshot() const {
    return layer_.snapshot();
  }
  uint64_t version() const { return layer_.version(); }
  size_t size() const { return layer_.size(); }

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
    s.overlap_batches = ld(overlap_batches_);
    for (size_t b = 0; b < s.batch_size_hist.size(); ++b) {
      s.batch_size_hist[b] = ld(batch_size_hist_[b]);
    }
    return s;
  }

 private:
  using Plan = typename Layer::EpochPlan;

  // A batch holds at least one request: with max_batch = 0 the batcher
  // would drain nothing and never serve.
  static Config clamped(Config cfg) {
    cfg.max_batch = std::max<size_t>(cfg.max_batch, 1);
    return cfg;
  }

  // The commit hand-shake between batcher and committer. kPreparing: the
  // committer prepares inflight_. kPrepared: the plan (or the epoch's
  // failure) waits for the batcher to publish it. kRebalancing: the epoch
  // is published and the committer plans any due rebalance. kRebalanced:
  // rebalance_ waits for the batcher to publish it.
  enum class CommitPhase : uint8_t {
    kIdle,
    kPreparing,
    kPrepared,
    kRebalancing,
    kRebalanced
  };

  // Where a request completes: a live request fulfils its promise, a
  // replayed one fills its outcome slot.
  template <typename T>
  using Target = std::variant<std::promise<Expected<T>>, Outcome*>;

  // One request record per kind, for both modes; `at` is the admission time
  // on the mode's clock.
  struct PendingQuery {
    Query query{};
    uint64_t at = 0;
    Target<QueryReply> done;
  };
  struct PendingUpdate {
    RequestKind kind = RequestKind::kInsert;
    Record rec{};
    uint64_t at = 0;
    Target<uint64_t> done;
  };

  // One screened epoch: the records that passed screening, the requests
  // they complete, and the plan (or failure) prepared for them.
  struct Epoch {
    std::vector<Record> inserts, erases;
    std::vector<PendingUpdate> requests;
    Expected<Plan> plan = Status::FailedPrecondition("epoch not prepared");
  };

  // The flush of one forming batch: the query batch or the update epoch,
  // the Stats counter of its trigger, its logical time, and whether it
  // fires now or is the next one to wait for.
  struct Flush {
    bool queries = true;
    std::atomic<uint64_t>* trigger = nullptr;
    uint64_t at = 0;
    bool due = false;
  };

  uint64_t now_us() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_tp_)
            .count());
  }

  // The flush rule of both clocks: the next flush of the forming batches if
  // nothing else arrives. A batch at max_batch flushes now, at its last
  // admission time (size). Otherwise it flushes at its oldest waiter's
  // admission time + max_delay_us (deadline), or right away at that same
  // logical time when stopping (drain). The epoch waits while the committer
  // is busy. The earliest flush goes first, queries before the epoch on
  // ties.
  std::optional<Flush> next_flush(const std::vector<PendingQuery>& pq,
                                  const std::vector<PendingUpdate>& pu,
                                  uint64_t now, bool stopping,
                                  bool committer_idle) {
    auto of = [&](const auto& batch, bool queries) -> std::optional<Flush> {
      if (batch.empty()) return std::nullopt;
      if (batch.size() >= cfg_.max_batch) {
        return Flush{queries, &size_flushes_, batch.back().at, true};
      }
      uint64_t at = batch.front().at + cfg_.max_delay_us;
      if (stopping) return Flush{queries, &drain_flushes_, at, true};
      return Flush{queries, &deadline_flushes_, at, at <= now};
    };
    std::optional<Flush> q = of(pq, true);
    std::optional<Flush> u = committer_idle ? of(pu, false) : std::nullopt;
    return !q || (u && u->at < q->at) ? u : q;
  }

  // Runs a flush: the query batch against the published epoch, or the
  // epoch's hand-off to the committer.
  void flush(const Flush& f, std::vector<PendingQuery>& pq,
             std::vector<PendingUpdate>& pu) {
    if (f.queries) {
      run_queries(pq, f.trigger);
    } else {
      hand_off(pu, f.trigger);
    }
  }

  void note_batch(size_t n, std::atomic<uint64_t>* trigger_ctr) {
    trigger_ctr->fetch_add(1, std::memory_order_relaxed);
    size_t b = std::min<size_t>(std::bit_width(n), batch_size_hist_.size() - 1);
    batch_size_hist_[b].fetch_add(1, std::memory_order_relaxed);
  }

  // Counts `r` as admitted if it was queued; otherwise its queue was full
  // and it completes at once with ResourceExhausted, counted as rejected,
  // not as failed.
  template <typename Req>
  bool admitted(Req& r, bool queued) {
    constexpr bool kQuery = std::is_same_v<Req, PendingQuery>;
    if (queued) {
      (kQuery ? queries_admitted_ : updates_admitted_)
          .fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    (kQuery ? queries_rejected_ : updates_rejected_)
        .fetch_add(1, std::memory_order_relaxed);
    const char* why =
        kQuery ? "query admission queue full" : "update admission queue full";
    deliver(r, Status::ResourceExhausted(why));
    return false;
  }

  // Completes one request, counting failures.
  template <typename Req>
  void complete(Req& r, Status st, uint64_t version = 0,
                std::vector<Item> items = {}) {
    if (!st.ok()) requests_failed_.fetch_add(1, std::memory_order_relaxed);
    deliver(r, std::move(st), version, std::move(items));
  }

  // Fulfils the request's completion target.
  template <typename Req>
  static void deliver(Req& r, Status st, uint64_t version = 0,
                      std::vector<Item> items = {}) {
    if (Outcome* const* slot = std::get_if<Outcome*>(&r.done)) {
      (*slot)->status = std::move(st);
      (*slot)->items = std::move(items);
      (*slot)->version = version;
    } else if (!st.ok()) {
      std::get<0>(r.done).set_value(std::move(st));
    } else if constexpr (std::is_same_v<Req, PendingQuery>) {
      std::get<0>(r.done).set_value(QueryReply{std::move(items), version});
    } else {
      std::get<0>(r.done).set_value(version);
    }
  }

  // One query batch against the published epoch. A poisoned batch (fault
  // injection) falls back to re-running each query alone, so only the
  // requests whose own sub-batch trips the fault see its Status.
  void run_queries(std::vector<PendingQuery>& batch,
                   std::atomic<uint64_t>* trigger) {
    note_batch(batch.size(), trigger);
    bool overlap = phase() != CommitPhase::kIdle;
    auto snap = layer_.snapshot();
    std::vector<Query> qs;
    qs.reserve(batch.size());
    for (const PendingQuery& r : batch) qs.push_back(r.query);
    parallel::BatchResult<Item> res = Traits::run(*snap, qs, cfg_);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (res.ok()) {
        complete(batch[i], Status::Ok(), snap.version(), res.result(i));
        continue;
      }
      parallel::BatchResult<Item> one = Traits::run(*snap, {qs[i]}, cfg_);
      complete(batch[i], one.status(), snap.version(),
               one.ok() ? one.result(0) : std::vector<Item>{});
    }
    assert(snap.valid());
    if (overlap) overlap_batches_.fetch_add(1, std::memory_order_relaxed);
    query_batches_.fetch_add(1, std::memory_order_relaxed);
    batch.clear();
  }

  // Admission-to-epoch screening: validates each record and rejects ids
  // duplicated within the forming epoch, so a malformed request fails alone
  // instead of poisoning the commit. The survivors form the epoch.
  Epoch screen(std::vector<PendingUpdate>& batch,
               std::atomic<uint64_t>* trigger) {
    Epoch ep;
    note_batch(batch.size(), trigger);
    std::unordered_set<uint32_t> epoch_ids;
    for (size_t i = 0; i < batch.size(); ++i) {
      PendingUpdate& r = batch[i];
      Status s = Layer::validate(r.rec, i);
      if constexpr (requires(const Record& rec) { rec.id; }) {
        if (s.ok() && r.kind == RequestKind::kInsert &&
            !epoch_ids.insert(r.rec.id).second) {
          s = Status::InvalidArgument("submitted record " + std::to_string(i) +
                                      ": duplicate id " +
                                      std::to_string(r.rec.id) +
                                      " within epoch");
        }
      }
      if (!s.ok()) {
        complete(r, std::move(s));
        continue;
      }
      (r.kind == RequestKind::kInsert ? ep.inserts : ep.erases)
          .push_back(r.rec);
      ep.requests.push_back(std::move(r));
    }
    batch.clear();
    return ep;
  }

  // Batcher side: screens the forming epoch and hands the survivors to the
  // committer, which must be idle.
  void hand_off(std::vector<PendingUpdate>& batch,
                std::atomic<uint64_t>* trigger) {
    Epoch ep = screen(batch, trigger);
    if (ep.requests.empty()) return;
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      inflight_ = std::move(ep);
      phase_.store(CommitPhase::kPreparing, std::memory_order_relaxed);
    }
    commit_cv_.notify_all();
  }

  // The committer's step: drops the plan the batcher's last publish
  // displaced, then prepares the handed-off epoch (kPreparing, retrying up
  // to cfg_.commit_retries extra times) or any due rebalance (kRebalancing)
  // and moves to the phase the batcher publishes from. Both prepares only
  // read the layer, so they may run beside query batches. Returns whether
  // the phase moved.
  bool commit_step() {
    std::unique_lock<std::mutex> lk(commit_mu_);
    CommitPhase ph = phase();
    std::optional<Plan> spent = std::exchange(spent_, std::nullopt);
    lk.unlock();
    spent.reset();
    std::optional<Plan> rb;
    if (ph == CommitPhase::kPreparing) {
      Epoch& ep = inflight_;  // the batcher leaves it alone meanwhile
      for (int attempt = 0;; ++attempt) {
        ep.plan = layer_.prepare_epoch(ep.inserts, ep.erases);
        if (ep.plan.ok() || attempt >= cfg_.commit_retries) break;
        commit_retries_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (ph == CommitPhase::kRebalancing) {
      rb = layer_.prepare_rebalance();
    } else {
      return false;
    }
    lk.lock();
    if (ph == CommitPhase::kPreparing) {
      phase_.store(CommitPhase::kPrepared, std::memory_order_relaxed);
    } else {
      rebalance_ = std::move(rb);
      phase_.store(rebalance_ ? CommitPhase::kRebalanced : CommitPhase::kIdle,
                   std::memory_order_relaxed);
    }
    return true;
  }

  // Batcher side, between query batches: publishes a prepared epoch and
  // completes its requests with the new version (or fails them all with
  // the prepare's Status), or publishes a prepared rebalance; then hands
  // the spent plan to the committer to drop.
  void publish_prepared() {
    std::unique_lock<std::mutex> lk(commit_mu_);
    CommitPhase ph = phase();
    if (ph == CommitPhase::kPrepared) {
      Epoch ep = std::move(inflight_);
      lk.unlock();
      bool ok = ep.plan.ok();
      uint64_t version = 0;
      if (ok) {
        version = layer_.publish(ep.plan.value());
        epochs_committed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        epochs_failed_.fetch_add(1, std::memory_order_relaxed);
      }
      for (PendingUpdate& r : ep.requests) {
        complete(r, ep.plan.status(), version);
      }
      lk.lock();
      if (ok) spent_ = std::move(ep.plan).value();
      phase_.store(ok ? CommitPhase::kRebalancing : CommitPhase::kIdle,
                   std::memory_order_relaxed);
    } else if (ph == CommitPhase::kRebalanced) {
      layer_.publish(*rebalance_);
      spent_ = std::move(rebalance_);
      rebalance_.reset();
      phase_.store(CommitPhase::kIdle, std::memory_order_relaxed);
    } else {
      return;
    }
    lk.unlock();
    commit_cv_.notify_all();
  }

  // --- live-mode internals ----------------------------------------------

  std::future<Expected<uint64_t>> submit_update(RequestKind kind,
                                                const Record& rec) {
    PendingUpdate r;
    r.kind = kind;
    r.rec = rec;
    return submit(std::move(r), update_q_);
  }

  // Stamps a request's admission time and queues it, or completes it at
  // once when the engine is stopped or the queue is full.
  template <typename Req>
  auto submit(Req r, BoundedMpscQueue<Req>& q) {
    r.at = now_us();
    auto fut = std::get<0>(r.done).get_future();
    if (!accepting_.load(std::memory_order_acquire)) {
      complete(r, Status::FailedPrecondition("serving engine is not running"));
    } else if (admitted(r, q.try_push(r))) {
      poke();
    }
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
    for (;;) {
      publish_prepared();
      bool stopping = stop_requested_.load(std::memory_order_acquire);
      if (pq.size() < cfg_.max_batch) {
        query_q_.drain_into(pq, cfg_.max_batch - pq.size());
      }
      if (pu.size() < cfg_.max_batch) {
        update_q_.drain_into(pu, cfg_.max_batch - pu.size());
      }
      std::optional<Flush> f =
          next_flush(pq, pu, now_us(), stopping, phase() == CommitPhase::kIdle);
      if (f && f->due) {
        flush(*f, pq, pu);
        continue;
      }
      if (stopping && pq.empty() && pu.empty() && query_q_.empty() &&
          update_q_.empty() && phase() == CommitPhase::kIdle) {
        break;
      }
      wait_for_work(f);
    }
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      committer_exit_ = true;
    }
    commit_cv_.notify_all();
  }

  void committer_loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(commit_mu_);
        commit_cv_.wait(lk, [&] {
          CommitPhase ph = phase();
          return committer_exit_ || spent_ || ph == CommitPhase::kPreparing ||
                 ph == CommitPhase::kRebalancing;
        });
        if (committer_exit_ && !spent_ && phase() == CommitPhase::kIdle) {
          return;
        }
      }
      // The batcher publishes, or may hand off the next epoch.
      if (commit_step()) poke();
    }
  }

  // Sleeps until a poke or until the next flush falls due. With
  // max_delay_us = 0 this never spins: every non-empty forming batch is
  // due, so the batcher flushes instead of waiting, except an epoch while
  // the committer is busy — next_flush then leaves it out, and the
  // committer's poke is the wake signal.
  void wait_for_work(const std::optional<Flush>& next) {
    std::unique_lock<std::mutex> lk(wake_mu_);
    if (wake_pending_) {
      wake_pending_ = false;
      return;
    }
    constexpr uint64_t kIdleWaitUs = 5000;
    uint64_t now = now_us();
    uint64_t until = now + kIdleWaitUs;
    if (next) until = std::min(until, next->at);
    if (until <= now) return;
    wake_cv_.wait_for(lk, std::chrono::microseconds(until - now));
    wake_pending_ = false;
  }

  // --- members ----------------------------------------------------------

  const Config cfg_;
  Layer layer_;

  BoundedMpscQueue<PendingQuery> query_q_;
  BoundedMpscQueue<PendingUpdate> update_q_;

  std::thread batcher_, committer_;
  bool running_ = false;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_requested_{false};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool wake_pending_ = false;

  // The commit hand-shake, guarded by commit_mu_: the epoch between
  // hand-off and publish, a prepared rebalance, and the last published plan
  // until the committer drops it.
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::atomic<CommitPhase> phase_{CommitPhase::kIdle};
  bool committer_exit_ = false;
  Epoch inflight_;
  std::optional<Plan> rebalance_;
  std::optional<Plan> spent_;

  std::chrono::steady_clock::time_point start_tp_;

  std::atomic<uint64_t> queries_admitted_{0}, queries_rejected_{0};
  std::atomic<uint64_t> updates_admitted_{0}, updates_rejected_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> query_batches_{0};
  std::atomic<uint64_t> size_flushes_{0}, deadline_flushes_{0},
      drain_flushes_{0};
  std::atomic<uint64_t> epochs_committed_{0}, epochs_failed_{0};
  std::atomic<uint64_t> commit_retries_{0};
  std::atomic<uint64_t> overlap_batches_{0};
  std::array<std::atomic<uint64_t>, 20> batch_size_hist_{};
};

}  // namespace weg::serve
