// Sharded serving layer over the batched-query engine.
//
// Sharded<Structure> splits the key space across S independent instances of
// one dynamic structure (fanout chosen at run time) with a per-structure
// key extractor (ShardTraits<Structure>): every record routes to exactly
// one shard, so updates touch one instance and the instances share no
// state — shard-level work fans out on the scheduler with no locking.
//
// Routing policies (Routing ctor parameter, hash is the default) decide
// only where a record lives:
//  * Routing::kHash — route_key(rec) is hashed; records spread uniformly.
//  * Routing::kRange — the ordered partition key (interval left endpoint;
//    point coordinate along ShardTraits::kSplitDim) is split into S
//    contiguous ranges seeded from a sample of the first insert batch. At
//    commit() the layer collects per-shard load stats (live records +
//    queries routed since the previous commit) and rebalances skewed bounds
//    — recomputing the quantile split points over the live key set and
//    migrating the records whose shard changed — before publishing.
//
// Queries take one path under both policies. Each shard tracks a
// conservative coverage box (extended on insert, never shrunk by erase,
// recomputed exactly on a range rebalance), and every *_batch wrapper plans
// before it runs: each query is routed only to the live shards whose
// coverage can answer it — stab point inside the box; query-rectangle slab
// against the shard slab; kNN/ANN best-first, seeding the nearest shard by
// cover-box distance and then visiting every other shard whose distance
// does not exceed the seed's k-th (resp. best) candidate distance. The
// plan is built straight from the target-shard masks in query order (no
// sort, writes linear in the batch), one targeted sub-batch runs per
// shard, all shards in parallel, and the per-shard BatchResult slices
// merge into one flat result by pure offset arithmetic: merged count(q) =
// sum over visited shards of count_s(q), an exclusive scan turns the
// counts into slice offsets, and each merged slice is filled by
// concatenating the shard slices. Each merged slice is then
// put into a canonical order — ascending ids for stabbing, lexicographic
// coordinates for range reports, (distance, coordinates) for kNN/ANN — so
// the merged result is a function of the *record set* alone: every routing
// policy, every fanout, and every worker count returns bitwise-identical
// items (shards the planner prunes provably contribute nothing). The
// planner's and merge's asym read/write charges are bulk functions of the
// batch, the coverage boxes and the slice sizes, so asym totals are
// identical at every worker count (not across policies or fanouts: those
// change which shards a query visits). kNN/ANN merge via a top-k (top-1)
// reduce over the per-shard candidate slices instead of plain
// concatenation; a kNN batch whose every query was answered by one shard
// hands that shard's result on as is. Hash-routed coverage boxes overlap,
// so hash batches usually visit every live shard; range-routed boxes are
// disjoint along the partition axis, so selective queries visit few.
//
// Epoch API: a serving loop alternates write batches and query batches
// without external locking by staging updates on the Sharded layer —
// begin_epoch() names the next version, stage_insert / stage_erase buffer
// records without touching any shard, and commit() partitions the staged
// batch by shard, applies every shard's insertions then erasures in
// parallel (the transaction below), and publishes the next version. A
// commit with nothing staged publishes nothing: version() is unchanged.
// Queries issued between commits read the last committed snapshot: staged
// records are invisible until their commit, so query batches may be freely
// interleaved with staging.
//
// Transactional commit: commit() returns Expected<Version> and is
// all-or-nothing. It is prepare_epoch(), publish() and prepare_rebalance()
// in a row (see each below); a serving loop makes the same calls itself to
// prepare off its query path. Staged records are validated up front
// (finite coordinates, l <= r, no duplicate ids within an epoch); then
// every shard with work prepares: Structure::prepare(ins, ers) runs every
// check and allocation of the shard's insert-then-erase without touching
// the shard. LogForest plans in O(batch); the interval tree still plans on
// a copy of the shard (src/core/copy_delta.h). Any failure (validation, a
// structure-level error such as an id already live, an injected fault, or
// std::bad_alloc in prepare) drops the plan and leaves the layer
// untouched; the staged buffers are kept so a caller can repair and retry,
// or drop them with discard_staged(). Publishing applies every plan; apply
// moves and flips bytes and cannot fail. bulk_insert / bulk_erase prepare
// and publish the same way, without a rebalance.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/interval_tree.h"
#include "src/core/status.h"
#include "src/geom/point.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/batch_query.h"
#include "src/parallel/fault.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/sequence.h"

namespace weg::parallel {

// How records map to shards. kHash spreads records uniformly; kRange
// partitions the ordered key space into contiguous, rebalanced ranges, so
// shard coverage boxes stay disjoint along the partition axis and the
// planner can prune shards per query. Queries are planned the same way
// under both.
enum class Routing { kHash, kRange };

// splitmix64 finalizer: the router's hash. Fanout is typically a small
// power of two, so the low bits must already be well mixed.
inline uint64_t shard_mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Canonical bit pattern of a float routing key. -0.0 and +0.0 compare
// equal as doubles but differ bitwise, so hashing the raw bits would send
// records that are equal under operator== to different shards — and a
// staged erase of {-0.0, ...} would silently miss the {+0.0, ...} record
// it targets. Routing must be a pure function of the record's equality
// class, so the zero is canonicalized before std::bit_cast.
inline uint64_t float_key_bits(double x) {
  return std::bit_cast<uint64_t>(x == 0.0 ? 0.0 : x);
}

// Per-structure key extraction. Record is the unit of update routing;
// route_key(rec) is the 64-bit key hash routing uses, partition_key(rec)
// the ordered key range routing splits on, and coverage_hi(rec) how far a
// record extends shard coverage along the partition axis (an interval
// stored by left endpoint answers stabs up to its right endpoint).
// kCoverDims / cover_lo / cover_hi describe the record's extent in the
// shard coverage box: dimension 0 is the partition axis ([partition_key,
// coverage_hi]); point structures cover all K coordinate axes so the
// planner's kNN/ANN pruning and the covered-shard count fast path can use
// the full-dimensional box distance instead of the 1-D slab. extract(s)
// enumerates the live records for commit-time rebalancing. Erasing a
// record must route like inserting it (routing is a pure function of the
// record), which is all the layer needs for correctness; the policy only
// affects balance and planner selectivity.
template <typename Structure>
struct ShardTraits;

template <>
struct ShardTraits<augtree::DynamicIntervalTree> {
  using Record = augtree::Interval;
  static uint64_t route_key(const Record& iv) {
    uint64_t h = shard_mix(float_key_bits(iv.l));
    h = shard_mix(h ^ float_key_bits(iv.r));
    return shard_mix(h ^ iv.id);
  }
  static double partition_key(const Record& iv) { return iv.l; }
  static double coverage_hi(const Record& iv) { return iv.r; }
  static constexpr int kCoverDims = 1;
  static double cover_lo(const Record& iv, int) { return iv.l; }
  static double cover_hi(const Record& iv, int) { return iv.r; }
  static std::vector<Record> extract(const augtree::DynamicIntervalTree& t) {
    return t.live_records();
  }
};

template <int K>
struct ShardTraits<kdtree::LogForest<K>> {
  using Record = geom::PointK<K>;
  // The fixed split dimension range partitioning orders points by.
  static constexpr int kSplitDim = 0;
  static uint64_t route_key(const Record& p) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int d = 0; d < K; ++d) {
      h = shard_mix(h ^ float_key_bits(p[d]));
    }
    return h;
  }
  static double partition_key(const Record& p) { return p[kSplitDim]; }
  static double coverage_hi(const Record& p) { return p[kSplitDim]; }
  // Points cover all K axes: the planner prunes with the full-dimensional
  // cover-box distance and answers fully-covered shards by count.
  static constexpr int kCoverDims = K;
  static double cover_lo(const Record& p, int d) { return p[d]; }
  static double cover_hi(const Record& p, int d) { return p[d]; }
  static std::vector<Record> extract(const kdtree::LogForest<K>& t) {
    return t.live_points();
  }
};

namespace detail {

// Canonical slice orders for the merge.
struct IdLess {
  bool operator()(uint32_t a, uint32_t b) const { return a < b; }
};
struct CoordLess {
  template <typename P>
  bool operator()(const P& a, const P& b) const {
    return a.coords < b.coords;
  }
};

}  // namespace detail

template <typename Structure>
class Sharded;

// Snapshot handle for one batch of reads. Pins the layer at one published
// version while a query batch runs; the next epoch meanwhile prepares
// against the same layer, which only reads it (src/serve/engine.h). The
// handle owns and locks nothing — the serving engine publishes only between
// query batches, so the pinned layer is not mutated while a handle to it is
// in use; valid() is the cheap runtime assertion of that protocol: the
// pinned version is still the layer's published version.
template <typename Structure>
class ShardedSnapshot {
 public:
  ShardedSnapshot() = default;
  explicit ShardedSnapshot(const Sharded<Structure>& layer)
      : layer_(&layer), version_(layer.version()) {}

  bool empty() const { return layer_ == nullptr; }
  // The epoch this snapshot pinned at construction.
  uint64_t version() const { return version_; }
  // True while the layer still serves the pinned epoch. A false return
  // means an epoch was published under live readers — a violation of the
  // publish-between-batches protocol worth crashing a debug build over.
  bool valid() const {
    return layer_ != nullptr && layer_->version() == version_;
  }

  const Sharded<Structure>& operator*() const { return *layer_; }
  const Sharded<Structure>* operator->() const { return layer_; }

 private:
  const Sharded<Structure>* layer_ = nullptr;
  uint64_t version_ = 0;
};

template <typename Structure>
class Sharded {
 public:
  using Traits = ShardTraits<Structure>;
  using Record = typename Traits::Record;

  // Constructs `fanout` hash-routed shards, each as Structure(args...).
  // Fanout 0 is clamped to 1 (the degenerate unsharded layout).
  template <typename... Args>
  explicit Sharded(size_t fanout, const Args&... args)
      : Sharded(Routing::kHash, fanout, args...) {}

  // Routing-policy-selecting constructor; Routing::kHash reproduces the
  // default behavior exactly. Fanout is clamped to [1, 64]: planner shard
  // sets are 64-bit masks.
  template <typename... Args>
  Sharded(Routing routing, size_t fanout, const Args&... args)
      : routing_(routing) {
    fanout = std::clamp<size_t>(fanout, 1, 64);
    shards_.reserve(fanout);
    for (size_t s = 0; s < fanout; ++s) shards_.emplace_back(args...);
    cover_.assign(fanout, empty_cover());
    queries_routed_.reset(new std::atomic<uint64_t>[fanout]);
    for (size_t s = 0; s < fanout; ++s) {
      queries_routed_[s].store(0, std::memory_order_relaxed);
    }
  }

  size_t fanout() const { return shards_.size(); }
  Routing routing() const { return routing_; }
  size_t shard_of(const Record& rec) const {
    return route(rec, routed_splits());
  }
  Structure& shard(size_t s) { return shards_[s]; }
  const Structure& shard(size_t s) const { return shards_[s]; }
  size_t size() const {
    size_t total = 0;
    for (const Structure& s : shards_) total += s.size();
    return total;
  }

  // --- range-partition introspection -----------------------------------

  // Whether the range partition has been seeded (first non-empty insert).
  bool bounds_built() const { return bounds_built_; }
  // The S-1 ordered split points: shard 0 owns (-inf, splits()[0]), shard
  // s owns [splits()[s-1], splits()[s]), shard S-1 owns the tail.
  const std::vector<double>& splits() const { return splits_; }
  // Commit-time rebalances performed so far.
  size_t rebalances() const { return rebalances_; }

  // Routing telemetry: queries planned and shard visits issued since
  // construction, over every batch wrapper (each query visits its overlap
  // set; kNN/ANN count both routing rounds' visits).
  // shards-visited-per-query = planner_shard_visits() / planner_queries().
  uint64_t planner_queries() const {
    return planner_queries_.load(std::memory_order_relaxed);
  }
  uint64_t planner_shard_visits() const {
    return planner_visits_.load(std::memory_order_relaxed);
  }

  // Per-shard load since the last commit: live records now, plus query
  // sub-batches routed to the shard. commit() consumes the query counters
  // (they feed the rebalance trigger).
  struct ShardLoad {
    size_t records = 0;
    uint64_t queries = 0;
  };
  std::vector<ShardLoad> load_stats() const {
    std::vector<ShardLoad> out(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      out[s] = {shards_[s].size(),
                queries_routed_[s].load(std::memory_order_relaxed)};
    }
    return out;
  }

  // Pins the layer at its current version for one batch of reads (see
  // ShardedSnapshot above and src/serve/engine.h).
  ShardedSnapshot<Structure> snapshot() const {
    return ShardedSnapshot<Structure>(*this);
  }

  // Admission-time screening for the serving engine: one record's
  // well-formedness, checked where it can fail its own request instead of
  // poisoning a whole staged epoch. commit() still revalidates the full
  // batch as a backstop. `ordinal` only labels the error message.
  static Status validate(const Record& rec, size_t ordinal = 0) {
    return validate_record(rec, ordinal, "submitted");
  }

  // --- epoch-versioned updates -----------------------------------------

  uint64_t version() const { return version_; }
  size_t staged_inserts() const { return staged_ins_.size(); }
  size_t staged_erases() const { return staged_ers_.size(); }
  // Number of staged erasures the last commit() actually applied.
  size_t last_commit_erased() const { return last_commit_erased_; }

  // Names the epoch the next commit() will publish. Declarative: staging is
  // buffered either way; serving loops call this to label the write batch
  // they are filling.
  uint64_t begin_epoch() const { return version_ + 1; }

  void stage_insert(const Record& rec) { staged_ins_.push_back(rec); }
  void stage_erase(const Record& rec) { staged_ers_.push_back(rec); }
  // Drops the staged batch without applying it (the recovery path after a
  // failed commit when the caller does not want to repair and retry).
  void discard_staged() {
    staged_ins_.clear();
    staged_ers_.clear();
  }

  // Applies the staged batch — every shard's insertions then erasures, all
  // shards in parallel, prepared then applied — rebalances skewed range
  // bounds, and publishes the next version. A record staged for both insert
  // and erase in one epoch is inserted, then erased: the committed snapshot
  // does not contain it. A commit with nothing staged is a no-op epoch and
  // publishes nothing: version() is unchanged.
  //
  // All-or-nothing (see the file header): on any non-OK return the layer
  // still serves epoch N — version(), the split points and queries are
  // bitwise-identical to the pre-commit snapshot, including after a failed
  // first commit, whose seeded split points lived only in the dropped plan
  // — and the staged buffers are kept for repair or discard_staged().
  Expected<uint64_t> commit() {
    if (staged_ins_.empty() && staged_ers_.empty()) {
      last_commit_erased_ = 0;
      return version_;
    }
    Expected<EpochPlan> plan = prepare_epoch(staged_ins_, staged_ers_);
    if (!plan.ok()) return plan.status();
    publish(plan.value());
    last_commit_erased_ = plan.value().erased();
    staged_ins_.clear();
    staged_ers_.clear();
    if (std::optional<EpochPlan> rb = prepare_rebalance()) publish(*rb);
    return version_;
  }

  // Immediate one-batch epochs: route and apply `recs` in one step and
  // publish a version of their own. Records staged for the in-progress
  // epoch (if any) are left staged — only commit() consumes them. An empty
  // batch is a no-op and publishes no version. Both run the same prepare
  // and publish as commit(): a non-OK return leaves every shard unchanged.
  Status bulk_insert(const std::vector<Record>& recs) {
    if (recs.empty()) return Status::Ok();
    Expected<EpochPlan> plan = prepare_epoch(recs, {});
    if (!plan.ok()) return plan.status();
    publish(plan.value());
    return Status::Ok();
  }
  Expected<size_t> bulk_erase(const std::vector<Record>& recs) {
    if (recs.empty()) return size_t{0};
    Expected<EpochPlan> plan = prepare_epoch({}, recs);
    if (!plan.ok()) return plan.status();
    publish(plan.value());
    return plan.value().erased();
  }

  // --- the two-phase epoch (what commit() is made of) -------------------

  struct EpochPlan;

  // Plans "insert `ins`, then erase `ers`" as one epoch without touching
  // the layer: validation, the range seed (first insert batch only),
  // routing, and every shard's prepare (the transaction below).
  Expected<EpochPlan> prepare_epoch(const std::vector<Record>& ins,
                                    const std::vector<Record>& ers) const {
    Status valid = validate_batch(ins, /*inserts=*/true);
    if (valid.ok()) valid = validate_batch(ers, /*inserts=*/false);
    if (!valid.ok()) return valid;
    EpochPlan plan;
    plan.splits = seed_splits(ins);
    const std::vector<double>* splits =
        plan.splits ? &*plan.splits : routed_splits();
    plan.inserts = partition(ins, splits);
    Status s = prepare_shards(plan, plan.inserts, partition(ers, splits));
    if (!s.ok()) return s;
    return plan;
  }

  // Installs a plan prepared against the current state: applies every
  // shard's plan in parallel, installs the plan's split points and
  // coverage, and publishes the next version (a rebalance plan publishes
  // none). Must not overlap a query batch or another call on the layer.
  // The plan is left spent: it holds the displaced shard storage and old
  // split points, freed when the caller drops it. Returns version().
  uint64_t publish(EpochPlan& plan) noexcept {
    parallel_for(
        0, shards_.size(),
        [&](size_t s) {
          if (plan.deltas[s]) {
            plan.shard_erased[s] = shards_[s].apply(std::move(*plan.deltas[s]));
          }
        },
        1);
    if (plan.splits) {
      splits_.swap(*plan.splits);
      bounds_built_ = true;
    }
    if (plan.rebalance) {
      cover_.swap(plan.cover);
      ++rebalances_;
      return version_;
    }
    // Coverage grows only now, so a dropped plan leaves the planner's
    // pruning bounds exact.
    extend_covers(plan.inserts);
    return ++version_;
  }

  // Commit-time load balancing (range policy): per-shard load = live
  // records + queries routed since the previous call, which consumes the
  // query counters. When the heaviest shard exceeds twice the mean load
  // (plus slack so tiny sets never thrash), the split points are
  // recomputed as exact quantiles of the live key set — the general form of
  // splitting overloaded ranges and merging underused neighbors — coverage
  // is recomputed exactly, and the records whose shard assignment changed
  // migrate (each shard inserts its enterers and erases its leavers; the
  // sets are disjoint, so shards migrate in parallel). Returns the
  // migration as a plan to publish, or nullopt when none is due or its
  // prepare failed (the rebalance is skipped; the partition stays valid).
  std::optional<EpochPlan> prepare_rebalance() const {
    size_t S = shards_.size();
    std::vector<uint64_t> queries(S);
    for (size_t s = 0; s < S; ++s) {
      queries[s] = queries_routed_[s].exchange(0, std::memory_order_relaxed);
    }
    if (routing_ != Routing::kRange || !bounds_built_ || S == 1) {
      return std::nullopt;
    }
    uint64_t total = 0, max_load = 0;
    for (size_t s = 0; s < S; ++s) {
      uint64_t load = shards_[s].size() + queries[s];
      total += load;
      max_load = std::max(max_load, load);
    }
    if (max_load <= 2 * (total / S) + kRebalanceSlack) return std::nullopt;

    std::vector<std::vector<Record>> recs(S);
    parallel_for(
        0, S, [&](size_t s) { recs[s] = Traits::extract(shards_[s]); }, 1);
    size_t n = 0;
    for (const std::vector<Record>& v : recs) n += v.size();
    if (n == 0) return std::nullopt;
    std::vector<double> keys;
    keys.reserve(n);
    for (const std::vector<Record>& v : recs) {
      for (const Record& r : v) keys.push_back(Traits::partition_key(r));
    }
    std::sort(keys.begin(), keys.end());
    asym::count_read(n);
    asym::count_write(n);
    std::vector<double> new_splits = quantile_splits(keys);
    if (new_splits == splits_) return std::nullopt;  // degenerate keys

    EpochPlan plan;
    plan.rebalance = true;
    plan.cover.assign(S, empty_cover());
    std::vector<std::vector<Record>> leave(S), enter(S);
    for (size_t s = 0; s < S; ++s) {
      for (const Record& r : recs[s]) {
        size_t ns = shard_by_key_in(new_splits, Traits::partition_key(r));
        extend_cover_with(plan.cover[ns], r);
        if (ns != s) {
          leave[s].push_back(r);
          enter[ns].push_back(r);
        }
      }
    }
    asym::count_read(n);
    plan.splits = std::move(new_splits);
    // Migration order matters within each shard's plan: enterers insert
    // first, then leavers erase (the sets are disjoint — a record's old and
    // new shard differ — so the order is safe and the erase cannot miss).
    if (!prepare_shards(plan, enter, leave).ok()) return std::nullopt;
    return plan;
  }

  // --- batched queries --------------------------------------------------
  //
  // All wrappers are member templates constrained on the wrapped structure
  // actually exposing the family, so Sharded<DynamicIntervalTree> has stab
  // entry points and Sharded<LogForest<2>> has the spatial ones. Each
  // wrapper plans the batch, runs one sub-batch per visited shard, and
  // merges the slices, under either routing policy.

  template <typename Q>
  auto stab_batch(const std::vector<Q>& qs) const
    requires requires(const Structure& s) { s.stab_batch(qs); }
  {
    Plan plan =
        plan_batch(qs.size(), [&](size_t i) { return stab_mask(qs[i]); });
    auto per = run_planned(plan, qs,
                           [](const Structure& s, const std::vector<Q>& sub) {
                             return s.stab_batch(sub);
                           });
    return merge_slices(plan, per, qs.size(), detail::IdLess{});
  }

  template <typename Q>
  auto stab_count_batch(const std::vector<Q>& qs) const
    requires requires(const Structure& s) { s.stab_count_batch(qs); }
  {
    Plan plan =
        plan_batch(qs.size(), [&](size_t i) { return stab_mask(qs[i]); });
    auto per = run_planned(plan, qs,
                           [](const Structure& s, const std::vector<Q>& sub) {
                             return s.stab_count_batch(sub);
                           });
    return merge_sums(plan, per, qs.size());
  }

  template <typename B>
  auto range_count_batch(const std::vector<B>& qs) const
    requires requires(const Structure& s) { s.range_count_batch(qs); }
  {
    constexpr int d0 = Traits::kSplitDim;
    // Covered-shard fast path: a query box that fully covers a shard's
    // cover box is answered by that shard's live-record count up front —
    // the query is never routed there, so the shard's trees are not read at
    // all. The remaining (partially overlapping) shards are planned as
    // usual. cover ⊇ live records, so the summed result is exact.
    std::vector<size_t> covered_base(qs.size(), 0);
    Plan plan = plan_batch(qs.size(), [&](size_t i) {
      uint64_t m = slab_mask(qs[i].lo[d0], qs[i].hi[d0]);
      uint64_t rest = 0;
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (!((m >> s) & 1)) continue;
        if (covers_shard(qs[i], s)) {
          covered_base[i] += shards_[s].size();
        } else {
          rest |= uint64_t{1} << s;
        }
      }
      return rest;
    });
    // One write per query for its covered-shard base count (the coverage
    // tests ride plan_batch's nq * S bulk read).
    asym::count_write(qs.size());
    auto per = run_planned(plan, qs,
                           [](const Structure& s, const std::vector<B>& sub) {
                             return s.range_count_batch(sub);
                           });
    auto out = merge_sums(plan, per, qs.size());
    asym::count_read(qs.size());
    asym::count_write(qs.size());
    for (size_t q = 0; q < qs.size(); ++q) out[q] += covered_base[q];
    return out;
  }

  template <typename B>
  auto range_report_batch(const std::vector<B>& qs) const
    requires requires(const Structure& s) { s.range_report_batch(qs); }
  {
    constexpr int d0 = Traits::kSplitDim;
    Plan plan = plan_batch(qs.size(), [&](size_t i) {
      return slab_mask(qs[i].lo[d0], qs[i].hi[d0]);
    });
    auto per = run_planned(plan, qs,
                           [](const Structure& s, const std::vector<B>& sub) {
                             return s.range_report_batch(sub);
                           });
    return merge_slices(plan, per, qs.size(), detail::CoordLess{});
  }

  // k-NN: each visited shard reports its min(k, shard-live) nearest
  // candidates in the canonical (distance, coordinates) order; the merge
  // keeps the k best per query, so the merged slice equals the unsharded
  // structure's min(k, live) nearest in the same order. Routing is
  // route_nearest's two rounds, with the seed shard's k-th candidate
  // distance as the pruning threshold.
  template <typename P>
  auto knn_batch(const std::vector<P>& qs, size_t k) const
    requires requires(const Structure& s) { s.knn_batch(qs, k); }
  {
    using Result =
        std::decay_t<decltype(std::declval<const Structure&>().knn_batch(
            qs, k))>;
    using T = typename Result::value_type;
    size_t nq = qs.size();
    auto rounds = route_nearest(
        qs,
        [&](const Structure& s, const std::vector<P>& sub) {
          return s.knn_batch(sub, k);
        },
        // Infinity when the seed shard cannot supply k candidates: then no
        // shard may be pruned.
        [&](const Result& r, size_t j, const P& q) {
          return k > 0 && r.count(j) == k
                     ? geom::squared_distance(*(r.end(j) - 1), q)
                     : std::numeric_limits<double>::infinity();
        });
    if (!rounds.status.ok()) return BatchResult<T>(std::move(rounds.status));
    // Single-shard hand-on: when every query was seeded at one shard and
    // round 2 visits nothing, that shard's sub-batch is the whole batch in
    // query order, and its slices already are the merged answer in
    // canonical order — no offsets, no scan, no copy.
    if (nq > 0 && rounds.plan[1].visits == 0) {
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (rounds.plan[0].shard_queries(s).size() == nq) {
          return BatchResult<T>(std::move(rounds.per[0][s]));
        }
      }
    }

    std::vector<size_t> offsets(nq + 1, 0);
    for (size_t q = 0; q < nq; ++q) {
      size_t total = 0;
      rounds.for_each(q,
                      [&](const Result& r, size_t j) { total += r.count(j); });
      offsets[q] = std::min(k, total);
    }
    asym::count_read(rounds.visits());
    asym::count_write(nq);
    primitives::scan_exclusive(offsets);
    primitives::UninitVector<T> items(offsets[nq]);
    parallel_for(
        0, nq,
        [&](size_t q) {
          // Single-shard pass-through: with exactly one visited shard, that
          // shard's slice already is the merged answer in canonical order —
          // copy it, skipping the distance recompute and the merge sort.
          if (rounds.slots(q) == 1) {
            rounds.for_each(q, [&](const Result& r, size_t j) {
              std::copy(r.begin(j), r.end(j), items.data() + offsets[q]);
            });
            return;
          }
          std::vector<std::pair<double, T>> cand;
          rounds.for_each(q, [&](const Result& r, size_t j) {
            for (const T* it = r.begin(j); it != r.end(j); ++it) {
              cand.emplace_back(geom::squared_distance(*it, qs[q]), *it);
            }
          });
          top_k_into(cand, items.data() + offsets[q],
                     offsets[q + 1] - offsets[q]);
        },
        1);
    // Candidate gather + winner writes, charged in bulk (deterministic:
    // slice sizes are functions of the record set, the plan and k alone).
    size_t gathered = 0;
    for (const auto& per : rounds.per) {
      for (const Result& r : per) gathered += r.total();
    }
    asym::count_read(gathered);
    asym::count_write(items.size());
    return BatchResult<T>(std::move(items), std::move(offsets));
  }

  // ANN: top-1 reduce — the best shard answer by (distance, coordinates).
  // Each shard answer is a (1+eps)-ANN of its subset, so the reduced answer
  // is a (1+eps)-ANN of the union; eps = 0 gives the exact NN. Routing is
  // route_nearest's two rounds, with the seed answer's distance as the
  // pruning threshold — a pruned shard's answer would lose the reduce.
  template <typename P>
  auto ann_batch(const std::vector<P>& qs, double eps = 0.0) const
    requires requires(const Structure& s) { s.ann_batch(qs, eps); }
  {
    using Vec =
        std::decay_t<decltype(std::declval<const Structure&>().ann_batch(
            qs, eps))>;
    size_t nq = qs.size();
    auto better = [&](const typename Vec::value_type& alt,
                      const typename Vec::value_type& cur, const P& q) {
      if (!alt.has_value()) return false;
      if (!cur.has_value()) return true;
      return kdtree::nearer(geom::squared_distance(*alt, q), *alt,
                            geom::squared_distance(*cur, q), *cur);
    };
    auto rounds = route_nearest(
        qs,
        [&](const Structure& s, const std::vector<P>& sub) {
          return s.ann_batch(sub, eps);
        },
        [&](const Vec& v, size_t j, const P& q) {
          return v[j].has_value() ? geom::squared_distance(*v[j], q)
                                  : std::numeric_limits<double>::infinity();
        });
    Vec out(nq);
    parallel_for(
        0, nq,
        [&](size_t q) {
          rounds.for_each(q, [&](const Vec& v, size_t j) {
            if (better(v[j], out[q], qs[q])) out[q] = v[j];
          });
        },
        1);
    asym::count_read(rounds.visits());
    asym::count_write(nq);
    return out;
  }

 private:
  // Conservative per-shard data coverage box (Traits::kCoverDims axes;
  // dimension 0 is the partition axis). Extended on insert, never shrunk by
  // erase, recomputed exactly on rebalance — so it always contains every
  // live record's extent.
  struct Cover {
    std::array<double, Traits::kCoverDims> lo;
    std::array<double, Traits::kCoverDims> hi;
  };
  static Cover empty_cover() {
    Cover c;
    c.lo.fill(std::numeric_limits<double>::infinity());
    c.hi.fill(-std::numeric_limits<double>::infinity());
    return c;
  }

 public:
  // One prepared change to the layer: every shard's plan plus the routing
  // and coverage state that publishes with it. Built by prepare_epoch() or
  // prepare_rebalance() without touching the layer, installed by publish();
  // dropping an unpublished plan is the rollback. Opaque to callers: hold
  // it, move it, drop it.
  struct EpochPlan {
    // Per shard: the structure's plan, and what publish() erased.
    std::vector<std::optional<typename Structure::Delta>> deltas;
    std::vector<size_t> shard_erased;
    // The routed inserts extend the coverage boxes; a rebalance instead
    // replaces them with exact ones and publishes no version.
    std::vector<std::vector<Record>> inserts;
    bool rebalance = false;
    std::vector<Cover> cover;
    // Seeded or re-split partition, installed by publish().
    std::optional<std::vector<double>> splits;

    // Records the published plan erased.
    size_t erased() const {
      return std::accumulate(shard_erased.begin(), shard_erased.end(),
                             size_t{0});
    }
  };

 private:
  bool shard_live(size_t s) const { return shards_[s].size() > 0; }

  static size_t shard_by_key_in(const std::vector<double>& splits,
                                double key) {
    return static_cast<size_t>(
        std::upper_bound(splits.begin(), splits.end(), key) - splits.begin());
  }

  // The split points records route by, or nullptr while they hash.
  const std::vector<double>* routed_splits() const {
    return routing_ == Routing::kRange && bounds_built_ ? &splits_ : nullptr;
  }
  size_t route(const Record& rec, const std::vector<double>* splits) const {
    return splits ? shard_by_key_in(*splits, Traits::partition_key(rec))
                  : Traits::route_key(rec) % shards_.size();
  }

  // --- planner predicates over the coverage bounds ---------------------

  uint64_t stab_mask(double x) const {
    uint64_t m = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shard_live(s) && cover_[s].lo[0] <= x && x <= cover_[s].hi[0]) {
        m |= uint64_t{1} << s;
      }
    }
    return m;
  }

  uint64_t slab_mask(double qlo, double qhi) const {
    uint64_t m = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shard_live(s) && qlo <= cover_[s].hi[0] && qhi >= cover_[s].lo[0]) {
        m |= uint64_t{1} << s;
      }
    }
    return m;
  }

  // Lower bound on the squared distance from query point q to any live
  // point of shard s: the full-dimensional cover-box distance (0 when q is
  // inside the box). Strictly tighter than the old partition-axis slab
  // distance, so kNN/ANN round-2 masks only shrink — and a pruned shard's
  // every point is still provably farther than the threshold.
  template <typename P>
  double cover_d2(size_t s, const P& q) const {
    const Cover& c = cover_[s];
    double d2 = 0;
    for (int d = 0; d < Traits::kCoverDims; ++d) {
      double diff = std::max({c.lo[d] - q[d], 0.0, q[d] - c.hi[d]});
      d2 += diff * diff;
    }
    return d2;
  }

  // True when the query box fully covers shard s's cover box: every live
  // record of the shard is then inside the query, so a count query is
  // answered by the shard's size without routing to it.
  template <typename B>
  bool covers_shard(const B& query, size_t s) const {
    const Cover& c = cover_[s];
    for (int d = 0; d < Traits::kCoverDims; ++d) {
      if (!(query.lo[d] <= c.lo[d] && c.hi[d] <= query.hi[d])) return false;
    }
    return true;
  }

  template <typename P>
  uint64_t nearest_shard_mask(const P& q) const {
    size_t best = shards_.size();
    double best_d2 = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!shard_live(s)) continue;
      double d2 = cover_d2(s, q);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = s;
      }
    }
    return best == shards_.size() ? 0 : uint64_t{1} << best;
  }

  // --- the plan ---------------------------------------------------------

  // A routed batch in flat (CSR) form: shard s answers the query indices
  // shard_queries(s), and query q's per-shard answers land at the
  // (shard, sub-batch position) slots entries(q), in ascending shard order.
  struct Plan {
    using Slot = std::pair<uint32_t, uint32_t>;
    std::vector<size_t> shard_off;  // S + 1 offsets into shard_q
    std::vector<uint32_t> shard_q;
    std::vector<size_t> entry_off;  // nq + 1 offsets into entry
    std::vector<Slot> entry;
    size_t visits = 0;

    std::span<const uint32_t> shard_queries(size_t s) const {
      return {shard_q.data() + shard_off[s], shard_off[s + 1] - shard_off[s]};
    }
    std::span<const Slot> entries(size_t q) const {
      return {entry.data() + entry_off[q], entry_off[q + 1] - entry_off[q]};
    }
  };

  // Plans one batch from each query's target-shard mask and records the
  // routing telemetry (a follow-up round's queries were already counted).
  // The CSR arrays come straight from the masks: one counting pass sizes
  // shard_off and entry_off, one scan places them, and one fill pass in
  // query order emits every (query, shard) slot, so each shard's sub-batch
  // lists its queries in ascending order.
  template <typename MaskFn>
  Plan plan_batch(size_t nq, MaskFn&& mask_of, bool follow_up = false) const {
    size_t S = shards_.size();
    std::vector<uint64_t> mask(nq);
    for (size_t q = 0; q < nq; ++q) mask[q] = mask_of(q);
    // Planner bookkeeping is bulk-charged: every query tests every shard's
    // bounds (nq * S reads, nq mask writes), and each (query, shard)
    // routing slot is written once (visits reads + writes below) — all
    // functions of the batch and the bounds alone, linear in the batch and
    // identical at every worker count.
    asym::count_read(nq * S);
    asym::count_write(nq);
    Plan plan;
    plan.shard_off.assign(S + 1, 0);
    plan.entry_off.assign(nq + 1, 0);
    for (size_t q = 0; q < nq; ++q) {
      for (uint64_t m = mask[q]; m != 0; m &= m - 1) {
        ++plan.shard_off[std::countr_zero(m)];
      }
      plan.entry_off[q] = static_cast<size_t>(std::popcount(mask[q]));
    }
    std::exclusive_scan(plan.shard_off.begin(), plan.shard_off.end(),
                        plan.shard_off.begin(), size_t{0});
    std::exclusive_scan(plan.entry_off.begin(), plan.entry_off.end(),
                        plan.entry_off.begin(), size_t{0});
    plan.visits = plan.entry_off[nq];
    plan.shard_q.resize(plan.visits);
    plan.entry.resize(plan.visits);
    std::vector<size_t> fill(plan.shard_off.begin(), plan.shard_off.end() - 1);
    for (size_t q = 0; q < nq; ++q) {
      auto* slot = plan.entry.data() + plan.entry_off[q];
      for (uint64_t m = mask[q]; m != 0; m &= m - 1) {
        auto s = static_cast<uint32_t>(std::countr_zero(m));
        *slot++ = {s, static_cast<uint32_t>(fill[s] - plan.shard_off[s])};
        plan.shard_q[fill[s]++] = static_cast<uint32_t>(q);
      }
    }
    asym::count_read(plan.visits);
    asym::count_write(plan.visits);

    planner_visits_.fetch_add(plan.visits, std::memory_order_relaxed);
    if (!follow_up) planner_queries_.fetch_add(nq, std::memory_order_relaxed);
    for (size_t s = 0; s < S; ++s) {
      if (size_t n = plan.shard_queries(s).size(); n > 0) {
        queries_routed_[s].fetch_add(n, std::memory_order_relaxed);
      }
    }
    return plan;
  }

  // The kNN/ANN routing rounds and their per-shard results.
  template <typename R>
  struct NearestRounds {
    Status status;
    Plan plan[2];
    std::vector<R> per[2];

    // Calls fn(shard result, sub-batch position) for each of query q's
    // slots, seed round first.
    template <typename Fn>
    void for_each(size_t q, Fn&& fn) const {
      for (int r = 0; r < 2; ++r) {
        for (auto [s, j] : plan[r].entries(q)) fn(per[r][s], j);
      }
    }
    size_t slots(size_t q) const {
      return plan[0].entries(q).size() + plan[1].entries(q).size();
    }
    size_t visits() const { return plan[0].visits + plan[1].visits; }
  };

  // Best-first nearest-neighbour routing, shared by knn_batch and
  // ann_batch. Round 1 seeds each query at its nearest live shard by
  // cover-box distance (ties: lowest id). `seed_d2(result, j, q)` reads the
  // pruning threshold off the seed answer. Round 2 visits every other live
  // shard whose cover box could still hold a candidate at or below the
  // threshold (<=: a tied candidate can win the canonical order by
  // coordinates); a pruned shard's every point is provably farther, so the
  // merged answer equals the one every shard together would give. A
  // poisoned seed round skips round 2.
  template <typename P, typename RunSub, typename SeedD2>
  auto route_nearest(const std::vector<P>& qs, RunSub&& run,
                     SeedD2&& seed_d2) const {
    using R =
        std::invoke_result_t<RunSub&, const Structure&, const std::vector<P>&>;
    size_t nq = qs.size();
    NearestRounds<R> rounds;
    rounds.plan[0] =
        plan_batch(nq, [&](size_t i) { return nearest_shard_mask(qs[i]); });
    rounds.per[0] = run_planned(rounds.plan[0], qs, run);
    rounds.status = first_poison(rounds.per[0]);
    if (!rounds.status.ok()) return rounds;
    std::vector<double> thr(nq, std::numeric_limits<double>::infinity());
    for (size_t q = 0; q < nq; ++q) {
      for (auto [s, j] : rounds.plan[0].entries(q)) {
        thr[q] = seed_d2(rounds.per[0][s], j, qs[q]);
      }
    }
    asym::count_read(nq);
    asym::count_write(nq);
    rounds.plan[1] = plan_batch(
        nq,
        [&](size_t i) {
          uint64_t m = 0;
          for (size_t s = 0; s < shards_.size(); ++s) {
            if (shard_live(s) && cover_d2(s, qs[i]) <= thr[i]) {
              m |= uint64_t{1} << s;
            }
          }
          for (const auto& seed : rounds.plan[0].entries(i)) {
            m &= ~(uint64_t{1} << seed.first);
          }
          return m;
        },
        /*follow_up=*/true);
    rounds.per[1] = run_planned(rounds.plan[1], qs, run);
    rounds.status = first_poison(rounds.per[1]);
    return rounds;
  }

  // Runs one targeted sub-batch per visited shard, all shards in parallel
  // (each call is itself parallel inside via the two-phase engine). Slot s
  // is written by shard s alone; unvisited shards keep a default result.
  // query_poison fault point (index = shard id): marks a shard's
  // BatchResult sub-batch poisoned so the merge-propagation path can be
  // driven deterministically. Families whose per-shard results carry no
  // Status (counting, ANN) have no poison carrier and skip the check.
  template <typename R>
  static void maybe_poison([[maybe_unused]] R& result,
                           [[maybe_unused]] size_t s) {
    if constexpr (requires { result.set_status(Status::Ok()); }) {
      if (fault::should_fail("query_poison", s)) {
        result.set_status(fault::injected("query_poison", s));
      }
    }
  }

  template <typename Q, typename RunSub>
  auto run_planned(const Plan& plan, const std::vector<Q>& qs,
                   RunSub&& run) const {
    using R =
        std::invoke_result_t<RunSub&, const Structure&, const std::vector<Q>&>;
    std::vector<R> per(shards_.size());
    parallel_for(
        0, shards_.size(),
        [&](size_t s) {
          std::span<const uint32_t> qidx = plan.shard_queries(s);
          if (qidx.empty()) return;
          std::vector<Q> sub(qidx.size());
          for (size_t j = 0; j < qidx.size(); ++j) sub[j] = qs[qidx[j]];
          per[s] = run(shards_[s], sub);
          maybe_poison(per[s], s);
        },
        1);
    return per;
  }

  // First non-OK status across the per-shard results (lowest shard id, so
  // the propagated poison is deterministic), or OK.
  template <typename Result>
  static Status first_poison(const std::vector<Result>& per) {
    if constexpr (requires(const Result& r) { r.status(); }) {
      for (const Result& r : per) {
        if (!r.ok()) return r.status();
      }
    }
    return Status::Ok();
  }

  // Reporting families: offset-arithmetic concatenation of each query's
  // shard slices, then the canonical per-slice sort.
  template <typename Result, typename Less>
  auto merge_slices(const Plan& plan, const std::vector<Result>& per,
                    size_t nq, Less less) const {
    using T = typename Result::value_type;
    if (Status poison = first_poison(per); !poison.ok()) {
      return BatchResult<T>(std::move(poison));
    }
    std::vector<size_t> offsets(nq + 1, 0);
    for (size_t q = 0; q < nq; ++q) {
      for (auto [s, j] : plan.entries(q)) offsets[q] += per[s].count(j);
    }
    asym::count_read(plan.visits);
    asym::count_write(nq);
    primitives::scan_exclusive(offsets);
    primitives::UninitVector<T> items(offsets[nq]);
    parallel_for(
        0, nq,
        [&](size_t q) {
          T* out = items.data() + offsets[q];
          for (auto [s, j] : plan.entries(q)) {
            out = std::copy(per[s].begin(j), per[s].end(j), out);
          }
          std::sort(items.data() + offsets[q], out, less);
        },
        1);
    // One read + write per item for the concatenation and one more pair for
    // the canonicalizing sort pass, charged in bulk — a function of the
    // slice sizes alone, identical at every fanout and worker count.
    asym::count_read(2 * items.size());
    asym::count_write(2 * items.size());
    return BatchResult<T>(std::move(items), std::move(offsets));
  }

  // Counting families: merged count(q) = sum over the visited shards.
  std::vector<size_t> merge_sums(
      const Plan& plan, const std::vector<std::vector<size_t>>& per,
      size_t nq) const {
    std::vector<size_t> out(nq, 0);
    parallel_for(
        0, nq,
        [&](size_t q) {
          for (auto [s, j] : plan.entries(q)) out[q] += per[s][j];
        },
        1);
    asym::count_read(plan.visits);
    asym::count_write(nq);
    return out;
  }

  // Canonical top-k: `take` winners of (squared distance, coordinates).
  template <typename T>
  static void top_k_into(std::vector<std::pair<double, T>>& cand, T* out,
                         size_t take) {
    std::sort(cand.begin(), cand.end(),
              [](const std::pair<double, T>& a, const std::pair<double, T>& b) {
                return kdtree::nearer(a.first, a.second, b.first, b.second);
              });
    for (size_t j = 0; j < take; ++j) out[j] = cand[j].second;
  }

  // --- range bounds and rebalancing ------------------------------------

  // Equally-spaced quantiles of a sorted key sample become the S-1 split
  // points.
  std::vector<double> quantile_splits(
      const std::vector<double>& sorted_keys) const {
    size_t S = shards_.size();
    std::vector<double> sp(S - 1, 0.0);
    for (size_t s = 1; s < S; ++s) {
      sp[s - 1] = sorted_keys[s * sorted_keys.size() / S];
    }
    return sp;
  }

  // Seeds the range partition from the first non-empty insert batch: a
  // deterministic evenly-strided sample of its partition keys, sorted, cut
  // at quantiles. Commit-time rebalancing corrects the seed as the record
  // set evolves. nullopt when there is nothing to seed.
  std::optional<std::vector<double>> seed_splits(
      const std::vector<Record>& recs) const {
    if (routing_ != Routing::kRange || bounds_built_ || recs.empty()) {
      return std::nullopt;
    }
    size_t n = recs.size();
    size_t sample = std::min<size_t>(n, 4096);
    std::vector<double> keys(sample);
    for (size_t i = 0; i < sample; ++i) {
      keys[i] = Traits::partition_key(recs[i * n / sample]);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<double> splits = quantile_splits(keys);
    asym::count_read(sample);
    asym::count_write(splits.size() + 1);
    return splits;
  }

  static void extend_cover_with(Cover& c, const Record& r) {
    for (int d = 0; d < Traits::kCoverDims; ++d) {
      c.lo[d] = std::min(c.lo[d], Traits::cover_lo(r, d));
      c.hi[d] = std::max(c.hi[d], Traits::cover_hi(r, d));
    }
  }

  static constexpr uint64_t kRebalanceSlack = 64;

  // --- update routing ---------------------------------------------------

  // Routes one record batch into per-shard sub-batches by `splits` (hashed
  // when null); the read + write of each record is the routing pass's
  // bookkeeping charge.
  std::vector<std::vector<Record>> partition(
      const std::vector<Record>& recs,
      const std::vector<double>* splits) const {
    std::vector<std::vector<Record>> by(shards_.size());
    asym::count_read(recs.size());
    asym::count_write(recs.size());
    for (const Record& r : recs) by[route(r, splits)].push_back(r);
    return by;
  }

  // Post-publish coverage extension over a routed insert batch (the bounds
  // the planner prunes with). Runs only in publish, so a dropped plan never
  // widens a shard's pruning bounds.
  void extend_covers(const std::vector<std::vector<Record>>& by) {
    size_t n = 0;
    for (size_t s = 0; s < by.size(); ++s) {
      for (const Record& r : by[s]) extend_cover_with(cover_[s], r);
      n += by[s].size();
    }
    if (n == 0) return;
    asym::count_read(n);
    asym::count_write(by.size());
  }

  // --- staged-record validation -----------------------------------------

  // One record's well-formedness: finite coordinates, and l <= r for
  // interval-like records. A malformed record would corrupt BST key
  // comparisons inside the shard, so it is rejected before any shard work.
  static Status validate_record(const Record& rec, size_t ordinal,
                                const char* what) {
    if constexpr (requires { rec.l; rec.r; rec.id; }) {
      if (!std::isfinite(rec.l) || !std::isfinite(rec.r)) {
        return Status::InvalidArgument(
            std::string(what) + " record " + std::to_string(ordinal) +
            " (id " + std::to_string(rec.id) + "): non-finite endpoint");
      }
      if (rec.l > rec.r) {
        return Status::InvalidArgument(
            std::string(what) + " record " + std::to_string(ordinal) +
            " (id " + std::to_string(rec.id) + "): inverted interval [" +
            std::to_string(rec.l) + ", " + std::to_string(rec.r) + "]");
      }
    } else {
      for (double c : rec.coords) {
        if (!std::isfinite(c)) {
          return Status::InvalidArgument(std::string(what) + " record " +
                                         std::to_string(ordinal) +
                                         ": non-finite coordinate");
        }
      }
    }
    return Status::Ok();
  }

  // Validates one batch pre-transaction. Insert batches additionally check
  // the "validate" fault point (index = record ordinal) and reject ids
  // duplicated within the batch — the same id twice in one epoch has no
  // well-defined order, and the shard-level insert would silently clobber.
  // Ids already live in a shard are caught by that shard's own prepare (and
  // roll the transaction back). The scan is an input-only bulk charge, so
  // asym totals stay deterministic.
  Status validate_batch(const std::vector<Record>& recs, bool inserts) const {
    const char* what = inserts ? "staged insert" : "staged erase";
    asym::count_read(recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      Status s = validate_record(recs[i], i, what);
      if (!s.ok()) return s;
      if (inserts && fault::should_fail("validate", i)) {
        return fault::injected("validate", i);
      }
    }
    if constexpr (requires(const Record& r) { r.id; }) {
      if (inserts) {
        std::unordered_set<uint32_t> seen;
        seen.reserve(recs.size());
        for (size_t i = 0; i < recs.size(); ++i) {
          if (!seen.insert(recs[i].id).second) {
            return Status::InvalidArgument(
                "staged insert record " + std::to_string(i) +
                ": duplicate id " + std::to_string(recs[i].id) +
                " within epoch");
          }
        }
      }
    }
    return Status::Ok();
  }

  // --- the transaction --------------------------------------------------

  // Phase one of the transaction: prepares every shard with work in
  // parallel into `plan`. Each Structure::prepare runs every check and
  // allocation of the shard's insert-then-erase (`ins[s]`, then `ers[s]`)
  // and leaves the shard untouched; publish() later applies every plan,
  // and a plan's apply cannot fail. Failure modes per shard — a
  // structure-level non-OK Status (id already live, "alloc" fault),
  // std::bad_alloc thrown in prepare, or the "shard_apply" fault point
  // (checked once the shard's plan is built) — fail the whole plan; the
  // lowest-numbered failing shard supplies the Status, so the reported
  // error is identical at every worker count.
  Status prepare_shards(EpochPlan& plan,
                        const std::vector<std::vector<Record>>& ins,
                        const std::vector<std::vector<Record>>& ers) const {
    size_t S = shards_.size();
    plan.deltas.resize(S);
    plan.shard_erased.assign(S, 0);
    std::vector<Status> status(S);
    parallel_for(
        0, S,
        [&](size_t s) {
          if (ins[s].empty() && ers[s].empty()) return;
          try {
            auto delta = shards_[s].prepare(ins[s], ers[s]);
            if (!delta.ok()) {
              Status r = delta.status();
              status[s] = Status(r.code(), "shard " + std::to_string(s) +
                                               ": " + r.message());
              return;
            }
            plan.deltas[s].emplace(std::move(delta).value());
          } catch (const std::bad_alloc&) {
            status[s] = Status::ResourceExhausted(
                "shard " + std::to_string(s) + ": allocation failed");
            return;
          }
          if (fault::should_fail("shard_apply", s)) {
            status[s] = fault::injected("shard_apply", s);
          }
        },
        1);
    for (const Status& st : status) {
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  std::vector<Structure> shards_;
  Routing routing_ = Routing::kHash;
  std::vector<Record> staged_ins_;
  std::vector<Record> staged_ers_;
  uint64_t version_ = 0;
  size_t last_commit_erased_ = 0;

  // Range-partition state (kRange only), then the planner's coverage boxes
  // (both policies).
  bool bounds_built_ = false;
  std::vector<double> splits_;
  size_t rebalances_ = 0;
  std::vector<Cover> cover_;

  // Routing telemetry. Relaxed atomics: query wrappers are const and may
  // run concurrently; the counters are stats, not asym charges.
  mutable std::atomic<uint64_t> planner_queries_{0};
  mutable std::atomic<uint64_t> planner_visits_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> queries_routed_;
};

}  // namespace weg::parallel
