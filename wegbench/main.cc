// The repository benchmark binary. One run measures one workload:
//
//   wegbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--rate <req/s>] [--git-sha <sha>] [--out-dir <dir>]
//
// Workloads (see wegbench/README.md for why each was chosen):
//   serve_knn_readmostly  live Engine<LogForest<2>>, range routing
//   build_static          the paper's offline constructions
//
// --trace 0 measures the end-to-end metrics of an untraced run; --trace 1
// measures the per-layer metrics (live Engine::stats() deltas plus the
// traced replay) and writes the spans to <out-dir>. Every run prints its
// provenance, then `#` diagnostic lines, then one JSON line last with the
// metrics it measured, by name; wegbench/run.py checks them against
// BENCHMARK.json and publishes them with their units.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/augtree/interval_tree.h"
#include "src/delaunay/delaunay.h"
#include "src/kdtree/pbatched.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/scheduler.h"
#include "wegbench/bench_lib.h"
#include "wegbench/serving.h"

#ifndef WEGBENCH_COMPILER
#define WEGBENCH_COMPILER "unknown"
#endif
#ifndef WEGBENCH_BUILD_TYPE
#define WEGBENCH_BUILD_TYPE "unknown"
#endif

namespace wegbench {
namespace {

namespace asym = weg::asym;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = 0;  // 0: the workload's fixed rate
  std::string git_sha = "unknown";
  std::string out_dir = ".bench_out";
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }
double ratio(uint64_t num, uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

void print_provenance(const Args& a, double rate) {
  asym::Counts c0 = asym::total();
  asym::count_read();
  bool counting = (asym::total() - c0).reads == 1;
  const char* env = std::getenv("WEG_NUM_THREADS");
  std::printf(
      "# provenance {\"git_sha\": \"%s\", \"nproc\": %u, "
      "\"WEG_NUM_THREADS\": \"%s\", \"scheduler_workers\": %d, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"rate_per_s\": %g, \"seconds\": %g, \"trace\": %d, "
      "\"asym_counting\": \"%s\"}\n",
      a.git_sha.c_str(), std::thread::hardware_concurrency(),
      env != nullptr ? env : "unset", weg::parallel::num_workers(),
      WEGBENCH_COMPILER, WEGBENCH_BUILD_TYPE, a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), rate, a.seconds,
      a.trace ? 1 : 0, counting ? "on" : "off");
}

void print_reps(const char* what, const std::vector<double>& xs) {
  std::printf("# %s repetitions:", what);
  for (double x : xs) std::printf(" %.4g", x);
  std::printf("\n");
}

constexpr size_t kDiagnosticWindows = 20;

// The published tail quantile. It is p90, not p99: on the 4-vCPU VM this
// benchmark was tuned on, host preemptions of 2-20 ms delayed 2-5% of all
// requests, and by more in some runs than others, so a p98 or p99 there
// moved up to 4x from run to run with the host, not with the program.
constexpr double kTail = 0.90;

// A published quantile of a latency series: the plain quantile over every
// measured sample of the run, held to the kMinTail rule. The `# samples`
// line states the sample count and the count beyond, and adds the same
// quantile per send-order window as a diagnostic (not published): a tail
// set by a few bursts shows as a few high windows.
double published(const char* what, const std::vector<double>& in_order,
                 double p) {
  Percentile q = tail_percentile(in_order, p);
  WindowedTail w = windowed_tail(in_order, p, kDiagnosticWindows);
  std::printf("# samples %s: n=%zu, p%.4g = %.4g with %zu beyond%s; per "
              "window (%zu, >= %zu beyond in each):",
              what, q.n, 100 * q.p, q.value, q.beyond,
              q.reportable ? "" : " (capped)", w.windows, w.beyond);
  for (double x : w.per_window) std::printf(" %.4g", x);
  std::printf("\n");
  return q.value;
}

// Diagnostic: the shape of a latency series, from its median to p99.9.
void print_quantiles(const char* what, std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::printf("# quantiles %s:", what);
  for (double p : {0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999}) {
    std::printf(" p%g=%.4g", 100 * p, percentile_sorted(xs, p).value);
  }
  std::printf("\n");
}

void print_samples(const char* what, const Percentile& p) {
  std::printf("# samples %s: n=%zu, p%.4g has %zu beyond%s\n", what, p.n,
              100 * p.p, p.beyond,
              p.reportable ? "" : " (capped: too few samples beyond p99)");
}

bool write_spans(const Args& a, const SpanLog& log) {
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  std::string path = a.out_dir + "/" + a.workload + "-seed" +
                     std::to_string(a.seed) + ".spans.jsonl";
  bool ok = log.write_jsonl(path);
  std::printf("# spans: %zu written to %s%s\n", log.spans().size(),
              path.c_str(), ok ? "" : " (FAILED)");
  return ok;
}

constexpr int kSetupReps = 9;
// Serving builds take 20-40 ms, and the VM's speed drifts by about 7%
// between seconds, so they repeat for this long and report the median.
constexpr double kServingBuildBudgetMs = 2000;

// Keeps every scheduler worker busy for `ms` milliseconds before anything
// is timed. On a virtual machine the first second or so of a fresh,
// CPU-hungry process otherwise runs up to 3x slower (vCPUs ramping up),
// which showed as bimodal set-up times across runs.
void busy_warmup(double ms) {
  auto t0 = Clock::now();
  std::atomic<uint64_t> sink{0};
  while (ms_since(t0) < ms) {
    weg::parallel::parallel_for(0, 64, [&](size_t i) {
      uint64_t x = i;
      for (int k = 0; k < 20000; ++k) x = hash64(x);
      sink.fetch_add(x, std::memory_order_relaxed);
    }, 1);
  }
}

// --- serving workloads -----------------------------------------------------

template <typename W>
int run_serving(const Args& a) {
  W w;
  const double rate = a.rate > 0 ? a.rate : W::kRatePerS;
  const double warmup_us = 1e6;
  const weg::serve::Config cfg;  // the engine's shipped defaults
  print_provenance(a, rate);
  Schedule<W> sch = make_schedule(w, a.seed, W::kPreload, rate,
                                  warmup_us + a.seconds * 1e6);
  bool correct = true;
  std::string error;

  // Offline build of one replica's shards from the preloaded records,
  // repeated for kServingBuildBudgetMs in the fresh process. Measured after
  // the live run instead, they ran about 40% slower and spread wider from
  // run to run (IQR / median 0.33 against 0.19 over five seeds).
  std::vector<double> build_s;
  asym::Counts build_cost;
  auto builds_start = Clock::now();
  for (int rep = 0; !a.trace && (rep < kSetupReps ||
                                 ms_since(builds_start) < kServingBuildBudgetMs);
       ++rep) {
    asym::Region region;
    auto t = Clock::now();
    auto replica = loaded_replica(sch);
    build_s.push_back(ms_since(t) / 1000);
    build_cost = region.delta();
    if (!replica) {
      correct = false;
      error = "bulk load failed";
    }
  }

  // Set-up: bulk load into both engine replicas plus start(), once untimed
  // as a warm-up, then kSetupReps timed repetitions; the last engine serves
  // the run.
  std::vector<double> setup_s;
  std::unique_ptr<EngineT<W>> eng;
  for (int rep = 0; rep <= kSetupReps; ++rep) {
    eng.reset();
    auto t = Clock::now();
    eng = std::make_unique<EngineT<W>>(cfg, W::kRouting, W::kFanout);
    Status s = eng->bulk_load(sch.preload);
    eng->start();
    if (rep > 0) setup_s.push_back(ms_since(t) / 1000);
    if (!s.ok()) {
      correct = false;
      error = "engine bulk load: " + s.message();
    }
    if (rep < kSetupReps) eng->stop();
  }

  LiveResult live = run_live<W>(*eng, sch, cfg.knn_k, warmup_us, 100);
  eng->stop();
  eng.reset();

  std::printf("# live: %llu sent, %llu completed, %llu failed, %zu replies "
              "checked against the oracle, %zu mismatched\n",
              static_cast<unsigned long long>(live.sent),
              static_cast<unsigned long long>(live.completed),
              static_cast<unsigned long long>(live.failed),
              live.oracle_checked, live.oracle_mismatches);
  if (live.oracle_mismatches > 0 || live.oracle_checked == 0 ||
      live.sent == 0 || !live.error.empty()) {
    correct = false;
    if (error.empty()) error = live.error.empty() ? "no replies" : live.error;
  }

  Metrics m;
  auto set = [&m](std::string name, double value) {
    m.emplace_back(std::move(name), value);
  };
  if (!a.trace) {
    print_reps("setup_s", setup_s);
    print_reps("build_s", build_s);
    print_quantiles("query", live.query_ms);
    print_quantiles("update", live.update_ms);
    // How late the generator sent: high when the host stalled the process,
    // which inflates every latency of the run.
    print_quantiles("generator lag", live.lag_ms);
    set("setup_s", median(setup_s));
    set("query_p50_ms", published("query", live.query_ms, 0.5));
    set("query_p90_ms", published("query", live.query_ms, kTail));
    set("update_p50_ms", published("update", live.update_ms, 0.5));
    set("update_p90_ms", published("update", live.update_ms, kTail));
    set("slo_met_frac", ratio(live.slo_met, live.sent));
    set("asym_reads_per_req", ratio(live.window_cost.reads, live.completed));
    set("asym_writes_per_req", ratio(live.window_cost.writes, live.completed));
    set("build_s", median(build_s));
    set("build_reads_per_elem",
        ratio(build_cost.reads, uint64_t{sch.preload.size()}));
    set("build_writes_per_elem",
        ratio(build_cost.writes, uint64_t{sch.preload.size()}));
  } else {
    const weg::serve::Stats& b = live.before;
    const weg::serve::Stats& e = live.after;
    uint64_t batches = e.query_batches - b.query_batches;
    uint64_t flushes = (e.size_flushes - b.size_flushes) +
                       (e.deadline_flushes - b.deadline_flushes) +
                       (e.drain_flushes - b.drain_flushes);
    uint64_t epochs = e.epochs_committed - b.epochs_committed;
    set("serve.query_batch_mean",
        ratio(e.queries_admitted - b.queries_admitted, batches));
    set("serve.deadline_flush_frac",
        ratio(e.deadline_flushes - b.deadline_flushes, flushes));
    set("serve.overlap_ratio",
        ratio(e.overlap_batches - b.overlap_batches, batches));
    set("serve.epochs_per_s",
        ratio(static_cast<double>(epochs), live.window_s));
    set("serve.update_epoch_mean",
        ratio(e.updates_admitted - b.updates_admitted, epochs));
    set("serve.commit_retries",
        static_cast<double>(e.commit_retries - b.commit_retries));
    Percentile lag = tail_percentile(live.lag_ms, 0.99);
    print_samples("generator lag", lag);
    set("gen.lag_p99_ms", lag.value);

    SpanLog log(true, Clock::now());
    ReplayResult rr = traced_replay<W>(sch, W::kTraceEvents, cfg, log);
    const LayerStats& L = rr.layers;
    std::printf("# replay: %zu requests, %zu flushes (%zu query batches, %zu "
                "epochs)\n",
                std::min(W::kTraceEvents, sch.events.size()), rr.flushes,
                L.query_batches, L.epochs);
    if (!rr.error.empty()) {
      correct = false;
      if (error.empty()) error = rr.error;
    }
    Percentile qb99 = tail_percentile(L.query_batch_ms, 0.99);
    Percentile c99 = tail_percentile(L.commit_ms, 0.99);
    print_samples("replayed query batch", qb99);
    print_samples("replayed commit", c99);
    set("sharded.query_batch_ms.p50",
        percentile(L.query_batch_ms, 0.5).value);
    set("sharded.query_batch_ms.p99", qb99.value);
    set("sharded.query_reads_per_q", ratio(L.query_cost.reads, L.queries));
    set("sharded.query_writes_per_q", ratio(L.query_cost.writes, L.queries));
    set("sharded.shards_per_query",
        ratio(L.planner_visits, L.planner_queries));
    set("sharded.commit_ms.p50", percentile(L.commit_ms, 0.5).value);
    set("sharded.commit_ms.p99", c99.value);
    set("sharded.catchup_ms.p50", percentile(L.catchup_ms, 0.5).value);
    set("sharded.commit_reads_per_update",
        ratio(L.commit_cost.reads, L.updates));
    set("sharded.commit_writes_per_update",
        ratio(L.commit_cost.writes, L.updates));
    set("kdtree.clone_ms", median(L.clone_ms));
    set("kdtree.bulk_insert_ms", median(L.insert_ms));
    set("kdtree.bulk_erase_ms", median(L.erase_ms));
    set("kdtree.clone_writes_per_update",
        ratio(L.clone_cost.writes, L.updates));
    set("kdtree.bulk_insert_writes_per_update",
        ratio(L.insert_cost.writes, L.updates));
    set("kdtree.bulk_erase_writes_per_update",
        ratio(L.erase_cost.writes, L.updates));
    set("trace.overhead_frac", rr.overhead_frac);
    std::printf("# replay counts: query %llu/%llu, commit %llu/%llu, clone "
                "%llu/%llu, insert %llu/%llu, erase %llu/%llu (reads/writes)\n",
                (unsigned long long)L.query_cost.reads,
                (unsigned long long)L.query_cost.writes,
                (unsigned long long)L.commit_cost.reads,
                (unsigned long long)L.commit_cost.writes,
                (unsigned long long)L.clone_cost.reads,
                (unsigned long long)L.clone_cost.writes,
                (unsigned long long)L.insert_cost.reads,
                (unsigned long long)L.insert_cost.writes,
                (unsigned long long)L.erase_cost.reads,
                (unsigned long long)L.erase_cost.writes);
    if (!write_spans(a, log)) correct = false;
  }
  if (!error.empty()) std::printf("# error: %s\n", error.c_str());
  print_result(correct, live.sent, live.failed, m);
  return 0;
}

// --- build_static ----------------------------------------------------------

struct BuildInputs {
  std::vector<weg::geom::GridPoint> dt;
  std::vector<Point2> kd;
  std::vector<Interval> iv;
  std::vector<double> stab_probes;
  std::vector<Point2> knn_probes, fresh;
};

// Post-build phase of build_static: the built static structures answer
// batched probes while a p-batched LogForest absorbs insert batches.
struct BuildStatic {
  static constexpr size_t kDelaunayN = size_t{1} << 16;
  static constexpr size_t kKdN = size_t{1} << 20;
  static constexpr size_t kIntervalN = size_t{1} << 20;
  static constexpr double kIntervalMaxLen = 0.001;
  static constexpr size_t kProbeBatch = 1024;
  static constexpr size_t kProbes = kProbeBatch * 16;
  static constexpr size_t kInsertBatch = 1024;
  static constexpr size_t kForestCap = size_t{1} << 18;  // then reset
  static constexpr size_t kDelaunayCheckPoints = 32;
  static constexpr size_t kCheckEvery = 50;  // query requests per oracle check
  static constexpr double kQueryLimitMs = 10;
  static constexpr double kUpdateLimitMs = 30;
};

// The constructions' inputs come from kDataSeed (their asym counts then
// repeat exactly from seed to seed); the post-build probes and inserts come
// from `seed`.
BuildInputs make_build_inputs(uint64_t seed) {
  BuildInputs in;
  Rng rng(hash64(kDataSeed ^ 0xb0117dULL));
  Rng req(hash64(seed ^ 0xb0117dULL));
  auto uniform = [](Rng& r, size_t n) {
    std::vector<Point2> pts(n);
    for (Point2& p : pts) {
      p[0] = r.next_double();
      p[1] = r.next_double();
    }
    return pts;
  };
  in.dt = weg::delaunay::quantize(uniform(rng, BuildStatic::kDelaunayN));
  in.kd = uniform(rng, BuildStatic::kKdN);
  in.iv.resize(BuildStatic::kIntervalN);
  for (size_t i = 0; i < in.iv.size(); ++i) {
    double l = rng.next_double();
    in.iv[i] = Interval{l, l + rng.next_double() * BuildStatic::kIntervalMaxLen,
                        static_cast<uint32_t>(i)};
  }
  in.stab_probes.resize(BuildStatic::kProbes);
  for (double& q : in.stab_probes) q = req.next_double();
  in.knn_probes = uniform(req, BuildStatic::kProbes);
  in.fresh = uniform(req, BuildStatic::kForestCap);
  return in;
}

int run_build_static(const Args& a) {
  using weg::augtree::StaticIntervalTree;
  using weg::kdtree::KdTree;
  print_provenance(a, 0);
  bool correct = true;
  std::string error;
  auto fail = [&](const std::string& why) {
    correct = false;
    if (error.empty()) error = why;
  };

  std::vector<double> setup_s;
  BuildInputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = BuildInputs{};
    auto t = Clock::now();
    in = make_build_inputs(a.seed);
    setup_s.push_back(ms_since(t) / 1000);
  }

  // Builds: at least three repetitions, more while they fit in 60% of the
  // run (all of it when traced, which has no post-build phase); every
  // repetition must charge exactly the same asym counts.
  SpanLog log(true, Clock::now());
  std::vector<double> total_s, dt_ms, kd_ms, iv_ms;
  asym::Counts dt_c, kd_c, iv_c;
  std::optional<KdTree<2>> kd_tree;
  std::optional<StaticIntervalTree> iv_tree;
  uint64_t builds = 0;
  auto run_start = Clock::now();
  const double build_budget_ms = (a.trace ? 1000 : 600) * a.seconds;
  for (int rep = 0;
       rep < 3 || (ms_since(run_start) < build_budget_ms && rep < 50); ++rep) {
    int64_t s1 = log.begin("delaunay.triangulate", rep);
    auto mesh =
        weg::delaunay::triangulate(in.dt, weg::delaunay::Mode::kWriteEfficient);
    Span d = log.end(s1);
    int64_t s2 = log.begin("kdtree.pbatched_build", rep);
    KdTree<2> tree = weg::kdtree::PBatchedBuilder<2>::build(in.kd);
    Span k = log.end(s2);
    int64_t s3 = log.begin("augtree.static_build", rep);
    StaticIntervalTree itree = StaticIntervalTree::build_postsorted(in.iv);
    Span v = log.end(s3);
    builds += 3;
    dt_ms.push_back(d.ms());
    kd_ms.push_back(k.ms());
    iv_ms.push_back(v.ms());
    total_s.push_back((d.ms() + k.ms() + v.ms()) / 1000);
    if (rep == 0) {
      dt_c = d.cost;
      kd_c = k.cost;
      iv_c = v.cost;
      std::vector<uint32_t> sample;
      for (size_t i = 0; i < BuildStatic::kDelaunayCheckPoints; ++i) {
        sample.push_back(static_cast<uint32_t>(
            i * in.dt.size() / BuildStatic::kDelaunayCheckPoints));
      }
      if (!mesh->validate(true, &sample)) fail("Mesh::validate failed");
      if (!tree.validate()) fail("KdTree::validate failed");
      if (!itree.validate(in.iv)) fail("StaticIntervalTree::validate failed");
      kd_tree.emplace(std::move(tree));
      iv_tree.emplace(std::move(itree));
    } else if (d.cost.reads != dt_c.reads || d.cost.writes != dt_c.writes ||
               k.cost.reads != kd_c.reads || k.cost.writes != kd_c.writes ||
               v.cost.reads != iv_c.reads || v.cost.writes != iv_c.writes) {
      fail("build asym counts differ between repetitions");
    }
  }
  std::printf("# builds: %zu repetitions; counts (reads/writes) delaunay "
              "%llu/%llu, pbatched %llu/%llu, static interval %llu/%llu\n",
              total_s.size(), (unsigned long long)dt_c.reads,
              (unsigned long long)dt_c.writes, (unsigned long long)kd_c.reads,
              (unsigned long long)kd_c.writes, (unsigned long long)iv_c.reads,
              (unsigned long long)iv_c.writes);

  print_reps("delaunay.triangulate_ms", dt_ms);
  print_reps("kdtree.pbatched_build_ms", kd_ms);
  print_reps("augtree.static_build_ms", iv_ms);

  Metrics m;
  auto set = [&m](std::string name, double value) {
    m.emplace_back(std::move(name), value);
  };
  uint64_t attempted = builds, failed = correct ? 0 : 1;
  const double dt_n = static_cast<double>(in.dt.size());
  const double kd_n = static_cast<double>(in.kd.size());
  const double iv_n = static_cast<double>(in.iv.size());
  if (a.trace) {
    set("delaunay.triangulate_ms", median(dt_ms));
    set("delaunay.reads_per_pt", static_cast<double>(dt_c.reads) / dt_n);
    set("delaunay.writes_per_pt", static_cast<double>(dt_c.writes) / dt_n);
    set("kdtree.pbatched_build_ms", median(kd_ms));
    set("kdtree.reads_per_pt", static_cast<double>(kd_c.reads) / kd_n);
    set("kdtree.writes_per_pt", static_cast<double>(kd_c.writes) / kd_n);
    set("augtree.static_build_ms", median(iv_ms));
    set("augtree.reads_per_elem", static_cast<double>(iv_c.reads) / iv_n);
    set("augtree.writes_per_elem", static_cast<double>(iv_c.writes) / iv_n);
    if (!write_spans(a, log)) fail("could not write spans");
  } else {
    // Post-build phase for the rest of the run, closed loop. A query
    // request is one batch of stabbing probes on the static interval tree
    // followed by one batch of kNN probes on the p-batched k-d tree, timed
    // as one; an update request is one insert batch into the forest.
    LogForest<2> forest(LogForest<2>::RebuildMode::kPBatched);
    std::vector<double> q_ms, u_ms;
    std::vector<std::pair<size_t, std::vector<uint32_t>>> stab_checks;
    std::vector<std::pair<size_t, std::vector<Point2>>> knn_checks;
    uint64_t slo_met = 0, requests = 0;
    size_t fresh_next = 0;
    const double budget_ms = 1000 * a.seconds - ms_since(run_start);
    asym::Counts c0 = asym::total();
    auto window = Clock::now();
    for (size_t r = 0; r < 2 || ms_since(window) < budget_ms; ++r) {
      const size_t off = (r * BuildStatic::kProbeBatch) % BuildStatic::kProbes;
      std::vector<double> sq(
          in.stab_probes.begin() + static_cast<long>(off),
          in.stab_probes.begin() +
              static_cast<long>(off + BuildStatic::kProbeBatch));
      std::vector<Point2> kq(
          in.knn_probes.begin() + static_cast<long>(off),
          in.knn_probes.begin() +
              static_cast<long>(off + BuildStatic::kProbeBatch));
      auto t = Clock::now();
      auto stabbed = iv_tree->stab_batch(sq);
      auto nearest = kd_tree->knn_batch(kq, 8);
      q_ms.push_back(ms_since(t));
      const bool ok = stabbed.ok() && nearest.ok();
      if (ok && q_ms.back() <= BuildStatic::kQueryLimitMs) ++slo_met;
      if (!ok) ++failed;
      if (ok && r % BuildStatic::kCheckEvery == 0) {
        stab_checks.emplace_back(off, stabbed.result(0));
        knn_checks.emplace_back(off, nearest.result(0));
      }
      if (fresh_next == BuildStatic::kForestCap) {
        forest = LogForest<2>(LogForest<2>::RebuildMode::kPBatched);
        fresh_next = 0;
      }
      std::vector<Point2> batch(
          in.fresh.begin() + static_cast<long>(fresh_next),
          in.fresh.begin() +
              static_cast<long>(fresh_next + BuildStatic::kInsertBatch));
      t = Clock::now();
      Status s = forest.bulk_insert(batch);
      u_ms.push_back(ms_since(t));
      fresh_next += BuildStatic::kInsertBatch;
      if (s.ok() && u_ms.back() <= BuildStatic::kUpdateLimitMs) ++slo_met;
      if (!s.ok() || forest.size() != fresh_next) {
        ++failed;
        fail("forest bulk_insert lost points");
      }
      requests += 2;
    }
    asym::Counts cost = asym::total() - c0;
    attempted += requests;
    for (const auto& [off, ids] : stab_checks) {
      std::vector<uint32_t> got = ids;
      std::sort(got.begin(), got.end());
      if (got != brute_stab(in.iv, in.stab_probes[off])) {
        fail("stab_batch disagrees with brute force");
      }
    }
    for (const auto& [off, pts] : knn_checks) {
      if (!bitwise_equal(pts,
                         brute_knn(in.kd, nullptr, in.knn_probes[off], 8))) {
        fail("knn_batch disagrees with brute force");
      }
    }
    std::printf("# post-build: %llu requests, %zu query requests checked "
                "against brute force\n",
                (unsigned long long)requests, stab_checks.size());
    print_reps("setup_s", setup_s);
    print_reps("build_s", total_s);
    print_quantiles("query", q_ms);
    print_quantiles("update", u_ms);
    double elems = dt_n + kd_n + iv_n;
    set("setup_s", median(setup_s));
    set("query_p50_ms", published("query", q_ms, 0.5));
    set("query_p90_ms", published("query", q_ms, kTail));
    set("update_p50_ms", published("update", u_ms, 0.5));
    set("update_p90_ms", published("update", u_ms, kTail));
    set("slo_met_frac", ratio(slo_met, requests));
    set("asym_reads_per_req", ratio(cost.reads, requests));
    set("asym_writes_per_req", ratio(cost.writes, requests));
    set("build_s", median(total_s));
    set("build_reads_per_elem",
        static_cast<double>(dt_c.reads + kd_c.reads + iv_c.reads) / elems);
    set("build_writes_per_elem",
        static_cast<double>(dt_c.writes + kd_c.writes + iv_c.writes) / elems);
  }
  if (!error.empty()) std::printf("# error: %s\n", error.c_str());
  print_result(correct, attempted, failed, m);
  return 0;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--rate") {
      a->rate = std::strtod(v.c_str(), nullptr);
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace wegbench

int main(int argc, char** argv) {
  using namespace wegbench;
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: wegbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--rate <req/s>] [--git-sha <sha>] "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  busy_warmup(1500);
  if (a.workload == KnnWorkload::kName) return run_serving<KnnWorkload>(a);
  if (a.workload == "build_static") return run_build_static(a);
  std::fprintf(stderr, "wegbench: unknown workload %s\n", a.workload.c_str());
  return 2;
}
