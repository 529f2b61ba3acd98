// The benchmark's own tests: the percentile rule, the seeded schedule, flush
// reconstruction from run_trace outcomes, and per-layer replay counts that
// do not depend on the worker count.
//
//   wegbench_tests            run every test (exit 1 on any failure)
//   wegbench_tests --digest   print the replay counts of a small instance
//                             (the worker-count test runs this twice)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "wegbench/bench_lib.h"
#include "wegbench/serving.h"

namespace wegbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> iota_samples(size_t n) {
  std::vector<double> xs(n);
  // Descending, so the helpers have to sort.
  for (size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(n - i);
  return xs;
}

void test_percentile_rule() {
  // 1000 samples: p99 is rank 990, with exactly 10 samples beyond it.
  Percentile p = percentile(iota_samples(1000), 0.99);
  CHECK(p.value == 990 && p.beyond == 10 && p.reportable);
  // 999 samples: only 9 lie beyond the p99 rank, so it is not reportable,
  // and the published tail falls back to the rank with 10 beyond.
  p = percentile(iota_samples(999), 0.99);
  CHECK(!p.reportable && p.beyond == 9);
  Percentile t = tail_percentile(iota_samples(999), 0.99);
  CHECK(!t.reportable && t.beyond == 10 && t.value == 989 && t.p < 0.99);
  t = tail_percentile(iota_samples(5000), 0.99);
  CHECK(t.reportable && t.value == 4950 && t.p == 0.99);
  // The median of a plain range and the nearest-rank p50.
  CHECK(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5);
  CHECK(percentile(iota_samples(10), 0.5).value == 5);
  CHECK(percentile({}, 0.5).n == 0);
}

void test_schedule_reproduces() {
  std::vector<double> a = poisson_arrivals(7, 4000, 2e6);
  std::vector<double> b = poisson_arrivals(7, 4000, 2e6);
  CHECK(bitwise_equal(a, b));
  CHECK(!bitwise_equal(a, poisson_arrivals(8, 4000, 2e6)));
  // About rate * duration arrivals, strictly increasing, inside the window.
  CHECK(a.size() > 7600 && a.size() < 8400);
  CHECK(std::is_sorted(a.begin(), a.end()) && a.back() < 2e6);

  auto same = [](const auto& x, const auto& y) {
    if (x.events.size() != y.events.size()) return false;
    for (size_t i = 0; i < x.events.size(); ++i) {
      const auto& e = x.events[i];
      const auto& f = y.events[i];
      if (e.kind != f.kind || e.at_us != f.at_us || !(e.query == f.query) ||
          !(e.rec == f.rec)) {
        return false;
      }
    }
    return x.preload == y.preload;
  };
  KnnWorkload kw;
  auto s1 = make_schedule(kw, 3, 1024, 4000, 5e5);
  CHECK(same(s1, make_schedule(kw, 3, 1024, 4000, 5e5)));
  CHECK(!same(s1, make_schedule(kw, 4, 1024, 4000, 5e5)));
  // The data set is fixed; the seed drives the request stream.
  CHECK(s1.preload == make_schedule(kw, 4, 1024, 4000, 5e5).preload);
  // One request in kUpdateEvery is an update, alternating insert/erase.
  size_t ins = 0, ers = 0;
  for (const auto& e : s1.events) {
    ins += e.kind == RequestKind::kInsert;
    ers += e.kind == RequestKind::kErase;
  }
  CHECK(ins + ers == s1.events.size() / KnnWorkload::kUpdateEvery);
  CHECK(ins - ers <= 1);
}

// run_trace with small batches: the reconstructed flushes must account for
// every batch and epoch the engine counted, with the same size histogram,
// and replaying them must reproduce run_trace's results bitwise.
void test_flush_reconstruction() {
  KnnWorkload w;
  auto sch = make_schedule(w, 11, 2048, 20000, 1e5);
  weg::serve::Config cfg;
  cfg.max_batch = 4;
  cfg.max_delay_us = 300;
  EngineT<KnnWorkload> eng(cfg, KnnWorkload::kRouting, KnnWorkload::kFanout);
  CHECK(eng.bulk_load(sch.preload).ok());
  auto out = eng.run_trace(sch.events);
  auto flushes = reconstruct_flushes(out, [&](size_t i) {
    return sch.events[i].kind != RequestKind::kQuery;
  });
  weg::serve::Stats st = eng.stats();
  size_t batches = 0, epochs = 0, members = 0;
  std::array<uint64_t, 20> hist{};
  uint64_t last_version = 0;
  for (const Flush& f : flushes) {
    (f.epoch ? epochs : batches) += 1;
    members += f.members.size();
    ++hist[std::min<size_t>(std::bit_width(f.members.size()), 19)];
    CHECK(f.version >= last_version);
    if (f.epoch) CHECK(f.version == last_version + 1 || last_version == 0);
    last_version = f.version;
  }
  CHECK(members == sch.events.size());
  CHECK(batches == st.query_batches && batches > 10);
  CHECK(epochs == st.epochs_committed && epochs > 3);
  CHECK(hist == st.batch_size_hist);
  CHECK(st.size_flushes > 0 && st.deadline_flushes > 0);

  SpanLog log(true, Clock::now());
  ReplayResult rr =
      traced_replay<KnnWorkload>(sch, sch.events.size(), cfg, log);
  CHECK(rr.error.empty());
  CHECK(rr.layers.query_batches == batches && rr.layers.epochs == epochs);
  CHECK(!log.spans().empty());
}

// Per-layer counts of a small replay of the serving workload.
std::string replay_digest() {
  std::string d;
  auto add = [&d](const char* name, const LayerStats& L, size_t flushes) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s flushes=%zu batches=%zu epochs=%zu query=%llu/%llu "
        "commit=%llu/%llu clone=%llu/%llu insert=%llu/%llu erase=%llu/%llu "
        "visits=%llu/%llu\n",
        name, flushes, L.query_batches, L.epochs,
        (unsigned long long)L.query_cost.reads,
        (unsigned long long)L.query_cost.writes,
        (unsigned long long)L.commit_cost.reads,
        (unsigned long long)L.commit_cost.writes,
        (unsigned long long)L.clone_cost.reads,
        (unsigned long long)L.clone_cost.writes,
        (unsigned long long)L.insert_cost.reads,
        (unsigned long long)L.insert_cost.writes,
        (unsigned long long)L.erase_cost.reads,
        (unsigned long long)L.erase_cost.writes,
        (unsigned long long)L.planner_visits,
        (unsigned long long)L.planner_queries);
    d += buf;
  };
  weg::serve::Config cfg;
  KnnWorkload w;
  auto sch = make_schedule(w, 5, 16384, 8000, 2e5);
  SpanLog log(true, Clock::now());
  ReplayResult rr = traced_replay<KnnWorkload>(sch, 1024, cfg, log);
  add(rr.error.empty() ? "knn" : "knn-ERROR", rr.layers, rr.flushes);
  return d;
}

std::string run_capture(const std::string& cmd) {
  std::string out;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  pclose(p);
  return out;
}

void test_replay_counts_ignore_worker_count(const char* self) {
  std::string cmd = std::string("'") + self + "' --digest";
  std::string p1 = run_capture("WEG_NUM_THREADS=1 " + cmd);
  std::string p4 = run_capture("WEG_NUM_THREADS=4 " + cmd);
  std::printf("p=1: %sp=4: %s", p1.c_str(), p4.c_str());
  CHECK(!p1.empty() && p1 == p4);
  CHECK(p1.find("ERROR") == std::string::npos);
  // A second run at the same worker count repeats exactly too.
  CHECK(run_capture("WEG_NUM_THREADS=4 " + cmd) == p4);
}

}  // namespace
}  // namespace wegbench

int main(int argc, char** argv) {
  using namespace wegbench;
  if (argc > 1 && std::string(argv[1]) == "--digest") {
    std::printf("%s", replay_digest().c_str());
    return 0;
  }
  test_percentile_rule();
  test_schedule_reproduces();
  test_flush_reconstruction();
  test_replay_counts_ignore_worker_count(argv[0]);
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
