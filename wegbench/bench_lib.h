// Building blocks of the repository benchmark that carry no workload:
// tail-aware percentiles, the seeded Poisson arrival process, flush
// reconstruction from serve::Engine::run_trace outcomes, the in-memory span
// log, and the result printer. The benchmark binary (main.cc) and the
// benchmark's own tests (tests.cc) share them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/primitives/random.h"

namespace wegbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// --- percentiles -----------------------------------------------------------

// A percentile is published only when at least this many samples lie
// strictly beyond its rank; below that it says more about one outlier than
// about the tail.
inline constexpr size_t kMinTail = 10;

struct Percentile {
  double value = 0;   // the sample at the chosen rank
  double p = 0;       // the quantile actually reported
  size_t n = 0;       // sample count
  size_t beyond = 0;  // samples strictly above the rank
  bool reportable = false;
};

// Nearest-rank index of quantile p over n sorted samples: ceil(p * n) - 1.
// The epsilon keeps p * n from rounding up past an exact integer.
inline size_t rank_index(size_t n, double p) {
  double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  size_t idx = r < 1 ? 0 : static_cast<size_t>(r) - 1;
  return std::min(idx, n - 1);
}

inline Percentile percentile_sorted(const std::vector<double>& sorted,
                                    double p) {
  Percentile r;
  r.n = sorted.size();
  r.p = p;
  if (sorted.empty()) return r;
  size_t idx = rank_index(r.n, p);
  r.value = sorted[idx];
  r.beyond = r.n - 1 - idx;
  r.reportable = r.beyond >= kMinTail;
  return r;
}

inline Percentile percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

// The value to publish for a tail metric: quantile p when it is reportable,
// otherwise the highest quantile that still has kMinTail samples beyond it
// (r.p then names the quantile used and r.reportable stays false).
inline Percentile tail_percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  Percentile r = percentile_sorted(xs, p);
  if (r.reportable || r.n <= kMinTail) return r;
  size_t idx = r.n - 1 - kMinTail;
  r.value = xs[idx];
  r.p = static_cast<double>(idx + 1) / static_cast<double>(r.n);
  r.beyond = kMinTail;
  return r;
}

// A diagnostic for a published quantile: the samples (in send order) are
// cut into `windows` consecutive equal parts and quantile p is taken in
// each, which shows whether a tail is spread over the run or set by a few
// bursts. Each part must keep kMinTail samples beyond its rank; with too
// few samples the split falls back to fewer parts (down to one).
struct WindowedTail {
  size_t windows = 0;
  size_t n = 0;
  size_t beyond = 0;  // samples beyond the rank in the smallest part
  std::vector<double> per_window;
};

inline WindowedTail windowed_tail(const std::vector<double>& in_order,
                                  double p, size_t windows) {
  WindowedTail w;
  w.n = in_order.size();
  for (; windows > 1; --windows) {
    size_t part = w.n / windows;
    if (part > 0 && part - 1 - rank_index(part, p) >= kMinTail) break;
  }
  w.windows = std::max<size_t>(windows, 1);
  for (size_t k = 0; k < w.windows; ++k) {
    std::vector<double> part(
        in_order.begin() + static_cast<long>(k * w.n / w.windows),
        in_order.begin() + static_cast<long>((k + 1) * w.n / w.windows));
    Percentile t = tail_percentile(std::move(part), p);
    w.per_window.push_back(t.value);
    w.beyond = k == 0 ? t.beyond : std::min(w.beyond, t.beyond);
  }
  return w;
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// --- arrivals --------------------------------------------------------------

// Arrival times in microseconds of a Poisson process of `rate_per_s` over
// [0, duration_us): exponential gaps drawn from one SplitMix64 stream, so
// the schedule is a pure function of (seed, rate, duration).
inline std::vector<double> poisson_arrivals(uint64_t seed, double rate_per_s,
                                            double duration_us) {
  weg::primitives::Rng rng(seed);
  const double mean_gap_us = 1e6 / rate_per_s;
  std::vector<double> at;
  at.reserve(static_cast<size_t>(duration_us / mean_gap_us * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += -std::log1p(-rng.next_double()) * mean_gap_us;
    if (t >= duration_us) break;
    at.push_back(t);
  }
  return at;
}

// --- flush reconstruction --------------------------------------------------

// One flush of Engine::run_trace: a query batch or an update epoch, with the
// trace positions of its requests in admission order.
struct Flush {
  bool epoch = false;
  uint64_t version = 0;  // snapshot a query batch read / version an epoch made
  std::vector<uint32_t> members;
};

// Rebuilds run_trace's flush sequence from its per-request outcomes. Query
// requests of one batch share (version, completed_at_us); the requests of
// one epoch share the version it published. Epoch v comes after every query
// batch that read v - 1 and before every batch that reads v, and batches of
// one version run in flush-time order. Two batches flushed at the same
// logical instant against the same version merge into one (their results
// are per-query, so a replay answers them identically). Requests that did
// not complete OK belong to no flush.
template <typename Outcome, typename IsUpdate>
std::vector<Flush> reconstruct_flushes(const std::vector<Outcome>& out,
                                       IsUpdate&& is_update) {
  std::map<std::tuple<uint64_t, int, uint64_t>, Flush> by_key;
  for (size_t i = 0; i < out.size(); ++i) {
    if (!out[i].status.ok()) continue;
    bool up = is_update(i);
    auto key = up ? std::make_tuple(out[i].version, 0, uint64_t{0})
                  : std::make_tuple(out[i].version, 1, out[i].completed_at_us);
    Flush& f = by_key[key];
    f.epoch = up;
    f.version = out[i].version;
    f.members.push_back(static_cast<uint32_t>(i));
  }
  std::vector<Flush> seq;
  seq.reserve(by_key.size());
  for (auto& [key, f] : by_key) seq.push_back(std::move(f));
  return seq;
}

// --- spans -----------------------------------------------------------------

// One timed call into a layer, with the asym reads/writes the process
// performed while it ran (asym::Region semantics: nothing else runs during
// the traced replay, so the delta is the call's own).
struct Span {
  const char* name = "";
  uint64_t step = 0;    // flush index within the replay
  int shard = -1;       // shard id for per-shard spans
  double start_us = 0;
  double end_us = 0;
  weg::asym::Counts cost;
  double ms() const { return (end_us - start_us) / 1000.0; }
};

// Spans stay in memory while the replay runs and are written out once at
// the end. With recording off, begin()/end() do nothing.
class SpanLog {
 public:
  SpanLog(bool on, Clock::time_point t0) : on_(on), t0_(t0) {}

  bool on() const { return on_; }

  int64_t begin(const char* name, uint64_t step, int shard = -1) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.step = step;
    s.shard = shard;
    s.cost = weg::asym::total();
    s.start_us = us_since(t0_);
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Closes span `id` and returns a copy of it (an empty span when
  // recording is off).
  Span end(int64_t id) {
    if (id < 0) return Span{};
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_us = us_since(t0_);
    s.cost = weg::asym::total() - s.cost;
    return s;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", "
                   "\"step\": %llu, \"shard\": %d, \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"reads\": %llu, \"writes\": %llu}\n",
                   i, s.name,
                   static_cast<unsigned long long>(s.step), s.shard,
                   s.start_us, s.end_us,
                   static_cast<unsigned long long>(s.cost.reads),
                   static_cast<unsigned long long>(s.cost.writes));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

// --- results ---------------------------------------------------------------

// The metrics one run computed, by name. Which metrics the benchmark
// publishes, and their units, is BENCHMARK.json's business: run.py checks
// these names against it and fills in the layers a workload does not run.
using Metrics = std::vector<std::pair<std::string, double>>;

// Prints the one-line JSON result, last on standard output. A non-finite
// value cannot be published and fails the run.
inline void print_result(bool correct, uint64_t attempted, uint64_t failed,
                         Metrics metrics) {
  for (auto& [name, value] : metrics) {
    if (!std::isfinite(value)) {
      std::printf("# metric %s is not finite\n", name.c_str());
      correct = false;
      value = 0;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace wegbench
