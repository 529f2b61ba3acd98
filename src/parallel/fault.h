// Deterministic, seed-driven fault injection for the serving stack.
//
// A fault *point* is a named check compiled into a failure-capable code path
// (shard apply, bulk-op allocation budget, staged-record validation, the
// scheduler's steal loop). Each check supplies a deterministic *index* from
// its own context — the shard id, the op's node demand, the staged-record
// ordinal, the worker id — NOT a global call counter, so whether a check
// trips is a pure function of (armed spec, index): bit-identical at every
// worker count and immune to scheduling.
//
// Arming (one spec at a time):
//   * environment:  WEG_FAULT=<point>:<seed>:<nth>   (parsed on first check)
//   * programmatic: fault::arm(point, seed, nth) / fault::disarm(), or the
//     RAII fault::ScopedFault for tests.
//
// Selection rule for a check at `index`:
//   * seed == 0 — exact pin: trips iff index == nth ("fail shard 3 of 8").
//   * seed != 0 — seeded subset: trips iff splitmix64(seed ^ index) falls in
//     a 1/(nth+1) fraction of the hash space ("fail a pseudo-random subset
//     of shards, reproducible per seed" — the CI fault sweep's mode).
//
// Points defined today (the site passes the index):
//   shard_apply  — Sharded commit/bulk transaction, index = shard id.
//                  Trips just after the shard's prepare returns a plan,
//                  which is then dropped with every other plan (the path
//                  std::bad_alloc in prepare takes).
//   alloc        — bulk_insert entry of the three dynamic structures,
//                  index = the op's node demand (records to allocate for).
//                  Trips before the first write, so the structure is intact.
//   validate     — Sharded staged-record validation, index = record ordinal
//                  in the staged insert batch. Force-fails a record that
//                  would otherwise pass validation.
//   query_poison — Sharded per-shard sub-batch execution, index = shard id.
//                  Marks the shard's BatchResult poisoned; the merge
//                  propagates the poison to the merged result's status.
//   steal_stall  — scheduler worker loop, index = worker id. The worker
//                  sleeps kStallMillis before executing a stolen job,
//                  simulating a stalled worker for the join watchdog.
//
// Disarmed cost: one relaxed atomic load + branch per check (measured well
// inside the bench suite's 25% regression gate). Configure with
// -DWEG_FAULT_INJECTION=OFF to compile every check to a constant false for
// production builds.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/core/status.h"

#if !defined(WEG_FAULT_INJECTION)
#define WEG_FAULT_INJECTION 1
#endif

namespace weg::fault {

// How long a tripped steal_stall point sleeps (simulated stall). Large
// enough that a watchdog deadline of a few ms reliably expires first.
inline constexpr int kStallMillis = 100;

#if WEG_FAULT_INJECTION

struct Spec {
  std::string point;
  uint64_t seed = 0;
  uint64_t nth = 0;
};

namespace detail {
// Armed spec, null when disarmed. Published with release, read with acquire;
// retired specs are parked in a process-lifetime retire list (arming is a
// test-time operation, bounded per process) so concurrent checks never read
// freed memory.
extern std::atomic<const Spec*> g_spec;
// Lazily parses WEG_FAULT once; returns true ever after.
bool ensure_env_parsed();
bool should_fail_slow(const Spec* spec, const char* point, uint64_t index);
}  // namespace detail

// Arm `point` with the given selection rule (replaces any armed spec).
void arm(const char* point, uint64_t seed, uint64_t nth);
void disarm();

// Number of checks that have tripped since the last arm().
uint64_t trips();

// Fast disarmed check: a single relaxed load.
inline bool armed() {
  static const bool env = detail::ensure_env_parsed();
  (void)env;
  return detail::g_spec.load(std::memory_order_relaxed) != nullptr;
}

// True when the armed spec selects the check at deterministic site `index`.
inline bool should_fail(const char* point, uint64_t index) {
  if (!armed()) return false;
  const Spec* spec = detail::g_spec.load(std::memory_order_acquire);
  return spec != nullptr && detail::should_fail_slow(spec, point, index);
}

// RAII arming for tests: arms in the constructor, restores the disarmed
// state in the destructor.
class ScopedFault {
 public:
  ScopedFault(const char* point, uint64_t seed, uint64_t nth) {
    arm(point, seed, nth);
  }
  ~ScopedFault() { disarm(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

#else  // !WEG_FAULT_INJECTION: every check folds to a constant.

void inline arm(const char*, uint64_t, uint64_t) {}
void inline disarm() {}
inline uint64_t trips() { return 0; }
inline bool armed() { return false; }
inline bool should_fail(const char*, uint64_t) { return false; }
class ScopedFault {
 public:
  ScopedFault(const char*, uint64_t, uint64_t) {}
};

#endif  // WEG_FAULT_INJECTION

// Canonical Status for a tripped point.
inline Status injected(const char* point, uint64_t index) {
  return Status::FaultInjected(std::string("injected fault at ") + point +
                               " index " + std::to_string(index));
}

}  // namespace weg::fault
