#include "src/delaunay/delaunay.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "src/core/prefix_doubling.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/priority_write.h"
#include "src/primitives/sequence.h"

namespace weg::delaunay {

namespace {

constexpr int64_t kGrid = int64_t{1} << 24;  // coordinates in [0, 2^24)

// Per-point state. The statistics tallies live here rather than in shared
// atomics, so the hot rounds touch only the point's own record; they are
// summed once at the end.
struct PerPoint {
  uint32_t seed = kNoTri;
  std::vector<uint32_t> dead;
  std::vector<Mesh::Boundary> boundary;
  uint64_t history_steps = 0;
  uint32_t cavity_triangles = 0;
  uint32_t retries = 0;
};

// Fixed block size for the uncounted bookkeeping passes (bounding box,
// active-set compaction): never a function of the worker count, so the
// rounds — and every counted access they make — are identical at every
// WEG_NUM_THREADS. These passes mirror primitives::reduce/pack but stay
// local: the shared helpers charge asym counts and take whole sequences,
// while these are uncounted bookkeeping over subranges/scratch.
constexpr size_t kBlock = primitives::kBlockSize;

// Reservation prefix: each sub-round, the first max(kMinPrefix, inserted /
// kPrefixDivisor) active points attempt insertion. Both modes share it.
constexpr size_t kMinPrefix = 64;
constexpr size_t kPrefixDivisor = 32;

}  // namespace

std::vector<geom::GridPoint> quantize(const std::vector<geom::Point2>& pts,
                                      size_t* duplicates_dropped) {
  double minx = 0, maxx = 1, miny = 0, maxy = 1;
  if (!pts.empty()) {
    // Blocked parallel min/max reduction (partials live in symmetric
    // memory: uncounted, like the serial pass it replaces).
    size_t n = pts.size();
    size_t nb = (n + kBlock - 1) / kBlock;
    std::vector<std::array<double, 4>> partial(nb);
    parallel::parallel_for(
        0, nb,
        [&](size_t b) {
          size_t lo = b * kBlock, hi = std::min(n, lo + kBlock);
          std::array<double, 4> acc = {pts[lo][0], pts[lo][0], pts[lo][1],
                                       pts[lo][1]};
          for (size_t i = lo + 1; i < hi; ++i) {
            acc[0] = std::min(acc[0], pts[i][0]);
            acc[1] = std::max(acc[1], pts[i][0]);
            acc[2] = std::min(acc[2], pts[i][1]);
            acc[3] = std::max(acc[3], pts[i][1]);
          }
          partial[b] = acc;
        },
        1);
    minx = maxx = pts[0][0];
    miny = maxy = pts[0][1];
    for (const auto& acc : partial) {
      minx = std::min(minx, acc[0]);
      maxx = std::max(maxx, acc[1]);
      miny = std::min(miny, acc[2]);
      maxy = std::max(maxy, acc[3]);
    }
  }
  double sx = (maxx > minx) ? (static_cast<double>(kGrid - 1) / (maxx - minx))
                            : 0.0;
  double sy = (maxy > miny) ? (static_cast<double>(kGrid - 1) / (maxy - miny))
                            : 0.0;
  std::vector<geom::GridPoint> out;
  out.reserve(pts.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(2 * pts.size());
  size_t dropped = 0;
  for (const auto& p : pts) {
    int64_t x = static_cast<int64_t>(std::llround((p[0] - minx) * sx));
    int64_t y = static_cast<int64_t>(std::llround((p[1] - miny) * sy));
    uint64_t key = (static_cast<uint64_t>(x) << 32) | static_cast<uint64_t>(y);
    if (!seen.insert(key).second) {
      ++dropped;
      continue;
    }
    out.push_back(
        geom::GridPoint{x, y, static_cast<uint32_t>(out.size())});
  }
  if (duplicates_dropped) *duplicates_dropped = dropped;
  return out;
}

std::unique_ptr<Mesh> triangulate(const std::vector<geom::GridPoint>& pts,
                                  Mode mode, DTStats* stats) {
  size_t n = pts.size();
  DTStats local{};
  asym::Region region;

  // Vertex array: points then the three bounding vertices (far outside the
  // grid but within the exact-predicate coordinate bound).
  std::vector<geom::GridPoint> verts = pts;
  uint32_t ba = static_cast<uint32_t>(n), bb = ba + 1, bc = ba + 2;
  verts.push_back(geom::GridPoint{-3 * kGrid, -3 * kGrid, ba});
  verts.push_back(geom::GridPoint{7 * kGrid, -3 * kGrid, bb});
  verts.push_back(geom::GridPoint{-3 * kGrid, 7 * kGrid, bc});

  auto mesh = std::make_unique<Mesh>(std::move(verts), 12 * n + 64);
  mesh->init_bounding(ba, bb, bc);

  std::vector<std::pair<size_t, size_t>> batches;
  if (mode == Mode::kWriteEfficient) {
    batches = core::prefix_doubling_rounds(n);
  } else if (n > 0) {
    batches.emplace_back(0, n);
  }
  local.prefix_rounds = batches.size();

  std::vector<PerPoint> state(n);

  for (auto [blo, bhi] : batches) {
    std::vector<uint32_t> active(bhi - blo);
    parallel::parallel_for(blo, bhi, [&](size_t i) {
      active[i - blo] = static_cast<uint32_t>(i);
      state[i].seed = mesh->root();
    });
    size_t inserted_in_batch = 0;
    while (!active.empty()) {
      ++local.sub_rounds;
      // Deterministic-reservation prefix (Blelloch, Fineman, Gibbons and
      // Shun, PPoPP 2012). It is a function of the inserted count alone,
      // never of the worker count, so the winners and every counted access
      // repeat at any WEG_NUM_THREADS. Its size sets the cost: a point that
      // loses a reservation is charged its reservation writes and reads,
      // and pays again for its descent and cavity in the next sub-round. A
      // prefix of a small fraction of the mesh keeps such losses rare.
      size_t prefix =
          std::max(kMinPrefix, (blo + inserted_in_batch) / kPrefixDivisor);
      size_t attempt = std::min(active.size(), prefix);
      parallel::parallel_for(0, attempt, [&](size_t i) {
        uint32_t p = active[i];
        PerPoint& st = state[p];
        uint64_t steps = 0;
        uint32_t start = st.seed;
        uint32_t found = mesh->descend(p, start, [&](uint32_t) {
          ++steps;
          if (mode == Mode::kBaseline) {
            // Algorithm 2: the point is rewritten into the encroached set of
            // the next triangle at every step of its descent.
            asym::count_write();
          }
        });
        if (found == kNoTri) {
          // Defensive: restart from the root (cannot happen for consistent
          // predicates; kept for robustness).
          found = mesh->descend(p, mesh->root(), [&](uint32_t) { ++steps; });
          assert(found != kNoTri);
        }
        st.history_steps += steps;
        if (mode == Mode::kWriteEfficient && found != start) {
          // DAG tracing: one write to record the new placement.
          asym::count_write();
        }
        st.seed = found;
        mesh->cavity(p, st.seed, st.dead, st.boundary);
      });
      // Phase 2: reserve cavity + boundary outside triangles.
      parallel::parallel_for(0, attempt, [&](size_t i) {
        uint32_t p = active[i];
        PerPoint& st = state[p];
        for (uint32_t t : st.dead) {
          asym::count_write();
          parallel::write_min(&mesh->tri(t).reserve, p);
        }
        for (const auto& b : st.boundary) {
          if (b.outside != kNoTri) {
            asym::count_write();
            parallel::write_min(&mesh->tri(b.outside).reserve, p);
          }
        }
      });
      // Phase 3: winners commit.
      std::vector<uint8_t> done(attempt, 0);
      parallel::parallel_for(0, attempt, [&](size_t i) {
        uint32_t p = active[i];
        PerPoint& st = state[p];
        bool win = true;
        for (uint32_t t : st.dead) {
          asym::count_read();
          if (mesh->tri(t).reserve.load(std::memory_order_acquire) != p) {
            win = false;
            break;
          }
        }
        if (win) {
          for (const auto& b : st.boundary) {
            if (b.outside == kNoTri) continue;  // hull edge: nothing to read
            asym::count_read();
            if (mesh->tri(b.outside).reserve.load(std::memory_order_acquire) !=
                p) {
              win = false;
              break;
            }
          }
        }
        if (!win) {
          ++st.retries;
          return;
        }
        mesh->retriangulate(p, st.dead, st.boundary);
        st.cavity_triangles = static_cast<uint32_t>(st.dead.size());
        done[i] = 1;
      });
      // Phase 4: clear reservations and compact the active set.
      parallel::parallel_for(0, attempt, [&](size_t i) {
        uint32_t p = active[i];
        PerPoint& st = state[p];
        for (uint32_t t : st.dead) {
          mesh->tri(t).reserve.store(UINT32_MAX, std::memory_order_relaxed);
        }
        for (const auto& b : st.boundary) {
          if (b.outside != kNoTri) {
            mesh->tri(b.outside).reserve.store(UINT32_MAX,
                                               std::memory_order_relaxed);
          }
        }
      });
      // Compact the round's survivors with a blocked stable pack (pure
      // bookkeeping over symmetric-memory scratch: uncounted, like the
      // serial loop it replaces).
      size_t nb = (attempt + kBlock - 1) / kBlock;
      std::vector<size_t> offs(nb, 0);
      parallel::parallel_for(
          0, nb,
          [&](size_t b) {
            size_t lo = b * kBlock, hi = std::min(attempt, lo + kBlock);
            size_t c = 0;
            for (size_t i = lo; i < hi; ++i) c += done[i] ? 0 : 1;
            offs[b] = c;
          },
          1);
      size_t kept = 0;
      for (size_t b = 0; b < nb; ++b) {
        size_t c = offs[b];
        offs[b] = kept;
        kept += c;
      }
      std::vector<uint32_t> next(kept + (active.size() - attempt));
      parallel::parallel_for(
          0, nb,
          [&](size_t b) {
            size_t lo = b * kBlock, hi = std::min(attempt, lo + kBlock);
            size_t pos = offs[b];
            for (size_t i = lo; i < hi; ++i) {
              if (!done[i]) next[pos++] = active[i];
            }
          },
          1);
      parallel::parallel_for(attempt, active.size(), [&](size_t i) {
        next[kept + (i - attempt)] = active[i];
      });
      inserted_in_batch += attempt - kept;
      active.swap(next);
    }
  }

  local.cost = region.delta();
  for (const PerPoint& st : state) {
    local.history_steps += st.history_steps;
    local.cavity_triangles += st.cavity_triangles;
    local.retries += st.retries;
  }
  local.triangles_created = mesh->num_created();
  local.points_inserted = n;
  if (stats) *stats = local;
  return mesh;
}

std::unique_ptr<Mesh> triangulate(const std::vector<geom::Point2>& pts,
                                  Mode mode, DTStats* stats) {
  size_t dropped = 0;
  auto grid = quantize(pts, &dropped);
  auto mesh = triangulate(grid, mode, stats);
  if (stats) stats->duplicates_dropped = dropped;
  return mesh;
}

}  // namespace weg::delaunay
