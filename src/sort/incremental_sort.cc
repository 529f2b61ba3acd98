#include "src/sort/incremental_sort.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/core/lane_walk.h"
#include "src/core/prefix_doubling.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/random.h"
#include "src/primitives/semisort.h"

namespace weg::sort {

namespace {

constexpr uint32_t kEmpty = UINT32_MAX;

// Lane width of the tracing kernel: one task walks this many keys down the
// tree together, so their cache misses overlap instead of running one at a
// time.
constexpr size_t kLanes = 16;

// Cut depth of the parallel in-order emission: the at most 2^kCutDepth - 1
// nodes above it are walked serially, the subtrees rooted at it are sized
// and emitted in parallel.
constexpr int kCutDepth = 10;

// Output of tracing one key: the slot its search ends at (slot encoding,
// see Tree::slot) or kPostponed if its path enters a frozen subtree.
constexpr uint64_t kPostponed = UINT64_MAX;
struct Traced {
  uint64_t bucket;
  uint32_t elem;
};

// BST node for element e (node index == element index == insertion priority;
// lower index wins priority-writes). `placed` marks slots sealed in earlier
// rounds so late insertions (the WE final round) never displace a real node.
struct Node {
  uint64_t key = 0;
  std::atomic<uint32_t> child[2] = {kEmpty, kEmpty};
  std::atomic<bool> placed{false};
  std::atomic<bool> frozen{false};
};

struct Tree {
  // The node array is allocated, not constructed, and then built in
  // parallel: each page is first touched by the worker that fills it, and no
  // serial pass runs over the n nodes. Node is trivially destructible, so
  // freeing needs no pass either.
  explicit Tree(const std::vector<uint64_t>& keys)
      : size(keys.size()),
        nodes(static_cast<Node*>(::operator new(size * sizeof(Node)))) {
    parallel::parallel_for(0, size,
                           [&](size_t i) { ::new (&nodes[i]) Node{keys[i]}; });
  }

  struct NodesFree {
    void operator()(Node* p) const { ::operator delete(p); }
  };
  static_assert(std::is_trivially_destructible_v<Node>);

  size_t size;
  std::unique_ptr<Node[], NodesFree> nodes;
  std::atomic<uint32_t> root{kEmpty};

  // Strict order on elements: by key, ties by index (so duplicates work).
  static bool precedes(uint64_t ke, uint32_t e, uint64_t kat, uint32_t at) {
    return ke < kat || (ke == kat && e < at);
  }
  bool goes_left(uint32_t e, uint32_t at) const {
    return precedes(nodes[e].key, e, nodes[at].key, at);
  }

  // Slot encoding: 0 = root, else (node << 1 | side) + 1.
  std::atomic<uint32_t>* slot(uint64_t s) {
    if (s == 0) return &root;
    uint64_t v = s - 1;
    return &nodes[v >> 1].child[v & 1];
  }
  static uint64_t pack_slot(uint32_t node, int side) {
    return ((static_cast<uint64_t>(node) << 1) | static_cast<uint64_t>(side)) +
           1;
  }

  // Priority-write of element e into slot s: wins against empty and against
  // unsealed candidates with larger index; never displaces a placed node.
  // Counting follows Algorithm 1: an element at a slot that was empty at the
  // start of the round executes line 7 and is charged one write (even if a
  // concurrent higher-priority element wins); an element at an occupied slot
  // only reads and descends.
  void attempt(std::atomic<uint32_t>* s, uint32_t e) {
    uint32_t cur = s->load(std::memory_order_relaxed);
    asym::count_read();
    if (cur != kEmpty && nodes[cur].placed.load(std::memory_order_relaxed)) {
      return;  // slot sealed in an earlier round: descend without writing
    }
    asym::count_write();
    while (true) {
      if (cur != kEmpty &&
          (nodes[cur].placed.load(std::memory_order_relaxed) || cur < e)) {
        return;  // lost the priority-write
      }
      if (s->compare_exchange_weak(cur, e, std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
        return;
      }
    }
  }

  size_t height() const {
    // Iterative post-order height (uncounted verification helper).
    if (root.load() == kEmpty) return 0;
    struct Frame {
      uint32_t node;
      size_t depth;
    };
    std::vector<Frame> stack{{root.load(), 1}};
    size_t h = 0;
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      h = std::max(h, f.depth);
      for (int s = 0; s < 2; ++s) {
        uint32_t c = nodes[f.node].child[s].load(std::memory_order_relaxed);
        if (c != kEmpty) stack.push_back({c, f.depth + 1});
      }
    }
    return h;
  }

  // Walks the subtree at `sub` in order, calling visit(node) per node.
  template <typename Visit>
  void walk_inorder(uint32_t sub, Visit&& visit) const {
    std::vector<uint32_t> stack;
    uint32_t cur = sub;
    while (cur != kEmpty || !stack.empty()) {
      while (cur != kEmpty) {
        stack.push_back(cur);
        cur = nodes[cur].child[0].load(std::memory_order_relaxed);
      }
      cur = stack.back();
      stack.pop_back();
      visit(cur);
      cur = nodes[cur].child[1].load(std::memory_order_relaxed);
    }
  }

  // In-order traversal of node ids (charged as output writes by the
  // caller). Reads the tree only: the nodes above kCutDepth become an
  // in-order list of pieces — a single node, or a whole subtree rooted at
  // the cut — then the subtrees are sized in parallel and each writes its
  // in-order run at its offset in `out`. The piece list has fewer than
  // 2^(kCutDepth+1) entries, so it lives in symmetric memory.
  void inorder_ids(std::vector<uint32_t>& out) const {
    struct Piece {
      uint32_t node;
      bool whole;   // the subtree at `node`, or `node` alone
      size_t size;  // then the offset of its run in `out`
    };
    std::vector<Piece> pieces;
    auto top = [&](auto& self, uint32_t node, int depth) -> void {
      if (node == kEmpty) return;
      if (depth == kCutDepth) {
        pieces.push_back({node, true, 0});
        return;
      }
      self(self, nodes[node].child[0].load(std::memory_order_relaxed),
           depth + 1);
      pieces.push_back({node, false, 1});
      self(self, nodes[node].child[1].load(std::memory_order_relaxed),
           depth + 1);
    };
    top(top, root.load(), 0);
    parallel::parallel_for(
        0, pieces.size(),
        [&](size_t i) {
          if (pieces[i].whole) {
            walk_inorder(pieces[i].node, [&](uint32_t) { ++pieces[i].size; });
          }
        },
        1);
    size_t total = 0;
    for (Piece& pc : pieces) total += std::exchange(pc.size, total);
    out.resize(total);
    parallel::parallel_for(
        0, pieces.size(),
        [&](size_t i) {
          uint32_t* run = out.data() + pieces[i].size;
          if (!pieces[i].whole) {
            *run = pieces[i].node;
          } else {
            walk_inorder(pieces[i].node, [&](uint32_t v) { *run++ = v; });
          }
        },
        1);
  }

  void inorder(std::vector<uint64_t>& out) const {
    std::vector<uint32_t> ids;
    inorder_ids(ids);
    out.resize(ids.size());
    parallel::parallel_for(0, ids.size(),
                           [&](size_t i) { out[i] = nodes[ids[i]].key; });
  }

  // Step 1 of a write-efficient round (DAG tracing), for the at most kLanes
  // elements [lo, hi): walks them down the tree together on the shared lane
  // kernel (src/core/lane_walk.h), one level per pass over the lanes,
  // prefetching each lane's next node, and writes one Traced record per
  // element to `out`. Each lane is charged exactly what a lone search pays
  // — count_read(2) per level (node key and frozen bit, child slot) and one
  // write for its record — tallied here and charged once per block. The
  // tree is not modified while tracing runs, so lanes do not interact.
  void trace_block(size_t lo, size_t hi, Traced* out) const {
    uint32_t at[kLanes];
    uint64_t key[kLanes];
    size_t m = hi - lo;
    uint32_t r = root.load(std::memory_order_relaxed);
    assert(r != kEmpty);
    for (size_t l = 0; l < m; ++l) {
      at[l] = r;
      key[l] = nodes[lo + l].key;
    }
    core::Tally tally;
    core::walk_lanes<kLanes>(m, [&](size_t l) {
      uint32_t e = static_cast<uint32_t>(lo + l), w = at[l];
      const Node& nd = nodes[w];
      tally.reads += 2;
      if (nd.frozen.load(std::memory_order_relaxed)) {
        out[l] = Traced{kPostponed, e};
        return false;
      }
      int side = precedes(key[l], e, nd.key, w) ? 0 : 1;
      uint32_t c = nd.child[side].load(std::memory_order_relaxed);
      if (c == kEmpty) {
        out[l] = Traced{pack_slot(w, side), e};
        return false;
      }
      __builtin_prefetch(&nodes[c]);
      at[l] = c;
      return true;
    });
    tally.writes += m;  // one (bucket, element) record per lane
    tally.charge();
  }
};

// Runs Algorithm 1 in parallel rounds over `elems` (element ids, already in
// priority order by construction since ids are priorities). Every active
// element attempts a priority-write each round and descends one level on
// loss. Returns the number of rounds.
size_t classic_rounds(Tree& tree, std::vector<uint32_t> elems) {
  std::vector<uint64_t> cur_slot(tree.size);  // task register state
  for (uint32_t e : elems) cur_slot[e] = 0;
  size_t rounds = 0;
  while (!elems.empty()) {
    ++rounds;
    parallel::parallel_for(0, elems.size(), [&](size_t i) {
      uint32_t e = elems[i];
      tree.attempt(tree.slot(cur_slot[e]), e);
    });
    std::vector<uint8_t> done(elems.size());
    parallel::parallel_for(0, elems.size(), [&](size_t i) {
      uint32_t e = elems[i];
      asym::count_read(2);  // slot winner + its key
      uint32_t w = tree.slot(cur_slot[e])->load(std::memory_order_acquire);
      if (w == e) {
        tree.nodes[e].placed.store(true, std::memory_order_release);
        done[i] = 1;
      } else {
        int side = tree.goes_left(e, w) ? 0 : 1;
        cur_slot[e] = Tree::pack_slot(w, side);
        done[i] = 0;
      }
    });
    std::vector<uint32_t> next;
    next.reserve(elems.size());
    for (size_t i = 0; i < elems.size(); ++i) {
      if (!done[i]) next.push_back(elems[i]);
    }
    elems.swap(next);
  }
  return rounds;
}

}  // namespace

std::vector<uint64_t> incremental_sort_classic(
    const std::vector<uint64_t>& keys, SortStats* stats) {
  asym::Region region;
  Tree tree(keys);
  std::vector<uint32_t> elems(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) elems[i] = static_cast<uint32_t>(i);
  size_t rounds = classic_rounds(tree, std::move(elems));
  std::vector<uint64_t> out;
  tree.inorder(out);
  asym::count_write(out.size());  // output
  if (stats) {
    stats->cost = region.delta();
    stats->rounds = rounds;
    stats->postponed = 0;
    stats->tree_height = tree.height();
  }
  return out;
}

namespace {

// Shared body of the write-efficient variants: builds the BST with prefix
// doubling + tracing + bucket finishing. Fills rounds/postponed counters.
std::unique_ptr<Tree> build_we_tree(const std::vector<uint64_t>& keys,
                                    size_t cutoff, size_t* total_rounds_out,
                                    size_t* postponed_out);

}  // namespace

std::vector<uint64_t> incremental_sort_we(const std::vector<uint64_t>& keys,
                                          SortStats* stats, size_t cutoff) {
  size_t n = keys.size();
  if (n == 0) {
    if (stats) *stats = SortStats{};
    return {};
  }
  asym::Region region;
  size_t rounds = 0, postponed = 0;
  auto tree = build_we_tree(keys, cutoff, &rounds, &postponed);
  std::vector<uint64_t> out;
  tree->inorder(out);
  asym::count_write(out.size());
  if (stats) {
    stats->cost = region.delta();
    stats->rounds = rounds;
    stats->postponed = postponed;
    stats->tree_height = tree->height();
  }
  return out;
}

std::vector<uint32_t> incremental_sort_we_order(
    const std::vector<uint64_t>& keys, SortStats* stats, size_t cutoff) {
  size_t n = keys.size();
  if (n == 0) {
    if (stats) *stats = SortStats{};
    return {};
  }
  asym::Region region;
  size_t rounds = 0, postponed = 0;
  auto tree = build_we_tree(keys, cutoff, &rounds, &postponed);
  std::vector<uint32_t> out;
  tree->inorder_ids(out);
  asym::count_write(out.size());
  if (stats) {
    stats->cost = region.delta();
    stats->rounds = rounds;
    stats->postponed = postponed;
    stats->tree_height = tree->height();
  }
  return out;
}

std::vector<uint32_t> incremental_sort_we_order_anyorder(
    const std::vector<uint64_t>& keys, SortStats* stats) {
  size_t n = keys.size();
  auto perm = primitives::random_permutation(n, 0x5eedb0a7ULL + n);
  std::vector<uint64_t> shuffled(n);
  asym::count_read(n);
  asym::count_write(n);  // the shuffle pass
  for (size_t i = 0; i < n; ++i) shuffled[i] = keys[perm[i]];
  auto order = incremental_sort_we_order(shuffled, stats);
  asym::count_read(n);
  asym::count_write(n);  // compose the permutations
  for (size_t i = 0; i < n; ++i) order[i] = perm[order[i]];
  return order;
}

uint64_t double_to_sortable(double d) {
  uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  // Negative doubles: flip all bits; non-negative: flip the sign bit.
  return (bits & 0x8000000000000000ULL) ? ~bits
                                        : bits | 0x8000000000000000ULL;
}

namespace {

std::unique_ptr<Tree> build_we_tree(const std::vector<uint64_t>& keys,
                                    size_t cutoff, size_t* total_rounds_out,
                                    size_t* postponed_out) {
  size_t n = keys.size();
  if (cutoff == 0) {
    double ll = std::log2(std::max(2.0, std::log2(static_cast<double>(n) + 2)));
    cutoff = static_cast<size_t>(4.0 * ll) + 4;  // c3 * log log n
  }
  auto tree_ptr = std::make_unique<Tree>(keys);
  Tree& tree = *tree_ptr;
  auto rounds_spec = core::prefix_doubling_rounds(n);
  size_t total_rounds = 0;
  std::vector<uint32_t> postponed;

  // Initial round: classic Algorithm 1 on the first n/log^2 n keys.
  {
    auto [lo, hi] = rounds_spec[0];
    std::vector<uint32_t> elems(hi - lo);
    for (size_t i = lo; i < hi; ++i) elems[i - lo] = static_cast<uint32_t>(i);
    total_rounds += classic_rounds(tree, std::move(elems));
  }

  // Incremental rounds: trace to bucket, semisort by bucket, resolve buckets.
  for (size_t r = 1; r < rounds_spec.size(); ++r) {
    auto [lo, hi] = rounds_spec[r];
    ++total_rounds;
    std::vector<Traced> traced(hi - lo);
    // Step 1 — DAG tracing down the search tree: reads only, one bookkeeping
    // write per element to record its bucket. Fixed blocks of kLanes keys.
    parallel::parallel_for(0, (hi - lo + kLanes - 1) / kLanes, [&](size_t b) {
      size_t blo = lo + b * kLanes;
      tree.trace_block(blo, std::min(hi, blo + kLanes), &traced[blo - lo]);
    });

    // Step 2 — semisort by bucket id. Late rounds trace most keys into few
    // buckets (and frozen paths all share kPostponed), exactly the skew the
    // sampling semisort's heavy-key buckets absorb in O(n).
    auto groups = primitives::semisort_by(
        traced, [](const Traced& t) { return t.bucket; });

    // Step 3 — resolve each bucket locally: sequential BST insertion in
    // priority order starting at the bucket slot (one write per placement).
    // A bucket whose chain exceeds `cutoff` levels freezes its subtree root
    // and postpones the rest. The round's elements are exactly the ids
    // [lo, hi), so postponed ones are flagged by id and packed in ascending
    // order: the postponed list comes out sorted without a sort.
    std::vector<uint8_t> is_postponed(hi - lo, 0);
    parallel::parallel_for(
        0, groups.size() - 1,
        [&](size_t g) {
          size_t glo = groups[g], ghi = groups[g + 1];
          uint64_t bucket = traced[glo].bucket;
          if (bucket == kPostponed) {
            for (size_t i = glo; i < ghi; ++i) {
              is_postponed[traced[i].elem - lo] = 1;
            }
            return;
          }
          // Bucket contents fit in symmetric memory whp (O(log^2 n)); sort
          // them by priority in place.
          std::sort(traced.begin() + glo, traced.begin() + ghi,
                    [](const Traced& x, const Traced& y) {
                      return x.elem < y.elem;
                    });
          uint32_t bucket_root = kEmpty;
          bool frozen = false;
          for (size_t i = glo; i < ghi; ++i) {
            uint32_t e = traced[i].elem;
            if (frozen) {
              is_postponed[e - lo] = 1;
              continue;
            }
            if (bucket_root == kEmpty) {
              asym::count_write();
              tree.slot(bucket)->store(e, std::memory_order_relaxed);
              tree.nodes[e].placed.store(true, std::memory_order_relaxed);
              bucket_root = e;
              continue;
            }
            uint32_t w = bucket_root;
            size_t depth = 1;
            while (true) {
              if (depth > cutoff) {
                frozen = true;
                asym::count_write();
                tree.nodes[bucket_root].frozen.store(
                    true, std::memory_order_relaxed);
                is_postponed[e - lo] = 1;
                break;
              }
              asym::count_read(2);
              int side = tree.goes_left(e, w) ? 0 : 1;
              uint32_t c =
                  tree.nodes[w].child[side].load(std::memory_order_relaxed);
              if (c == kEmpty) {
                asym::count_write();
                tree.nodes[w].child[side].store(e, std::memory_order_relaxed);
                tree.nodes[e].placed.store(true, std::memory_order_relaxed);
                break;
              }
              w = c;
              ++depth;
            }
          }
        },
        1);
    for (size_t i = lo; i < hi; ++i) {
      if (is_postponed[i - lo]) postponed.push_back(static_cast<uint32_t>(i));
    }
  }

  // Final round: insert all postponed keys with the classic algorithm.
  size_t num_postponed = postponed.size();
  if (!postponed.empty()) {
    total_rounds += classic_rounds(tree, std::move(postponed));
  }
  *total_rounds_out = total_rounds;
  *postponed_out = num_postponed;
  return tree_ptr;
}

}  // namespace

}  // namespace weg::sort
