// α-labeling (Section 7.3.1): a node is *critical* iff for some integer
// i >= 0 its subtree weight w (entries + 1) satisfies
//    (1) 2α^i <= w <= 4α^i - 2, or
//    (2) w = 2α^i - 1 and its sibling's weight is exactly 2α^i,
// plus the tree root, which is always a virtual critical node. Only critical
// nodes maintain balance information, so an update writes O(log_α n) weights
// instead of O(log n), at the cost of O(α log_α n) reads per root-leaf path
// (Corollaries 7.1/7.2).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/parallel/par_build.h"
#include "src/parallel/parallel_for.h"

namespace weg::augtree {

// True iff a node of weight w whose sibling has weight sw is critical for
// parameter alpha (>= 2). Weights use the paper's convention: subtree node
// count + 1, so a leaf has weight 2.
inline bool is_critical_weight(uint64_t w, uint64_t sibling_w,
                               uint64_t alpha) {
  // Find the band containing w: powers grow geometrically, O(log_α w) steps.
  uint64_t pw = 1;  // alpha^i
  while (true) {
    uint64_t lo = 2 * pw;          // 2 α^i
    uint64_t hi = 4 * pw - 2;      // 4 α^i - 2
    if (w < lo - 1) return false;  // below this band and above the previous
    if (w == lo - 1) return sibling_w == lo;  // rule (2)
    if (w <= hi) return true;                 // rule (1)
    if (pw > w) return false;
    pw *= alpha;
  }
}

// The §7.3.2 exception: after reconstructing a critical node of initial
// weight s into a subtree of weight 2s, the new root must stay unmarked when
// s <= 4α^i - 2 and 2α^(i+1) - 1 <= 2s for some i (marking it would violate
// the Lemma 7.2 weight ratio with its critical parent).
inline bool rebuild_root_exception(uint64_t s, uint64_t alpha) {
  uint64_t pw = 1;
  while (2 * pw - 1 <= 2 * s) {
    if (s <= 4 * pw - 2 && 2 * pw * alpha - 1 <= 2 * s) return true;
    pw *= alpha;
  }
  return false;
}

// A node of an α-labeled tree: BST links, the α label and the weights only
// critical nodes maintain. A tree's node type derives from it and adds its
// payload; a node that can hold no entry (the priority tree's secondary
// nodes) hides holds_entry().
template <typename Key>
struct AlphaNode {
  static constexpr uint32_t kNull = UINT32_MAX;
  Key key{};
  uint32_t left = kNull;
  uint32_t right = kNull;
  bool critical = false;
  bool dead = false;         // entry erased; dropped at whole-tree rebuilds
  bool rebuilt = false;      // fresh root of a subtree rebuild (validate())
  uint64_t init_weight = 0;  // critical only: weight at the last (re)build
  uint64_t weight = 0;       // critical only: entries in the subtree + 1
  bool holds_entry() const { return true; }
};

// A node's entry as a rebuild collects it.
template <typename Key>
struct AlphaEntry {
  Key key;
  bool dead;
};

// The α-labeled skeleton of the dynamic interval, range and priority trees
// (Section 7.3): the node pool, the root with its virtual critical weight,
// critical marking, the weight bump that rebuilds the topmost critical node
// whose weight doubled (Theorem 7.4), and subtree reconstruction with the
// §7.3.2 exception. Weights count a subtree's entries + 1, dead entries
// included. One rebuild policy: subtree rebuilds keep dead entries, so the
// weights every ancestor counts stay exact; whole-tree rebuilds drop them.
//
// A tree derives from AlphaSkeleton<Node> and keeps its payload and what a
// rebuild does with the entries it collected.
template <typename Node>
class AlphaSkeleton {
 public:
  size_t rebuilds() const { return rebuilds_; }

  // Longest root-leaf path (bench hook for Corollary 7.2).
  size_t height() const {
    auto rec = [&](auto&& self, uint32_t v) -> size_t {
      if (v == kNull) return 0;
      return 1 +
             std::max(self(self, pool_[v].left), self(self, pool_[v].right));
    };
    return rec(rec, root_);
  }

  // Most critical nodes on any root-leaf path (Corollary 7.1).
  size_t critical_on_path_max() const {
    auto rec = [&](auto&& self, uint32_t v) -> size_t {
      if (v == kNull) return 0;
      size_t below =
          std::max(self(self, pool_[v].left), self(self, pool_[v].right));
      return below + (pool_[v].critical ? 1 : 0);
    };
    return rec(rec, root_);
  }

 protected:
  using Key = decltype(Node::key);
  using Entry = AlphaEntry<Key>;
  static constexpr uint32_t kNull = Node::kNull;

  explicit AlphaSkeleton(uint64_t alpha) : alpha_(alpha) {}

  // A fresh critical leaf (weight 2 once the bump adds its own entry).
  uint32_t alloc_leaf() {
    uint32_t v;
    if (free_.empty()) {
      v = static_cast<uint32_t>(pool_.size());
      pool_.push_back(Node{});
    } else {
      v = free_.back();
      free_.pop_back();
      pool_[v] = Node{};
    }
    pool_[v].critical = true;
    pool_[v].init_weight = 2;
    pool_[v].weight = 1;
    return v;
  }

  // Attaches a fresh leaf holding key where the BST descent from the root
  // ends (less orders keys; equal keys descend right) and appends the path
  // root..leaf. One read per visited node, one write for the leaf.
  template <typename Less>
  uint32_t insert_leaf(const Key& key, Less less,
                       std::vector<uint32_t>& path) {
    uint32_t nu = alloc_leaf();
    pool_[nu].key = key;
    asym::count_write();
    if (root_ == kNull) {
      root_ = nu;
      path.push_back(nu);
      return nu;
    }
    for (uint32_t v = root_;;) {
      path.push_back(v);
      asym::count_read();
      Node& nd = pool_[v];
      uint32_t& child = less(key, nd.key) ? nd.left : nd.right;
      if (child == kNull) {
        child = nu;
        break;
      }
      v = child;
    }
    path.push_back(nu);
    return nu;
  }

  // Adds one entry to every critical weight on path (root..new entry) and
  // to the virtual root, then calls rebuild(v, parent, init_weight) once on
  // the topmost node whose weight doubled: the whole tree (parent kNull)
  // when the root weight doubled with more than 4 entries (`size`, the
  // tree's own count) or when that node is the root.
  template <typename Rebuild>
  void bump_and_rebalance(const std::vector<uint32_t>& path, uint64_t size,
                          Rebuild&& rebuild) {
    for (uint32_t v : path) {
      if (pool_[v].critical) {
        asym::count_write();
        ++pool_[v].weight;
      }
    }
    ++root_weight_;
    asym::count_write();  // virtual-root weight
    if (root_weight_ >= 2 * root_init_ && size > 4) {
      rebuild(root_, kNull, root_init_);
      return;
    }
    for (size_t i = 0; i < path.size(); ++i) {
      const Node& nd = pool_[path[i]];
      if (nd.critical && nd.weight >= 2 * nd.init_weight) {
        if (i == 0) {
          rebuild(root_, kNull, root_init_);
        } else {
          rebuild(path[i], path[i - 1], nd.init_weight);
        }
        return;
      }
    }
  }

  // Appends the entries of v's subtree in order, one read per node;
  // visit(node) sees every node as well, for payload the tree moves.
  template <typename Visit>
  void collect(uint32_t v, std::vector<Entry>& out, Visit&& visit) const {
    if (v == kNull) return;
    // Iterative in-order to tolerate deep secondary chains.
    std::vector<std::pair<uint32_t, bool>> st{{v, false}};
    while (!st.empty()) {
      auto [u, expanded] = st.back();
      st.pop_back();
      const Node& nd = pool_[u];
      if (expanded) {
        asym::count_read();
        if (nd.holds_entry()) out.push_back(Entry{nd.key, nd.dead});
        visit(nd);
        continue;
      }
      if (nd.right != kNull) st.push_back({nd.right, false});
      st.push_back({u, true});
      if (nd.left != kNull) st.push_back({nd.left, false});
    }
  }
  void collect(uint32_t v, std::vector<Entry>& out) const {
    collect(v, out, [](const Node&) {});
  }

  void free_subtree(uint32_t v) {
    if (v == kNull) return;
    std::vector<uint32_t> st{v};
    while (!st.empty()) {
      uint32_t u = st.back();
      st.pop_back();
      if (pool_[u].left != kNull) st.push_back(pool_[u].left);
      if (pool_[u].right != kNull) st.push_back(pool_[u].right);
      pool_[u] = Node{};
      free_.push_back(u);
    }
  }

  // Balanced BST over the entries (in order), critical nodes marked; kNull
  // when empty. Builds via the shared id-slice path (src/parallel/
  // par_build.h): forks above the sequential cutoff, inline below it.
  uint32_t build_marked(const std::vector<Entry>& es) {
    if (es.empty()) return kNull;
    auto ids = parallel::claim_build_slots(pool_, free_, es.size());
    uint32_t v = parallel::balanced_build_ids(
        pool_, es, 0, es.size(), ids.data(), [](Node& nd, const Entry& e) {
          nd.key = e.key;
          nd.dead = e.dead;
        });
    // Subtree root: sibling weight unknown here; rule (2) does not apply.
    set_critical(v, mark_rec(v, parallel::fork_depth_hint()), 0);
    return v;
  }

  // Replaces v, a child of parent (the whole tree when parent == kNull), by
  // build(entries), where entries were collected from v's subtree. A
  // whole-tree rebuild first drops the dead entries and resets the root
  // weights. A subtree rebuild of a node of initial weight old_init leaves
  // the fresh root unmarked under the §7.3.2 exception (an unmarked root
  // keeps any entry it holds). Returns the fresh root.
  template <typename Build>
  uint32_t replace(uint32_t v, uint32_t parent, uint64_t old_init,
                   std::vector<Entry>& entries, Build&& build) {
    ++rebuilds_;
    bool whole = parent == kNull;
    if (whole) std::erase_if(entries, [](const Entry& e) { return e.dead; });
    free_subtree(v);
    uint32_t fresh = build(entries);
    if (whole) {
      root_ = fresh;
      root_weight_ = entries.size() + 1;
      root_init_ = root_weight_;
      return fresh;
    }
    asym::count_write();
    (pool_[parent].left == v ? pool_[parent].left : pool_[parent].right) =
        fresh;
    if (fresh != kNull && pool_[fresh].critical &&
        rebuild_root_exception(old_init, alpha_)) {
      pool_[fresh].critical = false;
    }
    if (fresh != kNull) pool_[fresh].rebuilt = true;
    return fresh;
  }

  // The critical-weight half of validate(): every critical node's weight
  // and the virtual root's equal the entries below + 1.
  bool weights_valid() const {
    bool ok = true;
    auto rec = [&](auto&& self, uint32_t v) -> uint64_t {
      if (v == kNull) return 1;
      const Node& nd = pool_[v];
      uint64_t w = self(self, nd.left) + self(self, nd.right) +
                   (nd.holds_entry() ? 1 : 0) - 1;
      if (nd.critical && nd.weight != w) ok = false;
      return w;
    };
    return rec(rec, root_) == root_weight_ && ok;
  }

  // Lemma 7.2 at every rebuilt subtree root that kept its mark: its critical
  // parent (the nearest critical ancestor, or the virtual root) sits in a
  // strictly higher weight band, by initial weights. That is what the
  // §7.3.2 exception protects, and it implies the lemma's ratio
  // 2 init(parent) >= α init(root).
  bool rebuilt_roots_valid() const {
    auto band = [&](uint64_t w) {  // largest i with 2α^i - 1 <= w
      int i = 0;
      for (uint64_t pw = alpha_; 2 * pw - 1 <= w; pw *= alpha_) ++i;
      return i;
    };
    bool ok = true;
    auto rec = [&](auto&& self, uint32_t v, uint64_t parent_init) -> void {
      if (v == kNull) return;
      const Node& nd = pool_[v];
      if (nd.critical && nd.rebuilt &&
          band(parent_init) <= band(nd.init_weight)) {
        ok = false;
      }
      uint64_t below = nd.critical ? nd.init_weight : parent_init;
      self(self, nd.left, below);
      self(self, nd.right, below);
    };
    rec(rec, root_, root_init_);
    return ok;
  }

  uint64_t alpha_;
  std::vector<Node> pool_;
  std::vector<uint32_t> free_;
  uint32_t root_ = kNull;
  uint64_t root_weight_ = 1;  // virtual critical root: entries + 1
  uint64_t root_init_ = 1;
  size_t rebuilds_ = 0;

 private:
  // Post-order weight computation marking v's descendants critical per the
  // α rule; returns the subtree weight. Forks on two-child nodes while
  // par_depth > 0 (children touch disjoint nodes).
  uint64_t mark_rec(uint32_t v, int par_depth) {
    if (v == kNull) return 1;
    asym::count_read();
    uint32_t left = pool_[v].left, right = pool_[v].right;
    uint64_t wl = 1, wr = 1;
    parallel::par_do_if(par_depth > 0 && left != kNull && right != kNull,
                        [&] { wl = mark_rec(left, par_depth - 1); },
                        [&] { wr = mark_rec(right, par_depth - 1); });
    if (left != kNull) set_critical(left, wl, wr);
    if (right != kNull) set_critical(right, wr, wl);
    return wl + wr;
  }

  void set_critical(uint32_t v, uint64_t w, uint64_t sibling_w) {
    Node& nd = pool_[v];
    nd.critical = is_critical_weight(w, sibling_w, alpha_);
    if (nd.critical) {
      nd.init_weight = w;
      nd.weight = w;
      asym::count_write();
    }
  }
};

}  // namespace weg::augtree
