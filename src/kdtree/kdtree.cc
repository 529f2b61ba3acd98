#include "src/kdtree/kdtree.h"

#include <algorithm>
#include <cassert>

#include "src/parallel/parallel_for.h"

namespace weg::kdtree {

namespace {
// Below this, build sequentially: shares the scheduler-wide cutoff tuned for
// the lock-free deque's fork cost.
constexpr size_t kSeqCutoff = parallel::kSeqCutoff;
}

size_t classic_node_count(size_t m, size_t leaf_size) {
  if (m <= leaf_size) return 1;
  // At recursion depth d every subtree holds floor(m/2^d) or that plus one
  // points, so a level is two (size, multiplicity) pairs. Walk levels until
  // both sizes fit a leaf, accumulating interior nodes; remaining pairs are
  // leaves.
  size_t total = 0;
  // sizes[0] = smaller size, sizes[1] = sizes[0] + 1 (multiplicity 0 if
  // absent).
  size_t size = m;
  uint64_t cnt_lo = 1, cnt_hi = 0;  // multiplicities of `size` and `size + 1`
  while (size > leaf_size || (cnt_hi > 0 && size + 1 > leaf_size)) {
    // Split every subtree still above the leaf threshold; subtrees already
    // at or below it become leaves now.
    uint64_t leaves_lo = size <= leaf_size ? cnt_lo : 0;
    uint64_t leaves_hi = (size + 1) <= leaf_size ? cnt_hi : 0;
    total += leaves_lo + leaves_hi;
    uint64_t split_lo = cnt_lo - leaves_lo;  // subtrees of `size` that split
    uint64_t split_hi = cnt_hi - leaves_hi;  // subtrees of `size+1` that split
    total += split_lo + split_hi;  // one interior node per split
    // size -> floor(size/2) + ceil(size/2); size+1 likewise.
    uint64_t nlo, nhi;
    size_t nsize;
    if (size % 2 == 0) {
      // size: {size/2, size/2}; size+1: {size/2, size/2 + 1}
      nsize = size / 2;
      nlo = 2 * split_lo + split_hi;
      nhi = split_hi;
    } else {
      // size: {size/2, size/2 + 1}; size+1: {size/2 + 1, size/2 + 1}
      nsize = size / 2;
      nlo = split_lo;
      nhi = split_lo + 2 * split_hi;
    }
    size = nsize;
    cnt_lo = nlo;
    cnt_hi = nhi;
    if (cnt_lo == 0) {  // renormalize so `size` always has multiplicity
      size += 1;
      cnt_lo = cnt_hi;
      cnt_hi = 0;
    }
    if (cnt_lo == 0 && cnt_hi == 0) break;
  }
  total += cnt_lo + cnt_hi;  // all remaining subtrees are leaves
  return total;
}

template <int K>
uint32_t KdTree<K>::build_recursive(size_t lo, size_t hi, int depth,
                                    size_t leaf_size, bool charge,
                                    uint32_t id_base) {
  assert(hi >= lo);
  uint32_t id = id_base;
  size_t m = hi - lo;
  if (m <= leaf_size) {
    if (charge) asym::count_write(m);  // write out the leaf contents
    nodes_[id] = Node{};
    nodes_[id].begin = static_cast<uint32_t>(lo);
    nodes_[id].end = static_cast<uint32_t>(hi);
    // Tight box of the just-written leaf contents: derived bookkeeping over
    // data already charged above, uncounted like the other skeleton passes.
    Box bx = Box::empty();
    for (size_t i = lo; i < hi; ++i) bx.extend(points_[i]);
    nodes_[id].box = bx;
    return id;
  }
  int dim = depth % K;
  size_t mid = lo + m / 2;
  // Exact median partition: one pass of reads and writes over the range.
  if (charge) {
    asym::count_read(m);
    asym::count_write(m);
  }
  std::nth_element(points_.begin() + static_cast<long>(lo),
                   points_.begin() + static_cast<long>(mid),
                   points_.begin() + static_cast<long>(hi),
                   [dim](const Point& a, const Point& b) {
                     return a[dim] < b[dim];
                   });
  nodes_[id] = Node{};
  nodes_[id].dim = dim;
  nodes_[id].split = points_[mid][dim];
  // Pre-order slice layout: left subtree right after this node, right
  // subtree after the left's (size-determined) slice.
  uint32_t lbase = id_base + 1;
  uint32_t rbase =
      lbase + static_cast<uint32_t>(classic_node_count(m / 2, leaf_size));
  uint32_t l, r;
  parallel::par_do_if(
      m > kSeqCutoff,
      [&] {
        l = build_recursive(lo, mid, depth + 1, leaf_size, charge, lbase);
      },
      [&] {
        r = build_recursive(mid, hi, depth + 1, leaf_size, charge, rbase);
      });
  nodes_[id].left = l;
  nodes_[id].right = r;
  // Count augmentation for free: the pre-claimed slice bounds are the
  // subtree's point count, and the box is the union of the children's
  // (bookkeeping over already-built children, uncounted).
  nodes_[id].begin = static_cast<uint32_t>(lo);
  nodes_[id].end = static_cast<uint32_t>(hi);
  Box bx = nodes_[l].box;
  bx.extend(nodes_[r].box);
  nodes_[id].box = bx;
  return id;
}

template <int K>
KdTree<K> KdTree<K>::build_classic(std::vector<Point> points,
                                   size_t leaf_size, BuildStats* stats) {
  asym::Region region;
  KdTree t;
  t.leaf_size_ = leaf_size;
  t.points_ = std::move(points);
  if (!t.points_.empty()) {
    // The node count is a function of (n, leaf_size) alone, so the pool is
    // sized exactly and the build forks over pre-claimed id slices.
    t.nodes_.resize(classic_node_count(t.points_.size(), leaf_size));
    t.root_ = t.build_recursive(0, t.points_.size(), 0, leaf_size, true, 0);
  }
  if (stats) {
    stats->cost = region.delta();
    stats->height = t.height();
    stats->nodes = t.nodes_.size();
  }
  return t;
}

namespace {

// Range visitors with the covered-subtree hook. The counting visitor's
// covered() adds the slice size with no further reads (the O(1) fast path);
// the reporting visitors bulk-copy the slice — the per-point output charges
// stay (every reported point is read and written once), but the per-point
// containment tests and the subtree's node reads disappear.
struct CountCoveredVisitor {
  size_t count = 0;
  void operator()(size_t) { ++count; }
  void covered(size_t b, size_t e) { count += e - b; }
};

template <typename Point>
struct ReportAppendVisitor {
  const std::vector<Point>* pts;
  std::vector<Point>* out;
  void operator()(size_t i) {
    asym::count_write();  // output write
    out->push_back((*pts)[i]);
  }
  void covered(size_t b, size_t e) {
    asym::count_read(e - b);
    asym::count_write(e - b);
    out->insert(out->end(), pts->begin() + static_cast<long>(b),
                pts->begin() + static_cast<long>(e));
  }
};

template <typename Point>
struct ReportIntoVisitor {
  const std::vector<Point>* pts;
  Point* out;
  void operator()(size_t i) {
    asym::count_write();
    *out++ = (*pts)[i];
  }
  void covered(size_t b, size_t e) {
    asym::count_read(e - b);
    asym::count_write(e - b);
    out = std::copy(pts->begin() + static_cast<long>(b),
                    pts->begin() + static_cast<long>(e), out);
  }
};

}  // namespace

template <int K>
size_t KdTree<K>::range_count(const Box& query,
                              const QueryOptions& opts) const {
  CountCoveredVisitor vis;
  range_visit(query, vis, opts);
  return vis.count;
}

template <int K>
std::vector<typename KdTree<K>::Point> KdTree<K>::range_report(
    const Box& query, const QueryOptions& opts) const {
  std::vector<Point> out;
  ReportAppendVisitor<Point> vis{&points_, &out};
  range_visit(query, vis, opts);
  return out;
}

template <int K>
void KdTree<K>::report_into(const Box& query, Point* out,
                            const QueryOptions& opts) const {
  ReportIntoVisitor<Point> vis{&points_, out};
  range_visit(query, vis, opts);
}

template <int K>
size_t KdTree<K>::ann(const Point& q, double eps,
                      const QueryOptions& opts) const {
  const Point* p = this->nearest(q, eps, opts);
  return p == nullptr ? SIZE_MAX : size_t(p - points_.data());
}

template <int K>
std::vector<size_t> KdTree<K>::knn(const Point& q, size_t k,
                                   const QueryOptions& opts) const {
  std::vector<size_t> ids;
  for (const Point* p : this->k_nearest(q, k, opts)) {
    ids.push_back(size_t(p - points_.data()));
  }
  return ids;
}

template <int K>
size_t KdTree<K>::find(const Point& p) const {
  return find_if(p, [](size_t) { return true; });
}

template <int K>
size_t KdTree<K>::height() const {
  if (root_ == kNullNode) return 0;
  struct Frame {
    uint32_t node;
    size_t depth;
  };
  std::vector<Frame> stack{{root_, 1}};
  size_t h = 0;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    h = std::max(h, f.depth);
    const Node& nd = nodes_[f.node];
    if (!nd.is_leaf()) {
      stack.push_back({nd.left, f.depth + 1});
      stack.push_back({nd.right, f.depth + 1});
    }
  }
  return h;
}

template <int K>
bool KdTree<K>::validate() const {
  if (root_ == kNullNode) return points_.empty();
  size_t total = 0;
  struct Frame {
    uint32_t node;
    Box region;
  };
  std::vector<Frame> stack{{root_, Box::whole()}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node& nd = nodes_[f.node];
    // Count augmentation: every node's slice must bound its subtree and its
    // box must contain every point of the slice (tightness is not required
    // for correctness of the covered fast path, containment is).
    if (nd.end < nd.begin || nd.end > points_.size()) return false;
    for (uint32_t i = nd.begin; i < nd.end; ++i) {
      if (!nd.box.contains(points_[i])) return false;
    }
    if (nd.is_leaf()) {
      for (uint32_t i = nd.begin; i < nd.end; ++i) {
        ++total;
        for (int d = 0; d < K; ++d) {
          if (points_[i][d] < f.region.lo[d] || points_[i][d] > f.region.hi[d])
            return false;
        }
      }
      continue;
    }
    // An interior slice is exactly the union of its children's (the two
    // child slices are adjacent in DFS order).
    const Node& l = nodes_[nd.left];
    const Node& r = nodes_[nd.right];
    if (nd.begin != std::min(l.begin, r.begin) ||
        nd.end != std::max(l.end, r.end))
      return false;
    if (l.end != r.begin && r.end != l.begin) return false;
    Box lr = f.region, rr = f.region;
    lr.hi[nd.dim] = nd.split;
    rr.lo[nd.dim] = nd.split;
    stack.push_back({nd.left, lr});
    stack.push_back({nd.right, rr});
  }
  return total == points_.size();
}

template class KdTree<2>;
template class KdTree<3>;

}  // namespace weg::kdtree
