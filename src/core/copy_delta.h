// Prepare-by-copy: the two-phase bulk-update protocol (prepare, then a
// no-fail apply) for structures whose bulk ops write in place.
//
// The sharded commit prepares every shard before it applies any, so a
// structure's prepare must leave it untouched. LogForest plans natively in
// O(batch) (src/kdtree/dynamic.h). DynamicIntervalTree's bulk ops mutate
// its treap pools in place, so its prepare copies the tree — one bulk read
// + write per live record — and runs its own bulk_insert then bulk_erase
// on the copy; its apply swaps the copy in and leaves the old tree in the
// spent delta, so its storage is freed wherever the caller drops the
// delta, not inside apply.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/core/status.h"

namespace weg {

template <typename S>
struct CopyDelta {
  std::unique_ptr<S> next;
  size_t erased = 0;
};

template <typename S, typename Rec>
Expected<CopyDelta<S>> prepare_by_copy(const S& s, const std::vector<Rec>& ins,
                                       const std::vector<Rec>& ers) {
  asym::count_read(s.size());
  asym::count_write(s.size());
  CopyDelta<S> d{std::make_unique<S>(s)};
  if (!ins.empty()) {
    Status r = d.next->bulk_insert(ins);
    if (!r.ok()) return r;
  }
  if (!ers.empty()) {
    Expected<size_t> r = d.next->bulk_erase(ers);
    if (!r.ok()) return r.status();
    d.erased = r.value();
  }
  return d;
}

template <typename S>
size_t apply_copy(S& s, CopyDelta<S>&& d) noexcept {
  static_assert(std::is_nothrow_swappable_v<S>);
  std::swap(s, *d.next);
  return d.erased;
}

}  // namespace weg
