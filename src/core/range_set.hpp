// Sorted, coalesced byte-interval sets: the write-set representation shared
// by the commit hot path (Perseas coalesces declared set_range intervals so
// overlapping declarations log and propagate each byte once) and the
// write-set validator (check::TxnValidator judges coverage against the same
// union).  Extracted from the validator so both layers agree byte-for-byte
// on what "the declared union" means.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perseas::core {

/// Half-open byte interval [offset, offset + size) within one record.
struct ByteRange {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;

  friend bool operator==(const ByteRange&, const ByteRange&) = default;
};

/// Half-open [a, a+s) vs [b, b+t) overlap, exact even when a+s or b+t is
/// 2^64 (a naive end computation wraps to 0 there and misses every
/// intersection with such a range).  Empty ranges (s == 0 or t == 0)
/// overlap nothing.  Shared by the conflict table's claim scan and the
/// OCC backward-validation read/write intersection, so both layers agree
/// on what "conflicting bytes" means all the way to the top of the
/// address space.
[[nodiscard]] inline bool ranges_overlap(std::uint64_t a, std::uint64_t s, std::uint64_t b,
                                         std::uint64_t t) noexcept {
  if (s == 0 || t == 0) return false;
  return a <= b ? b - a < s : a - b < t;
}

[[nodiscard]] inline bool ranges_overlap(const ByteRange& x, const ByteRange& y) noexcept {
  return ranges_overlap(x.offset, x.size, y.offset, y.size);
}

/// Overlapping *or adjacent* — the coalescing predicate (adjacent ranges
/// merge into one contiguous range).  Same 2^64-exactness as
/// ranges_overlap.
[[nodiscard]] inline bool ranges_touch(std::uint64_t a, std::uint64_t s, std::uint64_t b,
                                       std::uint64_t t) noexcept {
  if (s == 0 || t == 0) return false;
  return a <= b ? b - a <= s : a - b <= t;
}

/// Inserts [offset, offset+size) into `ranges` (sorted by offset, disjoint,
/// non-touching — the invariant this function maintains), merging
/// overlapping and adjacent intervals.  When `fresh` is given it is
/// replaced by the sub-ranges of the insertion that were *not* previously
/// covered, in ascending order: the bytes a coalescing undo log still has
/// to copy.  An empty result means the new range was already fully
/// covered; a single result equal to the input means it was entirely
/// fresh.  The caller owns `fresh`, so a reused vector costs no allocation.
inline void merge_range(std::vector<ByteRange>& ranges, std::uint64_t offset, std::uint64_t size,
                        std::vector<ByteRange>* fresh = nullptr) {
  // Gap scan first, against the pre-insertion set: every byte of the new
  // range not inside an existing interval is fresh.
  if (fresh != nullptr) {
    fresh->clear();
    const std::uint64_t end = offset + size;
    std::uint64_t p = offset;
    for (const auto& r : ranges) {
      if (r.offset + r.size <= p) continue;  // wholly before the cursor
      if (r.offset >= end) break;
      if (r.offset > p) fresh->push_back(ByteRange{p, r.offset - p});
      p = std::min(end, std::max(p, r.offset + r.size));
      if (p == end) break;
    }
    if (p < end) fresh->push_back(ByteRange{p, end - p});
  }

  const auto at = std::lower_bound(
      ranges.begin(), ranges.end(), offset,
      [](const ByteRange& r, std::uint64_t o) { return r.offset < o; });
  auto it = ranges.insert(at, ByteRange{offset, size});
  // Coalesce with the predecessor, then swallow successors while they
  // overlap or touch.  set_range may be called with duplicates and
  // overlaps; the union is what coverage (and the undo log) is judged
  // against.
  if (it != ranges.begin()) {
    auto prev = std::prev(it);
    if (prev->offset + prev->size >= it->offset) {
      prev->size = std::max(prev->offset + prev->size, it->offset + it->size) - prev->offset;
      it = ranges.erase(it);
      it = std::prev(it);
    }
  }
  auto next = std::next(it);
  while (next != ranges.end() && it->offset + it->size >= next->offset) {
    it->size = std::max(it->offset + it->size, next->offset + next->size) - it->offset;
    next = ranges.erase(next);
  }
}

/// True when [offset, offset+size) lies inside the union of `ranges`
/// (which must be sorted and coalesced, as merge_range maintains).
inline bool range_covered(const std::vector<ByteRange>& ranges, std::uint64_t offset,
                          std::uint64_t size) {
  // Ranges are coalesced, so a contiguous run is covered iff one merged
  // interval contains it entirely.
  const auto it = std::upper_bound(
      ranges.begin(), ranges.end(), offset,
      [](std::uint64_t o, const ByteRange& r) { return o < r.offset; });
  if (it == ranges.begin()) return false;
  const auto& r = *std::prev(it);
  return offset >= r.offset && offset + size <= r.offset + r.size;
}

}  // namespace perseas::core
