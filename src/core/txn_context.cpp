#include "core/txn_context.hpp"

namespace perseas::core {
namespace {

/// Pops a spare vector (emptied, capacity kept), or a new one.
template <typename T>
std::vector<T> take_spare(std::vector<std::vector<T>>& spares) {
  if (spares.empty()) return {};
  std::vector<T> v = std::move(spares.back());
  spares.pop_back();
  v.clear();
  return v;
}

/// The ranges of `record` in `set`, appended (first-touch order) if new.
std::vector<ByteRange>& ranges_of(
    std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>& set, std::uint32_t record,
    std::vector<std::vector<ByteRange>>& spares) {
  for (auto& [rec, rs] : set) {
    if (rec == record) return rs;
  }
  return set.emplace_back(record, take_spare(spares)).second;
}

}  // namespace

void TxnContext::reset(std::uint64_t id) {
  id_ = id;
  for (auto& u : undo_) spare_buffers_.push_back(std::move(u.before));
  undo_.clear();
  pushed_entries_ = 0;
  for (auto* set : {&write_set_, &read_set_}) {
    for (auto& [rec, rs] : *set) spare_ranges_.push_back(std::move(rs));
    set->clear();
  }
  declared_bytes_ = 0;
}

const std::vector<ByteRange>& TxnContext::declare(std::uint32_t record, std::uint64_t offset,
                                                  std::uint64_t size) {
  declared_bytes_ += size;
  merge_range(ranges_of(write_set_, record, spare_ranges_), offset, size, &fresh_);
  return fresh_;
}

void TxnContext::declare_read(std::uint32_t record, std::uint64_t offset, std::uint64_t size) {
  merge_range(ranges_of(read_set_, record, spare_ranges_), offset, size);
}

std::vector<std::byte> TxnContext::take_buffer() { return take_spare(spare_buffers_); }

}  // namespace perseas::core
