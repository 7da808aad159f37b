#include "core/conflict_table.hpp"

#include <algorithm>
#include <string>

#include "core/range_set.hpp"

namespace perseas::core {
namespace {

std::string conflict_message(std::uint64_t txn, std::uint64_t holder, std::uint32_t record,
                             std::uint64_t offset, std::uint64_t size, AbortReason reason) {
  const std::string where = "record " + std::to_string(record) + " range [" +
                            std::to_string(offset) + ", +" + std::to_string(size) + ")";
  switch (reason) {
    case AbortReason::kConflict:
      return "set_range: txn " + std::to_string(txn) + " conflicts with open txn " +
             std::to_string(holder) + " on " + where + " — abort and retry";
    case AbortReason::kWounded:
      return "set_range: txn " + std::to_string(txn) + " (younger) dies on " + where +
             " held by older txn " + std::to_string(holder) + " (wait-die) — abort and retry";
    case AbortReason::kValidationFailed:
      return "commit: txn " + std::to_string(txn) +
             " failed backward validation against committed txn " + std::to_string(holder) +
             " — abort and retry";
  }
  return "txn " + std::to_string(txn) + " rejected by concurrency control";
}

}  // namespace

TxnConflict::TxnConflict(std::uint64_t txn, std::uint64_t holder, std::uint32_t record,
                         std::uint64_t offset, std::uint64_t size, AbortReason reason)
    : PerseasError(conflict_message(txn, holder, record, offset, size, reason)),
      txn_(txn),
      holder_(holder),
      record_(record),
      offset_(offset),
      size_(size),
      reason_(reason) {}

void ConflictTable::acquire(std::uint64_t txn, std::uint32_t record, std::uint64_t offset,
                            std::uint64_t size) {
  if (const std::uint64_t holder = try_acquire(txn, record, offset, size); holder != 0) {
    throw TxnConflict(txn, holder, record, offset, size);
  }
}

std::uint64_t ConflictTable::try_acquire(std::uint64_t txn, std::uint32_t record,
                                         std::uint64_t offset, std::uint64_t size) {
  if (size == 0) return 0;  // an empty range claims no bytes
  sync::LockGuard lock(mu_);
  auto at = records_.find(record);
  if (at == records_.end()) {
    if (spare_.empty()) {
      spare_.reserve(records_.size() + 1);
      at = records_.try_emplace(record).first;
    } else {
      RecordMap::node_type node = std::move(spare_.back());
      spare_.pop_back();
      node.key() = record;
      at = records_.insert(std::move(node)).position;
    }
  }
  std::vector<Claim>& claims = at->second;
  for (const Claim& c : claims) {
    if (c.owner != txn && ranges_overlap(offset, size, c.offset, c.size)) {
      return c.owner;
    }
  }
  // Fold the new range into the owner's existing claims: absorb every own
  // claim it touches (re-declarations and adjacent extensions), so the
  // claim set stays proportional to the number of *disjoint* regions the
  // transaction writes, not the number of set_range calls.  Endpoint
  // arithmetic in 128 bits: a claim may end exactly at 2^64.
  using u128 = unsigned __int128;
  u128 begin = offset;
  u128 end = static_cast<u128>(offset) + size;
  for (std::size_t i = 0; i < claims.size();) {
    const Claim& c = claims[i];
    if (c.owner == txn &&
        ranges_touch(static_cast<std::uint64_t>(begin),
                     static_cast<std::uint64_t>(end - begin), c.offset, c.size)) {
      begin = std::min<u128>(begin, c.offset);
      end = std::max<u128>(end, static_cast<u128>(c.offset) + c.size);
      claims[i] = claims.back();
      claims.pop_back();
      i = 0;  // the widened range may now touch claims already scanned
    } else {
      ++i;
    }
  }
  claims.push_back(Claim{static_cast<std::uint64_t>(begin),
                         static_cast<std::uint64_t>(end - begin), txn});
  return 0;
}

void ConflictTable::release(std::uint64_t txn) noexcept {
  sync::LockGuard lock(mu_);
  for (auto it = records_.begin(); it != records_.end();) {
    auto& claims = it->second;
    claims.erase(std::remove_if(claims.begin(), claims.end(),
                                [txn](const Claim& c) { return c.owner == txn; }),
                 claims.end());
    if (!claims.empty()) {
      ++it;
      continue;
    }
    const auto next = std::next(it);
    spare_.push_back(records_.extract(it));
    it = next;
  }
}

bool ConflictTable::empty() const noexcept {
  sync::LockGuard lock(mu_);
  return records_.empty();
}

std::size_t ConflictTable::claims_of(std::uint64_t txn) const noexcept {
  sync::LockGuard lock(mu_);
  std::size_t n = 0;
  for (const auto& [rec, claims] : records_) {
    for (const Claim& c : claims) n += c.owner == txn ? 1 : 0;
  }
  return n;
}

}  // namespace perseas::core
