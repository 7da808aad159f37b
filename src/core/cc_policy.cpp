#include "core/cc_policy.hpp"

#include <algorithm>

namespace perseas::core {

namespace {

/// Do any two ranges of the (sorted, coalesced) per-record unions
/// intersect?  Both sides come from merge_range, so a linear two-pointer
/// walk suffices.
bool range_sets_overlap(const std::vector<ByteRange>& a, const std::vector<ByteRange>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (ranges_overlap(a[i], b[j])) return true;
    // Advance whichever interval ends first (ends may be exactly 2^64:
    // compare in 128 bits).
    using u128 = unsigned __int128;
    const u128 end_a = static_cast<u128>(a[i].offset) + a[i].size;
    const u128 end_b = static_cast<u128>(b[j].offset) + b[j].size;
    if (end_a <= end_b) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

using RecordRanges = std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>;

/// Intersects two per-record unions (read set vs a committed write set).
bool record_sets_overlap(const RecordRanges& a, const RecordRanges& b) {
  for (const auto& [rec_a, ranges_a] : a) {
    for (const auto& [rec_b, ranges_b] : b) {
      if (rec_a == rec_b && range_sets_overlap(ranges_a, ranges_b)) return true;
    }
  }
  return false;
}

}  // namespace

std::optional<CcRejection> FirstWriterWins::on_declare(std::uint64_t txn, std::uint32_t record,
                                                       std::uint64_t offset,
                                                       std::uint64_t size) {
  const std::uint64_t holder = table_.try_acquire(txn, record, offset, size);
  if (holder == 0) return std::nullopt;
  return CcRejection{AbortReason::kConflict, holder, 0};
}

std::optional<CcRejection> WaitDie::on_declare(std::uint64_t txn, std::uint32_t record,
                                               std::uint64_t offset, std::uint64_t size) {
  const std::uint64_t holder = table_.try_acquire(txn, record, offset, size);
  if (holder == 0) return std::nullopt;
  if (txn < holder) {
    // The requester is older: it may wait for the younger holder.  The
    // wait is a bounded charge of simulated time; the caller's retry loop
    // is the requeue (see the class comment).
    return CcRejection{AbortReason::kConflict, holder, wait_};
  }
  // The requester is younger: it dies, keeping the waits-for order acyclic.
  return CcRejection{AbortReason::kWounded, holder, 0};
}

void ValidateAtCommit::on_begin(std::uint64_t txn) {
  begin_seq_[txn] = commit_seq_;
}

std::optional<CcRejection> ValidateAtCommit::on_declare(std::uint64_t txn, std::uint32_t record,
                                                        std::uint64_t offset,
                                                        std::uint64_t size) {
  // Writes keep first-writer-wins exclusion — that part is mechanism, not
  // policy (see the header).  Only reads are optimistic.
  const std::uint64_t holder = table_.try_acquire(txn, record, offset, size);
  if (holder == 0) return std::nullopt;
  return CcRejection{AbortReason::kConflict, holder, 0};
}

std::uint64_t ValidateAtCommit::on_validate(const TxnContext& ctx) {
  if (ctx.read_set().empty()) return 0;
  const auto it = begin_seq_.find(ctx.id());
  const std::uint64_t begin = it != begin_seq_.end() ? it->second : 0;
  // Backward validation: every write set committed after this transaction
  // began must miss its read set.  History is commit-ordered, so scan the
  // suffix newer than the begin snapshot.
  for (const CommittedWrites& h : history_) {
    if (h.seq <= begin) continue;
    if (record_sets_overlap(ctx.read_set(), h.write_set)) return h.txn;
  }
  return 0;
}

void ValidateAtCommit::on_commit(const TxnContext& ctx) {
  if (!ctx.write_set().empty()) {
    history_.push_back(CommittedWrites{++commit_seq_, ctx.id(), ctx.write_set()});
  }
  begin_seq_.erase(ctx.id());
  prune();
}

void ValidateAtCommit::on_release(std::uint64_t txn) noexcept {
  table_.release(txn);
  begin_seq_.erase(txn);
  prune();
}

void ValidateAtCommit::prune() {
  // Snapshots at or below every open transaction's begin point can never
  // be consulted again.  With no transaction open the whole history drops.
  std::uint64_t min_begin = commit_seq_;
  for (const auto& [txn, seq] : begin_seq_) min_begin = std::min(min_begin, seq);
  history_.erase(std::remove_if(history_.begin(), history_.end(),
                                [min_begin](const CommittedWrites& h) {
                                  return h.seq <= min_begin;
                                }),
                 history_.end());
}

std::size_t ValidateAtCommit::history_size() const noexcept {
  return history_.size();
}

std::unique_ptr<CcPolicy> make_cc_policy(const PerseasConfig& config) {
  switch (config.cc_policy) {
    case CcPolicyKind::kFirstWriterWins:
      return std::make_unique<FirstWriterWins>();
    case CcPolicyKind::kWaitDie:
      return std::make_unique<WaitDie>(config.cc_wait);
    case CcPolicyKind::kValidateAtCommit:
      return std::make_unique<ValidateAtCommit>();
  }
  return std::make_unique<FirstWriterWins>();
}

}  // namespace perseas::core
