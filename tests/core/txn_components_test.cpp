// Unit tests for the four components of the concurrent-transaction core:
// TxnContext (per-transaction state), UndoLog (shared tagged log, scan
// semantics), ConflictTable (first-writer-wins claims) and the Perseas
// orchestration layer's compile-time pinning contract.
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "core/conflict_table.hpp"
#include "core/perseas.hpp"
#include "core/txn_context.hpp"
#include "core/undo_log.hpp"

namespace perseas::core {
namespace {

// Regression for the dangling-owner bug: RecordHandle and Transaction hold
// raw Perseas* back pointers, so the instance must be pinned.  A future
// defaulted move constructor would silently reintroduce the bug; fail the
// build instead.
static_assert(!std::is_move_constructible_v<Perseas>);
static_assert(!std::is_move_assignable_v<Perseas>);
static_assert(!std::is_copy_constructible_v<Perseas>);
static_assert(!std::is_copy_assignable_v<Perseas>);

// --- TxnContext -------------------------------------------------------

TEST(TxnContextTest, DeclareReturnsOnlyUncoveredSubranges) {
  TxnContext ctx(7, {});
  EXPECT_EQ(ctx.id(), 7u);

  const auto first = ctx.declare(0, 100, 50);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], (ByteRange{100, 50}));

  // Fully covered re-declaration: nothing fresh.
  EXPECT_TRUE(ctx.declare(0, 110, 20).empty());

  // Straddling declaration: only the tail is fresh.
  const auto tail = ctx.declare(0, 140, 40);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], (ByteRange{150, 30}));

  // The raw counter counts declared bytes, covered or not.
  EXPECT_EQ(ctx.declared_bytes(), 50u + 20u + 40u);
}

TEST(TxnContextTest, WriteSetMergesPerRecordInFirstTouchOrder) {
  TxnContext ctx(1, {});
  (void)ctx.declare(2, 0, 10);
  (void)ctx.declare(0, 50, 10);
  (void)ctx.declare(2, 10, 10);  // adjacent: coalesces with [0,10)

  const auto& ws = ctx.write_set();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].first, 2u);
  ASSERT_EQ(ws[0].second.size(), 1u);
  EXPECT_EQ(ws[0].second[0], (ByteRange{0, 20}));
  EXPECT_EQ(ws[1].first, 0u);
  ASSERT_EQ(ws[1].second.size(), 1u);
  EXPECT_EQ(ws[1].second[0], (ByteRange{50, 10}));
}

// A reused context starts exactly like a fresh one: nothing of the
// previous transaction's sets, images or counters leaks into the next.
TEST(TxnContextTest, ResetForgetsThePreviousTransaction) {
  TxnContext ctx(1, {});
  (void)ctx.declare(2, 0, 10);
  ctx.declare_read(3, 0, 4);
  UndoImage u;
  u.record = 2;
  u.before.assign(10, std::byte{0x5A});
  ctx.undo().push_back(std::move(u));
  ctx.set_pushed_entries(1);

  ctx.reset(9, {});
  EXPECT_EQ(ctx.id(), 9u);
  EXPECT_TRUE(ctx.write_set().empty());
  EXPECT_TRUE(ctx.read_set().empty());
  EXPECT_TRUE(ctx.undo().empty());
  EXPECT_EQ(ctx.pushed_entries(), 0u);
  EXPECT_EQ(ctx.declared_bytes(), 0u);

  // Recycled storage comes back empty.
  EXPECT_TRUE(ctx.take_buffer().empty());
  const auto fresh = ctx.declare(2, 5, 10);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], (ByteRange{5, 10}));
  ASSERT_EQ(ctx.write_set().size(), 1u);
  EXPECT_EQ(ctx.write_set()[0].second, (std::vector<ByteRange>{{5, 10}}));
}

// --- ConflictTable ----------------------------------------------------

TEST(ConflictTableTest, FirstWriterWins) {
  ConflictTable table;
  table.acquire(1, 0, 100, 50);
  EXPECT_EQ(table.claims_of(1), 1u);

  try {
    table.acquire(2, 0, 120, 10);
    FAIL() << "expected TxnConflict";
  } catch (const TxnConflict& e) {
    EXPECT_EQ(e.txn(), 2u);
    EXPECT_EQ(e.holder(), 1u);
    EXPECT_EQ(e.record(), 0u);
    EXPECT_EQ(e.offset(), 120u);
    EXPECT_EQ(e.size(), 10u);
  }
  // The table is unchanged by the rejected acquire.
  EXPECT_EQ(table.claims_of(2), 0u);
}

TEST(ConflictTableTest, AdjacentAndOtherRecordRangesDoNotConflict) {
  ConflictTable table;
  table.acquire(1, 0, 100, 50);
  // Half-open [100,150): a claim starting at 150 touches but never overlaps.
  EXPECT_NO_THROW(table.acquire(2, 0, 150, 50));
  EXPECT_NO_THROW(table.acquire(2, 0, 50, 50));
  // Same offsets on a different record are unrelated.
  EXPECT_NO_THROW(table.acquire(2, 1, 100, 50));
  EXPECT_EQ(table.claims_of(2), 3u);
}

TEST(ConflictTableTest, OwnOverlapIsAllowed) {
  ConflictTable table;
  table.acquire(1, 0, 100, 50);
  EXPECT_NO_THROW(table.acquire(1, 0, 100, 50));
  EXPECT_NO_THROW(table.acquire(1, 0, 125, 100));
}

// Regression: the overlap test used to compute `offset + size` in raw
// u64, so a claim ending exactly at 2^64 wrapped to end=0 and conflicted
// with nothing — writers at the top of the address space silently shared
// ranges.
TEST(ConflictTableTest, RangesAtTheTopOfTheAddressSpaceStillConflict) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};  // 2^64 - 1
  ConflictTable table;
  table.acquire(1, 0, kTop - 7, 8);  // [2^64-8, 2^64): end unrepresentable
  // Overlapping tail claims by another txn must be rejected...
  EXPECT_THROW(table.acquire(2, 0, kTop - 3, 4), TxnConflict);
  EXPECT_THROW(table.acquire(2, 0, kTop - 7, 8), TxnConflict);
  EXPECT_THROW(table.acquire(2, 0, kTop, 1), TxnConflict);
  EXPECT_EQ(table.claims_of(2), 0u);
  // ...while adjacent-below and far-away ranges still pass.
  EXPECT_NO_THROW(table.acquire(2, 0, kTop - 15, 8));  // [2^64-16, 2^64-8)
  EXPECT_NO_THROW(table.acquire(2, 0, 0, 16));
  EXPECT_EQ(table.claims_of(2), 2u);
  // The inverse order wraps the same way: probe low, holder at the top.
  ConflictTable inverse;
  inverse.acquire(1, 0, kTop, 1);
  EXPECT_THROW(inverse.acquire(2, 0, kTop - 1, 2), TxnConflict);
}

// Regression: same-owner re-declarations used to push one Claim each, so a
// long transaction rewriting one field grew the table without bound.  They
// now coalesce (overlapping or adjacent ranges merge); disjoint claims stay
// separate.
TEST(ConflictTableTest, SameOwnerRedeclarationsCoalesce) {
  ConflictTable table;
  for (int i = 0; i < 1'000; ++i) table.acquire(1, 0, 100, 50);
  EXPECT_EQ(table.claims_of(1), 1u) << "identical re-declarations must not accumulate";

  table.acquire(1, 0, 125, 100);  // overlapping: widens to [100, 225)
  table.acquire(1, 0, 225, 25);   // adjacent: widens to [100, 250)
  EXPECT_EQ(table.claims_of(1), 1u);
  table.acquire(1, 0, 400, 10);  // disjoint: its own claim
  EXPECT_EQ(table.claims_of(1), 2u);
  // A bridge between the two absorbs both into one claim.
  table.acquire(1, 0, 250, 150);
  EXPECT_EQ(table.claims_of(1), 1u);

  // The merged claim still defends its full extent against other txns.
  EXPECT_THROW(table.acquire(2, 0, 409, 1), TxnConflict);
  EXPECT_THROW(table.acquire(2, 0, 100, 1), TxnConflict);
  EXPECT_NO_THROW(table.acquire(2, 0, 410, 10));
}

TEST(ConflictTableTest, EmptyRangeClaimsNothing) {
  ConflictTable table;
  table.acquire(1, 0, 100, 0);
  EXPECT_EQ(table.claims_of(1), 0u);
  EXPECT_TRUE(table.empty());
  // And never conflicts, even inside a foreign claim.
  table.acquire(2, 0, 50, 100);
  EXPECT_NO_THROW(table.acquire(1, 0, 75, 0));
  EXPECT_EQ(table.claims_of(1), 0u);
}

TEST(ConflictTableTest, ReleaseDropsAllClaimsOfOneTxn) {
  ConflictTable table;
  table.acquire(1, 0, 0, 10);
  table.acquire(1, 1, 0, 10);
  table.acquire(2, 0, 50, 10);
  EXPECT_FALSE(table.empty());

  table.release(1);
  EXPECT_EQ(table.claims_of(1), 0u);
  EXPECT_EQ(table.claims_of(2), 1u);
  // 1's ranges are free again; 2's survive.
  EXPECT_NO_THROW(table.acquire(3, 0, 0, 10));
  EXPECT_THROW(table.acquire(3, 0, 50, 10), TxnConflict);

  table.release(2);
  table.release(3);
  EXPECT_TRUE(table.empty());
}

// release() parks emptied record entries for reuse by other records: a
// recycled entry must carry its new record's claims only.
TEST(ConflictTableTest, RecycledRecordEntriesServeTheirNewRecord) {
  ConflictTable table;
  table.acquire(1, 0, 0, 10);
  table.acquire(1, 1, 0, 10);
  table.release(1);
  EXPECT_TRUE(table.empty());

  table.acquire(2, 7, 0, 10);
  table.acquire(2, 8, 40, 10);
  EXPECT_EQ(table.claims_of(2), 2u);
  EXPECT_NO_THROW(table.acquire(3, 0, 0, 10));
  EXPECT_NO_THROW(table.acquire(3, 1, 0, 10));
  EXPECT_THROW(table.acquire(3, 7, 5, 10), TxnConflict);
  EXPECT_THROW(table.acquire(3, 8, 45, 1), TxnConflict);
  EXPECT_NO_THROW(table.acquire(3, 8, 0, 40));

  table.release(2);
  EXPECT_NO_THROW(table.acquire(4, 7, 0, 10));
  table.release(3);
  table.release(4);
  EXPECT_TRUE(table.empty());
}

// --- UndoLog ----------------------------------------------------------

TEST(UndoLogTest, NextUndoCapacityDoublesUntilItFits) {
  EXPECT_EQ(next_undo_capacity(64, 64), 64u);
  EXPECT_EQ(next_undo_capacity(64, 65), 128u);
  EXPECT_EQ(next_undo_capacity(64, 1000), 1024u);
  EXPECT_EQ(next_undo_capacity(0, 1), 64u);  // floor
  EXPECT_THROW((void)next_undo_capacity(64, ~0ULL), OutOfRemoteMemory);
}

class UndoLogScanTest : public ::testing::Test {
 protected:
  UndoLogScanTest()
      : cluster_(sim::HardwareProfile::forth_1997(), 2),
        client_(cluster_, 0),
        log_(cluster_, client_, config_, stats_) {}

  /// Appends one serialized entry for `txn_id` to `bytes_`.
  void append(std::uint64_t txn_id, std::uint64_t offset, std::byte fill,
              std::uint64_t size = 8) {
    UndoImage u;
    u.record = 0;
    u.offset = offset;
    u.before.assign(size, fill);
    log_.serialize(u, txn_id, bytes_);
  }

  MetaHeader header(std::uint64_t propagating_txn) const {
    MetaHeader hdr;
    hdr.record_count = 1;
    hdr.propagating_txn = propagating_txn;
    hdr.propagating_undo_bytes = propagating_txn != 0 ? bytes_.size() : 0;
    return hdr;
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryClient client_;
  PerseasConfig config_;
  PerseasStats stats_;
  UndoLog log_;
  std::vector<std::byte> bytes_;
  std::vector<std::uint64_t> sizes_{4096};  // record 0's size
};

TEST_F(UndoLogScanTest, ScanCollectsOnlyTheAnnouncedTxnsEntries) {
  append(3, 0, std::byte{0xAA});    // doomed
  append(4, 100, std::byte{0xBB});  // open neighbour, interleaved
  append(3, 200, std::byte{0xCC});  // doomed again

  const auto result = UndoLog::scan(bytes_, header(3), sizes_);
  EXPECT_EQ(result.max_txn, 4u);
  ASSERT_EQ(result.rollbacks.size(), 2u);
  EXPECT_EQ(result.rollbacks[0].txn_id, 3u);
  EXPECT_EQ(result.rollbacks[0].offset, 0u);
  EXPECT_EQ(result.rollbacks[1].txn_id, 3u);
  EXPECT_EQ(result.rollbacks[1].offset, 200u);
}

TEST_F(UndoLogScanTest, ScanWithNoCommitInFlightRollsBackNothing) {
  append(1, 0, std::byte{0x11});
  append(2, 64, std::byte{0x22});
  const auto result = UndoLog::scan(bytes_, header(0), sizes_);
  EXPECT_TRUE(result.rollbacks.empty());
  // Ids still surface so the recovered instance keeps them monotonic.
  EXPECT_EQ(result.max_txn, 2u);
}

TEST_F(UndoLogScanTest, CorruptEntryInsideAnnouncedPrefixThrows) {
  append(5, 0, std::byte{0x55});
  append(6, 64, std::byte{0x66});
  const auto hdr = header(5);
  // Flip one before-image byte of the *neighbour's* entry: inside the
  // announced prefix even a foreign entry must checksum cleanly.
  bytes_[bytes_.size() - 1] ^= std::byte{0xFF};
  EXPECT_THROW((void)UndoLog::scan(bytes_, hdr, sizes_), RecoveryError);
}

TEST_F(UndoLogScanTest, GarbageBeyondAnnouncedPrefixIsTheCleanEnd) {
  append(7, 0, std::byte{0x77});
  const auto hdr = header(7);  // announces only the first entry
  // Garbage past the announced tail: the scan must stop, not throw.
  bytes_.insert(bytes_.end(), 64, std::byte{0xFE});
  const auto result = UndoLog::scan(bytes_, hdr, sizes_);
  ASSERT_EQ(result.rollbacks.size(), 1u);
  EXPECT_EQ(result.rollbacks[0].txn_id, 7u);
}

TEST_F(UndoLogScanTest, ChecksumCoversHeaderFieldsAndImage) {
  UndoImage u;
  u.record = 3;
  u.offset = 40;
  u.before.assign(16, std::byte{0x42});
  UndoEntryHeader hdr;
  hdr.record = u.record;
  hdr.txn_id = 9;
  hdr.offset = u.offset;
  hdr.size = u.before.size();
  const auto base = undo_entry_checksum(hdr, u.before);
  hdr.txn_id = 10;
  EXPECT_NE(undo_entry_checksum(hdr, u.before), base);
  hdr.txn_id = 9;
  u.before[0] = std::byte{0x43};
  EXPECT_NE(undo_entry_checksum(hdr, u.before), base);
}

TEST_F(UndoLogScanTest, SerializePadsEntriesToEightBytes) {
  append(1, 0, std::byte{0x01}, 5);  // 5-byte image pads to 8
  EXPECT_EQ(bytes_.size(), undo_entry_bytes(5));
  EXPECT_EQ(bytes_.size(), sizeof(UndoEntryHeader) + 8);
}

}  // namespace
}  // namespace perseas::core
