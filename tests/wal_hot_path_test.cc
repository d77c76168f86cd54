#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "ops/op_builder.h"
#include "storage/simulated_disk.h"
#include "wal/log_cursor.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

// Heap-allocation probe for the zero-copy append test: every unaligned
// global new/delete routes through malloc/free with a counter. The
// aligned variants keep their defaults (they pair among themselves), so
// the replacement is self-consistent for the whole test binary.
static std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
// The replacement news above allocate with malloc, so freeing here is
// matched; GCC cannot see the pairing across replaced globals.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace loglog {
namespace {

// The record mix every test below pushes through both append paths:
// plain ops, in-txn ops (with and without before-images), txn markers,
// and compensations — the full hot-path shape catalogue.
struct HotRecord {
  RecordType type = RecordType::kOperation;
  OperationDesc op;
  uint64_t txn_id = 0;
  Lsn prev_lsn = kInvalidLsn;
  Lsn undo_next_lsn = kInvalidLsn;
  uint64_t undo_skip = 0;
  std::vector<UndoImage> images;
};

std::vector<HotRecord> RecordMix() {
  std::vector<HotRecord> mix;
  // Non-transactional operation (pre-transaction byte format).
  {
    HotRecord r;
    r.op = MakeCreate(1, "genesis");
    mix.push_back(std::move(r));
  }
  // Txn begin marker (head of the backchain).
  {
    HotRecord r;
    r.type = RecordType::kTxnBegin;
    r.txn_id = 7;
    mix.push_back(std::move(r));
  }
  // In-txn operation with a logical inverse: trailer, no images.
  {
    HotRecord r;
    r.op = MakeAppend(1, "-tail");
    r.txn_id = 7;
    r.prev_lsn = 2;
    mix.push_back(std::move(r));
  }
  // In-txn blind write: trailer plus a before-image.
  {
    HotRecord r;
    r.op = MakePhysicalWrite(1, "overwrite");
    r.txn_id = 7;
    r.prev_lsn = 3;
    r.images.resize(1);
    r.images[0].exists = true;
    r.images[0].value = {'g', 'e', 'n'};
    mix.push_back(std::move(r));
  }
  // In-txn create of a fresh object: image records nonexistence.
  {
    HotRecord r;
    r.op = MakeCreate(2, "second");
    r.txn_id = 7;
    r.prev_lsn = 4;
    r.images.resize(1);
    mix.push_back(std::move(r));
  }
  // Compensation restoring an image mid-rollback (cursor fields set).
  {
    HotRecord r;
    r.type = RecordType::kCompensation;
    r.op = MakePhysicalWrite(1, "gen");
    r.txn_id = 7;
    r.prev_lsn = 5;
    r.undo_next_lsn = 3;
    r.undo_skip = 1;
    mix.push_back(std::move(r));
  }
  // Compensation finishing the rollback (no next record to undo).
  {
    HotRecord r;
    r.type = RecordType::kCompensation;
    r.op = MakeDelete(2);
    r.txn_id = 7;
    r.prev_lsn = 6;
    mix.push_back(std::move(r));
  }
  // Abort and a fresh commit-shaped marker close the catalogue.
  {
    HotRecord r;
    r.type = RecordType::kTxnAbort;
    r.txn_id = 7;
    r.prev_lsn = 7;
    mix.push_back(std::move(r));
  }
  {
    HotRecord r;
    r.type = RecordType::kTxnCommit;
    r.txn_id = 9;
    r.prev_lsn = 1;
    mix.push_back(std::move(r));
  }
  return mix;
}

LogRecord ToLogRecord(const HotRecord& h) {
  LogRecord rec;
  rec.type = h.type;
  rec.op = h.op;
  rec.txn_id = h.txn_id;
  rec.prev_lsn = h.prev_lsn;
  rec.undo_next_lsn = h.undo_next_lsn;
  rec.undo_skip = h.undo_skip;
  rec.undo_images = h.images;
  return rec;
}

Lsn AppendTyped(LogManager* log, const HotRecord& h, size_t* payload) {
  switch (h.type) {
    case RecordType::kOperation:
      return log->AppendOperation(h.op, h.txn_id, h.prev_lsn, h.images,
                                  payload);
    case RecordType::kCompensation:
      return log->AppendCompensation(h.op, h.txn_id, h.prev_lsn,
                                     h.undo_next_lsn, h.undo_skip, payload);
    default:
      return log->AppendTxnMarker(h.type, h.txn_id, h.prev_lsn, payload);
  }
}

// The tentpole contract: reserve+fill and the compatibility wrapper
// must produce byte-identical stable logs — same frames, same CRCs —
// so enabling the zero-copy path can never change recovery's input.
TEST(WalHotPathTest, TypedAppendersAreByteIdenticalToWrapper) {
  SimulatedDisk wrapper_disk;
  SimulatedDisk typed_disk;
  LogManager wrapper_log(&wrapper_disk.log());
  LogManager typed_log(&typed_disk.log());

  for (const HotRecord& h : RecordMix()) {
    Lsn a = wrapper_log.Append(ToLogRecord(h));
    size_t payload = 0;
    Lsn b = AppendTyped(&typed_log, h, &payload);
    EXPECT_EQ(a, b);
    EXPECT_GT(payload, 0u);
  }
  ASSERT_TRUE(wrapper_log.ForceAll().ok());
  ASSERT_TRUE(typed_log.ForceAll().ok());

  Slice w = wrapper_disk.log().Contents();
  Slice t = typed_disk.log().Contents();
  ASSERT_EQ(w.size(), t.size());
  EXPECT_EQ(w.ToString(), t.ToString());
}

// The typed appenders' frames must decode back to exactly the fields
// that went in (round-trip through the recovery reader).
TEST(WalHotPathTest, TypedAppendersRoundTripThroughRecoveryReader) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  std::vector<HotRecord> mix = RecordMix();
  std::vector<size_t> payloads;
  for (const HotRecord& h : mix) {
    size_t payload = 0;
    AppendTyped(&log, h, &payload);
    payloads.push_back(payload);
  }
  ASSERT_TRUE(log.ForceAll().ok());

  std::vector<LogRecord> records;
  bool torn = false;
  Lsn next_lsn = 0;
  uint64_t valid_end = 0;
  ASSERT_TRUE(
      LogManager::ReadStable(disk.log(), &records, &torn, &next_lsn,
                             &valid_end)
          .ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    const HotRecord& h = mix[i];
    const LogRecord& rec = records[i];
    EXPECT_EQ(rec.lsn, static_cast<Lsn>(i + 1));
    EXPECT_EQ(rec.type, h.type);
    EXPECT_EQ(rec.txn_id, h.txn_id);
    if (h.txn_id != 0) {
      EXPECT_EQ(rec.prev_lsn, h.prev_lsn);
    }
    if (h.type == RecordType::kCompensation) {
      EXPECT_EQ(rec.undo_next_lsn, h.undo_next_lsn);
      EXPECT_EQ(rec.undo_skip, h.undo_skip);
    }
    ASSERT_EQ(rec.undo_images.size(), h.images.size());
    for (size_t j = 0; j < h.images.size(); ++j) {
      EXPECT_EQ(rec.undo_images[j].exists, h.images[j].exists);
      EXPECT_EQ(rec.undo_images[j].value, h.images[j].value);
    }
    // The out-param is the record's true logging cost: what the decoded
    // record re-encodes to, LSN varint included.
    EXPECT_EQ(payloads[i], rec.EncodedSize()) << "record " << i;
  }
}

// Steady-state reserve+fill must not touch the heap per record: the
// arena never grows (wal.append.allocs stays flat), and raw allocator
// traffic is bounded by the deque's block amortization — far below one
// allocation per record, where the old LogRecord path paid several.
TEST(WalHotPathTest, ReserveFillDoesNotAllocatePerRecord) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  Counter* arena_allocs =
      MetricsRegistry::Global().GetCounter(metric::kWalAppendAllocs);

  const OperationDesc op = MakePhysicalWrite(42, "steady-state-payload");
  const std::vector<UndoImage> no_images;

  // Warm-up: grow the arena past what the measured run needs, then
  // drain it so the measured appends replay over reclaimed space.
  for (int i = 0; i < 512; ++i) {
    log.AppendOperation(op, 0, kInvalidLsn, no_images);
  }
  ASSERT_TRUE(log.ForceAll().ok());

  constexpr int kRecords = 256;
  const uint64_t arena_before = arena_allocs->value();
  const uint64_t heap_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kRecords; ++i) {
    log.AppendOperation(op, 0, kInvalidLsn, no_images);
  }
  const uint64_t heap_after = g_heap_allocs.load(std::memory_order_relaxed);
  const uint64_t arena_after = arena_allocs->value();

  EXPECT_EQ(arena_after - arena_before, 0u)
      << "arena grew during steady-state appends";
  // Only the pending-record deque may allocate, one block per ~dozen
  // records; a per-record encoder allocation would show up as >= 256.
  EXPECT_LT(heap_after - heap_before, kRecords / 4)
      << "append path allocates per record";

  ASSERT_TRUE(log.ForceAll().ok());
  EXPECT_EQ(log.last_stable_lsn(), log.last_assigned_lsn());
}

// The read side of the same budget: every LogCursor loop decodes into
// one reused LogRecord, which keeps its buffers, so a warm walk does not
// allocate per record; neither does the frame-only walk LogManager opens
// with. A run of in-transaction ops reuses its before-image buffer; the
// record ahead of the run (which carries no images) frees it once.
TEST(WalHotPathTest, ReusedRecordDecodeDoesNotAllocatePerRecord) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    const std::vector<UndoImage> no_images;
    for (int i = 0; i < 64; ++i) {
      log.AppendOperation(
          MakePhysicalWrite(1 + i % 8, std::string(8 + i % 24, 'p')), 0,
          kInvalidLsn, no_images);
      log.AppendOperation(MakeAppRead(100 + i % 4, 1 + i % 8), 0,
                          kInvalidLsn, no_images);
      LogRecord install;
      install.type = RecordType::kInstall;
      install.installed_vars = {{1 + static_cast<ObjectId>(i % 8), 0}};
      install.installed_notx = {{100, static_cast<Lsn>(i + 1)}};
      log.Append(install);
    }
    Lsn prev = log.AppendTxnMarker(RecordType::kTxnBegin, 9, kInvalidLsn);
    for (int i = 0; i < 64; ++i) {
      std::vector<UndoImage> image(1);
      image[0].exists = true;
      image[0].value.assign(12, static_cast<char>('a' + i % 26));
      prev = log.AppendOperation(MakePhysicalWrite(7, "txn-write"), 9, prev,
                                 image);
    }
    log.AppendTxnMarker(RecordType::kTxnCommit, 9, prev);
    ASSERT_TRUE(log.ForceAll().ok());
  }

  LogRecord rec;
  auto walk = [&] {
    LogCursor cursor(disk.log());
    uint64_t n = 0;
    while (cursor.Next(&rec)) ++n;
    EXPECT_TRUE(cursor.status().ok());
    return n;
  };
  const uint64_t records = walk();  // warms rec's buffers
  ASSERT_EQ(records, 64u * 3 + 66);
  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(walk(), records);
  // At most the one image buffer plus the end-of-log status.
  EXPECT_LE(g_heap_allocs.load(std::memory_order_relaxed) - before, 3u)
      << "decode walk allocates per record";

  before = g_heap_allocs.load(std::memory_order_relaxed);
  LogCursor frames(disk.log());
  RecordType type = RecordType::kOperation;
  Lsn lsn = kInvalidLsn;
  uint64_t headers = 0;
  while (frames.NextHeader(&type, &lsn)) ++headers;
  EXPECT_EQ(headers, records);
  EXPECT_LE(g_heap_allocs.load(std::memory_order_relaxed) - before, 2u)
      << "frame-only walk allocates per record";
}

// Reservations fill out of order; forces wait for the contiguous
// prefix. Committing the later reservation first must not let it jump
// the earlier one on the device.
TEST(WalHotPathTest, OutOfOrderCommitKeepsLsnOrder) {
  SimulatedDisk disk;
  LogManager log(&disk.log());

  LogManager::Reservation first =
      log.AppendReserve(RecordType::kTxnBegin,
                        EncodedTxnMarkerBodySize(5, kInvalidLsn));
  LogManager::Reservation second =
      log.AppendReserve(RecordType::kTxnCommit, EncodedTxnMarkerBodySize(5, 1));
  EXPECT_EQ(first.lsn + 1, second.lsn);

  EncodeTxnMarkerBody(second.body, 5, 1);
  log.AppendCommit(second);
  EncodeTxnMarkerBody(first.body, 5, kInvalidLsn);
  log.AppendCommit(first);

  ASSERT_TRUE(log.ForceAll().ok());
  std::vector<LogRecord> records;
  bool torn = false;
  Lsn next_lsn = 0;
  uint64_t valid_end = 0;
  ASSERT_TRUE(
      LogManager::ReadStable(disk.log(), &records, &torn, &next_lsn,
                             &valid_end)
          .ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, RecordType::kTxnBegin);
  EXPECT_EQ(records[1].type, RecordType::kTxnCommit);
  EXPECT_EQ(records[0].lsn, first.lsn);
  EXPECT_EQ(records[1].lsn, second.lsn);
}

}  // namespace
}  // namespace loglog
