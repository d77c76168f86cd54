#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
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

// Size and CRC32C of the stable log RecordMix() leaves on the device.
// They change only if the on-device record format changes.
constexpr size_t kGoldenLogBytes = 320;
constexpr uint32_t kGoldenLogCrc = 0xfb4223cbu;

// The record mix the tests below push through both append paths: every
// RecordType, with each vector a type carries non-empty in at least one
// record — plain ops, in-txn ops (with and without before-images), txn
// markers, compensations, and the control records (checkpoints with and
// without a txn-id watermark, install, flush transaction, policy
// decision, index checkpoint). Only the fields a type carries are set,
// so a decoded record compares equal field by field. LSNs are assigned
// 1, 2, ... in mix order.
std::vector<LogRecord> RecordMix() {
  std::vector<LogRecord> mix;
  auto add = [&mix](RecordType type) -> LogRecord& {
    mix.emplace_back();
    mix.back().type = type;
    return mix.back();
  };
  // Non-transactional operation (pre-transaction byte format).
  add(RecordType::kOperation).op = MakeCreate(1, "genesis");
  // Txn begin marker (head of the backchain).
  add(RecordType::kTxnBegin).txn_id = 7;
  // In-txn operation with a logical inverse: trailer, no images.
  {
    LogRecord& r = add(RecordType::kOperation);
    r.op = MakeAppend(1, "-tail");
    r.txn_id = 7;
    r.prev_lsn = 2;
  }
  // In-txn blind write: trailer plus a before-image.
  {
    LogRecord& r = add(RecordType::kOperation);
    r.op = MakePhysicalWrite(1, "overwrite");
    r.txn_id = 7;
    r.prev_lsn = 3;
    r.undo_images.resize(1);
    r.undo_images[0].exists = true;
    r.undo_images[0].value = {'g', 'e', 'n'};
  }
  // In-txn create of a fresh object: image records nonexistence.
  {
    LogRecord& r = add(RecordType::kOperation);
    r.op = MakeCreate(2, "second");
    r.txn_id = 7;
    r.prev_lsn = 4;
    r.undo_images.resize(1);
  }
  // Compensation restoring an image mid-rollback (cursor fields set).
  {
    LogRecord& r = add(RecordType::kCompensation);
    r.op = MakePhysicalWrite(1, "gen");
    r.txn_id = 7;
    r.prev_lsn = 5;
    r.undo_next_lsn = 3;
    r.undo_skip = 1;
  }
  // Compensation finishing the rollback (no next record to undo).
  {
    LogRecord& r = add(RecordType::kCompensation);
    r.op = MakeDelete(2);
    r.txn_id = 7;
    r.prev_lsn = 6;
  }
  // Abort and a fresh commit-shaped marker close the transactions.
  {
    LogRecord& r = add(RecordType::kTxnAbort);
    r.txn_id = 7;
    r.prev_lsn = 7;
  }
  {
    LogRecord& r = add(RecordType::kTxnCommit);
    r.txn_id = 9;
    r.prev_lsn = 1;
  }
  // Checkpoint carrying the txn-id watermark, then one without it (the
  // pre-transaction format).
  {
    LogRecord& r = add(RecordType::kCheckpoint);
    r.dot = {{1, 3, false}, {uint64_t{1} << 40, 5, true}};
    r.txn_id = 9;
  }
  add(RecordType::kCheckpoint).dot = {{2, 200, false}};
  {
    LogRecord& r = add(RecordType::kInstall);
    r.installed_vars = {{1, kInvalidLsn}, {2, 6}};
    r.installed_notx = {{uint64_t{1} << 40, 300}};
  }
  {
    LogRecord& r = add(RecordType::kFlushTxnBegin);
    r.flush_values.resize(2);
    r.flush_values[0].id = 1;
    r.flush_values[0].vsi = 4;
    r.flush_values[0].value = {'g', 'e', 'n'};
    r.flush_values[1].id = 2;
    r.flush_values[1].vsi = 5;
    r.flush_values[1].erase = true;
  }
  add(RecordType::kFlushTxnCommit).ref_lsn = 13;
  {
    LogRecord& r = add(RecordType::kPolicyDecision);
    r.policy.object = 1;
    r.policy.new_class = 2;
    r.policy.prev_class = 1;
    r.policy.reason = 3;
    r.policy.chain_depth = 4;
    r.policy.ewma_size = 300;
  }
  add(RecordType::kIndexCheckpoint).index_entries = {
      {1, 4, 0, 40}, {2, 5, 40, uint64_t{1} << 20}};
  return mix;
}

// The record types LogManager has a typed appender for.
bool HasTypedAppender(RecordType type) {
  switch (type) {
    case RecordType::kOperation:
    case RecordType::kCompensation:
    case RecordType::kTxnBegin:
    case RecordType::kTxnCommit:
    case RecordType::kTxnAbort:
      return true;
    default:
      return false;
  }
}

// Appends through the typed appender where the type has one (reporting
// its payload size), else through Append(LogRecord), which reports none.
Lsn AppendTyped(LogManager* log, const LogRecord& rec, size_t* payload) {
  switch (rec.type) {
    case RecordType::kOperation:
      return log->AppendOperation(rec.op, rec.txn_id, rec.prev_lsn,
                                  rec.undo_images, payload);
    case RecordType::kCompensation:
      return log->AppendCompensation(rec.op, rec.txn_id, rec.prev_lsn,
                                     rec.undo_next_lsn, rec.undo_skip,
                                     payload);
    case RecordType::kTxnBegin:
    case RecordType::kTxnCommit:
    case RecordType::kTxnAbort:
      return log->AppendTxnMarker(rec.type, rec.txn_id, rec.prev_lsn,
                                  payload);
    default:
      EXPECT_FALSE(HasTypedAppender(rec.type));
      return log->Append(rec);
  }
}

template <typename T, typename Key>
void ExpectSameEntries(const std::vector<T>& got, const std::vector<T>& want,
                       Key key) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(key(got[i]) == key(want[i])) << "entry " << i;
  }
}

// Every field of every record type.
void ExpectSameRecord(const LogRecord& got, const LogRecord& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.lsn, want.lsn);
  EXPECT_TRUE(got.op == want.op) << got.op.DebugString();
  EXPECT_EQ(got.txn_id, want.txn_id);
  EXPECT_EQ(got.prev_lsn, want.prev_lsn);
  EXPECT_EQ(got.undo_next_lsn, want.undo_next_lsn);
  EXPECT_EQ(got.undo_skip, want.undo_skip);
  ExpectSameEntries(got.undo_images, want.undo_images,
                    [](const UndoImage& e) { return std::tie(e.exists, e.value); });
  ExpectSameEntries(got.dot, want.dot, [](const DotEntry& e) {
    return std::tie(e.id, e.rsi, e.dead);
  });
  auto install = [](const InstallEntry& e) { return std::tie(e.id, e.rsi); };
  ExpectSameEntries(got.installed_vars, want.installed_vars, install);
  ExpectSameEntries(got.installed_notx, want.installed_notx, install);
  ExpectSameEntries(got.flush_values, want.flush_values,
                    [](const FlushValue& e) {
                      return std::tie(e.id, e.vsi, e.value, e.erase);
                    });
  ExpectSameEntries(got.index_entries, want.index_entries,
                    [](const IndexCheckpointEntry& e) {
                      return std::tie(e.id, e.lsn, e.offset, e.size);
                    });
  EXPECT_EQ(got.ref_lsn, want.ref_lsn);
  const LogRecord::PolicyPayload& g = got.policy;
  const LogRecord::PolicyPayload& w = want.policy;
  EXPECT_TRUE(std::tie(g.object, g.new_class, g.prev_class, g.reason,
                       g.chain_depth, g.ewma_size) ==
              std::tie(w.object, w.new_class, w.prev_class, w.reason,
                       w.chain_depth, w.ewma_size));
}

// The format contract: the typed appenders and Append(LogRecord) write
// byte-identical stable logs, and every frame on the device is exactly
// FrameRecord of its record — sized by EncodedSize, equal to EncodeTo's
// bytes — and decodes back to the same fields. The device checksum pins
// the on-device format itself.
TEST(WalHotPathTest, TypedAppendersAreByteIdenticalToWrapper) {
  SimulatedDisk wrapper_disk;
  SimulatedDisk typed_disk;
  LogManager wrapper_log(&wrapper_disk.log());
  LogManager typed_log(&typed_disk.log());

  std::vector<LogRecord> mix = RecordMix();
  std::vector<size_t> typed_payloads;
  for (LogRecord& rec : mix) {
    Lsn a = wrapper_log.Append(rec);
    size_t payload = 0;
    Lsn b = AppendTyped(&typed_log, rec, &payload);
    EXPECT_EQ(a, b);
    rec.lsn = a;
    typed_payloads.push_back(payload);
  }
  ASSERT_TRUE(wrapper_log.ForceAll().ok());
  ASSERT_TRUE(typed_log.ForceAll().ok());

  Slice w = wrapper_disk.log().Contents();
  Slice t = typed_disk.log().Contents();
  ASSERT_EQ(w.size(), t.size());
  EXPECT_EQ(w.ToString(), t.ToString());

  Slice device = w;
  LogRecord decoded;
  for (size_t i = 0; i < mix.size(); ++i) {
    SCOPED_TRACE(mix[i].DebugString());
    const LogRecord& rec = mix[i];
    std::vector<uint8_t> payload;
    rec.EncodeTo(&payload);
    EXPECT_EQ(rec.EncodedSize(), payload.size());
    if (HasTypedAppender(rec.type)) {
      EXPECT_GT(typed_payloads[i], 0u);
      EXPECT_EQ(typed_payloads[i], payload.size());
    }
    std::vector<uint8_t> framed;
    FrameRecord(rec, &framed);
    ASSERT_EQ(framed.size(), 8 + payload.size());
    EXPECT_EQ(Slice(framed.data() + 8, payload.size()), Slice(payload));
    ASSERT_GE(device.size(), framed.size());
    EXPECT_EQ(DecodeFixed32(device.data()), payload.size());
    EXPECT_EQ(Slice(device.data(), framed.size()), Slice(framed));
    ASSERT_TRUE(ReadFramedRecord(&device, &decoded).ok());
    ExpectSameRecord(decoded, rec);
  }
  EXPECT_TRUE(device.empty());
  EXPECT_EQ(w.size(), kGoldenLogBytes);
  EXPECT_EQ(Crc32c(w), kGoldenLogCrc);
}

// The typed appenders' frames must decode back to exactly the fields
// that went in (round-trip through the recovery reader).
TEST(WalHotPathTest, TypedAppendersRoundTripThroughRecoveryReader) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  std::vector<LogRecord> mix = RecordMix();
  std::vector<size_t> payloads;
  for (LogRecord& rec : mix) {
    size_t payload = 0;
    rec.lsn = AppendTyped(&log, rec, &payload);
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
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
    ExpectSameRecord(records[i], mix[i]);
    // The out-param is the record's true logging cost: what the decoded
    // record re-encodes to, LSN varint included.
    if (HasTypedAppender(mix[i].type)) {
      EXPECT_GT(payloads[i], 0u) << "record " << i;
      EXPECT_EQ(payloads[i], records[i].EncodedSize()) << "record " << i;
    }
  }
}

// Steady-state reserve+fill must not touch the heap per record, for
// the typed appenders and Append(LogRecord) alike: the arena never grows
// (wal.append.allocs stays flat), and raw allocator traffic is bounded
// by the deque's block amortization — far below one allocation per
// record, where the old LogRecord path paid several.
TEST(WalHotPathTest, ReserveFillDoesNotAllocatePerRecord) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  Counter* arena_allocs =
      MetricsRegistry::Global().GetCounter(metric::kWalAppendAllocs);

  const OperationDesc op = MakePhysicalWrite(42, "steady-state-payload");
  const std::vector<UndoImage> no_images;
  LogRecord install;
  install.type = RecordType::kInstall;
  install.installed_vars = {{42, kInvalidLsn}};
  install.installed_notx = {{43, 7}};

  // Warm-up: grow the arena past what the measured run needs, then
  // drain it so the measured appends replay over reclaimed space.
  for (int i = 0; i < 512; ++i) {
    log.AppendOperation(op, 0, kInvalidLsn, no_images);
  }
  ASSERT_TRUE(log.ForceAll().ok());

  constexpr int kRecords = 256;
  const uint64_t arena_before = arena_allocs->value();
  const uint64_t heap_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kRecords / 2; ++i) {
    log.AppendOperation(op, 0, kInvalidLsn, no_images);
    log.Append(install);
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

size_t TxnMarkerBodySize(uint64_t txn_id, Lsn prev_lsn) {
  SizeSink size;
  WriteTxnMarkerBody(size, txn_id, prev_lsn);
  return size.size();
}

void FillTxnMarker(const LogManager::Reservation& r, uint64_t txn_id,
                   Lsn prev_lsn) {
  BufferSink body(r.body);
  WriteTxnMarkerBody(body, txn_id, prev_lsn);
}

// Reservations fill out of order; forces wait for the contiguous
// prefix. Committing the later reservation first must not let it jump
// the earlier one on the device.
TEST(WalHotPathTest, OutOfOrderCommitKeepsLsnOrder) {
  SimulatedDisk disk;
  LogManager log(&disk.log());

  LogManager::Reservation first = log.AppendReserve(
      RecordType::kTxnBegin, TxnMarkerBodySize(5, kInvalidLsn));
  LogManager::Reservation second =
      log.AppendReserve(RecordType::kTxnCommit, TxnMarkerBodySize(5, 1));
  EXPECT_EQ(first.lsn + 1, second.lsn);

  FillTxnMarker(second, 5, 1);
  log.AppendCommit(second);
  FillTxnMarker(first, 5, kInvalidLsn);
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

// A reservation that must wait for the arena to grow (it waits for
// outstanding fills, dropping the lock) takes its LSN only once it has
// room: a smaller reservation that fits meanwhile gets the earlier LSN,
// so the arena, and the device, stay in LSN order.
TEST(WalHotPathTest, ReserveWaitingForRoomKeepsLsnOrder) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  Counter* room_waits =
      MetricsRegistry::Global().GetCounter(metric::kWalAppendRoomWaits);
  const uint64_t waits_before = room_waits->value();
  auto fill_and_commit = [&log](const LogManager::Reservation& r) {
    std::memset(r.body, 0, r.body_size);
    log.AppendCommit(r);
  };

  // Outstanding fill covering most of the 64 KiB initial arena.
  LogManager::Reservation big =
      log.AppendReserve(RecordType::kOperation, 60000);
  std::thread grower([&] {
    fill_and_commit(log.AppendReserve(RecordType::kOperation, 8000));
  });
  // Wait until the grower is blocked on the arena. It counts the wait
  // under the manager lock and releases the lock only inside the wait,
  // so the reservation below cannot run before the grower waits.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (room_waits->value() == waits_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GT(room_waits->value(), waits_before)
      << "grower never waited for arena room";
  LogManager::Reservation small =
      log.AppendReserve(RecordType::kOperation, 100);
  fill_and_commit(small);
  fill_and_commit(big);
  grower.join();
  ASSERT_TRUE(log.ForceAll().ok());

  // Frame-only walk: the bodies are filler, not decodable records.
  LogCursor cursor(disk.log());
  RecordType type = RecordType::kOperation;
  Lsn lsn = kInvalidLsn;
  std::vector<Lsn> lsns;
  while (cursor.NextHeader(&type, &lsn)) lsns.push_back(lsn);
  EXPECT_EQ(lsns, (std::vector<Lsn>{1, 2, 3}));
  EXPECT_EQ(log.last_stable_lsn(), 3u);
}

}  // namespace
}  // namespace loglog
