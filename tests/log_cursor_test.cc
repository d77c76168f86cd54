#include <gtest/gtest.h>

#include <vector>

#include "ops/op_builder.h"
#include "storage/simulated_disk.h"
#include "wal/log_cursor.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace loglog {
namespace {

LogRecord OpRecord(Lsn lsn, OperationDesc op) {
  LogRecord rec;
  rec.type = RecordType::kOperation;
  rec.lsn = lsn;
  rec.op = std::move(op);
  return rec;
}

// Every log consumer (LogManager's constructor with its frame-only walk,
// the recovery passes, media recovery, ReadStable) advances the same
// LogCursor, so their next-LSN / valid-byte bookkeeping must agree by
// construction — these tests pin that down, especially on torn tails
// where the hand-rolled walks used to diverge.

TEST(LogCursorTest, WalksCleanLog) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  for (int i = 0; i < 4; ++i) {
    log.Append(OpRecord(0, MakePhysicalWrite(1, "abcdefgh")));
  }
  ASSERT_TRUE(log.ForceAll().ok());

  LogCursor cursor(disk.log());
  LogRecord rec;
  std::vector<Lsn> lsns;
  std::vector<uint64_t> offsets;
  while (cursor.Next(&rec)) {
    lsns.push_back(rec.lsn);
    offsets.push_back(cursor.record_offset());
  }
  EXPECT_TRUE(cursor.status().ok());
  EXPECT_FALSE(cursor.torn());
  EXPECT_EQ(lsns, (std::vector<Lsn>{1, 2, 3, 4}));
  EXPECT_EQ(cursor.records_read(), 4u);
  EXPECT_EQ(cursor.next_lsn(), 5u);
  EXPECT_EQ(cursor.valid_end(), disk.log().end_offset());
  // Offsets are strictly increasing and start at the device start.
  EXPECT_EQ(offsets.front(), disk.log().start_offset());
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_LT(offsets[i - 1], offsets[i]);
  }
}

TEST(LogCursorTest, EmptyLogIsCleanEnd) {
  SimulatedDisk disk;
  LogCursor cursor(disk.log());
  LogRecord rec;
  EXPECT_FALSE(cursor.Next(&rec));
  EXPECT_FALSE(cursor.torn());
  EXPECT_TRUE(cursor.status().ok());
  EXPECT_EQ(cursor.next_lsn(), 1u);
  EXPECT_EQ(cursor.records_read(), 0u);
}

TEST(LogCursorTest, TornTailAgreesWithReadStable) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    for (int i = 0; i < 5; ++i) {
      log.Append(OpRecord(0, MakePhysicalWrite(1, "payload-bytes")));
    }
    ASSERT_TRUE(log.ForceAll().ok());
  }

  // Tear progressively more off the tail, staying strictly inside the
  // final record so every tear leaves a torn (not clean) end; at every
  // tear size the cursor and ReadStable must agree exactly on next_lsn,
  // valid_end, torn-ness and record count — this is the bookkeeping that
  // used to be duplicated (and to drift) between the constructor scan
  // and the recovery scan.
  uint64_t full = disk.log().end_offset();
  uint64_t last_record_offset = 0;
  {
    LogCursor scan(disk.log());
    LogRecord r;
    while (scan.Next(&r)) last_record_offset = scan.record_offset();
  }
  uint64_t last_size = full - last_record_offset;
  ASSERT_GT(last_size, 8u);
  for (uint64_t tear = 1; tear < last_size; tear += 5) {
    SimulatedDisk copy;
    ASSERT_TRUE(copy.log().Append(disk.log().Contents()).ok());
    copy.log().TearTail(tear);

    LogCursor cursor(copy.log());
    LogRecord rec;
    uint64_t cursor_count = 0;
    while (cursor.Next(&rec)) ++cursor_count;
    ASSERT_TRUE(cursor.status().ok());

    std::vector<LogRecord> records;
    bool torn;
    Lsn next;
    uint64_t valid_end;
    ASSERT_TRUE(LogManager::ReadStable(copy.log(), &records, &torn, &next,
                                       &valid_end)
                    .ok());

    EXPECT_EQ(cursor.torn(), torn) << "tear=" << tear;
    EXPECT_TRUE(cursor.torn());  // every tear size here cuts a record
    EXPECT_EQ(cursor_count, records.size()) << "tear=" << tear;
    EXPECT_EQ(cursor.next_lsn(), next) << "tear=" << tear;
    EXPECT_EQ(cursor.valid_end(), valid_end) << "tear=" << tear;
    EXPECT_LT(valid_end, copy.log().end_offset());
    EXPECT_EQ(cursor.next_lsn(), records.size() + 1) << "tear=" << tear;

    // A LogManager revived over the torn device must come to the same
    // conclusion: it resumes LSNs right after the last whole record.
    LogManager revived(&copy.log());
    EXPECT_EQ(revived.last_stable_lsn(), records.size());
    EXPECT_EQ(revived.Append(OpRecord(0, MakePhysicalWrite(2, "y"))),
              next);
  }
  EXPECT_EQ(full, disk.log().end_offset());  // original untouched
}

TEST(LogCursorTest, ResumeAfterTearTrim) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    for (int i = 0; i < 3; ++i) {
      log.Append(OpRecord(0, MakePhysicalWrite(1, "abcdefgh")));
    }
    ASSERT_TRUE(log.ForceAll().ok());
  }
  disk.log().TearTail(5);

  // Recovery's trim: drop exactly the torn bytes (end - valid_end), then
  // a revived manager appends cleanly and the log reads back whole.
  LogCursor scan(disk.log());
  LogRecord rec;
  while (scan.Next(&rec)) {
  }
  ASSERT_TRUE(scan.torn());
  disk.log().TearTail(disk.log().end_offset() - scan.valid_end());

  LogManager revived(&disk.log());
  EXPECT_EQ(revived.last_stable_lsn(), 2u);
  EXPECT_EQ(revived.Append(OpRecord(0, MakePhysicalWrite(1, "zz"))), 3u);
  ASSERT_TRUE(revived.ForceAll().ok());

  LogCursor reread(disk.log());
  std::vector<Lsn> lsns;
  while (reread.Next(&rec)) lsns.push_back(rec.lsn);
  EXPECT_FALSE(reread.torn());
  EXPECT_TRUE(reread.status().ok());
  EXPECT_EQ(lsns, (std::vector<Lsn>{1, 2, 3}));
}

TEST(LogCursorTest, RevivedManagerOffsetIndexSupportsTruncation) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    for (int i = 0; i < 4; ++i) {
      log.Append(OpRecord(0, MakePhysicalWrite(1, "x")));
      ASSERT_TRUE(log.ForceAll().ok());
    }
  }
  // The revived manager's constructor built its offset index through the
  // cursor; truncation through that index must drop exactly the records
  // before the cut.
  LogManager revived(&disk.log());
  revived.TruncateBefore(3);

  std::vector<LogRecord> records;
  bool torn;
  Lsn next;
  uint64_t valid_end;
  ASSERT_TRUE(LogManager::ReadStable(disk.log(), &records, &torn, &next,
                                     &valid_end)
                  .ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 3u);
  EXPECT_EQ(records[1].lsn, 4u);
  EXPECT_EQ(next, 5u);
}

TEST(LogCursorTest, SliceCursorTracksAbsoluteOffsets) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  for (int i = 0; i < 3; ++i) {
    log.Append(OpRecord(0, MakePhysicalWrite(1, "abc")));
  }
  ASSERT_TRUE(log.ForceAll().ok());

  // A slice cursor given the device's start offset reports the same
  // absolute offsets as the device cursor (media recovery walks the
  // archive slice this way).
  LogCursor dev_cursor(disk.log());
  LogCursor slice_cursor(disk.log().Contents(), disk.log().start_offset());
  LogRecord a, b;
  while (dev_cursor.Next(&a)) {
    ASSERT_TRUE(slice_cursor.Next(&b));
    EXPECT_EQ(a.lsn, b.lsn);
    EXPECT_EQ(dev_cursor.record_offset(), slice_cursor.record_offset());
  }
  EXPECT_FALSE(slice_cursor.Next(&b));
  EXPECT_EQ(dev_cursor.valid_end(), slice_cursor.valid_end());
  EXPECT_EQ(dev_cursor.next_lsn(), slice_cursor.next_lsn());
}

TEST(LogCursorTest, HeaderWalkAgreesWithFullDecode) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    for (int i = 0; i < 5; ++i) {
      log.Append(OpRecord(0, MakePhysicalWrite(1, "header-walk")));
    }
    ASSERT_TRUE(log.ForceAll().ok());
  }
  // Clean log and every tear size inside the last frame: the frame-only
  // walk (LogManager's open) and the decoding walk (recovery) stop at the
  // same offset with the same LSN bookkeeping.
  const uint64_t full = disk.log().end_offset();
  for (uint64_t tear = 0; tear < 12; tear += 3) {
    SimulatedDisk copy;
    ASSERT_TRUE(copy.log().Append(disk.log().Contents()).ok());
    copy.log().TearTail(tear);
    LogCursor decode(copy.log());
    LogCursor header(copy.log());
    LogRecord rec;
    RecordType type = RecordType::kOperation;
    Lsn lsn = kInvalidLsn;
    while (decode.Next(&rec)) {
      ASSERT_TRUE(header.NextHeader(&type, &lsn));
      EXPECT_EQ(type, rec.type);
      EXPECT_EQ(lsn, rec.lsn);
      EXPECT_EQ(header.record_offset(), decode.record_offset());
    }
    EXPECT_FALSE(header.NextHeader(&type, &lsn));
    EXPECT_EQ(header.torn(), decode.torn()) << "tear=" << tear;
    EXPECT_EQ(header.torn(), tear > 0);
    EXPECT_EQ(header.valid_end(), decode.valid_end());
    EXPECT_EQ(header.next_lsn(), decode.next_lsn());
    EXPECT_EQ(header.records_read(), decode.records_read());
  }
  EXPECT_EQ(full, disk.log().end_offset());
}

TEST(LogCursorTest, SeekedCursorStartsAtIndexedFrame) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    for (int i = 0; i < 6; ++i) {
      log.Append(OpRecord(0, MakePhysicalWrite(1, "seek")));
      ASSERT_TRUE(log.ForceAll().ok());
    }
    log.TruncateBefore(2);
  }
  // The revived manager's frame-only index maps LSNs to frame starts; a
  // device cursor opened there reads from that record on, with absolute
  // offsets.
  LogManager revived(&disk.log());
  for (Lsn want = 2; want <= 6; ++want) {
    uint64_t offset = 0;
    ASSERT_TRUE(revived.FirstStableOffsetAtOrAfter(want, &offset));
    LogCursor cursor(disk.log(), offset);
    LogRecord rec;
    ASSERT_TRUE(cursor.Next(&rec));
    EXPECT_EQ(rec.lsn, want);
    EXPECT_EQ(cursor.record_offset(), offset);
    uint64_t records = 1;
    while (cursor.Next(&rec)) ++records;
    EXPECT_EQ(records, 7 - want);
    EXPECT_EQ(cursor.valid_end(), disk.log().end_offset());
  }
  // Below the retained log: the first retained record. Past it: none.
  uint64_t offset = 0;
  ASSERT_TRUE(revived.FirstStableOffsetAtOrAfter(1, &offset));
  EXPECT_EQ(offset, disk.log().start_offset());
  EXPECT_FALSE(revived.FirstStableOffsetAtOrAfter(7, &offset));
  LogCursor at_end(disk.log(), disk.log().end_offset());
  LogRecord rec;
  EXPECT_FALSE(at_end.Next(&rec));
  EXPECT_FALSE(at_end.torn());
}

// --- Tail-follow semantics -------------------------------------------
//
// The log shipper tails the archive with a fresh slice cursor per poll,
// resuming at the previous cursor's valid_end(). These tests pin the
// contract that makes that loop correct: resuming at valid_end sees
// exactly the records that arrived since, truncation never perturbs the
// archive walk, and a torn tail stops the cursor at an offset from which
// the healed log re-serves the same LSN.

TEST(LogCursorTest, TailFollowAcrossConcurrentAppends) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  log.Append(OpRecord(0, MakePhysicalWrite(1, "first")));
  ASSERT_TRUE(log.ForceAll().ok());

  // First tail pass consumes everything stable so far.
  Slice archive = disk.log().ArchiveContents();
  LogCursor first(archive, 0);
  LogRecord rec;
  std::vector<Lsn> seen;
  while (first.Next(&rec)) seen.push_back(rec.lsn);
  ASSERT_EQ(seen, (std::vector<Lsn>{1}));
  const uint64_t resume = first.valid_end();

  // More records become stable between polls (interleaved with a
  // truncation-irrelevant re-read of the archive, as the shipper does).
  for (int i = 0; i < 3; ++i) {
    log.Append(OpRecord(0, MakePhysicalWrite(2, "more-bytes")));
    ASSERT_TRUE(log.ForceAll().ok());
  }

  // The next pass resumes at valid_end and sees exactly the new records:
  // no replays, no gaps.
  archive = disk.log().ArchiveContents();
  ASSERT_LE(resume, archive.size());
  LogCursor second(Slice(archive.data() + resume, archive.size() - resume),
                   resume);
  seen.clear();
  while (second.Next(&rec)) seen.push_back(rec.lsn);
  EXPECT_EQ(seen, (std::vector<Lsn>{2, 3, 4}));
  EXPECT_FALSE(second.torn());
  EXPECT_EQ(second.valid_end(), archive.size());
}

TEST(LogCursorTest, TailFollowSurvivesTruncateBefore) {
  SimulatedDisk disk;
  LogManager log(&disk.log());
  for (int i = 0; i < 4; ++i) {
    log.Append(OpRecord(0, MakePhysicalWrite(1, "abcdefgh")));
    ASSERT_TRUE(log.ForceAll().ok());
  }
  Slice archive = disk.log().ArchiveContents();
  LogCursor before(archive, 0);
  LogRecord rec;
  uint64_t count = 0;
  while (before.Next(&rec)) ++count;
  ASSERT_EQ(count, 4u);
  const uint64_t resume = before.valid_end();

  // A checkpoint truncates the live log; the archive — and therefore a
  // tailing cursor's resume offset — is unaffected, while a device
  // cursor now starts mid-history.
  log.TruncateBefore(3);
  log.Append(OpRecord(0, MakePhysicalWrite(2, "post-truncate")));
  ASSERT_TRUE(log.ForceAll().ok());

  archive = disk.log().ArchiveContents();
  LogCursor after(Slice(archive.data() + resume, archive.size() - resume),
                  resume);
  std::vector<Lsn> tail;
  while (after.Next(&rec)) tail.push_back(rec.lsn);
  EXPECT_EQ(tail, (std::vector<Lsn>{5}));

  LogCursor device(disk.log());
  std::vector<Lsn> live;
  while (device.Next(&rec)) live.push_back(rec.lsn);
  EXPECT_EQ(live, (std::vector<Lsn>{3, 4, 5}));
  EXPECT_EQ(device.next_lsn(), after.next_lsn());
}

TEST(LogCursorTest, TornTailStopsAndResumesAtSameLsn) {
  SimulatedDisk disk;
  {
    LogManager log(&disk.log());
    log.Append(OpRecord(0, MakePhysicalWrite(1, "whole-record")));
    ASSERT_TRUE(log.ForceAll().ok());
    log.Append(OpRecord(0, MakePhysicalWrite(1, "doomed-record")));
    ASSERT_TRUE(log.ForceAll().ok());
  }
  disk.log().TearTail(4);  // cut into the final record

  // The tailing cursor stops at the tear; only the whole record is
  // trusted, and valid_end marks where trust ends.
  Slice archive = disk.log().ArchiveContents();
  LogCursor torn_cursor(archive, 0);
  LogRecord rec;
  std::vector<Lsn> seen;
  while (torn_cursor.Next(&rec)) seen.push_back(rec.lsn);
  ASSERT_TRUE(torn_cursor.torn());
  ASSERT_EQ(seen, (std::vector<Lsn>{1}));
  const uint64_t resume = torn_cursor.valid_end();
  ASSERT_LT(resume, archive.size());

  // Recovery heals the device (trims the torn bytes) and execution
  // resumes: the next record takes the SAME LSN the torn one had.
  disk.log().TearTail(disk.log().end_offset() - resume);
  LogManager revived(&disk.log());
  EXPECT_EQ(revived.Append(OpRecord(0, MakePhysicalWrite(1, "retried"))),
            2u);
  ASSERT_TRUE(revived.ForceAll().ok());

  // Resuming the tail at valid_end yields lsn 2 exactly once — the
  // shipper neither skips nor duplicates the re-forced record.
  archive = disk.log().ArchiveContents();
  LogCursor resumed(Slice(archive.data() + resume, archive.size() - resume),
                    resume);
  seen.clear();
  while (resumed.Next(&rec)) seen.push_back(rec.lsn);
  EXPECT_FALSE(resumed.torn());
  EXPECT_EQ(seen, (std::vector<Lsn>{2}));
}

}  // namespace
}  // namespace loglog
