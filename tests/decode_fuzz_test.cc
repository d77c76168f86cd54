#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "domains/btree/btree_page.h"
#include "ops/op_builder.h"
#include "recovery/txn_undo.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace loglog {
namespace {

// One of each transactional record form (and a checkpoint carrying the
// txn-id watermark), for the fuzz rounds below.
std::vector<LogRecord> TxnRecordCorpus() {
  std::vector<LogRecord> recs;
  LogRecord begin;
  begin.type = RecordType::kTxnBegin;
  begin.lsn = 10;
  begin.txn_id = 3;
  begin.prev_lsn = kInvalidLsn;
  recs.push_back(begin);
  LogRecord op;
  op.type = RecordType::kOperation;
  op.lsn = 11;
  op.txn_id = 3;
  op.prev_lsn = 10;
  op.op = MakePhysicalWrite(5, "payload");
  op.undo_images.push_back({true, {'o', 'l', 'd'}});
  recs.push_back(op);
  LogRecord clr;
  clr.type = RecordType::kCompensation;
  clr.lsn = 12;
  clr.txn_id = 3;
  clr.prev_lsn = 11;
  clr.undo_next_lsn = 10;
  clr.undo_skip = 0;
  clr.op = MakePhysicalWrite(5, "old");
  recs.push_back(clr);
  LogRecord abort;
  abort.type = RecordType::kTxnAbort;
  abort.lsn = 13;
  abort.txn_id = 3;
  abort.prev_lsn = 12;
  recs.push_back(abort);
  LogRecord commit;
  commit.type = RecordType::kTxnCommit;
  commit.lsn = 14;
  commit.txn_id = 4;
  commit.prev_lsn = 9;
  recs.push_back(commit);
  LogRecord ckpt;
  ckpt.type = RecordType::kCheckpoint;
  ckpt.lsn = 15;
  ckpt.txn_id = 4;  // the id high-water mark, not a transaction
  ckpt.dot.push_back({7, 11, false});
  recs.push_back(ckpt);
  // Log-store index checkpoint: object -> (lsn, device extent) entries.
  // A scribbled offset or size here would send recovery's faulted reads
  // into the weeds, so decode robustness matters as much as for the
  // transactional forms.
  LogRecord idx;
  idx.type = RecordType::kIndexCheckpoint;
  idx.lsn = 16;
  idx.index_entries.push_back({/*id=*/5, /*lsn=*/11, /*offset=*/128,
                               /*size=*/64});
  idx.index_entries.push_back({/*id=*/9, /*lsn=*/14, /*offset=*/4096,
                               /*size=*/257});
  recs.push_back(idx);
  return recs;
}

// Robustness: decoders must reject arbitrary and mutated bytes with a
// Status, never crash or accept trailing garbage. (Recovery reads these
// from a device that can hand it torn or scribbled sectors.)

class DecodeFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DecodeFuzzTest, RandomBytesNeverCrashDecoders) {
  Random rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk = rng.Bytes(rng.Uniform(64));
    {
      Slice s(junk);
      LogRecord rec;
      (void)LogRecord::DecodeFrom(&s, &rec);
    }
    {
      Slice s(junk);
      OperationDesc op;
      (void)OperationDesc::DecodeFrom(&s, &op);
    }
    {
      BtreePage page;
      (void)BtreePage::Deserialize(Slice(junk), &page);
    }
    {
      // The frame-only walk accepts everything the full decoder accepts,
      // with the same type, LSN and frame length.
      Slice s(junk);
      LogRecord rec;
      Status full = ReadFramedRecord(&s, &rec);
      Slice h(junk);
      RecordType type = RecordType::kOperation;
      Lsn lsn = kInvalidLsn;
      Status header = ReadFrameHeader(&h, &type, &lsn);
      if (full.ok()) {
        ASSERT_TRUE(header.ok());
        EXPECT_EQ(type, rec.type);
        EXPECT_EQ(lsn, rec.lsn);
        EXPECT_EQ(h.size(), s.size());
      }
    }
  }
}

TEST_P(DecodeFuzzTest, MutatedValidRecordsAreRejectedOrEquivalent) {
  Random rng(GetParam() * 31 + 5);
  LogRecord rec;
  rec.type = RecordType::kOperation;
  rec.lsn = 42;
  rec.op = MakeAppRead(7, 9);
  std::vector<uint8_t> framed;
  FrameRecord(rec, &framed);

  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = framed;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    Slice s(mutated);
    LogRecord out;
    Status st = ReadFramedRecord(&s, &out);
    // The CRC catches every single-byte payload flip; header flips can
    // only fail (bad length) — never decode to a different record.
    EXPECT_TRUE(st.IsCorruption()) << "pos " << pos;
  }
}

TEST_P(DecodeFuzzTest, TruncationsOfValidEncodingsFail) {
  Random rng(GetParam() * 7 + 3);
  for (const OperationDesc& op :
       {MakeAppRead(1, 2), MakePhysicalWrite(3, "payload"),
        MakeSort(4, 5, 16), MakeHashCombine(6, {7, 8}, 64, 9)}) {
    std::vector<uint8_t> bytes;
    op.EncodeTo(&bytes);
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
      Slice s(cut);
      OperationDesc out;
      Status st = OperationDesc::DecodeFrom(&s, &out);
      // Either a clean rejection, or (rarely) a shorter valid prefix —
      // but then bytes must remain unconsumed... a full parse of a strict
      // prefix cannot leave the cursor empty AND equal the original.
      if (st.ok()) {
        EXPECT_FALSE(out == op) << keep;
      }
    }
  }
}

TEST_P(DecodeFuzzTest, TxnRecordMutationsAreRejected) {
  // Single-byte flips over framed transactional records (begin, in-txn
  // operation with before-image trailer, compensation, abort, commit,
  // watermark checkpoint) must always fail the frame CRC — a scribbled
  // backchain or undo-next LSN can never decode as a different record.
  Random rng(GetParam() * 17 + 1);
  for (const LogRecord& rec : TxnRecordCorpus()) {
    std::vector<uint8_t> framed;
    FrameRecord(rec, &framed);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> mutated = framed;
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      Slice s(mutated);
      LogRecord out;
      EXPECT_TRUE(ReadFramedRecord(&s, &out).IsCorruption())
          << "type " << static_cast<int>(rec.type) << " pos " << pos;
    }
  }
}

TEST(DecodeTxnTest, TxnRecordTruncationsFail) {
  // Every strict prefix of a framed transactional record is an
  // incomplete frame; none may decode successfully.
  for (const LogRecord& rec : TxnRecordCorpus()) {
    std::vector<uint8_t> framed;
    FrameRecord(rec, &framed);
    for (size_t keep = 0; keep < framed.size(); ++keep) {
      std::vector<uint8_t> cut(framed.begin(), framed.begin() + keep);
      Slice s(cut);
      LogRecord out;
      EXPECT_FALSE(ReadFramedRecord(&s, &out).ok())
          << "type " << static_cast<int>(rec.type) << " keep " << keep;
    }
  }
}

TEST(DecodeTxnTest, ZeroTxnIdPayloadsRejected) {
  // txn_id == 0 marks a record non-transactional, so a marker or CLR
  // carrying it is contradictory and must be rejected at decode.
  for (RecordType type : {RecordType::kTxnBegin, RecordType::kTxnCommit,
                          RecordType::kTxnAbort, RecordType::kCompensation}) {
    std::vector<uint8_t> payload;
    payload.push_back(static_cast<uint8_t>(type));
    PutVarint64(&payload, /*lsn=*/20);
    PutVarint64(&payload, /*txn_id=*/0);
    PutVarint64(&payload, /*prev_lsn=*/19);
    Slice s(payload);
    LogRecord out;
    EXPECT_TRUE(LogRecord::DecodeFrom(&s, &out).IsCorruption())
        << static_cast<int>(type);
  }
}

TEST(DecodeVarintTest, TenthByteAboveOneIsRejected) {
  // Nine continuation bytes carry bits 0..62; the tenth may only hold bit
  // 63. A larger tenth byte used to decode with its high bits dropped.
  std::vector<uint8_t> max(9, 0xff);
  max.push_back(0x01);
  Slice ok(max);
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(&ok, &v).ok());
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ok.empty());
  for (uint8_t last : {0x02, 0x7f, 0x81}) {
    std::vector<uint8_t> bytes(9, 0xff);
    bytes.push_back(last);
    Slice s(bytes);
    EXPECT_TRUE(GetVarint64(&s, &v).IsCorruption()) << int{last};
  }
  // Same bytes as a record LSN: both the full decoder and the frame-only
  // header walk refuse the frame.
  std::vector<uint8_t> payload;
  payload.push_back(static_cast<uint8_t>(RecordType::kFlushTxnCommit));
  payload.insert(payload.end(), 9, 0xff);
  payload.push_back(0x02);
  PutVarint64(&payload, /*ref_lsn=*/1);
  std::vector<uint8_t> framed;
  PutFixed32(&framed, static_cast<uint32_t>(payload.size()));
  PutFixed32(&framed, Crc32c(Slice(payload)));
  framed.insert(framed.end(), payload.begin(), payload.end());
  Slice full(framed);
  LogRecord rec;
  EXPECT_TRUE(ReadFramedRecord(&full, &rec).IsCorruption());
  Slice header(framed);
  RecordType type = RecordType::kOperation;
  Lsn lsn = kInvalidLsn;
  EXPECT_TRUE(ReadFrameHeader(&header, &type, &lsn).IsCorruption());
}

TEST(DecodeTxnTest, CorruptBackchainLsnIsRejectedByRollback) {
  // A compensation record whose undo-next LSN points off the
  // transaction's backchain (decode-valid bytes, corrupted meaning) must
  // stop the rollback with Corruption, not silently skip or re-undo.
  SimulatedDisk disk;
  LogManager log(&disk.log());
  CacheManager cm(&disk, &log, GraphKind::kRefined,
                  FlushPolicy::kNativeAtomic, /*log_installs=*/true);
  FaultInjector faults;
  TxnRollbackPlan plan;
  plan.txn_id = 9;
  plan.last_lsn = 33;
  plan.forward.push_back(
      {/*lsn=*/30, MakePhysicalWrite(1, "x"), {{true, {'o'}}}});
  plan.resume_lsn = 500;  // not the LSN of any forward record
  TxnUndoStats stats;
  Status st = RollbackTxn(&cm, &log, &faults, plan, /*io_budget=*/1, &stats);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(stats.clrs_logged, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest, testing::Values(1, 2, 3));

}  // namespace
}  // namespace loglog
