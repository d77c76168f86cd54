#include <gtest/gtest.h>

#include <string>

#include "common/coding.h"
#include "common/crc32.h"
#include "engine/recovery_engine.h"
#include "engine/txn_manager.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "ops/function_registry.h"
#include "ops/op_builder.h"
#include "sim/crash_harness.h"
#include "wal/log_cursor.h"

// The restart path decodes the log once: the log manager opens with a
// frame-only walk, recovery's analysis pass is the one full decode, and
// the redo pass seeks to the oldest record it needs. These cases pin the
// seek's three lower bounds (the redo start, each loser's begin, the
// oldest committed flush transaction), the kAlways and nothing-to-redo
// edges, the cut of a checksummed but undecodable tail frame, and the
// reset of fields on a reused LogRecord that the cursor loops depend on.

namespace loglog {
namespace {

constexpr FuncId kTwoOut = kFuncFirstCustom + 0x60;

std::string ReadString(RecoveryEngine* engine, ObjectId id) {
  ObjectValue v;
  Status st = engine->Read(id, &v);
  return st.ok() ? std::string(v.begin(), v.end()) : "<" + st.ToString() + ">";
}

/// Recovers with the global tracer on and returns the records the redo
/// pass decoded (the `decoded` arg of the recovery.redo span).
uint64_t RecoverCountingRedoDecodes(CrashHarness* h, RecoveryStats* rs) {
  TraceRecorder& tracer = TraceRecorder::Global();
  tracer.Clear();
  tracer.Enable();
  Status st = h->Recover(rs);
  tracer.Disable();
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const TraceEvent& ev : tracer.Events()) {
    if (ev.name != "recovery.redo") continue;
    for (const auto& [key, value] : ev.args) {
      if (key == "decoded") return std::stoull(value);
    }
  }
  ADD_FAILURE() << "recovery.redo span without a decoded arg";
  return 0;
}

EngineOptions ManualPurge() {
  EngineOptions opts;
  opts.purge_threshold_ops = 0;
  return opts;
}

TEST(ReusedRecordTest, DecodeResetsFieldsTheRecordLacks) {
  LogRecord txn_op;
  txn_op.type = RecordType::kOperation;
  txn_op.lsn = 5;
  txn_op.txn_id = 7;
  txn_op.prev_lsn = 4;
  txn_op.op = MakePhysicalWrite(1, "LOSE");
  txn_op.undo_images.push_back({true, {'a', 'a', 'a', 'a'}});
  LogRecord install;
  install.type = RecordType::kInstall;
  install.lsn = 6;
  install.installed_vars = {{1, kInvalidLsn}};
  LogRecord plain;
  plain.type = RecordType::kOperation;
  plain.lsn = 7;
  plain.op = MakePhysicalWrite(2, "KEEP");

  std::vector<uint8_t> log;
  for (const LogRecord* rec : {&txn_op, &install, &plain}) {
    FrameRecord(*rec, &log);
  }
  LogCursor cursor(Slice(log), 0);
  LogRecord reused;
  for (const LogRecord* want : {&txn_op, &install, &plain}) {
    ASSERT_TRUE(cursor.Next(&reused));
    SCOPED_TRACE(reused.DebugString());
    EXPECT_EQ(reused.txn_id, want->txn_id);
    EXPECT_EQ(reused.prev_lsn, want->prev_lsn);
    EXPECT_EQ(reused.undo_images.size(), want->undo_images.size());
    EXPECT_EQ(reused.op, want->op);
    EXPECT_EQ(reused.installed_vars.size(), want->installed_vars.size());
    std::vector<uint8_t> got_bytes, want_bytes;
    reused.EncodeTo(&got_bytes);
    want->EncodeTo(&want_bytes);
    EXPECT_EQ(got_bytes, want_bytes);
  }
  EXPECT_FALSE(cursor.Next(&reused));
}

TEST(RestartPathTest, ForcedPlainWriteSurvivesLoserRollback) {
  // A plain write decoded right after an in-flight transaction's write
  // must not inherit that record's txn id and before-image: the loser
  // pass would then "roll back" the plain write too.
  CrashHarness h{EngineOptions{}};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "aaaa")).ok());
  ASSERT_TRUE(h.Execute(MakeCreate(2, "bbbb")).ok());
  {
    TxnManager tm(&h.engine());
    TxnId id;
    ASSERT_TRUE(tm.Begin(&id).ok());
    ASSERT_TRUE(tm.Execute(id, MakePhysicalWrite(1, "LOSE")).ok());
    ASSERT_TRUE(h.Execute(MakePhysicalWrite(2, "KEEP")).ok());
    ASSERT_TRUE(h.engine().log().ForceAll().ok());
  }
  h.Crash();
  RecoveryStats rs;
  ASSERT_TRUE(h.Recover(&rs).ok());
  EXPECT_EQ(rs.loser_txns, 1u);
  EXPECT_EQ(rs.loser_clrs, 1u);
  EXPECT_EQ(ReadString(&h.engine(), 1), "aaaa");
  EXPECT_EQ(ReadString(&h.engine(), 2), "KEEP");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(RestartPathTest, LoserBegunBeforeRedoStartIsFullyRolledBack) {
  CrashHarness h{ManualPurge()};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "aaaa")).ok());
  ASSERT_TRUE(h.Execute(MakeCreate(2, "bbbb")).ok());
  ASSERT_TRUE(h.Execute(MakeCreate(3, "cccc")).ok());
  ASSERT_TRUE(h.engine().FlushAll().ok());
  Lsn begin_lsn = kInvalidLsn;
  {
    TxnManager tm(&h.engine());
    TxnId loser;
    ASSERT_TRUE(tm.Begin(&loser).ok());
    begin_lsn = h.engine().log().last_assigned_lsn();
    ASSERT_TRUE(tm.Execute(loser, MakePhysicalWrite(1, "LOSE")).ok());
    ASSERT_TRUE(tm.Execute(loser, MakePhysicalWrite(3, "GONE")).ok());
    // Install the loser's writes (steal), so the redo start moves past
    // its begin record.
    ASSERT_TRUE(h.engine().FlushAll().ok());
    // A committed transaction's write is the first uninstalled one; its
    // commit forces the loser's records too.
    TxnId winner;
    ASSERT_TRUE(tm.Begin(&winner).ok());
    ASSERT_TRUE(tm.Execute(winner, MakePhysicalWrite(2, "KEEP")).ok());
    ASSERT_TRUE(tm.Commit(winner).ok());
  }
  h.Crash();
  RecoveryStats rs;
  const uint64_t decoded = RecoverCountingRedoDecodes(&h, &rs);
  EXPECT_GT(rs.redo_start, begin_lsn) << rs.ToString();
  EXPECT_EQ(rs.loser_txns, 1u);
  EXPECT_EQ(rs.loser_clrs, 2u);
  EXPECT_EQ(rs.records_scanned, 1u);
  EXPECT_EQ(rs.ops_redone, 1u);
  // The seek lands on the loser's begin, past the creates and installs.
  EXPECT_LT(decoded, rs.log_records_total);
  EXPECT_EQ(ReadString(&h.engine(), 1), "aaaa");
  EXPECT_EQ(ReadString(&h.engine(), 2), "KEEP");
  EXPECT_EQ(ReadString(&h.engine(), 3), "cccc");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(RestartPathTest, CommittedFlushTxnBegunBeforeRedoStartIsCompleted) {
  FunctionRegistry::Global().Register(
      kTwoOut, [](const OperationDesc&, const std::vector<ObjectValue>& reads,
                  std::vector<ObjectValue>* writes) {
        (*writes)[0] = reads[0];
        (*writes)[1] = reads[0];
        return Status::OK();
      });
  OperationDesc two_out;
  two_out.op_class = OpClass::kLogical;
  two_out.func = kTwoOut;
  two_out.reads = {1};
  two_out.writes = {2, 3};

  EngineOptions opts = ManualPurge();
  opts.flush_policy = FlushPolicy::kFlushTransaction;
  CrashHarness h(opts, 91);
  ASSERT_TRUE(h.Execute(MakeCreate(1, "source")).ok());
  ASSERT_TRUE(h.engine().FlushAll().ok());
  ASSERT_TRUE(h.Execute(two_out).ok());
  const Lsn flush_begin = h.engine().log().last_assigned_lsn() + 1;
  // The flush transaction commits, but its first in-place write is lost:
  // only recovery's completion of the transaction repairs the store.
  h.disk().fault_injector().Arm(fault::kStoreWrite, FaultSpec::LostOnce());
  ASSERT_TRUE(h.engine().PurgeOne().ok());
  h.disk().fault_injector().DisarmAll();
  EXPECT_EQ(h.engine().cache().stats().flush_txns, 1u);
  ASSERT_TRUE(h.Execute(MakeCreate(4, "later")).ok());
  ASSERT_TRUE(h.engine().log().ForceAll().ok());

  h.Crash();
  RecoveryStats rs;
  RecoverCountingRedoDecodes(&h, &rs);
  EXPECT_GT(rs.redo_start, flush_begin) << rs.ToString();
  EXPECT_EQ(rs.flush_txns_completed, 1u);
  EXPECT_EQ(rs.records_scanned, 2u);
  EXPECT_EQ(rs.ops_redone, 1u);
  StoredObject obj;
  ASSERT_TRUE(h.disk().store().Read(2, &obj).ok());
  EXPECT_EQ(Slice(obj.value).ToString(), "source");
  EXPECT_EQ(ReadString(&h.engine(), 4), "later");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(RestartPathTest, AlwaysRedoStillScansFromTheLogStart) {
  EngineOptions opts = ManualPurge();
  opts.redo_test = RedoTestKind::kAlways;
  CrashHarness h{opts};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "one")).ok());
  ASSERT_TRUE(h.Execute(MakeCreate(2, "two")).ok());
  ASSERT_TRUE(h.engine().FlushAll().ok());
  ASSERT_TRUE(h.Execute(MakePhysicalWrite(2, "TWO")).ok());
  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  h.Crash();
  RecoveryStats rs;
  const uint64_t decoded = RecoverCountingRedoDecodes(&h, &rs);
  EXPECT_EQ(decoded, rs.log_records_total);
  EXPECT_EQ(rs.redo_start, kInvalidLsn);
  EXPECT_EQ(rs.records_scanned, 3u);
  EXPECT_EQ(rs.ops_skipped_installed, 2u);
  EXPECT_EQ(rs.ops_redone, 1u);
  EXPECT_EQ(ReadString(&h.engine(), 1), "one");
  EXPECT_EQ(ReadString(&h.engine(), 2), "TWO");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(RestartPathTest, EmptyRedoSetDecodesNothing) {
  CrashHarness h{ManualPurge()};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "one")).ok());
  ASSERT_TRUE(h.Execute(MakeCreate(2, "two")).ok());
  ASSERT_TRUE(h.engine().FlushAll().ok());
  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  const Lsn last = h.engine().log().last_stable_lsn();
  h.Crash();
  RecoveryStats rs;
  EXPECT_EQ(RecoverCountingRedoDecodes(&h, &rs), 0u);
  EXPECT_EQ(rs.redo_start, last + 1);
  EXPECT_EQ(rs.records_scanned, 0u);
  EXPECT_EQ(rs.ops_considered, 0u);
  EXPECT_EQ(ReadString(&h.engine(), 1), "one");
  EXPECT_EQ(ReadString(&h.engine(), 2), "two");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

TEST(RestartPathTest, UndecodableTailFrameIsCutByRecovery) {
  CrashHarness h{ManualPurge()};
  ASSERT_TRUE(h.Execute(MakeCreate(1, "one")).ok());
  ASSERT_TRUE(h.Execute(MakeCreate(2, "two")).ok());
  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  const Lsn last_good = h.engine().log().last_stable_lsn();
  const uint64_t cut = h.disk().log().end_offset();

  // A frame whose CRC covers its payload but whose body does not decode
  // (op class byte out of range), then a well-formed frame after it.
  std::vector<uint8_t> payload;
  payload.push_back(static_cast<uint8_t>(RecordType::kOperation));
  PutVarint64(&payload, last_good + 1);
  payload.push_back(0xee);
  std::vector<uint8_t> tail;
  PutFixed32(&tail, static_cast<uint32_t>(payload.size()));
  PutFixed32(&tail, Crc32c(Slice(payload)));
  tail.insert(tail.end(), payload.begin(), payload.end());
  LogRecord ghost;
  ghost.type = RecordType::kOperation;
  ghost.lsn = last_good + 2;
  ghost.op = MakePhysicalWrite(1, "ghost");
  FrameRecord(ghost, &tail);
  ASSERT_TRUE(h.disk().log().Append(Slice(tail)).ok());

  h.Crash();
  // The frame-only open accepts both checksummed frames...
  EXPECT_EQ(h.engine().log().last_stable_lsn(), last_good + 2);
  RecoveryStats rs;
  ASSERT_TRUE(h.Recover(&rs).ok());
  // ...and recovery cuts the manager back to where decoding stopped.
  EXPECT_TRUE(rs.torn_tail);
  EXPECT_EQ(rs.log_records_total, last_good);
  EXPECT_EQ(h.disk().log().end_offset(), cut);
  LogManager& log = h.engine().log();
  EXPECT_EQ(log.last_stable_lsn(), last_good);
  uint64_t offset = 0, size = 0;
  EXPECT_FALSE(log.StableExtentOf(last_good + 1, &offset, &size));
  EXPECT_FALSE(log.StableExtentOf(last_good + 2, &offset, &size));
  ASSERT_TRUE(log.StableExtentOf(last_good, &offset, &size));
  EXPECT_EQ(offset + size, cut);
  EXPECT_EQ(log.last_assigned_lsn(), last_good);

  Lsn next = kInvalidLsn;
  ASSERT_TRUE(h.engine().Execute(MakePhysicalWrite(2, "after"), &next).ok());
  EXPECT_EQ(next, last_good + 1);
  EXPECT_EQ(ReadString(&h.engine(), 1), "one");
  ASSERT_TRUE(h.engine().log().ForceAll().ok());
  h.Crash();
  ASSERT_TRUE(h.Recover(&rs).ok());
  EXPECT_FALSE(rs.torn_tail);
  EXPECT_EQ(ReadString(&h.engine(), 1), "one");
  EXPECT_EQ(ReadString(&h.engine(), 2), "after");
  EXPECT_TRUE(h.VerifyAgainstReference().ok());
}

}  // namespace
}  // namespace loglog
