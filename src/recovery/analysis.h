#ifndef LOGLOG_RECOVERY_ANALYSIS_H_
#define LOGLOG_RECOVERY_ANALYSIS_H_

#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace loglog {

/// \brief Writesets of every logged operation, flat and in ascending LSN
/// order (the order analysis meets them): entry i is the operation at
/// lsn(i), writing writes(i). Lookups by LSN binary-search; reverse
/// passes walk the indices backwards. Flat, so that recording and freeing
/// it costs no allocation per logged operation.
class OpWriteIndex {
 public:
  /// Appends the operation at `lsn`, which must exceed every LSN added.
  void Add(Lsn lsn, std::span<const ObjectId> writes);

  size_t size() const { return entries_.size(); }
  Lsn lsn(size_t i) const { return entries_[i].lsn; }
  std::span<const ObjectId> writes(size_t i) const {
    const size_t begin = i == 0 ? 0 : entries_[i - 1].end;
    return {ids_.data() + begin, entries_[i].end - begin};
  }

  /// Writeset of the operation at `lsn`; false when none was logged.
  bool Find(Lsn lsn, std::span<const ObjectId>* writes) const;

 private:
  struct Entry {
    Lsn lsn;
    size_t end;  // one past this entry's last id in ids_
  };
  std::vector<Entry> entries_;
  std::vector<ObjectId> ids_;
};

/// \brief Output of the recovery analysis pass (Section 5 "Logging and
/// Recovery using rSI's").
///
/// Starting from the last checkpoint's dirty object table, the analysis
/// pass replays operation, install and flush-transaction records to build
/// an as-of-crash approximation of the dirty object table with advanced
/// rSIs, the set of objects whose last update is a delete (their earlier
/// operations need no redo), and the set of committed flush transactions.
struct AnalysisResult {
  /// Dirty object table: object -> rSI of its earliest (possibly)
  /// uninstalled operation. Uses the paper's *generalized* rSIs: install
  /// records advance rSIs for flushed vars(n) AND unflushed Notx(n).
  std::unordered_map<ObjectId, Lsn> dot;
  /// The ARIES-style classic table: like `dot`, but install records only
  /// advance rSIs of objects actually flushed (vars(n)); objects that
  /// were installed without flushing stay pinned at their first writer.
  /// This is what the kVsi baseline REDO test consults.
  std::unordered_map<ObjectId, Lsn> dot_classic;
  /// Objects whose final logged update is a delete, with the delete's
  /// lSI. Operations on them before that lSI are treated as installed —
  /// unless an uninstalled reader still needs the value (see `readers`).
  std::unordered_map<ObjectId, Lsn> deleted_at;
  /// Per object, the lSIs of every logged operation that reads it. Used
  /// to keep the deleted-object optimization sound: a write of a deleted
  /// object may only be treated as installed if no possibly-uninstalled
  /// operation read the object between the write and the delete.
  std::unordered_map<ObjectId, std::vector<Lsn>> readers;
  /// lSI -> writeset of every logged operation (for the reader check).
  OpWriteIndex op_writes;
  /// Begin-record LSNs of flush transactions whose commit is on the log.
  std::set<Lsn> committed_flush_txns;
  /// Count of kFlushTxnBegin records seen, committed or not. The redo
  /// scan counts every one as scanned, including those before the
  /// offset it seeks to.
  uint64_t flush_txn_begins = 0;
  /// LSN of the last checkpoint record found (kInvalidLsn if none).
  Lsn last_checkpoint = kInvalidLsn;
  /// Minimum rSI over the dirty object table: the redo scan start point.
  /// kMaxLsn when the table is empty (nothing to redo).
  Lsn redo_start = kMaxLsn;
  /// Minimum rSI over dot_classic (the kVsi baseline's scan start).
  Lsn redo_start_classic = kMaxLsn;
  /// Filled by the driver for RedoTestKind::kRsiFixpoint (see
  /// ComputeRedoFixpoint); empty otherwise.
  std::unordered_map<Lsn, bool> fixpoint_redo;
  /// One user transaction seen on the retained log (built from txn
  /// marker records, the txn trailer on operation records, and CLRs).
  struct TxnInfo {
    enum class State : uint8_t { kInFlight, kCommitted, kAborted };
    Lsn begin_lsn = kInvalidLsn;  // kInvalidLsn if truncated away
    Lsn last_lsn = kInvalidLsn;   // backchain head (latest txn record)
    State state = State::kInFlight;
    /// Rollback cursor from the latest CLR: kMaxLsn when no CLR was
    /// logged (rollback never started), otherwise the CLR's
    /// undo-next-LSN / undo-skip pair (see wal/log_record.h).
    Lsn undo_next = kMaxLsn;
    uint64_t undo_skip = 0;
  };
  /// Transaction table: txn id -> state as of the crash. Transactions
  /// still kInFlight at the end of the log are losers; the recovery
  /// driver rolls them back (resuming half-finished rollbacks from
  /// undo_next) before the system opens. Spans the retained log — the
  /// checkpoint truncation floor guarantees a loser's records survive.
  std::unordered_map<uint64_t, TxnInfo> txns;
  /// Highest txn id on the retained log (0 if none): new transactions
  /// must number above it so ids are never reused across a crash.
  uint64_t max_txn_id = 0;
  /// Count of kCompensation records seen.
  uint64_t compensation_records = 0;
  /// Last adaptive-policy class per object (kPolicyDecision records;
  /// values are adapt/log_choice.h's LogChoice). Recovery reseeds the
  /// policy from it so each object resumes under the class it crashed
  /// with; objects never mentioned default to W_L, the policy's initial
  /// class. Spans the retained log (not reset by checkpoints — but a
  /// truncated decision only means the policy re-learns the class).
  std::unordered_map<ObjectId, uint8_t> policy_classes;
  /// Count of kPolicyDecision records seen.
  uint64_t policy_records = 0;
};

/// \brief Streaming analysis: feed records in ascending LSN order (e.g.
/// straight off a LogCursor), then Finish().
///
/// A checkpoint record *resets* the dirty-object tables to its snapshot,
/// which is exactly equivalent to the old start-from-last-checkpoint
/// replay — so one forward pass suffices and recovery never materializes
/// the log. The full-log accumulators (readers, writesets, delete
/// lifetimes, committed flush transactions) always span every retained
/// record, as before.
class AnalysisBuilder {
 public:
  void Add(const LogRecord& rec);
  /// Builds the per-object tables, computes the scan start points and
  /// yields the result. The builder is spent afterwards.
  AnalysisResult Finish();

 private:
  /// One object's entries in the dot, dot_classic, deleted_at and
  /// readers tables while records stream in. Keeping them together costs
  /// one hash lookup per object a record names, and an install that
  /// cleans an object followed by a write that dirties it again
  /// allocates nothing; Finish() builds the result's maps from them.
  struct ObjectState {
    ObjectId id = kInvalidObjectId;
    bool in_dot = false;
    bool in_dot_classic = false;
    bool deleted = false;
    Lsn rsi = kInvalidLsn;          // dot entry, when in_dot
    Lsn rsi_classic = kInvalidLsn;  // dot_classic entry, when in_dot_classic
    Lsn deleted_at = kInvalidLsn;   // deleted_at entry, when deleted
    std::vector<Lsn> readers;
  };
  ObjectState& Object(ObjectId id);

  std::unordered_map<ObjectId, size_t> slots_;  // id -> index in objects_
  std::vector<ObjectState> objects_;
  AnalysisResult out_;
};

/// Runs the analysis pass over the stable records (ascending LSN order).
/// Materialized-log convenience over AnalysisBuilder.
AnalysisResult RunAnalysis(const std::vector<LogRecord>& records);

/// Conservative "could this operation be redone?" using only the static
/// rSI information (no vSIs, no deleted-object skips). Overapproximates
/// the redone set, which makes it safe for gating the deleted-object
/// optimization.
bool BasicRsiRedoable(const AnalysisResult& analysis, Lsn lsn,
                      std::span<const ObjectId> writes);

/// True when the write of `x` by the operation at `lsn` may be treated as
/// unexposed because x was deleted afterwards and no possibly-uninstalled
/// operation read x between the write and the delete.
bool DeadSkipAllowed(const AnalysisResult& analysis, ObjectId x, Lsn lsn);

/// Exact static redo decisions for the kRsiFixpoint REDO test: walks
/// op_writes backwards (reverse LSN order) so each dead-skip consults the
/// final decision of every (strictly later) reader. Returns lSI -> would-redo;
/// operations absent from the map are statically skippable. Conservative
/// with respect to dynamic vSI skips (those only shrink the redone set).
/// Needs only the analysis accumulators (op_writes carries every
/// operation's lSI and writeset), so it composes with streaming analysis.
std::unordered_map<Lsn, bool> ComputeRedoFixpoint(
    const AnalysisResult& analysis);

/// Back-compat shim; `records` is unused.
std::unordered_map<Lsn, bool> ComputeRedoFixpoint(
    const std::vector<LogRecord>& records, const AnalysisResult& analysis);

}  // namespace loglog

#endif  // LOGLOG_RECOVERY_ANALYSIS_H_
