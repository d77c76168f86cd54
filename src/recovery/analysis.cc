#include "recovery/analysis.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace loglog {

void OpWriteIndex::Add(Lsn lsn, std::span<const ObjectId> writes) {
  assert(entries_.empty() || entries_.back().lsn < lsn);
  ids_.insert(ids_.end(), writes.begin(), writes.end());
  entries_.push_back({lsn, ids_.size()});
}

bool OpWriteIndex::Find(Lsn lsn, std::span<const ObjectId>* writes) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), lsn,
      [](const Entry& e, Lsn l) { return e.lsn < l; });
  if (it == entries_.end() || it->lsn != lsn) return false;
  *writes = this->writes(static_cast<size_t>(it - entries_.begin()));
  return true;
}

void AnalysisBuilder::Add(const LogRecord& rec) {
  // Transaction-table evolution. Compensation records are also ordinary
  // operations for the dirty-object accumulators (handled below): REDO
  // repeats history straight through rollbacks. A checkpoint's txn_id is
  // not a transaction but the id high-water mark at checkpoint time —
  // it keeps max_txn_id monotone across truncation without ever putting
  // a phantom entry in the transaction table.
  if (rec.type == RecordType::kCheckpoint) {
    out_.max_txn_id = std::max(out_.max_txn_id, rec.txn_id);
  } else if (rec.txn_id != 0) {
    out_.max_txn_id = std::max(out_.max_txn_id, rec.txn_id);
    AnalysisResult::TxnInfo& t = out_.txns[rec.txn_id];
    t.last_lsn = std::max(t.last_lsn, rec.lsn);
    switch (rec.type) {
      case RecordType::kTxnBegin:
        t.begin_lsn = rec.lsn;
        break;
      case RecordType::kTxnCommit:
        t.state = AnalysisResult::TxnInfo::State::kCommitted;
        break;
      case RecordType::kTxnAbort:
        t.state = AnalysisResult::TxnInfo::State::kAborted;
        break;
      case RecordType::kCompensation:
        t.undo_next = rec.undo_next_lsn;
        t.undo_skip = rec.undo_skip;
        break;
      default:
        break;
    }
  }
  switch (rec.type) {
    case RecordType::kCheckpoint:
      // Reset the dirty-object tables to the checkpoint's snapshot:
      // identical to replaying the evolution from the last checkpoint,
      // without a second pass to find it first.
      out_.last_checkpoint = rec.lsn;
      for (ObjectState& o : objects_) {
        o.in_dot = false;
        o.in_dot_classic = false;
      }
      for (const DotEntry& e : rec.dot) {
        ObjectState& o = Object(e.id);
        o.in_dot = o.in_dot_classic = true;
        o.rsi = o.rsi_classic = e.rsi;
      }
      break;
    case RecordType::kCompensation:
      ++out_.compensation_records;
      [[fallthrough]];
    case RecordType::kOperation:
      for (ObjectId x : rec.op.writes) {
        ObjectState& o = Object(x);
        // Dirty-object-table evolution: first uninstalled writer pins
        // the rSI.
        if (!o.in_dot) {
          o.in_dot = true;
          o.rsi = rec.lsn;
        }
        if (!o.in_dot_classic) {
          o.in_dot_classic = true;
          o.rsi_classic = rec.lsn;
        }
        // Delete lifetimes: the last write decides.
        o.deleted = rec.op.op_class == OpClass::kDelete;
        if (o.deleted) o.deleted_at = rec.lsn;
      }
      // Full-log accumulators: readers and writesets.
      for (ObjectId r : rec.op.reads) Object(r).readers.push_back(rec.lsn);
      out_.op_writes.Add(rec.lsn, rec.op.writes);
      break;
    case RecordType::kInstall:
      // The generalized table applies install records for vars(n) and
      // Notx(n); the classic (ARIES-style) table honors only actual
      // flushes.
      for (const InstallEntry& e : rec.installed_vars) {
        ObjectState& o = Object(e.id);
        o.in_dot = o.in_dot_classic = e.rsi != kInvalidLsn;
        o.rsi = o.rsi_classic = e.rsi;
      }
      for (const InstallEntry& e : rec.installed_notx) {
        ObjectState& o = Object(e.id);
        o.in_dot = e.rsi != kInvalidLsn;
        o.rsi = e.rsi;
      }
      break;
    case RecordType::kFlushTxnBegin:
      ++out_.flush_txn_begins;
      break;
    case RecordType::kFlushTxnCommit:
      out_.committed_flush_txns.insert(rec.ref_lsn);
      break;
    case RecordType::kPolicyDecision:
      // Last decision wins: the class mix the engine crashed with.
      out_.policy_classes[rec.policy.object] = rec.policy.new_class;
      ++out_.policy_records;
      break;
    default:
      break;
  }
}

AnalysisBuilder::ObjectState& AnalysisBuilder::Object(ObjectId id) {
  auto [it, inserted] = slots_.try_emplace(id, objects_.size());
  if (inserted) objects_.emplace_back().id = id;
  return objects_[it->second];
}

AnalysisResult AnalysisBuilder::Finish() {
  for (ObjectState& o : objects_) {
    if (o.in_dot) {
      out_.dot.emplace(o.id, o.rsi);
      if (o.rsi != kInvalidLsn) {
        out_.redo_start = std::min(out_.redo_start, o.rsi);
      }
    }
    if (o.in_dot_classic) {
      out_.dot_classic.emplace(o.id, o.rsi_classic);
      if (o.rsi_classic != kInvalidLsn) {
        out_.redo_start_classic =
            std::min(out_.redo_start_classic, o.rsi_classic);
      }
    }
    if (o.deleted) out_.deleted_at.emplace(o.id, o.deleted_at);
    if (!o.readers.empty()) out_.readers.emplace(o.id, std::move(o.readers));
  }
  return std::move(out_);
}

AnalysisResult RunAnalysis(const std::vector<LogRecord>& records) {
  AnalysisBuilder builder;
  for (const LogRecord& rec : records) builder.Add(rec);
  return builder.Finish();
}

bool BasicRsiRedoable(const AnalysisResult& analysis, Lsn lsn,
                      std::span<const ObjectId> writes) {
  for (ObjectId x : writes) {
    auto it = analysis.dot.find(x);
    if (it != analysis.dot.end() && lsn >= it->second) return true;
  }
  return false;
}

std::unordered_map<Lsn, bool> ComputeRedoFixpoint(
    const AnalysisResult& analysis) {
  // analysis.op_writes holds every operation's lSI and writeset — all
  // this pass needs — in ascending LSN order, so reverse record order is
  // a backwards walk.
  const OpWriteIndex& ops = analysis.op_writes;
  std::unordered_map<Lsn, bool> redo;
  redo.reserve(ops.size());
  // Reverse LSN order: readers are strictly later than the writes they
  // gate, so their final decisions are available when needed.
  for (size_t i = ops.size(); i-- > 0;) {
    const Lsn lsn = ops.lsn(i);
    bool needed = false;
    for (ObjectId x : ops.writes(i)) {
      auto dot_it = analysis.dot.find(x);
      if (dot_it == analysis.dot.end()) continue;  // clean: installed
      if (lsn < dot_it->second) continue;          // lSI < rSI: installed
      auto dead_it = analysis.deleted_at.find(x);
      if (dead_it != analysis.deleted_at.end() && lsn < dead_it->second) {
        // Deleted afterwards: exposed only if a redone reader needs it.
        bool reader_needs = false;
        auto readers_it = analysis.readers.find(x);
        if (readers_it != analysis.readers.end()) {
          for (Lsn reader : readers_it->second) {
            if (reader <= lsn || reader >= dead_it->second) continue;
            auto decided = redo.find(reader);
            if (decided != redo.end() && decided->second) {
              reader_needs = true;
              break;
            }
          }
        }
        if (!reader_needs) continue;
      }
      needed = true;
      break;
    }
    redo[lsn] = needed;
  }
  return redo;
}

std::unordered_map<Lsn, bool> ComputeRedoFixpoint(
    const std::vector<LogRecord>& records, const AnalysisResult& analysis) {
  (void)records;
  return ComputeRedoFixpoint(analysis);
}

bool DeadSkipAllowed(const AnalysisResult& analysis, ObjectId x, Lsn lsn) {
  auto dead_it = analysis.deleted_at.find(x);
  if (dead_it == analysis.deleted_at.end() || lsn >= dead_it->second) {
    return false;
  }
  Lsn delete_lsn = dead_it->second;
  auto readers_it = analysis.readers.find(x);
  if (readers_it == analysis.readers.end()) return true;
  for (Lsn reader : readers_it->second) {
    if (reader <= lsn || reader >= delete_lsn) continue;
    std::span<const ObjectId> writes;
    if (!analysis.op_writes.Find(reader, &writes)) continue;
    if (BasicRsiRedoable(analysis, reader, writes)) {
      // A possibly-uninstalled operation still needs x's value: x is not
      // unexposed between this write and the delete.
      return false;
    }
  }
  return true;
}

}  // namespace loglog
