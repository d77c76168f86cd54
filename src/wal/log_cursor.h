#ifndef LOGLOG_WAL_LOG_CURSOR_H_
#define LOGLOG_WAL_LOG_CURSOR_H_

#include <algorithm>
#include <cstdint>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/simulated_disk.h"
#include "wal/log_record.h"

namespace loglog {

/// \brief Incremental decoder over a framed log: the one walk every log
/// consumer shares.
///
/// Every reader of a framed log — LogManager's constructor, the recovery
/// driver's analysis and redo passes, media recovery, the log shipper —
/// needs the same loop: read framed records in order, stop cleanly at a
/// torn tail, and keep the next-LSN / valid-byte bookkeeping consistent.
/// They all advance one cursor, one record at a time, so memory stays
/// O(1) records instead of materializing the log.
///
/// A restart decodes the log once. LogManager's constructor walks frames
/// only (NextHeader: CRC-checked, body left undecoded) to index each
/// record's LSN and device offset. Recovery's analysis pass is the one
/// full decode (Next). The redo pass then seeks: it opens a cursor on
/// the retained log at the offset of the first record it needs (see
/// LogManager::FirstStableOffsetAtOrAfter), not at the log start.
class LogCursor {
 public:
  /// Cursor over raw framed bytes whose first byte sits at absolute
  /// device offset `start_offset`.
  LogCursor(Slice contents, uint64_t start_offset)
      : contents_(contents),
        offset_(start_offset),
        record_offset_(start_offset) {}

  /// Cursor over a device's retained log.
  explicit LogCursor(const StableLogDevice& device)
      : LogCursor(device.Contents(), device.start_offset()) {}

  /// Cursor over a device's retained log from absolute offset `offset`,
  /// which must be a frame start inside [start_offset, end_offset].
  LogCursor(const StableLogDevice& device, uint64_t offset)
      : LogCursor(Tail(device, offset), offset) {}

  /// Decodes the next record into *rec. Returns false at the clean end
  /// of the log, at a torn tail (torn() becomes true), or on a decode
  /// error (status() becomes non-OK); the cursor never advances past the
  /// failure point, so valid_end() is the offset where trust ends.
  bool Next(LogRecord* rec) {
    if (done_) return false;
    const size_t before = contents_.size();
    if (!Advance(ReadFramedRecord(&contents_, rec), before)) return false;
    max_lsn_ = std::max(max_lsn_, rec->lsn);
    return true;
  }

  /// Frame-only step: checks the next frame's length and CRC32C and
  /// decodes only its type and LSN. Same stop rules as Next(); a frame
  /// whose body would not decode still counts as valid here.
  bool NextHeader(RecordType* type, Lsn* lsn) {
    if (done_) return false;
    const size_t before = contents_.size();
    if (!Advance(ReadFrameHeader(&contents_, type, lsn), before)) return false;
    max_lsn_ = std::max(max_lsn_, *lsn);
    return true;
  }

  /// True once the cursor stopped because bytes remained but did not
  /// form a whole valid record (a torn final force).
  bool torn() const { return torn_; }

  /// Non-torn decode failure, if any (OK otherwise).
  const Status& status() const { return status_; }

  /// 1 + the highest LSN decoded so far (1 for an empty log): what the
  /// LSN counter must resume from.
  Lsn next_lsn() const { return max_lsn_ + 1; }

  /// Absolute device offset just past the last valid record (torn bytes,
  /// if any, begin here).
  uint64_t valid_end() const { return offset_; }

  /// Absolute device offset of the record most recently returned by
  /// Next() or NextHeader().
  uint64_t record_offset() const { return record_offset_; }

  uint64_t records_read() const { return records_read_; }

 private:
  static Slice Tail(const StableLogDevice& device, uint64_t offset) {
    Slice all = device.Contents();
    all.RemovePrefix(offset - device.start_offset());
    return all;
  }

  /// Shared bookkeeping after one read attempt that started with
  /// `before` bytes left.
  bool Advance(const Status& st, size_t before) {
    if (!st.ok()) {
      done_ = true;
      if (st.IsCorruption()) {
        // Torn tail: the final force did not complete. Everything before
        // it is valid; consumers proceed from what they have.
        torn_ = true;
      } else if (!st.IsNotFound()) {
        status_ = st;
      }
      return false;
    }
    record_offset_ = offset_;
    offset_ += before - contents_.size();
    ++records_read_;
    return true;
  }

  Slice contents_;
  uint64_t offset_;
  uint64_t record_offset_;
  Lsn max_lsn_ = 0;
  uint64_t records_read_ = 0;
  bool done_ = false;
  bool torn_ = false;
  Status status_;
};

}  // namespace loglog

#endif  // LOGLOG_WAL_LOG_CURSOR_H_
