#include "wal/log_record.h"

#include "adapt/log_choice.h"
#include "common/coding.h"
#include "common/crc32.h"

namespace loglog {

namespace {

Status GetInstallEntries(Slice* src, std::vector<InstallEntry>* out) {
  uint64_t n;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
  // Two varints per entry: at least two bytes each (count bound guards
  // reserve() against garbage input).
  if (n > src->size()) return Status::Corruption("install count too large");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    InstallEntry e;
    LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.id));
    LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.rsi));
    out->push_back(e);
  }
  return Status::OK();
}

Status GetUndoImages(Slice* src, std::vector<UndoImage>* out) {
  uint64_t n;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
  // At least two bytes per image (exists flag + length varint).
  if (n > src->size()) return Status::Corruption("undo image count too large");
  // Decode in place: a reused record keeps each image's value buffer.
  out->resize(n);
  for (UndoImage& img : *out) {
    if (src->empty()) return Status::Corruption("truncated undo image");
    img.exists = (*src)[0] != 0;
    src->RemovePrefix(1);
    Slice value;
    LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(src, &value));
    img.value.assign(value.data(), value.data() + value.size());
  }
  return Status::OK();
}

/// The type byte and LSN varint that open every record payload.
Status DecodeRecordHeader(Slice* src, RecordType* type, Lsn* lsn) {
  if (src->empty()) return Status::Corruption("empty record");
  uint8_t type_byte = (*src)[0];
  src->RemovePrefix(1);
  if (type_byte < 1 ||
      type_byte > static_cast<uint8_t>(RecordType::kIndexCheckpoint)) {
    return Status::Corruption("bad record type");
  }
  *type = static_cast<RecordType>(type_byte);
  return GetVarint64(src, lsn);
}

/// Resets every field a record type may carry, keeping vector capacity,
/// so a record decoded into a reused LogRecord carries nothing over from
/// the previous one. Undo images and flush values are left to their own
/// decoders (which resize in place) when the new record carries them.
void ResetForDecode(RecordType type, LogRecord* rec) {
  rec->op.op_class = OpClass::kLogical;
  rec->op.func = kFuncSetValue;
  rec->op.writes.clear();
  rec->op.reads.clear();
  rec->op.params.clear();
  rec->txn_id = 0;
  rec->prev_lsn = kInvalidLsn;
  rec->undo_next_lsn = kInvalidLsn;
  rec->undo_skip = 0;
  if (type != RecordType::kOperation) rec->undo_images.clear();
  rec->dot.clear();
  rec->installed_vars.clear();
  rec->installed_notx.clear();
  if (type != RecordType::kFlushTxnBegin) rec->flush_values.clear();
  rec->index_entries.clear();
  rec->ref_lsn = kInvalidLsn;
  rec->policy = LogRecord::PolicyPayload{};
}

/// Checks one frame's length and CRC32C and returns its payload, without
/// consuming `src`: NotFound at the clean end, Corruption when the bytes
/// do not form a whole checksummed frame (a torn tail).
Status CheckFrame(Slice src, Slice* payload) {
  if (src.empty()) return Status::NotFound("end of log");
  if (src.size() < 8) return Status::Corruption("torn record header");
  const uint32_t len = DecodeFixed32(src.data());
  const uint32_t crc = DecodeFixed32(src.data() + 4);
  if (src.size() - 8 < len) return Status::Corruption("torn record header");
  *payload = Slice(src.data() + 8, len);
  if (Crc32c(*payload) != crc) {
    return Status::Corruption("record checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

void LogRecord::EncodeTo(std::vector<uint8_t>* dst) const {
  AppendWritten(dst, [this](auto& s) { WritePayload(s); });
}

Status LogRecord::DecodeFrom(Slice* src, LogRecord* out) {
  LOGLOG_RETURN_IF_ERROR(DecodeRecordHeader(src, &out->type, &out->lsn));
  ResetForDecode(out->type, out);
  switch (out->type) {
    case RecordType::kOperation:
      LOGLOG_RETURN_IF_ERROR(OperationDesc::DecodeFrom(src, &out->op));
      // Remaining bytes are the transactional trailer (framing hands the
      // decoder exactly one payload, so presence is unambiguous).
      if (src->empty()) {
        out->undo_images.clear();
      } else {
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
        if (out->txn_id == 0) {
          return Status::Corruption("txn trailer with zero txn id");
        }
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->prev_lsn));
        LOGLOG_RETURN_IF_ERROR(GetUndoImages(src, &out->undo_images));
        if (!out->undo_images.empty() &&
            out->undo_images.size() != out->op.writes.size()) {
          return Status::Corruption("undo image count != write count");
        }
      }
      break;
    case RecordType::kTxnBegin:
    case RecordType::kTxnCommit:
    case RecordType::kTxnAbort:
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
      if (out->txn_id == 0) return Status::Corruption("zero txn id");
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->prev_lsn));
      break;
    case RecordType::kCompensation:
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
      if (out->txn_id == 0) return Status::Corruption("zero txn id");
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->prev_lsn));
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->undo_next_lsn));
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->undo_skip));
      LOGLOG_RETURN_IF_ERROR(OperationDesc::DecodeFrom(src, &out->op));
      break;
    case RecordType::kCheckpoint: {
      uint64_t n;
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
      if (n > src->size()) return Status::Corruption("dot count too large");
      out->dot.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        DotEntry e;
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.id));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.rsi));
        if (src->empty()) return Status::Corruption("truncated dot entry");
        e.dead = (*src)[0] != 0;
        src->RemovePrefix(1);
        out->dot.push_back(e);
      }
      // Optional trailing txn-id high-water mark (absent on logs written
      // before transactions existed).
      if (!src->empty()) {
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->txn_id));
        if (out->txn_id == 0) {
          return Status::Corruption("zero checkpoint txn watermark");
        }
      }
      break;
    }
    case RecordType::kInstall:
      LOGLOG_RETURN_IF_ERROR(GetInstallEntries(src, &out->installed_vars));
      LOGLOG_RETURN_IF_ERROR(GetInstallEntries(src, &out->installed_notx));
      break;
    case RecordType::kFlushTxnBegin: {
      uint64_t n;
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
      if (n > src->size()) {
        return Status::Corruption("flush value count too large");
      }
      // Decode in place: a reused record keeps each value buffer.
      out->flush_values.resize(n);
      for (FlushValue& fv : out->flush_values) {
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &fv.id));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &fv.vsi));
        if (src->empty()) return Status::Corruption("truncated flush value");
        fv.erase = (*src)[0] != 0;
        src->RemovePrefix(1);
        Slice value;
        LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(src, &value));
        fv.value.assign(value.data(), value.data() + value.size());
      }
      break;
    }
    case RecordType::kFlushTxnCommit:
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->ref_lsn));
      break;
    case RecordType::kPolicyDecision: {
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->policy.object));
      if (src->size() < 3) {
        return Status::Corruption("truncated policy decision");
      }
      out->policy.new_class = (*src)[0];
      out->policy.prev_class = (*src)[1];
      out->policy.reason = (*src)[2];
      src->RemovePrefix(3);
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->policy.chain_depth));
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &out->policy.ewma_size));
      break;
    }
    case RecordType::kIndexCheckpoint: {
      uint64_t n;
      LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
      // Four varints per entry: at least four bytes each (count bound
      // guards reserve() against garbage input).
      if (n > src->size()) {
        return Status::Corruption("index entry count too large");
      }
      out->index_entries.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        IndexCheckpointEntry e;
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.id));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.lsn));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.offset));
        LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &e.size));
        out->index_entries.push_back(e);
      }
      break;
    }
  }
  return Status::OK();
}

size_t LogRecord::EncodedSize() const {
  SizeSink size;
  WritePayload(size);
  return size.size();
}

std::string LogRecord::DebugString() const {
  std::string out = "Rec{lsn=" + std::to_string(lsn) + " type=";
  switch (type) {
    case RecordType::kOperation:
      out += "op " + op.DebugString();
      if (txn_id != 0) {
        out += " txn=" + std::to_string(txn_id) +
               " prev=" + std::to_string(prev_lsn) +
               " images=" + std::to_string(undo_images.size());
      }
      break;
    case RecordType::kTxnBegin:
      out += "txn-begin txn=" + std::to_string(txn_id);
      break;
    case RecordType::kTxnCommit:
      out += "txn-commit txn=" + std::to_string(txn_id) +
             " prev=" + std::to_string(prev_lsn);
      break;
    case RecordType::kTxnAbort:
      out += "txn-abort txn=" + std::to_string(txn_id) +
             " prev=" + std::to_string(prev_lsn);
      break;
    case RecordType::kCompensation:
      out += "clr " + op.DebugString() + " txn=" + std::to_string(txn_id) +
             " prev=" + std::to_string(prev_lsn) +
             " undo-next=" + std::to_string(undo_next_lsn) +
             " skip=" + std::to_string(undo_skip);
      break;
    case RecordType::kCheckpoint:
      out += "checkpoint dot=" + std::to_string(dot.size());
      if (txn_id != 0) out += " txn-max=" + std::to_string(txn_id);
      break;
    case RecordType::kInstall:
      out += "install vars=" + std::to_string(installed_vars.size()) +
             " notx=" + std::to_string(installed_notx.size());
      break;
    case RecordType::kFlushTxnBegin:
      out += "ftxn-begin n=" + std::to_string(flush_values.size());
      break;
    case RecordType::kFlushTxnCommit:
      out += "ftxn-commit ref=" + std::to_string(ref_lsn);
      break;
    case RecordType::kPolicyDecision:
      out += "policy obj=" + std::to_string(policy.object) + " class=" +
             LogChoiceName(static_cast<LogChoice>(policy.new_class)) +
             "<-" +
             LogChoiceName(static_cast<LogChoice>(policy.prev_class)) +
             " reason=" +
             PolicyReasonName(static_cast<PolicyReason>(policy.reason)) +
             " depth=" + std::to_string(policy.chain_depth) +
             " ewma=" + std::to_string(policy.ewma_size);
      break;
    case RecordType::kIndexCheckpoint:
      out += "index-checkpoint n=" + std::to_string(index_entries.size());
      break;
  }
  out += "}";
  return out;
}

void FrameRecord(const LogRecord& rec, std::vector<uint8_t>* dst) {
  const size_t payload_size = rec.EncodedSize();
  const size_t at = dst->size();
  dst->resize(at + 8 + payload_size);
  uint8_t* frame = dst->data() + at;
  BufferSink payload(frame + 8);
  rec.WritePayload(payload);
  EncodeFixed32(frame, static_cast<uint32_t>(payload_size));
  EncodeFixed32(frame + 4, Crc32c(Slice(frame + 8, payload_size)));
}

Status ReadFramedRecord(Slice* src, LogRecord* out) {
  Slice payload;
  LOGLOG_RETURN_IF_ERROR(CheckFrame(*src, &payload));
  Slice cursor = payload;
  LOGLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(&cursor, out));
  if (!cursor.empty()) {
    return Status::Corruption("trailing bytes in record payload");
  }
  src->RemovePrefix(8 + payload.size());
  return Status::OK();
}

Status ReadFrameHeader(Slice* src, RecordType* type, Lsn* lsn) {
  Slice payload;
  LOGLOG_RETURN_IF_ERROR(CheckFrame(*src, &payload));
  const size_t framed_size = 8 + payload.size();
  LOGLOG_RETURN_IF_ERROR(DecodeRecordHeader(&payload, type, lsn));
  src->RemovePrefix(framed_size);
  return Status::OK();
}

}  // namespace loglog
