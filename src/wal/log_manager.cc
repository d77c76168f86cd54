#include "wal/log_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/retry.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "wal/log_cursor.h"

namespace loglog {

namespace {

/// Framing overhead per record: fixed32 length + fixed32 CRC32C.
constexpr size_t kFrameOverhead = 8;
/// Arena sizing: start warm enough that steady-state appends never
/// allocate; compact the consumed prefix once it outgrows this.
constexpr size_t kInitialArenaBytes = 1 << 16;
constexpr size_t kCompactThresholdBytes = 1 << 18;

/// Per-thread sampling keeps the always-on flight recorder off the append
/// hot path: one kWalAppend event every kFlightSampleEvery appends,
/// carrying the record and byte counts accumulated since the last sample.
constexpr uint32_t kFlightSampleEvery = 64;

void RecordAppendSampled(Lsn lsn, size_t framed_size) {
  thread_local uint32_t pending_records = 0;
  thread_local uint64_t pending_bytes = 0;
  ++pending_records;
  pending_bytes += framed_size;
  if (pending_records < kFlightSampleEvery) return;
  FlightRecorder::Global().Record(FlightEventType::kWalAppend, lsn,
                                  pending_records, pending_bytes);
  pending_records = 0;
  pending_bytes = 0;
}

const char* PolicyLabel(ForcePolicy policy) {
  switch (policy) {
    case ForcePolicy::kImmediate:
      return "immediate";
    case ForcePolicy::kGroup:
      return "group";
    case ForcePolicy::kSizeThreshold:
      return "size_threshold";
  }
  return "unknown";
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

LogManager::ForceInstruments& LogManager::instruments() {
  auto idx = static_cast<size_t>(force_policy_);
  assert(idx < 3);
  ForceInstruments& ins = force_instruments_[idx];
  if (ins.latency_us == nullptr) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    MetricLabels labels{{"policy", PolicyLabel(force_policy_)}};
    ins.latency_us = reg.GetHistogram(metric::kWalForceLatencyUs, labels);
    ins.batch_records =
        reg.GetHistogram(metric::kWalForceBatchRecords, labels);
    ins.records_coalesced =
        reg.GetCounter(metric::kWalRecordsCoalesced, labels);
  }
  return ins;
}

LogManager::LogManager(StableLogDevice* device) : device_(device) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  force_calls_ = reg.GetCounter(metric::kWalForceCalls);
  force_noops_ = reg.GetCounter(metric::kWalForceNoops);
  force_submits_ = reg.GetCounter(metric::kWalForceSubmits);
  force_wait_us_ = reg.GetHistogram(metric::kWalForceWaitUs);
  append_records_ = reg.GetCounter(metric::kWalAppendRecords);
  append_bytes_ = reg.GetCounter(metric::kWalAppendBytes);
  append_allocs_ = reg.GetCounter(metric::kWalAppendAllocs);
  append_room_waits_ = reg.GetCounter(metric::kWalAppendRoomWaits);
  encoded_.resize(kInitialArenaBytes);  // one zero-fill, at construction
  // Index whatever valid frames already sit on the device (recovery
  // case): record their offsets for truncation and continue the LSN
  // sequence past them. Frame-only — CRC-checked, bodies undecoded;
  // recovery's analysis pass is the one full decode, and ClipStable then
  // cuts this index to what that decode accepted. A torn tail is ignored
  // here; the recovery driver deals with it.
  LogCursor cursor(*device_);
  RecordType type = RecordType::kOperation;
  Lsn lsn = kInvalidLsn;
  while (cursor.NextHeader(&type, &lsn)) {
    stable_offsets_.emplace_back(lsn, cursor.record_offset());
  }
  next_lsn_ = cursor.next_lsn();
  last_stable_lsn_ = next_lsn_ - 1;
}

std::vector<std::pair<Lsn, uint64_t>>::const_iterator
LogManager::StableLowerBoundLocked(Lsn lsn) const {
  return std::lower_bound(
      stable_offsets_.begin(), stable_offsets_.end(), lsn,
      [](const std::pair<Lsn, uint64_t>& e, Lsn l) { return e.first < l; });
}

void LogManager::ClipStable(uint64_t valid_end, Lsn next_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(pending_.empty());
  // Offsets ascend with LSNs: drop the suffix at or past valid_end.
  auto cut = std::lower_bound(
      stable_offsets_.begin(), stable_offsets_.end(), valid_end,
      [](const std::pair<Lsn, uint64_t>& e, uint64_t off) {
        return e.second < off;
      });
  stable_offsets_.erase(cut, stable_offsets_.end());
  next_lsn_ = next_lsn;
  last_stable_lsn_ = next_lsn - 1;
}

bool LogManager::FirstStableOffsetAtOrAfter(Lsn lsn, uint64_t* offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = StableLowerBoundLocked(lsn);
  if (it == stable_offsets_.end()) return false;
  *offset = it->second;
  return true;
}

void LogManager::EnsureArenaRoomLocked(std::unique_lock<std::mutex>& lock,
                                       size_t bytes) {
  if (arena_used_ + bytes <= encoded_.size()) return;
  // Growing reallocates, which would dangle every outstanding fill span;
  // wait for fills to drain first (commits are prompt by contract).
  if (outstanding_fills_ != 0) append_room_waits_->Inc();
  fill_cv_.wait(lock, [&] { return outstanding_fills_ == 0; });
  MaybeCompactLocked();
  if (arena_used_ + bytes <= encoded_.size()) return;
  size_t want = std::max(encoded_.size() * 2, arena_used_ + bytes);
  encoded_.resize(std::max(want, kInitialArenaBytes));
  append_allocs_->Inc();
}

void LogManager::OnFilledLocked(std::unique_lock<std::mutex>& lock) {
  while (fill_watermark_ < pending_.size() &&
         pending_[fill_watermark_].filled) {
    unsubmitted_filled_bytes_ += pending_[fill_watermark_].framed_size;
    ++fill_watermark_;
  }
  if (async_submit_bytes_ > 0 && !poisoned_ &&
      unsubmitted_filled_bytes_ >= async_submit_bytes_ &&
      fill_watermark_ > submitted_count_) {
    // Eager submission: stage what has accumulated so the device overlaps
    // with execution. Errors are not lost — a submit-time fault poisons
    // or re-arms below, and the next durability point surfaces it.
    (void)SubmitForceLocked(lock, pending_[fill_watermark_ - 1].lsn);
  }
}

LogManager::Reservation LogManager::AppendReserve(RecordType type,
                                                  size_t body_size,
                                                  Lsn replicated_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  // Make room before taking an LSN: the room wait drops the lock, and an
  // LSN taken before it could reach the arena after a later one.
  constexpr size_t kMaxHeaderBytes = 1 + 10;  // type byte + LSN varint
  EnsureArenaRoomLocked(lock, kFrameOverhead + kMaxHeaderBytes + body_size);
  Reservation r;
  if (replicated_lsn == kInvalidLsn) {
    r.lsn = next_lsn_++;
  } else {
    assert(replicated_lsn >= next_lsn_);
    r.lsn = replicated_lsn;
    next_lsn_ = replicated_lsn + 1;
  }
  SizeSink header;
  WriteRecordHeader(header, type, r.lsn);
  r.body_size = body_size;
  r.payload_size = header.size() + body_size;
  const size_t framed_size = kFrameOverhead + r.payload_size;
  const size_t offset = arena_used_;
  arena_used_ += framed_size;  // within capacity: pure bookkeeping
  r.frame = encoded_.data() + offset;
  EncodeFixed32(r.frame, static_cast<uint32_t>(r.payload_size));
  // CRC (frame + 4) is patched at commit, once the body is filled.
  BufferSink prefix(r.frame + kFrameOverhead);
  WriteRecordHeader(prefix, type, r.lsn);
  r.body = prefix.pos();
  pending_.push_back(PendingRecord{r.lsn, offset,
                                   static_cast<uint32_t>(framed_size), false});
  r.entry = &pending_.back();
  ++outstanding_fills_;
  append_records_->Inc();
  append_bytes_->Inc(framed_size);
  return r;
}

void LogManager::AppendCommit(const Reservation& r) {
  // Checksum and header patch run outside the lock: the span is
  // exclusively this fill's until published, and the arena cannot move
  // while a fill is outstanding.
  EncodeFixed32(r.frame + 4,
                Crc32c(Slice(r.frame + kFrameOverhead, r.payload_size)));
  std::unique_lock<std::mutex> lock(mu_);
  static_cast<PendingRecord*>(r.entry)->filled = true;
  --outstanding_fills_;
  OnFilledLocked(lock);
  fill_cv_.notify_all();
  lock.unlock();
  RecordAppendSampled(r.lsn, kFrameOverhead + r.payload_size);
}

template <typename Write>
Lsn LogManager::AppendBody(RecordType type, Lsn replicated_lsn,
                           const Write& write, size_t* payload_size) {
  SizeSink size;
  write(size);
  Reservation r = AppendReserve(type, size.size(), replicated_lsn);
  BufferSink body(r.body);
  write(body);
  assert(body.pos() == r.body + r.body_size);
  AppendCommit(r);
  if (payload_size != nullptr) *payload_size = r.payload_size;
  return r.lsn;
}

Lsn LogManager::Append(const LogRecord& rec) {
  return AppendBody(rec.type, kInvalidLsn,
                    [&rec](auto& s) { rec.WriteBody(s); }, nullptr);
}

Lsn LogManager::AppendReplicated(const LogRecord& rec) {
  assert(rec.lsn != kInvalidLsn);
  return AppendBody(rec.type, rec.lsn, [&rec](auto& s) { rec.WriteBody(s); },
                    nullptr);
}

Lsn LogManager::AppendOperation(const OperationDesc& op, uint64_t txn_id,
                                Lsn prev_lsn,
                                const std::vector<UndoImage>& undo_images,
                                size_t* payload_size) {
  return AppendBody(
      RecordType::kOperation, kInvalidLsn,
      [&](auto& s) {
        WriteOperationBody(s, op, txn_id, prev_lsn, undo_images);
      },
      payload_size);
}

Lsn LogManager::AppendTxnMarker(RecordType type, uint64_t txn_id,
                                Lsn prev_lsn, size_t* payload_size) {
  assert(type == RecordType::kTxnBegin || type == RecordType::kTxnCommit ||
         type == RecordType::kTxnAbort);
  return AppendBody(
      type, kInvalidLsn,
      [&](auto& s) { WriteTxnMarkerBody(s, txn_id, prev_lsn); },
      payload_size);
}

Lsn LogManager::AppendCompensation(const OperationDesc& op, uint64_t txn_id,
                                   Lsn prev_lsn, Lsn undo_next_lsn,
                                   uint64_t undo_skip, size_t* payload_size) {
  return AppendBody(
      RecordType::kCompensation, kInvalidLsn,
      [&](auto& s) {
        WriteCompensationBody(s, op, txn_id, prev_lsn, undo_next_lsn,
                              undo_skip);
      },
      payload_size);
}

Status LogManager::SubmitForceLocked(std::unique_lock<std::mutex>& lock,
                                     Lsn upto) {
  for (;;) {
    if (submitted_count_ >= pending_.size() ||
        pending_[submitted_count_].lsn > upto) {
      // Everything through upto is stable, staged, or absent.
      return Status::OK();
    }
    if (fill_watermark_ > submitted_count_) break;
    // The next record this force needs is reserved but not committed;
    // its filler is running outside the lock. Wait for the commit.
    fill_cv_.wait(lock);
  }
  // Policy walk over the committed, unsubmitted prefix: at least through
  // `upto`, extended by the policy to coalesce pending obligations into
  // one device append.
  size_t count = 0;
  size_t batch_bytes = 0;
  uint64_t coalesced = 0;
  for (size_t i = submitted_count_; i < fill_watermark_; ++i) {
    const PendingRecord& pr = pending_[i];
    if (pr.lsn > upto) {
      if (force_policy_ == ForcePolicy::kImmediate) break;
      if (force_policy_ == ForcePolicy::kSizeThreshold &&
          batch_bytes + pr.framed_size > group_bytes_) {
        break;
      }
      ++coalesced;
    }
    batch_bytes += pr.framed_size;
    ++count;
  }
  assert(count > 0);
  // The controller-level force fault fires at submit; the device-level
  // kLogAppend site fires at completion (reap), like a real command that
  // can fail either on the way to the device or on the platter.
  if (FaultInjector* inj = device_->faults(); inj != nullptr) {
    Status st = RetryTransientIo(&device_->stats()->io_retries, [&] {
      return inj->MaybeFail(fault::kLogForce);
    });
    if (!st.ok()) {
      if (!st.IsIoError()) {
        poisoned_ = true;
        FlightRecorder::Global().Record(FlightEventType::kWalPoisoned,
                                        last_stable_lsn_);
        HealthRegistry::Global().Set(health::kWalDevice,
                                     HealthState::kFailing,
                                     "force submit poisoned the log");
      }
      return st;
    }
  }
  InFlightForce f;
  f.arena_offset = pending_[submitted_count_].arena_offset;
  f.bytes = batch_bytes;
  f.count = count;
  f.first_lsn = pending_[submitted_count_].lsn;
  f.last_lsn = pending_[submitted_count_ + count - 1].lsn;
  f.coalesced = coalesced;
  f.submit_time = std::chrono::steady_clock::now();
  f.ticket = device_->SubmitAppend(
      Slice(encoded_.data() + f.arena_offset, batch_bytes));
  in_flight_.push_back(f);
  submitted_count_ += count;
  unsubmitted_filled_bytes_ -= batch_bytes;
  force_submits_->Inc();
  return Status::OK();
}

Status LogManager::WaitStableLocked(std::unique_lock<std::mutex>& lock,
                                    Lsn upto) {
  (void)lock;
  const auto wait_start = std::chrono::steady_clock::now();
  bool reaped = false;
  uint64_t batches = 0;
  while (last_stable_lsn_ < upto && !in_flight_.empty() &&
         in_flight_.front().first_lsn <= upto) {
    const InFlightForce f = in_flight_.front();
    uint64_t base = 0;
    Status st = RetryTransientIo(&device_->stats()->io_retries, [&] {
      // A retryable failure leaves the entry staged, so the retry is
      // simply another reap of the same ticket.
      return device_->ReapAppend(f.ticket, &base);
    });
    if (!st.ok()) {
      // Give up: nothing staged is trustworthy any more. Return every
      // staged force to the unsubmitted state so a later Force can
      // re-stage it from the arena (the records were never acked, so the
      // WAL obligation is intact). A torn/crashed completion (Aborted)
      // additionally poisons the manager: some unknown prefix became
      // stable and only recovery can resolve the tail.
      device_->AbandonStaged();
      for (const InFlightForce& g : in_flight_) {
        submitted_count_ -= g.count;
        unsubmitted_filled_bytes_ += g.bytes;
      }
      in_flight_.clear();
      if (!st.IsIoError()) {
        poisoned_ = true;
        FlightRecorder::Global().Record(FlightEventType::kWalPoisoned,
                                        last_stable_lsn_);
        HealthRegistry::Global().Set(health::kWalDevice,
                                     HealthState::kFailing,
                                     "torn or crashed force completion");
      }
      return st;
    }
    // Acknowledge the batch: device offsets, stability watermark, drain.
    for (size_t i = 0; i < f.count; ++i) {
      const PendingRecord& pr = pending_[i];
      stable_offsets_.emplace_back(pr.lsn,
                                   base + (pr.arena_offset - f.arena_offset));
    }
    last_stable_lsn_ = std::max(last_stable_lsn_, f.last_lsn);
    records_coalesced_ += f.coalesced;
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<long>(f.count));
    submitted_count_ -= f.count;
    fill_watermark_ -= f.count;
    arena_consumed_ = f.arena_offset + f.bytes;
    in_flight_.pop_front();
    ForceInstruments& ins = instruments();
    ins.latency_us->Observe(ElapsedUs(f.submit_time));
    ins.batch_records->Observe(f.count);
    if (f.coalesced > 0) ins.records_coalesced->Inc(f.coalesced);
    reaped = true;
    ++batches;
    MaybeCompactLocked();
  }
  if (reaped) {
    const uint64_t waited = ElapsedUs(wait_start);
    force_wait_us_->Observe(waited);
    FlightRecorder::Global().Record(FlightEventType::kWalForce,
                                    last_stable_lsn_, waited, batches);
    HealthRegistry::Global().Set(health::kWalDevice, HealthState::kOk);
  }
  return Status::OK();
}

void LogManager::MaybeCompactLocked() {
  if (!in_flight_.empty()) return;  // staged ranges reference the arena
  if (pending_.empty()) {
    arena_used_ = 0;  // capacity retained: steady state never reallocates
    arena_consumed_ = 0;
    return;
  }
  if (outstanding_fills_ != 0) return;  // fill spans would shift
  if (arena_consumed_ < kCompactThresholdBytes) return;
  std::memmove(encoded_.data(), encoded_.data() + arena_consumed_,
               arena_used_ - arena_consumed_);
  arena_used_ -= arena_consumed_;
  for (PendingRecord& pr : pending_) pr.arena_offset -= arena_consumed_;
  arena_consumed_ = 0;
}

Status LogManager::Force(Lsn upto) {
  std::unique_lock<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::FailedPrecondition(
        "log manager poisoned by an earlier torn force; recovery required");
  }
  force_calls_->Inc();
  if (pending_.empty() || pending_.front().lsn > upto) {
    force_noops_->Inc();
    return Status::OK();
  }
  TraceSpan span("wal.force", "wal");
  // Loop: a submit may cover less than upto when later records are still
  // being filled by another thread; submit again after the reap.
  do {
    LOGLOG_RETURN_IF_ERROR(SubmitForceLocked(lock, upto));
    LOGLOG_RETURN_IF_ERROR(WaitStableLocked(lock, upto));
  } while (last_stable_lsn_ < upto && !pending_.empty() &&
           pending_.front().lsn <= upto);
  return Status::OK();
}

Status LogManager::ForceAll() {
  Lsn target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return Status::OK();
    target = pending_.back().lsn;
  }
  return Force(target);
}

Status LogManager::SubmitForce(Lsn upto) {
  std::unique_lock<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::FailedPrecondition(
        "log manager poisoned by an earlier torn force; recovery required");
  }
  if (pending_.empty() || pending_.front().lsn > upto) return Status::OK();
  return SubmitForceLocked(lock, upto);
}

Status LogManager::WaitStable(Lsn upto) {
  std::unique_lock<std::mutex> lock(mu_);
  if (poisoned_) {
    return Status::FailedPrecondition(
        "log manager poisoned by an earlier torn force; recovery required");
  }
  return WaitStableLocked(lock, upto);
}

void LogManager::TruncateBefore(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = StableLowerBoundLocked(lsn);
  if (it == stable_offsets_.begin()) return;
  uint64_t offset;
  if (it == stable_offsets_.end()) {
    // Everything stable precedes lsn; drop the whole stable log.
    offset = device_->end_offset();
  } else {
    offset = it->second;
  }
  device_->TruncatePrefix(offset);
  stable_offsets_.erase(stable_offsets_.begin(), it);
}

bool LogManager::StableExtentOf(Lsn lsn, uint64_t* offset,
                                uint64_t* size) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = StableLowerBoundLocked(lsn);
  if (it == stable_offsets_.end() || it->first != lsn) return false;
  *offset = it->second;
  auto next = it + 1;
  // Frames are dense on the device, so the extent runs to the next stable
  // record (or the device end for the newest one).
  *size = (next != stable_offsets_.end() ? next->second
                                         : device_->end_offset()) -
          it->second;
  return true;
}

Status LogManager::ReadStable(const StableLogDevice& device,
                              std::vector<LogRecord>* out, bool* torn,
                              Lsn* next_lsn, uint64_t* valid_end) {
  out->clear();
  LogCursor cursor(device);
  LogRecord rec;
  while (cursor.Next(&rec)) {
    out->push_back(std::move(rec));
  }
  *torn = cursor.torn();
  *next_lsn = cursor.next_lsn();
  *valid_end = cursor.valid_end();
  return cursor.status();
}

}  // namespace loglog
