// E18 (raw-speed WAL hot path): what the zero-copy rework buys at the
// append layer itself, measured three ways.
//
//   AppendLegacy/threads:N       the old shape: build a LogRecord (heap
//                                vectors and all), hand it to Append —
//                                encoding happens under the manager lock;
//   AppendReserveFill/threads:N  the reserve+fill path: exact-size slot
//                                under the lock, encode + CRC outside it;
//   Crc32c*/len:L                CRC32C throughput per kernel — scalar
//                                table, slice-by-8, and the dispatched
//                                fast path (hardware where available);
//   ForceCommit/async:A          per-commit durability latency on a slow
//                                device: synchronous Force pays the full
//                                device latency per commit, async submit
//                                overlaps the waits (io_uring style).
//
// Merged into BENCH_hot_path.json by bench/run_benches.sh; the CI
// perf-smoke step runs this binary with --smoke.

#include <benchmark/benchmark.h>

#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "ops/op_builder.h"
#include "storage/simulated_disk.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace loglog {
namespace {

// Drain cadence: forces stay on the measured path (durability is part
// of the append cost) but amortize over a group-commit batch.
constexpr int kForceEvery = 4096;

std::string Payload(size_t valbytes, int thread) {
  std::string s(valbytes, static_cast<char>('a' + (thread % 26)));
  return s;
}

// The seed's LogRecord::EncodedSize(): a full scratch encode just to
// learn the size. The library's EncodedSize() sizes without encoding, so
// the legacy baseline spells the encode out to keep paying for it.
size_t ScratchEncodedSize(const LogRecord& rec) {
  std::vector<uint8_t> scratch;
  rec.EncodeTo(&scratch);
  return scratch.size();
}

// Faithful reproduction of the seed append pipeline this PR replaced:
// whole LogRecords buffered behind one mutex, and a force path that
// encodes, frames, and checksums every buffered record — with the
// byte-at-a-time table CRC the seed shipped. This is the "old Append"
// baseline the speedup claims in EXPERIMENTS.md E18 are against.
class LegacyLogBuffer {
 public:
  explicit LegacyLogBuffer(StableLogDevice* device) : device_(device) {}

  Lsn Append(LogRecord rec) {
    std::lock_guard<std::mutex> lock(mu_);
    rec.lsn = next_lsn_++;
    buffer_.push_back(std::move(rec));
    return buffer_.back().lsn;
  }

  Status ForceAll() {
    std::lock_guard<std::mutex> lock(mu_);
    if (buffer_.empty()) return Status::OK();
    // The policy walk, as the seed's Force ran it: a full scratch encode
    // per record (EncodedSize) just to size the batch.
    size_t batch_bytes = 0;
    for (const LogRecord& rec : buffer_) {
      batch_bytes += ScratchEncodedSize(rec) + 8;
    }
    std::vector<uint8_t> out;
    out.reserve(batch_bytes);
    for (const LogRecord& rec : buffer_) {
      // FrameRecord, as the seed shipped it: a fresh payload vector per
      // record (encode number three), then the byte-at-a-time table CRC.
      std::vector<uint8_t> payload;
      rec.EncodeTo(&payload);
      uint8_t header[8];
      EncodeFixed32(header, static_cast<uint32_t>(payload.size()));
      EncodeFixed32(header + 4, Crc32cExtendScalar(0, Slice(payload)));
      out.insert(out.end(), header, header + 8);
      out.insert(out.end(), payload.begin(), payload.end());
    }
    buffer_.clear();
    Status st = device_->Append(Slice(out));
    // Checkpoint-style truncation keeps the simulated platter at its
    // steady-state size; without it the measurement drifts with the
    // device vector's growth instead of the append pipeline's cost.
    device_->TruncatePrefix(device_->end_offset());
    return st;
  }

 private:
  StableLogDevice* device_;
  std::mutex mu_;
  std::deque<LogRecord> buffer_;
  Lsn next_lsn_ = 1;
};

SimulatedDisk* g_disk = nullptr;
LegacyLogBuffer* g_legacy = nullptr;
LogManager* g_log = nullptr;

void BM_AppendLegacy(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_disk = new SimulatedDisk();
    g_disk->log().set_archive_enabled(false);  // no reference replay here
    g_legacy = new LegacyLogBuffer(&g_disk->log());
  }
  const OperationDesc op = MakePhysicalWrite(
      static_cast<ObjectId>(state.thread_index() + 1),
      Payload(static_cast<size_t>(state.range(0)), state.thread_index()));
  int since_force = 0;
  for (auto _ : state) {
    LogRecord rec;
    rec.type = RecordType::kOperation;
    rec.op = op;
    // The seed's executors also charged logging-cost stats per record via
    // LogRecord::EncodedSize() — a full scratch encode on the hot path
    // (the new appenders return the payload size from the reservation
    // instead). Part of what the old pipeline paid per logged op.
    benchmark::DoNotOptimize(ScratchEncodedSize(rec));
    Lsn lsn = g_legacy->Append(std::move(rec));
    benchmark::DoNotOptimize(lsn);
    if (++since_force >= kForceEvery) {
      since_force = 0;
      benchmark::DoNotOptimize(g_legacy->ForceAll());
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(g_legacy->ForceAll());
    delete g_legacy;
    delete g_disk;
    g_legacy = nullptr;
    g_disk = nullptr;
  }
}
BENCHMARK(BM_AppendLegacy)
    ->ArgName("valbytes")
    ->Arg(64)
    ->Arg(1024)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

// The zero-copy path: exact-size reservation under the lock, body
// encode and CRC (dispatched kernel) in the caller's thread, no
// LogRecord anywhere.
void BM_AppendReserveFill(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_disk = new SimulatedDisk();
    g_disk->log().set_archive_enabled(false);  // no reference replay here
    g_log = new LogManager(&g_disk->log());
    g_log->set_force_policy(ForcePolicy::kGroup);
  }
  const OperationDesc op = MakePhysicalWrite(
      static_cast<ObjectId>(state.thread_index() + 1),
      Payload(static_cast<size_t>(state.range(0)), state.thread_index()));
  const std::vector<UndoImage> no_images;
  int since_force = 0;
  for (auto _ : state) {
    Lsn lsn = g_log->AppendOperation(op, 0, kInvalidLsn, no_images);
    benchmark::DoNotOptimize(lsn);
    if (++since_force >= kForceEvery) {
      since_force = 0;
      benchmark::DoNotOptimize(g_log->ForceAll());
      g_log->TruncateBefore(g_log->last_stable_lsn());
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(g_log->ForceAll());
    delete g_log;
    delete g_disk;
    g_log = nullptr;
    g_disk = nullptr;
  }
}
BENCHMARK(BM_AppendReserveFill)
    ->ArgName("valbytes")
    ->Arg(64)
    ->Arg(1024)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

std::vector<uint8_t> CrcBuffer(size_t len) {
  std::vector<uint8_t> buf(len);
  uint32_t x = 0x9e3779b9;
  for (size_t i = 0; i < len; ++i) {
    x = x * 1664525u + 1013904223u;
    buf[i] = static_cast<uint8_t>(x >> 24);
  }
  return buf;
}

template <uint32_t (*Kernel)(uint32_t, Slice)>
void CrcBench(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> buf = CrcBuffer(len);
  const Slice data(buf.data(), len);
  for (auto _ : state) {
    uint32_t crc = Kernel(0, data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}

void BM_Crc32cScalar(benchmark::State& state) {
  CrcBench<&Crc32cExtendScalar>(state);
}
void BM_Crc32cSliceBy8(benchmark::State& state) {
  CrcBench<&Crc32cExtendSliceBy8>(state);
}
// The dispatched entry point — hardware when the CPU has it, slice-by-8
// otherwise. This is what the WAL actually calls.
void BM_Crc32cFast(benchmark::State& state) {
  CrcBench<&Crc32cExtend>(state);
  state.SetLabel(Crc32cKernelName(Crc32cActiveKernel()));
}
BENCHMARK(BM_Crc32cScalar)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Crc32cSliceBy8)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Crc32cFast)->Arg(4096)->Arg(65536);

// Per-commit durability latency on a device with real latency. Sync:
// every commit submits its force and sleeps the full device delay.
// Async: commits of a batch submit eagerly as records fill; the single
// durability point reaps completions whose delays overlapped, so the
// batch pays roughly one device latency instead of one per commit.
void BM_ForceCommit(benchmark::State& state) {
  const bool async = state.range(0) != 0;
  constexpr int kTxnsPerBatch = 8;
  constexpr uint64_t kDeviceLatencyUs = 50;
  SimulatedDisk disk;
  disk.log().set_append_latency_us(kDeviceLatencyUs);
  LogManager log(&disk.log());
  log.set_force_policy(ForcePolicy::kGroup);
  if (async) log.set_async_submit(1);
  const OperationDesc op = MakePhysicalWrite(1, Payload(64, 0));
  const std::vector<UndoImage> no_images;
  for (auto _ : state) {
    Lsn last = 0;
    for (int t = 0; t < kTxnsPerBatch; ++t) {
      last = log.AppendOperation(op, 0, kInvalidLsn, no_images);
      if (!async) {
        Status st = log.Force(last);
        benchmark::DoNotOptimize(st);
      }
    }
    Status st = log.WaitStable(last);
    benchmark::DoNotOptimize(st);
    if (log.last_stable_lsn() != last) {
      state.SkipWithError("batch not stable");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * kTxnsPerBatch);
  state.counters["txns_per_batch"] = kTxnsPerBatch;
}
BENCHMARK(BM_ForceCommit)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("async")
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace
}  // namespace loglog

// Custom main so CI can say `bench_hot_path --smoke`: the flag becomes
// a minimum-duration run, everything else passes through to the
// benchmark library untouched.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  static char min_time[] = "--benchmark_min_time=0.01";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (smoke) args.push_back(min_time);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
