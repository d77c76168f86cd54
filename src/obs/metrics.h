#ifndef LOGLOG_OBS_METRICS_H_
#define LOGLOG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace loglog {

/// Label set of a metric instance, e.g. {{"policy", "group"}}. Labels are
/// folded into the instance's full name as `name{k=v,...}` with keys
/// sorted, so the same (name, labels) pair always resolves to the same
/// instance.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Canonical metric names used by the instrumented layers, so call sites,
/// tests, and DESIGN.md's naming-scheme table stay in sync. Scheme:
/// `<layer>.<subject>.<measure>` (+ `{label=value}` dimensions).
namespace metric {
// WAL (src/wal/log_manager.cc).
inline constexpr std::string_view kWalForceLatencyUs = "wal.force.latency_us";
inline constexpr std::string_view kWalForceBatchRecords =
    "wal.force.batch_records";
inline constexpr std::string_view kWalForceCalls = "wal.force.calls";
inline constexpr std::string_view kWalForceNoops = "wal.force.noops";
inline constexpr std::string_view kWalRecordsCoalesced =
    "wal.force.records_coalesced";
inline constexpr std::string_view kWalAppendRecords = "wal.append.records";
inline constexpr std::string_view kWalAppendBytes = "wal.append.bytes";
/// Heap allocations charged to the append path (arena growth). Steady
/// state on the reserve+fill path is zero per record, which
/// wal_hot_path_test asserts.
inline constexpr std::string_view kWalAppendAllocs = "wal.append.allocs";
/// Reservations that found the arena full with fills outstanding and
/// waited for them to commit before it could grow.
inline constexpr std::string_view kWalAppendRoomWaits =
    "wal.append.room_waits";
/// Async completion model: forces submitted to the device queue, and the
/// time a durability point actually blocked reaping completions (the
/// part of force latency that submit/reap overlap did not hide).
inline constexpr std::string_view kWalForceSubmits = "wal.force.submits";
inline constexpr std::string_view kWalForceWaitUs = "wal.force.wait_us";
// Cache manager (src/cache/cache_manager.cc).
inline constexpr std::string_view kCmPurges = "cm.purge.calls";
inline constexpr std::string_view kCmNodesInstalled = "cm.install.nodes";
inline constexpr std::string_view kCmOpsInstalled = "cm.install.ops";
inline constexpr std::string_view kCmIdentityWrites = "cm.identity.writes";
inline constexpr std::string_view kCmIdentityBytes = "cm.identity.bytes";
inline constexpr std::string_view kCmFlushTxns = "cm.flush_txn.count";
inline constexpr std::string_view kCmEvictions = "cm.evict.objects";
inline constexpr std::string_view kCmCheckpoints = "cm.checkpoint.count";
inline constexpr std::string_view kCmFlushSetSize = "cm.flush.set_size";
inline constexpr std::string_view kCmBudgetInstalls = "cm.budget.installs";
inline constexpr std::string_view kCmIdentityBudgetRequests =
    "cm.identity.budget_requests";
inline constexpr std::string_view kCmIdentityBudgetDrops =
    "cm.identity.budget_drops";
/// Batched rW-graph maintenance: drains of the pending-op batch into the
/// write graph and the ops they carried (ops/batch = amortization win).
inline constexpr std::string_view kCmGraphBatches = "cm.graph.batches";
inline constexpr std::string_view kCmGraphBatchedOps = "cm.graph.batched_ops";
// Adaptive logging policy (src/adapt/adaptive_policy.cc). Promotions
// move an object toward value-carrying classes (W_P / W_PL), demotions
// back to W_L; restored counts classes reseeded from analysis.
inline constexpr std::string_view kAdaptDecisions = "adapt.policy.decisions";
inline constexpr std::string_view kAdaptPromotions =
    "adapt.policy.promotions";
inline constexpr std::string_view kAdaptDemotions = "adapt.policy.demotions";
inline constexpr std::string_view kAdaptRestored = "adapt.policy.restored";
// Recovery (src/recovery/).
inline constexpr std::string_view kRecoveryRuns = "recovery.runs";
inline constexpr std::string_view kRecoveryDurationUs =
    "recovery.run.duration_us";
inline constexpr std::string_view kRecoveryOpsRedone = "recovery.ops.redone";
inline constexpr std::string_view kRecoveryOpsSkipped =
    "recovery.ops.skipped";
inline constexpr std::string_view kRecoveryOpsVoided = "recovery.ops.voided";
inline constexpr std::string_view kRecoveryComponents =
    "recovery.redo.components";
// Live recovery progress gauges (reset at the start of every recovery;
// fed by the analysis scan and, during parallel redo, by each worker).
// On a clean full redo records_total == records_done, and on a redo with
// nothing installed records_redone == records_total.
inline constexpr std::string_view kRecoveryProgressRecordsTotal =
    "recovery.progress.records_total";
inline constexpr std::string_view kRecoveryProgressRecordsDone =
    "recovery.progress.records_done";
inline constexpr std::string_view kRecoveryProgressRecordsRedone =
    "recovery.progress.records_redone";
inline constexpr std::string_view kRecoveryProgressComponentsTotal =
    "recovery.progress.components_total";
inline constexpr std::string_view kRecoveryProgressComponentsDone =
    "recovery.progress.components_done";
inline constexpr std::string_view kRecoveryProgressBytes =
    "recovery.progress.bytes";
inline constexpr std::string_view kMediaRecoveries = "media.recoveries";
inline constexpr std::string_view kMediaRepairs = "media.repairs";
// Faults (src/fault/fault_injector.cc).
inline constexpr std::string_view kFaultFires = "fault.fires";
// Replication (src/ship/). Lag gauges: `lsn` is total staleness (primary
// durable LSN minus standby applied LSN); `records`/`bytes` measure the
// in-flight window (first-time-shipped minus standby-acknowledged).
inline constexpr std::string_view kShipBatchesSent = "ship.batches.sent";
inline constexpr std::string_view kShipRecordsShipped =
    "ship.records.shipped";
inline constexpr std::string_view kShipBytesShipped = "ship.bytes.shipped";
inline constexpr std::string_view kShipReconnects = "ship.reconnects";
inline constexpr std::string_view kShipResyncs = "ship.resyncs";
inline constexpr std::string_view kShipPrimaryDurableLsn =
    "ship.primary.durable_lsn";
inline constexpr std::string_view kShipLagLsn = "ship.lag.lsn";
inline constexpr std::string_view kShipLagRecords = "ship.lag.records";
inline constexpr std::string_view kShipLagBytes = "ship.lag.bytes";
inline constexpr std::string_view kShipBatchRecords = "ship.batch.records";
inline constexpr std::string_view kShipApplyLatencyUs =
    "ship.apply.latency_us";
inline constexpr std::string_view kShipStandbyAppliedLsn =
    "ship.standby.applied_lsn";
inline constexpr std::string_view kShipStandbyRecordsApplied =
    "ship.standby.records_applied";
inline constexpr std::string_view kShipBatchesDuplicate =
    "ship.batches.duplicate";
inline constexpr std::string_view kShipBatchesGap = "ship.batches.gap";
inline constexpr std::string_view kShipFramesCorrupt =
    "ship.frames.corrupt";
inline constexpr std::string_view kShipPromotions = "ship.promotions";
inline constexpr std::string_view kShipPromoteRtoUs =
    "ship.promote.rto_us";
// Log device reclamation (src/storage/simulated_disk.cc): bytes released
// from the hot retained log by TruncatePrefix (they either spill to the
// cold tier or, with the archive disabled, are dropped outright).
inline constexpr std::string_view kLogDeviceReclaimedBytes =
    "log.device.reclaimed_bytes";
// Log-as-database backend (src/logstore/). Index size gauges track the
// published LogIndex; read counters split cache misses by where the
// image came from; compaction counters bill the forward rewrites.
inline constexpr std::string_view kLogstoreIndexEntries =
    "logstore.index.entries";
inline constexpr std::string_view kLogstoreIndexLiveBytes =
    "logstore.index.live_bytes";
inline constexpr std::string_view kLogstoreIndexPublishes =
    "logstore.index.publishes";
inline constexpr std::string_view kLogstoreReadsLog = "logstore.reads.log";
inline constexpr std::string_view kLogstoreReadsCold = "logstore.reads.cold";
inline constexpr std::string_view kLogstoreCompactionRuns =
    "logstore.compaction.runs";
inline constexpr std::string_view kLogstoreCompactionBytesMoved =
    "logstore.compaction.bytes_moved";
inline constexpr std::string_view kLogstoreIndexCheckpoints =
    "logstore.index.checkpoints";
}  // namespace metric

/// Monotonically increasing counter. Relaxed atomics: counters are
/// statistical, and every reader snapshots through the registry.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins signed gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Mutex-guarded exact histogram (see obs/histogram.h). Observe() is the
/// hot call; everything else copies under the lock.
class HistogramMetric {
 public:
  void Observe(uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(value);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Clear();
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

/// \brief Point-in-time copy of every metric in a registry.
///
/// Counters and gauges are plain values; histograms carry their exact
/// value->count maps, which makes snapshots subtractable: Delta()
/// reconstructs the histogram of *only* the samples recorded between the
/// two snapshots. This is how benches and `loglog_inspect` report the
/// cost of one phase out of a shared registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram> histograms;

  /// This snapshot minus `earlier`: counters and histogram counts
  /// subtract (entries absent from `earlier` count from zero); gauges
  /// keep this snapshot's value (a gauge is a level, not a flow).
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{n,mean,...}}}
  std::string ToJson() const;

  std::string ToString() const;
};

/// \brief Thread-safe registry of named counters, gauges and histograms.
///
/// Get* registers on first use and returns a stable pointer — instruments
/// cache the pointer once and update it lock-free (counters/gauges) or
/// under a per-histogram lock. Snapshot() copies everything at once.
/// The process-wide instance is Global(); tests may create private
/// registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrument reports to.
  static MetricsRegistry& Global();

  /// Returns the counter registered under (name, labels), creating it on
  /// first use. The pointer is valid for the registry's lifetime.
  Counter* GetCounter(std::string_view name, const MetricLabels& labels = {});
  Gauge* GetGauge(std::string_view name, const MetricLabels& labels = {});
  HistogramMetric* GetHistogram(std::string_view name,
                                const MetricLabels& labels = {});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every value. Registered instances (and outstanding pointers)
  /// stay valid — only the recorded data is discarded.
  void ResetAll();

  /// `name{k1=v1,k2=v2}` with label keys sorted (the snapshot map key).
  static std::string FullName(std::string_view name,
                              const MetricLabels& labels);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace loglog

#endif  // LOGLOG_OBS_METRICS_H_
