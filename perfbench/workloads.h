#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "engine/options.h"
#include "engine/recovery_engine.h"
#include "recovery/recovery_driver.h"
#include "storage/simulated_disk.h"
#include "trace.h"

namespace perfbench {

using loglog::Status;

/// Latency samples of the measured phase, in nanoseconds.
struct Latencies {
  std::vector<uint64_t> write_ns;
  std::vector<uint64_t> read_ns;
  /// txn_commit only: transactions that rolled back instead of committing
  /// (requests, but not writes).
  size_t rollbacks = 0;
  size_t requests() const {
    return write_ns.size() + read_ns.size() + rollbacks;
  }
};

/// What the traced chunks saw around each point read and after each write.
struct Probes {
  uint64_t reads = 0;
  uint64_t missed_reads = 0;  // fetched at least one object from stable media
  uint64_t store_reads = 0;   // IoStats::object_reads
  uint64_t log_reads = 0;     // logstore.reads.log
  uint64_t cold_reads = 0;    // logstore.reads.cold
  uint64_t backlog_samples = 0;
  uint64_t backlog_sum = 0;
  uint64_t backlog_max = 0;
};

/// Named counters sampled before and after the measured phase.
using Counters = std::map<std::string, double>;

/// \brief One benchmark workload: its data set, request stream, crash
/// point, first read after restart, and correctness oracle.
///
/// A run uses two instances built from the same seed: one serves the
/// measured requests, the other is crashed up front and restarted.
///
/// Inputs come from the seed alone and are generated outside the timed
/// sections; the engine receives only the generated operations. One
/// client thread issues one request at a time (closed loop).
class Workload {
 public:
  Workload(uint64_t seed, Tracer* tracer);
  virtual ~Workload();

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  virtual loglog::EngineOptions Options() const = 0;
  /// Data sizes and request mix, for the context block.
  virtual std::string Describe() const = 0;

  /// Builds the data set on a fresh disk plus one checkpoint, replacing
  /// any previous one. `*seconds` covers only the engine work.
  virtual Status Setup(double* seconds) = 0;
  /// Generates the next `n` requests (untimed).
  virtual void Generate(size_t n) = 0;
  /// Runs the generated requests, appending one latency each to `lat`
  /// when non-null. While the tracer is enabled, also fills `probes`.
  virtual Status Run(Latencies* lat, Probes* probes) = 0;
  /// Untimed bookkeeping after Run: model upkeep and output checks.
  virtual Status Check() { return Status::OK(); }
  /// Takes a checkpoint and runs writes up to just short of the next
  /// automatic one, so every run crashes at the same point of the
  /// checkpoint cycle.
  virtual Status DriveToCrashPoint() = 0;
  /// Footprint (stable store + hot log window + cold tier) over live
  /// bytes (LogIndex::live_bytes() under the log store, stable-store
  /// object bytes under dual-write).
  double SpaceAmp() const;
  /// Drops every piece of volatile state; the disk survives.
  void Crash();
  /// Builds an engine over the crashed disk, recovers, and serves one
  /// read. `*ms` covers all three.
  Status Restart(loglog::RecoveryStats* stats, double* ms);
  /// The correctness oracle, run after the last restart (untimed).
  virtual Status Verify() = 0;

  /// Workload-specific counters (btree splits, txn conflicts).
  virtual void AddCounters(Counters* /*c*/) const {}

  loglog::RecoveryEngine& engine() { return *engine_; }
  loglog::SimulatedDisk& disk() { return *disk_; }

 protected:
  /// Fresh disk and engine.
  void NewDisk(bool keep_archive);
  /// Engine over the current disk, with the WAL-protocol validator that
  /// CrashHarness installs: every object write must be covered by the
  /// stable log.
  void OpenEngine();
  /// Drops workload handles that point into the engine.
  virtual void DropHandles() {}
  /// The read served right after Recover.
  virtual Status FirstRead() = 0;

  /// Runs one request as a root span and records its latency on success.
  template <typename Fn>
  Status Timed(uint16_t root_name, std::vector<uint64_t>* out, Fn&& fn);

  /// Samples the uninstalled-operation backlog after a traced write.
  void SampleBacklog(Probes* probes);

  /// Reads the storage counters into `probes` around one traced read.
  template <typename Fn>
  Status Probed(Probes* probes, Fn&& fn);

  Tracer* tracer_;
  loglog::Random rng_;
  /// Stats of the latest Restart's recovery.
  loglog::RecoveryStats last_recovery_;
  std::unique_ptr<loglog::SimulatedDisk> disk_;
  std::unique_ptr<loglog::RecoveryEngine> engine_;
  uint16_t span_read_req_;
  uint16_t span_write_req_;

 private:
  void SampleReadCounters(uint64_t out[3]);

  uint16_t span_restart_;
  uint16_t span_open_;
  uint16_t span_recover_;
  uint16_t span_first_read_;
};

template <typename Fn>
Status Workload::Timed(uint16_t root_name, std::vector<uint64_t>* out,
                       Fn&& fn) {
  const uint64_t t0 = NowNs();
  const int64_t root =
      tracer_->enabled() ? tracer_->BeginRequest(root_name) : -1;
  Status st = fn();
  const uint64_t t1 = NowNs();
  if (root >= 0) tracer_->EndRequest(root, t0, t1);
  if (out != nullptr && st.ok()) out->push_back(t1 - t0);
  return st;
}

template <typename Fn>
Status Workload::Probed(Probes* probes, Fn&& fn) {
  if (!tracer_->enabled() || probes == nullptr) return fn();
  uint64_t before[3];
  uint64_t after[3];
  SampleReadCounters(before);
  Status st = fn();
  SampleReadCounters(after);
  ++probes->reads;
  probes->store_reads += after[0] - before[0];
  probes->log_reads += after[1] - before[1];
  probes->cold_reads += after[2] - before[2];
  if (after[0] + after[1] + after[2] != before[0] + before[1] + before[2]) {
    ++probes->missed_reads;
  }
  return st;
}

/// The workload of that name (nullptr for an unknown name).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Tracer* tracer);

/// Names accepted by MakeWorkload, in run order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
