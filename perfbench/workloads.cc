#include "workloads.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "domains/btree/btree.h"
#include "engine/txn_manager.h"
#include "obs/metrics.h"
#include "ops/op_builder.h"
#include "sim/reference_executor.h"
#include "sim/workload.h"

namespace perfbench {

using loglog::Btree;
using loglog::BtreeOptions;
using loglog::EngineOptions;
using loglog::Lsn;
using loglog::ObjectId;
using loglog::ObjectValue;
using loglog::OperationDesc;
using loglog::RecoveryEngine;
using loglog::Slice;
using loglog::TxnId;
using loglog::TxnManager;

namespace {

double Seconds(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

/// `"key":value` members of the context block.
std::string Member(const char* key, uint64_t value) {
  return std::string(",\"") + key + "\":" + std::to_string(value);
}
std::string Member(const char* key, const char* value) {
  return std::string(",\"") + key + "\":\"" + value + "\"";
}

/// The engine options every workload reports.
std::string OptionMembers(const EngineOptions& o, bool archive) {
  return Member("backend", o.backend == loglog::StorageBackend::kLogStore
                               ? "log_store"
                               : "dual_write") +
         Member("cache_capacity_objects", o.cache_capacity_objects) +
         Member("checkpoint_interval_ops", o.checkpoint_interval_ops) +
         Member("purge_threshold_ops", o.purge_threshold_ops) +
         Member("force_policy",
                o.wal_force_policy == loglog::ForcePolicy::kImmediate
                    ? "kImmediate"
                    : "group commit") +
         Member("log_archive", archive ? "on" : "off");
}

Status Mismatch(const std::string& what, ObjectId id) {
  return Status::Corruption(what + " (object/key " + std::to_string(id) +
                            ")");
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload

Workload::Workload(uint64_t seed, Tracer* tracer)
    : tracer_(tracer),
      rng_(loglog::Mix64(seed)),
      span_read_req_(tracer->Intern("req.read")),
      span_write_req_(tracer->Intern("req.write")),
      span_restart_(tracer->Intern("req.restart")),
      span_open_(tracer->Intern("engine.open")),
      span_recover_(tracer->Intern("engine.recover")),
      span_first_read_(tracer->Intern("first_read")) {}

Workload::~Workload() = default;

void Workload::NewDisk(bool keep_archive) {
  Crash();
  disk_ = std::make_unique<loglog::SimulatedDisk>();
  disk_->log().set_archive_enabled(keep_archive);
  OpenEngine();
}

void Workload::OpenEngine() {
  engine_ = std::make_unique<RecoveryEngine>(Options(), disk_.get());
  loglog::LogManager* log = &engine_->log();
  disk_->store().set_write_validator([log](ObjectId id, Lsn vsi) {
    if (vsi > log->last_stable_lsn()) {
      return Status::Corruption("WAL violation: object " +
                                std::to_string(id) + " flushed at vSI " +
                                std::to_string(vsi) +
                                " but stable log ends at " +
                                std::to_string(log->last_stable_lsn()));
    }
    return Status::OK();
  });
}

void Workload::Crash() {
  DropHandles();
  if (disk_ != nullptr) disk_->store().set_write_validator(nullptr);
  engine_.reset();
}

Status Workload::Restart(loglog::RecoveryStats* stats, double* ms) {
  const uint64_t t0 = NowNs();
  const int64_t root =
      tracer_->enabled() ? tracer_->BeginRequest(span_restart_) : -1;
  {
    CallSpan span(tracer_, span_open_);
    OpenEngine();
  }
  Status st;
  {
    CallSpan span(tracer_, span_recover_);
    st = engine_->Recover(stats);
    last_recovery_ = *stats;
  }
  if (st.ok()) {
    CallSpan span(tracer_, span_first_read_);
    st = FirstRead();
  }
  const uint64_t t1 = NowNs();
  if (root >= 0) tracer_->EndRequest(root, t0, t1);
  *ms = static_cast<double>(t1 - t0) / 1e6;
  return st;
}

double Workload::SpaceAmp() const {
  uint64_t store_bytes = 0;
  disk_->store().ForEach([&](ObjectId, const loglog::StoredObject& o) {
    store_bytes += o.value.size();
  });
  const loglog::StableLogDevice& dev = disk_->log();
  const double footprint = static_cast<double>(
      store_bytes + dev.retained_bytes() + dev.cold_tier().total_bytes());
  const uint64_t live =
      engine_->options().backend == loglog::StorageBackend::kLogStore
          ? engine_->cache().log_index().live_bytes()
          : store_bytes;
  return live == 0 ? 0.0 : footprint / static_cast<double>(live);
}

void Workload::SampleReadCounters(uint64_t out[3]) {
  static loglog::Counter* log_reads =
      loglog::MetricsRegistry::Global().GetCounter(
          loglog::metric::kLogstoreReadsLog);
  static loglog::Counter* cold_reads =
      loglog::MetricsRegistry::Global().GetCounter(
          loglog::metric::kLogstoreReadsCold);
  out[0] = disk_->stats().object_reads;
  out[1] = log_reads->value();
  out[2] = cold_reads->value();
}

void Workload::SampleBacklog(Probes* probes) {
  if (!tracer_->enabled() || probes == nullptr) return;
  const uint64_t backlog = engine_->cache().uninstalled_ops();
  ++probes->backlog_samples;
  probes->backlog_sum += backlog;
  probes->backlog_max = std::max(probes->backlog_max, backlog);
}

namespace {

// ---------------------------------------------------------------------------
// txn_commit: the commit path. Small transactions of physiological deltas
// over a data set that fits the (unbounded) cache, one force per commit.
// One request in five is a committed point read, all cache hits.

class TxnCommit final : public Workload {
 public:
  static constexpr size_t kObjects = 4096;
  static constexpr size_t kValueBytes = 128;
  static constexpr size_t kWritesPerTxn = 4;
  static constexpr size_t kDeltaBytes = 16;
  static constexpr uint64_t kCheckpointOps = 4096;
  static constexpr uint64_t kRollbackOneIn = 20;
  static constexpr uint64_t kReadOneIn = 5;
  // The oracle replays the benchmark's own model, so the dual-write
  // workloads keep no log archive: it would only grow memory with run
  // length.
  static constexpr bool kLogArchive = false;

  TxnCommit(uint64_t seed, Tracer* tracer)
      : Workload(seed, tracer),
        span_rollback_req_(tracer->Intern("req.rollback")),
        span_engine_read_(tracer->Intern("engine.read")),
        span_begin_(tracer->Intern("txn.begin")),
        span_execute_(tracer->Intern("txn.execute")),
        span_commit_(tracer->Intern("txn.commit")),
        span_rollback_(tracer->Intern("txn.rollback")) {
    loglog::Random data(loglog::Mix64(seed ^ 0x7478));
    for (size_t i = 0; i < kObjects; ++i) {
      initial_.push_back(data.Bytes(kValueBytes));
      setup_ops_.push_back(loglog::MakeCreate(i + 1, Slice(initial_.back())));
    }
  }

  const char* name() const override { return "txn_commit"; }

  EngineOptions Options() const override {
    EngineOptions o;
    o.checkpoint_interval_ops = kCheckpointOps;
    return o;
  }

  std::string Describe() const override {
    return OptionMembers(Options(), kLogArchive) +
           Member("objects", kObjects) + Member("object_bytes", kValueBytes) +
           Member("deltas_per_txn", kWritesPerTxn) +
           Member("delta_bytes", kDeltaBytes) +
           Member("rollback_one_in", kRollbackOneIn) +
           Member("read_one_in", kReadOneIn);
  }

  Status Setup(double* seconds) override {
    const uint64_t t0 = NowNs();
    NewDisk(kLogArchive);
    for (const OperationDesc& op : setup_ops_) {
      LOGLOG_RETURN_IF_ERROR(engine_->Execute(op));
    }
    LOGLOG_RETURN_IF_ERROR(engine_->Checkpoint());
    *seconds = Seconds(t0, NowNs());
    tm_ = std::make_unique<TxnManager>(engine_.get());
    model_ = initial_;
    return Status::OK();
  }

  void Generate(size_t n) override {
    requests_.clear();
    for (size_t i = 0; i < n; ++i) {
      Request r;
      r.read = rng_.OneIn(kReadOneIn);
      if (r.read) {
        r.id = 1 + rng_.Uniform(kObjects);
      } else {
        r.rollback = rng_.OneIn(kRollbackOneIn);
        GenerateTxn(&r);
      }
      requests_.push_back(std::move(r));
    }
  }

  Status Run(Latencies* lat, Probes* probes) override {
    for (const Request& r : requests_) {
      if (r.read) {
        ObjectValue v;
        LOGLOG_RETURN_IF_ERROR(Timed(
            span_read_req_, lat ? &lat->read_ns : nullptr, [&] {
              return Probed(probes, [&] {
                CallSpan span(tracer_, span_engine_read_);
                return engine_->Read(r.id, &v);
              });
            }));
        if (v != model_[r.id - 1]) {
          return Mismatch("read returned a value the model does not hold",
                          r.id);
        }
        continue;
      }
      std::vector<uint64_t>* out =
          lat == nullptr || r.rollback ? nullptr : &lat->write_ns;
      LOGLOG_RETURN_IF_ERROR(
          Timed(r.rollback ? span_rollback_req_ : span_write_req_, out,
                [&] { return RunTxn(r); }));
      if (r.rollback) {
        if (lat != nullptr) ++lat->rollbacks;
      } else {
        ApplyToModel(r);
      }
      SampleBacklog(probes);
    }
    return Status::OK();
  }

  Status DriveToCrashPoint() override {
    LOGLOG_RETURN_IF_ERROR(engine_->Checkpoint());
    const uint64_t start = engine_->stats().ops_executed;
    // Committed transactions until the loser's writes are all that fit
    // before the next automatic checkpoint.
    while (engine_->stats().ops_executed - start + 2 * kWritesPerTxn <
           kCheckpointOps) {
      Request r;
      GenerateTxn(&r);
      LOGLOG_RETURN_IF_ERROR(RunTxn(r));
      ApplyToModel(r);
    }
    // The loser: its records reach the stable log, its commit never does.
    Request loser;
    GenerateTxn(&loser);
    TxnId id;
    LOGLOG_RETURN_IF_ERROR(tm_->Begin(&id));
    for (const OperationDesc& op : loser.ops) {
      LOGLOG_RETURN_IF_ERROR(tm_->Execute(id, op));
    }
    LOGLOG_RETURN_IF_ERROR(engine_->log().ForceAll());
    first_read_id_ = 1 + rng_.Uniform(kObjects);
    return Status::OK();
  }

  Status Verify() override {
    LOGLOG_RETURN_IF_ERROR(disk_->store().audit_status());
    if (last_recovery_.loser_txns != 1) {
      return Status::Corruption("recovery rolled back " +
                                std::to_string(last_recovery_.loser_txns) +
                                " losers; the crash left exactly one");
    }
    for (size_t i = 0; i < kObjects; ++i) {
      ObjectValue v;
      LOGLOG_RETURN_IF_ERROR(engine_->Read(i + 1, &v));
      if (v != model_[i]) {
        return Mismatch("recovered object differs from the committed model",
                        i + 1);
      }
    }
    return Status::OK();
  }

  void AddCounters(Counters* c) const override {
    if (tm_ != nullptr) {
      (*c)["txn.conflict_aborts"] =
          static_cast<double>(tm_->stats().conflict_aborts);
    }
  }

 protected:
  void DropHandles() override { tm_.reset(); }

  Status FirstRead() override {
    ObjectValue v;
    return engine_->Read(first_read_id_, &v);
  }

 private:
  struct Delta {
    ObjectId id = 0;
    uint64_t offset = 0;
    std::vector<uint8_t> bytes;
  };
  struct Request {
    bool read = false;
    bool rollback = false;
    ObjectId id = 0;
    std::vector<Delta> deltas;  // the model's copy of `ops`
    std::vector<OperationDesc> ops;
  };

  void GenerateTxn(Request* r) {
    for (size_t w = 0; w < kWritesPerTxn; ++w) {
      Delta d;
      d.id = 1 + rng_.Uniform(kObjects);
      d.offset = rng_.Uniform(kValueBytes - kDeltaBytes + 1);
      d.bytes = rng_.Bytes(kDeltaBytes);
      r->ops.push_back(loglog::MakeDelta(d.id, d.offset, Slice(d.bytes)));
      r->deltas.push_back(std::move(d));
    }
  }

  Status RunTxn(const Request& r) {
    TxnId id;
    {
      CallSpan span(tracer_, span_begin_);
      LOGLOG_RETURN_IF_ERROR(tm_->Begin(&id));
    }
    for (const OperationDesc& op : r.ops) {
      CallSpan span(tracer_, span_execute_);
      LOGLOG_RETURN_IF_ERROR(tm_->Execute(id, op));
    }
    if (r.rollback) {
      CallSpan span(tracer_, span_rollback_);
      return tm_->Rollback(id);
    }
    CallSpan span(tracer_, span_commit_);
    return tm_->Commit(id);
  }

  void ApplyToModel(const Request& r) {
    for (const Delta& d : r.deltas) {
      std::copy(d.bytes.begin(), d.bytes.end(),
                model_[d.id - 1].begin() + static_cast<ptrdiff_t>(d.offset));
    }
  }

  uint16_t span_rollback_req_;
  uint16_t span_engine_read_;
  uint16_t span_begin_;
  uint16_t span_execute_;
  uint16_t span_commit_;
  uint16_t span_rollback_;
  std::vector<ObjectValue> initial_;
  std::vector<OperationDesc> setup_ops_;
  std::vector<ObjectValue> model_;
  std::vector<Request> requests_;
  std::unique_ptr<TxnManager> tm_;
  ObjectId first_read_id_ = 1;
};

// ---------------------------------------------------------------------------
// logical_mix: the paper's new domains. Application execute/read/write,
// file copy/sort/merge, page deltas and temporary files through the rW
// graph and identity writes, with point reads that miss a cache smaller
// than the object universe.

class LogicalMix final : public Workload {
 public:
  static constexpr size_t kApps = 32;
  static constexpr size_t kFiles = 256;
  static constexpr size_t kFileBytes = 1024;
  static constexpr size_t kPages = 1024;
  static constexpr size_t kPageBytes = 256;
  static constexpr size_t kCacheObjects = 512;
  static constexpr uint64_t kCheckpointOps = 50'000;
  static constexpr uint64_t kReadOneIn = 5;
  static constexpr bool kLogArchive = false;

  LogicalMix(uint64_t seed, Tracer* tracer)
      : Workload(seed, tracer),
        span_engine_read_(tracer->Intern("engine.read")),
        span_engine_execute_(tracer->Intern("engine.execute")) {
    wopts_.seed = loglog::Mix64(seed ^ 0x6d6978);
    wopts_.num_apps = kApps;
    wopts_.num_files = kFiles;
    wopts_.file_size = kFileBytes;
    wopts_.num_pages = kPages;
    wopts_.page_size = kPageBytes;
    // Deletes slightly outweigh creates, so the live temporary files stay
    // a handful instead of a random walk: the universe, and with it the
    // miss ratio and live bytes, is then the same whatever the seed or
    // how many requests a run completes.
    wopts_.w_temp_delete = wopts_.w_temp_create + 1;
  }

  const char* name() const override { return "logical_mix"; }

  EngineOptions Options() const override {
    EngineOptions o;
    o.cache_capacity_objects = kCacheObjects;
    o.checkpoint_interval_ops = kCheckpointOps;
    return o;
  }

  std::string Describe() const override {
    return OptionMembers(Options(), kLogArchive) +
           Member("apps", kApps) +
           Member("app_state_bytes", wopts_.app_state_size) +
           Member("files", kFiles) + Member("file_bytes", kFileBytes) +
           Member("pages", kPages) + Member("page_bytes", kPageBytes) +
           Member("temp_create_weight", wopts_.w_temp_create) +
           Member("temp_delete_weight", wopts_.w_temp_delete) +
           Member("read_one_in", kReadOneIn);
  }

  Status Setup(double* seconds) override {
    gen_ = std::make_unique<loglog::MixedWorkload>(wopts_);
    const std::vector<OperationDesc> ops = gen_->SetupOps();
    const uint64_t t0 = NowNs();
    NewDisk(kLogArchive);
    for (const OperationDesc& op : ops) {
      LOGLOG_RETURN_IF_ERROR(engine_->Execute(op));
    }
    LOGLOG_RETURN_IF_ERROR(engine_->Checkpoint());
    *seconds = Seconds(t0, NowNs());
    ref_ = loglog::ReferenceExecutor();
    for (const OperationDesc& op : ops) LOGLOG_RETURN_IF_ERROR(ref_.Apply(op));
    pending_.clear();
    return Status::OK();
  }

  void Generate(size_t n) override {
    requests_.clear();
    for (size_t i = 0; i < n; ++i) {
      Request r;
      r.read = rng_.OneIn(kReadOneIn);
      if (r.read) {
        r.id = RandomFileOrPage();
      } else {
        r.op = NextOp();
      }
      requests_.push_back(std::move(r));
    }
  }

  Status Run(Latencies* lat, Probes* probes) override {
    for (Request& r : requests_) {
      if (r.read) {
        LOGLOG_RETURN_IF_ERROR(Timed(
            span_read_req_, lat ? &lat->read_ns : nullptr, [&] {
              return Probed(probes, [&] {
                CallSpan span(tracer_, span_engine_read_);
                return engine_->Read(r.id, &r.value);
              });
            }));
        continue;
      }
      LOGLOG_RETURN_IF_ERROR(
          Timed(span_write_req_, lat ? &lat->write_ns : nullptr, [&] {
            CallSpan span(tracer_, span_engine_execute_);
            return engine_->Execute(r.op);
          }));
      SampleBacklog(probes);
    }
    return Status::OK();
  }

  Status Check() override {
    // Replays the chunk in order: each read must have seen every write
    // issued before it.
    for (const Request& r : requests_) {
      if (!r.read) {
        LOGLOG_RETURN_IF_ERROR(ref_.Apply(r.op));
        continue;
      }
      ObjectValue want;
      LOGLOG_RETURN_IF_ERROR(ref_.Get(r.id, &want));
      if (r.value != want) {
        return Mismatch("read differs from the reference replay", r.id);
      }
    }
    return Status::OK();
  }

  Status DriveToCrashPoint() override {
    LOGLOG_RETURN_IF_ERROR(engine_->Checkpoint());
    const uint64_t start = engine_->stats().ops_executed;
    while (engine_->stats().ops_executed - start + 8 < kCheckpointOps) {
      OperationDesc op = NextOp();
      Lsn lsn = loglog::kInvalidLsn;
      LOGLOG_RETURN_IF_ERROR(engine_->Execute(op, &lsn));
      pending_.emplace_back(lsn, std::move(op));
      if (pending_.size() >= 4096) LOGLOG_RETURN_IF_ERROR(ApplyStable());
    }
    // No final force: operations after the last one the engine forced
    // are lost by the crash, and the reference never sees them.
    LOGLOG_RETURN_IF_ERROR(ApplyStable());
    pending_.clear();
    first_read_id_ = RandomFileOrPage();
    return Status::OK();
  }

  Status Verify() override {
    LOGLOG_RETURN_IF_ERROR(disk_->store().audit_status());
    for (const auto& [id, want] : ref_.objects()) {
      ObjectValue got;
      LOGLOG_RETURN_IF_ERROR(engine_->Read(id, &got));
      if (got != want) {
        return Mismatch("recovered object differs from the reference", id);
      }
    }
    for (ObjectId id = loglog::kTempIdBase; id <= max_temp_; ++id) {
      ObjectValue got;
      if (!ref_.Exists(id) && !engine_->Read(id, &got).IsNotFound()) {
        return Mismatch("object absent from the reference is readable", id);
      }
    }
    return Status::OK();
  }

 protected:
  Status FirstRead() override {
    ObjectValue v;
    return engine_->Read(first_read_id_, &v);
  }

 private:
  struct Request {
    bool read = false;
    ObjectId id = 0;
    OperationDesc op;
    ObjectValue value;
  };

  ObjectId RandomFileOrPage() {
    const uint64_t u = rng_.Uniform(kFiles + kPages);
    return u < kFiles ? loglog::kFileIdBase + u
                      : loglog::kPageIdBase + (u - kFiles);
  }

  OperationDesc NextOp() {
    OperationDesc op = gen_->Next();
    for (ObjectId id : op.writes) {
      if (id >= loglog::kTempIdBase) max_temp_ = std::max(max_temp_, id);
    }
    return op;
  }

  /// Moves every pending operation the engine has forced into the
  /// reference.
  Status ApplyStable() {
    const Lsn stable = engine_->log().last_stable_lsn();
    while (!pending_.empty() && pending_.front().first <= stable) {
      LOGLOG_RETURN_IF_ERROR(ref_.Apply(pending_.front().second));
      pending_.pop_front();
    }
    return Status::OK();
  }

  uint16_t span_engine_read_;
  uint16_t span_engine_execute_;
  loglog::MixedWorkloadOptions wopts_;
  std::unique_ptr<loglog::MixedWorkload> gen_;
  loglog::ReferenceExecutor ref_;
  std::deque<std::pair<Lsn, OperationDesc>> pending_;
  std::vector<Request> requests_;
  ObjectId max_temp_ = 0;
  ObjectId first_read_id_ = loglog::kPageIdBase;
};

// ---------------------------------------------------------------------------
// btree_kv: the log as the database. A B-tree of 4 KiB pages on the
// log-store backend with a cache far smaller than the tree, so reads
// fault pages in from the log, with compaction and retention GC on.

class BtreeKv final : public Workload {
 public:
  static constexpr uint64_t kKeySpace = 40'000;
  static constexpr size_t kPreload = 10'000;
  static constexpr size_t kValueBytes = 64;
  static constexpr size_t kCacheObjects = 64;
  static constexpr size_t kCompactOps = 64;
  static constexpr uint64_t kCheckpointOps = 8192;
  // The log store serves cache misses of truncated images from the cold
  // tier, so it needs the archive.
  static constexpr bool kLogArchive = true;

  BtreeKv(uint64_t seed, Tracer* tracer)
      : Workload(seed, tracer),
        span_get_(tracer->Intern("btree.get")),
        span_insert_(tracer->Intern("btree.insert")) {
    loglog::Random data(loglog::Mix64(seed ^ 0x6b76));
    std::vector<uint64_t> keys(kKeySpace);
    std::iota(keys.begin(), keys.end(), 0);
    for (size_t i = 0; i < kPreload; ++i) {
      std::swap(keys[i], keys[i + data.Uniform(kKeySpace - i)]);
      preload_.emplace_back(keys[i], data.Bytes(kValueBytes));
    }
  }

  const char* name() const override { return "btree_kv"; }

  EngineOptions Options() const override {
    EngineOptions o;
    o.backend = loglog::StorageBackend::kLogStore;
    o.cache_capacity_objects = kCacheObjects;
    o.checkpoint_interval_ops = kCheckpointOps;
    o.logstore.compact_interval_ops = kCompactOps;
    o.logstore.cold_retention_full = false;
    return o;
  }

  std::string Describe() const override {
    const EngineOptions o = Options();
    return OptionMembers(o, kLogArchive) +
           Member("compact_interval_ops", o.logstore.compact_interval_ops) +
           Member("cold_retention_full",
                  o.logstore.cold_retention_full ? "true" : "false") +
           Member("page_bytes", BtreeOptions{}.max_page_bytes) +
           Member("key_space", kKeySpace) + Member("preloaded_keys", kPreload) +
           Member("value_bytes", kValueBytes) + Member("get_one_in", 2);
  }

  Status Setup(double* seconds) override {
    const uint64_t t0 = NowNs();
    NewDisk(kLogArchive);
    tree_ = std::make_unique<Btree>(engine_.get(), BtreeOptions{});
    LOGLOG_RETURN_IF_ERROR(tree_->Open());
    for (const auto& [key, value] : preload_) {
      LOGLOG_RETURN_IF_ERROR(tree_->Insert(key, Slice(value)));
    }
    LOGLOG_RETURN_IF_ERROR(engine_->Checkpoint());
    *seconds = Seconds(t0, NowNs());
    model_.assign(kKeySpace, ObjectValue());
    for (const auto& [key, value] : preload_) model_[key] = value;
    return Status::OK();
  }

  void Generate(size_t n) override {
    requests_.clear();
    for (size_t i = 0; i < n; ++i) {
      Request r;
      r.read = rng_.OneIn(2);
      r.key = rng_.Uniform(kKeySpace);
      if (!r.read) r.value = rng_.Bytes(kValueBytes);
      requests_.push_back(std::move(r));
    }
  }

  Status Run(Latencies* lat, Probes* probes) override {
    for (const Request& r : requests_) {
      if (r.read) {
        std::vector<uint8_t> v;
        bool found = false;
        LOGLOG_RETURN_IF_ERROR(Timed(
            span_read_req_, lat ? &lat->read_ns : nullptr, [&] {
              return Probed(probes, [&] {
                CallSpan span(tracer_, span_get_);
                Status st = tree_->Get(r.key, &v);
                found = st.ok();
                // An absent key is a correct answer.
                return st.IsNotFound() ? Status::OK() : st;
              });
            }));
        const ObjectValue& want = model_[r.key];
        if (found != !want.empty() || (found && v != want)) {
          return Mismatch("Get differs from the model", r.key);
        }
        continue;
      }
      LOGLOG_RETURN_IF_ERROR(
          Timed(span_write_req_, lat ? &lat->write_ns : nullptr, [&] {
            CallSpan span(tracer_, span_insert_);
            return tree_->Insert(r.key, Slice(r.value));
          }));
      model_[r.key] = r.value;
      SampleBacklog(probes);
    }
    return Status::OK();
  }

  Status DriveToCrashPoint() override {
    LOGLOG_RETURN_IF_ERROR(engine_->Checkpoint());
    const uint64_t start = engine_->stats().ops_executed;
    // An insert executes at most a handful of operations (leaf insert
    // plus splits up the tree), so 16 keeps clear of the checkpoint.
    while (engine_->stats().ops_executed - start + 16 < kCheckpointOps) {
      const uint64_t key = rng_.Uniform(kKeySpace);
      ObjectValue value = rng_.Bytes(kValueBytes);
      LOGLOG_RETURN_IF_ERROR(tree_->Insert(key, Slice(value)));
      model_[key] = std::move(value);
    }
    LOGLOG_RETURN_IF_ERROR(engine_->log().ForceAll());
    first_read_key_ = rng_.Uniform(kKeySpace);
    return Status::OK();
  }

  Status Verify() override {
    tree_ = std::make_unique<Btree>(engine_.get(), BtreeOptions{});
    LOGLOG_RETURN_IF_ERROR(tree_->Open());
    LOGLOG_RETURN_IF_ERROR(tree_->Validate());
    size_t live = 0;
    for (uint64_t key = 0; key < kKeySpace; ++key) {
      std::vector<uint8_t> v;
      Status st = tree_->Get(key, &v);
      if (model_[key].empty()) {
        if (!st.IsNotFound()) return Mismatch("key never inserted is present", key);
        continue;
      }
      ++live;
      LOGLOG_RETURN_IF_ERROR(st);
      if (v != model_[key]) return Mismatch("recovered value differs", key);
    }
    // The leaf chain holds exactly the model's keys.
    size_t scanned = 0;
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> page;
    for (uint64_t from = 0;; from = page.back().first + 1) {
      page.clear();
      LOGLOG_RETURN_IF_ERROR(tree_->Scan(from, 1024, &page));
      if (page.empty()) break;
      for (const auto& [key, value] : page) {
        if (key >= kKeySpace || model_[key] != value) {
          return Mismatch("scan returns a key/value the model lacks", key);
        }
      }
      scanned += page.size();
    }
    if (scanned != live) {
      return Status::Corruption("scan returns " + std::to_string(scanned) +
                                " keys, model holds " + std::to_string(live));
    }
    return Status::OK();
  }

  void AddCounters(Counters* c) const override {
    if (tree_ != nullptr) {
      (*c)["btree.splits"] = static_cast<double>(tree_->stats().splits);
      (*c)["btree.inserts"] = static_cast<double>(tree_->stats().inserts);
    }
  }

 protected:
  void DropHandles() override { tree_.reset(); }

  Status FirstRead() override {
    tree_ = std::make_unique<Btree>(engine_.get(), BtreeOptions{});
    LOGLOG_RETURN_IF_ERROR(tree_->Open());
    std::vector<uint8_t> v;
    Status st = tree_->Get(first_read_key_, &v);
    return st.IsNotFound() ? Status::OK() : st;
  }

 private:
  struct Request {
    bool read = false;
    uint64_t key = 0;
    ObjectValue value;
  };

  uint16_t span_get_;
  uint16_t span_insert_;
  std::vector<std::pair<uint64_t, ObjectValue>> preload_;
  std::vector<ObjectValue> model_;
  std::vector<Request> requests_;
  std::unique_ptr<Btree> tree_;
  uint64_t first_read_key_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"txn_commit", "logical_mix",
                                                 "btree_kv"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Tracer* tracer) {
  if (name == "txn_commit") return std::make_unique<TxnCommit>(seed, tracer);
  if (name == "logical_mix") return std::make_unique<LogicalMix>(seed, tracer);
  if (name == "btree_kv") return std::make_unique<BtreeKv>(seed, tracer);
  return nullptr;
}

}  // namespace perfbench
