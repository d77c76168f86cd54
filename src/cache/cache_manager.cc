#include "cache/cache_manager.h"

#include <algorithm>
#include <cassert>

#include "common/retry.h"
#include "fault/fault_injector.h"
#include "graph/refined_write_graph.h"
#include "graph/write_graph_w.h"
#include "logstore/logstore.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "ops/op_builder.h"

namespace loglog {

namespace {

std::unique_ptr<WriteGraph> MakeGraph(GraphKind kind) {
  if (kind == GraphKind::kRefined) {
    return std::make_unique<RefinedWriteGraph>();
  }
  return std::make_unique<WriteGraphW>();
}

}  // namespace

CacheManager::CacheManager(SimulatedDisk* disk, LogManager* log,
                           GraphKind graph_kind, FlushPolicy flush_policy,
                           bool log_installs, StorageBackend backend)
    : disk_(disk),
      log_(log),
      graph_(MakeGraph(graph_kind)),
      flush_policy_(flush_policy),
      log_installs_(log_installs),
      backend_(backend) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  metrics_.purges = reg.GetCounter(metric::kCmPurges);
  metrics_.nodes_installed = reg.GetCounter(metric::kCmNodesInstalled);
  metrics_.ops_installed = reg.GetCounter(metric::kCmOpsInstalled);
  metrics_.identity_writes = reg.GetCounter(metric::kCmIdentityWrites);
  metrics_.identity_bytes = reg.GetCounter(metric::kCmIdentityBytes);
  metrics_.flush_txns = reg.GetCounter(metric::kCmFlushTxns);
  metrics_.evictions = reg.GetCounter(metric::kCmEvictions);
  metrics_.checkpoints = reg.GetCounter(metric::kCmCheckpoints);
  metrics_.budget_installs = reg.GetCounter(metric::kCmBudgetInstalls);
  metrics_.budget_identity_requests =
      reg.GetCounter(metric::kCmIdentityBudgetRequests);
  metrics_.budget_identity_drops =
      reg.GetCounter(metric::kCmIdentityBudgetDrops);
  metrics_.graph_batches = reg.GetCounter(metric::kCmGraphBatches);
  metrics_.graph_batched_ops = reg.GetCounter(metric::kCmGraphBatchedOps);
  metrics_.flush_set_size = reg.GetHistogram(metric::kCmFlushSetSize);
  metrics_.logstore_reads_log = reg.GetCounter(metric::kLogstoreReadsLog);
  metrics_.logstore_index_ckpts =
      reg.GetCounter(metric::kLogstoreIndexCheckpoints);
  if (flush_policy_ == FlushPolicy::kIdentityWrites &&
      graph_kind == GraphKind::kW) {
    // Identity writes cannot break W's flush sets apart: a blind write
    // merges into the node owning the object, since W coalesces on any
    // writeset overlap ("once objects need to be flushed together
    // atomically, there is no way to flush them separately", Section 6).
    // Fall back to the native atomic flush.
    flush_policy_ = FlushPolicy::kNativeAtomic;
  }
  disk_->store().set_shadow_mode(flush_policy_ == FlushPolicy::kShadow);
}

void CacheManager::set_fail_point(FailPoint fp) {
  FaultInjector& inj = disk_->fault_injector();
  switch (fp) {
    case FailPoint::kNone:
      inj.Disarm(fault::kCmAfterWalForce);
      inj.Disarm(fault::kCmAfterFlushTxnCommit);
      inj.Disarm(fault::kCmAfterFirstFlushTxnWrite);
      break;
    case FailPoint::kAfterFlushTxnCommit:
      inj.Arm(fault::kCmAfterFlushTxnCommit, FaultSpec::CrashOnce());
      break;
    case FailPoint::kAfterFirstFlushTxnWrite:
      inj.Arm(fault::kCmAfterFirstFlushTxnWrite, FaultSpec::CrashOnce());
      break;
    case FailPoint::kAfterWalForce:
      inj.Arm(fault::kCmAfterWalForce, FaultSpec::CrashOnce());
      break;
  }
}

Status CacheManager::GetValue(ObjectId id, ObjectValue* out,
                              int io_budget) {
  CachedObject* obj = table_.Find(id);
  if (obj != nullptr) {
    if (!obj->exists) return Status::NotFound("object deleted");
    obj->last_access = ++access_clock_;
    *out = obj->value;
    return Status::OK();
  }
  if (backend_ == StorageBackend::kLogStore) {
    CachedObject* faulted = nullptr;
    LOGLOG_RETURN_IF_ERROR(FaultInFromLog(id, io_budget, &faulted));
    *out = faulted->value;
    return Status::OK();
  }
  StoredObject stored;
  LOGLOG_RETURN_IF_ERROR(RetryTransientIo(
      io_budget, &disk_->stats().io_retries,
      [&] { return disk_->store().Read(id, &stored); }));
  CachedObject& entry = table_.GetOrCreate(id);
  entry.value = stored.value;
  entry.vsi = stored.vsi;
  entry.rsi = kInvalidLsn;
  entry.dirty = false;
  entry.exists = true;
  entry.last_access = ++access_clock_;
  *out = entry.value;
  return Status::OK();
}

Status CacheManager::FaultInFromLog(ObjectId id, int io_budget,
                                    CachedObject** out) {
  IndexCheckpointEntry entry;
  if (!index_.Lookup(id, &entry)) {
    // The index maps every existing object; a miss IS nonexistence (the
    // StableStore is never consulted under kLogStore).
    return Status::NotFound("object not in log index");
  }
  std::vector<uint8_t> frame;
  LOGLOG_RETURN_IF_ERROR(RetryTransientIo(
      io_budget, &disk_->stats().io_retries, [&] {
        return disk_->log().ReadStable(entry.offset, entry.size, &frame);
      }));
  Slice cursor(frame);
  LogRecord rec;
  LOGLOG_RETURN_IF_ERROR(ReadFramedRecord(&cursor, &rec));
  if (rec.lsn != entry.lsn || !IsFullImageOp(rec.op) ||
      rec.op.op_class == OpClass::kDelete || rec.op.writes.size() != 1 ||
      rec.op.writes[0] != id) {
    return Status::Corruption("log index entry points at a non-image record");
  }
  metrics_.logstore_reads_log->Inc();
  CachedObject& obj = table_.GetOrCreate(id);
  obj.value = std::move(rec.op.params);
  obj.vsi = entry.lsn;
  obj.rsi = kInvalidLsn;
  obj.dirty = false;
  obj.exists = true;
  obj.last_access = ++access_clock_;
  obj.last_full_image = true;
  *out = &obj;
  return Status::OK();
}

bool CacheManager::ObjectExists(ObjectId id) {
  const CachedObject* obj = table_.Find(id);
  if (obj != nullptr) return obj->exists;
  if (backend_ == StorageBackend::kLogStore) {
    IndexCheckpointEntry entry;
    return index_.Lookup(id, &entry);
  }
  return disk_->store().Exists(id);
}

Lsn CacheManager::CurrentVsi(ObjectId id) const {
  const CachedObject* obj = table_.Find(id);
  if (obj != nullptr) return obj->vsi;
  if (backend_ == StorageBackend::kLogStore) {
    IndexCheckpointEntry entry;
    return index_.Lookup(id, &entry) ? entry.lsn : kInvalidLsn;
  }
  return disk_->store().StableVsi(id);
}

Lsn CacheManager::CurrentRsi(ObjectId id) const {
  const CachedObject* obj = table_.Find(id);
  return obj == nullptr ? kInvalidLsn : obj->rsi;
}

Status CacheManager::ApplyResults(const OperationDesc& op, Lsn lsn,
                                  std::vector<ObjectValue> new_values) {
  if (op.op_class != OpClass::kDelete &&
      new_values.size() != op.writes.size()) {
    return Status::InvalidArgument("result values do not match writeset");
  }
  for (size_t i = 0; i < op.writes.size(); ++i) {
    CachedObject& obj = table_.GetOrCreate(op.writes[i]);
    if (op.op_class == OpClass::kDelete) {
      obj.value.clear();
      obj.exists = false;
    } else {
      obj.value = std::move(new_values[i]);
      obj.exists = true;
    }
    obj.vsi = lsn;
    if (obj.rsi == kInvalidLsn) obj.rsi = lsn;
    obj.dirty = true;
    obj.last_access = ++access_clock_;
    obj.last_full_image = IsFullImageOp(op);
    ++obj.writes_since_clean;
    if (auto_hot_threshold_ > 0 &&
        obj.writes_since_clean >= auto_hot_threshold_ &&
        auto_hot_.insert(op.writes[i]).second) {
      hot_.insert(op.writes[i]);
    }
  }
  if (graph_batching_) {
    // rW maintenance (union-find merges, edge insertion, SCC collapse)
    // is amortized across a batch: insertions queue here and drain in
    // LSN order the moment anything reads the graph, so observable state
    // never differs from per-append insertion.
    pending_graph_ops_.push_back(PendingOp::FromDesc(lsn, op));
  } else {
    graph_->AddOperation(PendingOp::FromDesc(lsn, op));
  }
  return Status::OK();
}

void CacheManager::DrainGraphBatch() const {
  if (pending_graph_ops_.empty()) return;
  for (const PendingOp& op : pending_graph_ops_) {
    graph_->AddOperation(op);
  }
  metrics_.graph_batches->Inc();
  metrics_.graph_batched_ops->Inc(pending_graph_ops_.size());
  pending_graph_ops_.clear();
}

ObjectId CacheManager::LargestVarsObject(NodeId v) const {
  const GraphNode* node = graph_->Find(v);
  assert(node != nullptr);
  ObjectId best = kInvalidObjectId;
  size_t best_size = 0;
  for (ObjectId x : node->vars) {
    const CachedObject* obj = table_.Find(x);
    size_t size = obj == nullptr ? 0 : obj->value.size();
    if (best == kInvalidObjectId || size > best_size) {
      best = x;
      best_size = size;
    }
  }
  return best;
}

Status CacheManager::InjectIdentityWrite(ObjectId id) {
  // The injected write must be visible to the caller's next graph read
  // (flush loops re-choose the minimal node after every injection), so
  // it bypasses the batch — after draining, to keep LSN order.
  DrainGraphBatch();
  CachedObject* obj = table_.Find(id);
  if (obj == nullptr) {
    return Status::FailedPrecondition("identity write of uncached object");
  }
  // A deleted-but-uninstalled object is "identity written" by re-logging
  // the delete: the blind re-delete peels it out of the node's vars just
  // like an identity value write would.
  OperationDesc op = obj->exists ? MakeIdentityWrite(id, Slice(obj->value))
                                 : MakeDelete(id);
  Lsn lsn = log_->AppendOperation(op, 0, kInvalidLsn, {});
  ++stats_.identity_writes;
  stats_.identity_bytes_logged += obj->value.size();
  metrics_.identity_writes->Inc();
  metrics_.identity_bytes->Inc(obj->value.size());
  // Update cache version and graph exactly like a normal blind write; the
  // value is unchanged. W_IP records (and re-deletes) are full images.
  obj->vsi = lsn;
  obj->last_access = ++access_clock_;
  obj->last_full_image = true;
  graph_->AddOperation(PendingOp::FromDesc(lsn, op));
  return Status::OK();
}

void CacheManager::MarkHot(ObjectId id, bool hot) {
  if (hot) {
    hot_.insert(id);
  } else {
    hot_.erase(id);
  }
}

Status CacheManager::PurgeOne(bool allow_hot_flush) {
  DrainGraphBatch();
  if (graph_->empty()) return Status::NotFound("nothing to install");
  ++stats_.purges;
  metrics_.purges->Inc();
  // Under kIdentityWrites, peel multi-object flush sets apart first. Each
  // round either installs a minimal node (|vars| <= 1) or injects one
  // identity write; injections can add predecessors or collapse cycles,
  // so the minimal node is re-chosen every round. Progress: every
  // iteration either removes a node or strictly shrinks some vars set.
  for (int guard = 0; guard < 1 << 20; ++guard) {
    // Choose the minimal node with the oldest operation, preferring (when
    // hot objects are protected) nodes whose flush set is not hot-only.
    NodeId v = kNoNode;
    NodeId hot_only_candidate = kNoNode;
    Lsn best = kMaxLsn, best_hot = kMaxLsn;
    for (NodeId id : graph_->MinimalNodes()) {
      const GraphNode* n = graph_->Find(id);
      bool hot_only = !allow_hot_flush && !n->vars.empty();
      if (hot_only) {
        for (ObjectId x : n->vars) {
          if (!hot_.contains(x)) {
            hot_only = false;
            break;
          }
        }
      }
      if (hot_only) {
        if (n->MinOpLsn() < best_hot) {
          best_hot = n->MinOpLsn();
          hot_only_candidate = id;
        }
      } else if (n->MinOpLsn() < best) {
        best = n->MinOpLsn();
        v = id;
      }
    }
    if (v == kNoNode) {
      // Only hot-only nodes remain. Automatic purging defers them: they
      // stay cached and uninstalled until FlushAll, an explicit
      // PurgeOne(true), or Checkpoint (which installs them by logging —
      // Section 4's install-without-flush).
      return Status::NotFound(hot_only_candidate == kNoNode
                                  ? "nothing to install"
                                  : "only hot flush sets remain");
    }
    const GraphNode* node = graph_->Find(v);
    if (backend_ == StorageBackend::kLogStore ||
        flush_policy_ != FlushPolicy::kIdentityWrites ||
        node->vars.size() <= 1) {
      // kLogStore installs any-sized vars set in one shot: publishing
      // index entries is inherently multi-object-atomic, so no peeling.
      return InstallNode(v);
    }
    // Keep the largest object (sparing its value from the log),
    // preferring a non-hot keeper so hot objects stay unflushed.
    ObjectId keep = LargestVarsObject(v);
    if (!allow_hot_flush && hot_.contains(keep)) {
      for (ObjectId x : node->vars) {
        if (!hot_.contains(x)) {
          keep = x;
          break;
        }
      }
    }
    ObjectId peel = kInvalidObjectId;
    for (ObjectId x : node->vars) {
      if (x != keep) {
        peel = x;
        break;
      }
    }
    assert(peel != kInvalidObjectId);
    LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(peel));
  }
  return Status::Aborted("identity-write peeling did not converge");
}

Status CacheManager::InstallNode(NodeId v) {
  const GraphNode* node = graph_->Find(v);
  if (node == nullptr) return Status::NotFound("no such node");
  if (!node->preds.empty()) {
    return Status::FailedPrecondition("node has uninstalled predecessors");
  }
  if (backend_ == StorageBackend::kLogStore) {
    // Installation publishes index entries pointing at each object's
    // latest record — which must therefore be a full image. Objects whose
    // last writer was a delta/logical op get a W_IP identity write first
    // (its record carries the value). Under the refined graph the
    // injection peels the object into a fresh successor node, which
    // publishes it on its own install; under W it stays in this node but
    // now with a servable record. Either way each round strictly shrinks
    // the set of vars lacking a full image, so the loop terminates.
    for (int guard = 0; guard < 1 << 20; ++guard) {
      node = graph_->Find(v);
      if (node == nullptr) {
        // Injections merged the node away; its operations install later.
        return Status::OK();
      }
      ObjectId missing = kInvalidObjectId;
      for (ObjectId x : node->vars) {
        const CachedObject* obj = table_.Find(x);
        if (obj == nullptr) {
          return Status::Corruption("vars object not cached");
        }
        if (!obj->last_full_image) {
          missing = x;
          break;
        }
      }
      if (missing == kInvalidObjectId) break;
      LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(missing));
      // Injection can add edges or collapse cycles; re-check each round.
      graph_->Normalize();
    }
    node = graph_->Find(v);
    if (node == nullptr) return Status::OK();
    if (!node->preds.empty()) {
      // Peeling added fan-in; this node installs on a later purge.
      return Status::OK();
    }
  }
  // WAL: every operation being installed must be stable first — and so
  // must every blind write whose record this installation counts on to
  // regenerate an unexposed (notx) object after a crash.
  LOGLOG_RETURN_IF_ERROR(
      log_->Force(std::max(node->MaxOpLsn(), node->notx_force_lsn)));
  LOGLOG_RETURN_IF_ERROR(
      disk_->fault_injector().MaybeFail(fault::kCmAfterWalForce));

  stats_.flush_set_sizes.Add(node->vars.size());
  stats_.node_writes_sizes.Add(node->vars.size() + node->notx.size());
  metrics_.flush_set_size->Observe(node->vars.size());
  TraceSpan install_span("cm.install_node", "cache");
  install_span.AddArg("vars", static_cast<uint64_t>(node->vars.size()));
  install_span.AddArg("notx", static_cast<uint64_t>(node->notx.size()));

  // Gather the current cached versions of vars(n).
  std::vector<ObjectWrite> writes;
  writes.reserve(node->vars.size());
  for (ObjectId x : node->vars) {
    const CachedObject* obj = table_.Find(x);
    if (obj == nullptr) {
      return Status::Corruption("vars object not cached");
    }
    ObjectWrite w;
    w.id = x;
    w.vsi = obj->vsi;
    if (obj->exists) {
      w.value = Slice(obj->value);
    } else {
      w.erase = true;
    }
    writes.push_back(w);
  }

  // Flush vars(n) under the configured policy. Transient device errors
  // are retried here (the flush path is where the WAL protocol lets us
  // simply re-issue); anything that survives the retry budget propagates.
  // Under kLogStore there is no flush at all: the forced records ARE the
  // stable images, and publishing their index entries (below) is the
  // installation. That is the backend's write-path win — one log force
  // replaces per-object stable-store writes.
  auto flush_atomic = [&](const std::vector<ObjectWrite>& ws) {
    return RetryTransientIo(&disk_->stats().io_retries,
                            [&] { return disk_->store().WriteAtomic(ws); });
  };
  if (backend_ != StorageBackend::kLogStore) {
    switch (flush_policy_) {
      case FlushPolicy::kNativeAtomic:
      case FlushPolicy::kShadow:
        LOGLOG_RETURN_IF_ERROR(flush_atomic(writes));
        break;
      case FlushPolicy::kIdentityWrites:
        // PurgeOne reduced |vars| to at most 1.
        if (writes.size() > 1) {
          return Status::FailedPrecondition(
              "identity-write policy with multi-object flush set");
        }
        LOGLOG_RETURN_IF_ERROR(flush_atomic(writes));
        break;
      case FlushPolicy::kFlushTransaction: {
        if (writes.size() <= 1) {
          LOGLOG_RETURN_IF_ERROR(flush_atomic(writes));
          break;
        }
        // Freeze the set: quiesce, log every value plus a commit record,
        // force, then overwrite in place (each its own device write).
        ++disk_->stats().quiesce_events;
        ++stats_.flush_txns;
        metrics_.flush_txns->Inc();
        LogRecord begin;
        begin.type = RecordType::kFlushTxnBegin;
        for (const ObjectWrite& w : writes) {
          FlushValue fv;
          fv.id = w.id;
          fv.vsi = w.vsi;
          fv.erase = w.erase;
          fv.value = w.value.ToBytes();
          stats_.flush_txn_bytes_logged += fv.value.size();
          ++stats_.flush_txn_values_logged;
          begin.flush_values.push_back(std::move(fv));
        }
        Lsn begin_lsn = log_->Append(begin);
        LogRecord commit;
        commit.type = RecordType::kFlushTxnCommit;
        commit.ref_lsn = begin_lsn;
        Lsn commit_lsn = log_->Append(commit);
        LOGLOG_RETURN_IF_ERROR(log_->Force(commit_lsn));
        LOGLOG_RETURN_IF_ERROR(
            disk_->fault_injector().MaybeFail(fault::kCmAfterFlushTxnCommit));
        bool first = true;
        for (const ObjectWrite& w : writes) {
          LOGLOG_RETURN_IF_ERROR(
              RetryTransientIo(&disk_->stats().io_retries, [&] {
                return w.erase ? disk_->store().Erase(w.id)
                               : disk_->store().Write(w.id, w.value, w.vsi);
              }));
          if (first) {
            LOGLOG_RETURN_IF_ERROR(disk_->fault_injector().MaybeFail(
                fault::kCmAfterFirstFlushTxnWrite));
          }
          first = false;
        }
        break;
      }
    }
  }

  // Remove the node: its operations are installed.
  InstallResult result;
  LOGLOG_RETURN_IF_ERROR(graph_->RemoveNode(v, &result));
  ++stats_.nodes_installed;
  stats_.ops_installed += result.installed_ops.size();
  metrics_.nodes_installed->Inc();
  metrics_.ops_installed->Inc(result.installed_ops.size());
  stats_.installed_without_flush += result.unflushed_objects.size();

  // Advance rSIs for all of Writes(n) = vars ∪ notx (Section 5): an
  // object's rSI becomes the lSI of its first *uninstalled* writer.
  LogRecord install;
  install.type = RecordType::kInstall;
  for (ObjectId x : result.flush_objects) {
    CachedObject* obj = table_.Find(x);
    assert(obj != nullptr);
    Lsn rsi = graph_->FirstUninstalledWriter(x);
    obj->rsi = rsi;
    obj->dirty = (rsi != kInvalidLsn);
    if (backend_ == StorageBackend::kLogStore) {
      // Installation = index publish: the object's forced full-image
      // record becomes its stable version. Deletes retire the entry —
      // an absent id IS nonexistence under kLogStore.
      if (obj->exists) {
        uint64_t off = 0;
        uint64_t sz = 0;
        if (!log_->StableExtentOf(obj->vsi, &off, &sz)) {
          return Status::Corruption("installed image has no stable extent");
        }
        index_.Publish(x, obj->vsi, off, sz);
      } else {
        index_.Erase(x);
      }
    }
    if (!obj->dirty) {
      // Flushed clean: the hotness window restarts (auto-hot cools).
      obj->writes_since_clean = 0;
      if (auto_hot_.erase(x) > 0) hot_.erase(x);
    }
    install.installed_vars.push_back(InstallEntry{x, rsi});
    if (!obj->exists && !obj->dirty) {
      // Installed delete: the object leaves the object table.
      table_.Erase(x);
    }
  }
  for (ObjectId x : result.unflushed_objects) {
    CachedObject* obj = table_.Find(x);
    if (obj == nullptr) continue;
    Lsn rsi = graph_->FirstUninstalledWriter(x);
    // Unexposed objects stay dirty: the cached version was produced by a
    // later (uninstalled) blind write and has not been flushed.
    obj->rsi = rsi;
    obj->dirty = true;
    install.installed_notx.push_back(InstallEntry{x, rsi});
  }
  if (log_installs_) {
    // Lazily logged: not forced. Losing it merely costs extra redos.
    log_->Append(install);
  }
  return Status::OK();
}

Status CacheManager::FlushAll() {
  while (true) {
    Status st = PurgeOne();
    if (st.IsNotFound()) break;
    LOGLOG_RETURN_IF_ERROR(st);
  }
  // With an empty graph every remaining dirty object has no uninstalled
  // writers; flush them individually (covers install-without-flush
  // leftovers defensively).
  std::vector<ObjectId> dirty;
  table_.ForEach([&](ObjectId id, CachedObject& obj) {
    if (obj.dirty) dirty.push_back(id);
  });
  for (ObjectId id : dirty) {
    CachedObject* obj = table_.Find(id);
    if (backend_ == StorageBackend::kLogStore) {
      // No uninstalled writers remain (the graph drained above), so the
      // object publishes directly: its latest record if it is already a
      // full image, else one W_IP re-log.
      if (obj->last_full_image) {
        LOGLOG_RETURN_IF_ERROR(PublishCurrentImage(id, obj));
      } else {
        LOGLOG_RETURN_IF_ERROR(RelogAndPublish(id, obj));
      }
      if (!obj->exists) table_.Erase(id);
      continue;
    }
    LOGLOG_RETURN_IF_ERROR(log_->Force(obj->vsi));
    if (obj->exists) {
      LOGLOG_RETURN_IF_ERROR(
          RetryTransientIo(&disk_->stats().io_retries, [&] {
            return disk_->store().Write(id, Slice(obj->value), obj->vsi);
          }));
      obj->dirty = false;
      obj->rsi = kInvalidLsn;
      obj->writes_since_clean = 0;
      if (auto_hot_.erase(id) > 0) hot_.erase(id);
    } else {
      if (disk_->store().Exists(id)) {
        LOGLOG_RETURN_IF_ERROR(RetryTransientIo(
            &disk_->stats().io_retries, [&] { return disk_->store().Erase(id); }));
      }
      table_.Erase(id);
    }
  }
  return Status::OK();
}

Status CacheManager::PublishCurrentImage(ObjectId id, CachedObject* obj) {
  LOGLOG_RETURN_IF_ERROR(log_->Force(obj->vsi));
  if (obj->exists) {
    uint64_t off = 0;
    uint64_t sz = 0;
    if (!log_->StableExtentOf(obj->vsi, &off, &sz)) {
      return Status::Corruption("stable image has no offset entry");
    }
    index_.Publish(id, obj->vsi, off, sz);
  } else {
    index_.Erase(id);
  }
  obj->dirty = false;
  obj->rsi = kInvalidLsn;
  obj->writes_since_clean = 0;
  if (auto_hot_.erase(id) > 0) hot_.erase(id);
  if (log_installs_) {
    // Evidence for recovery's faithful index rebuild: an install record
    // marks this publish so the rebuilt index can re-apply it. Lazily
    // logged, like node installs — losing it costs extra redo only.
    LogRecord install;
    install.type = RecordType::kInstall;
    install.installed_vars.push_back(InstallEntry{id, kInvalidLsn});
    log_->Append(install);
  }
  return Status::OK();
}

Status CacheManager::RelogAndPublish(ObjectId id, CachedObject* obj) {
  // Only legal for objects with no uninstalled writers: the W_IP goes
  // straight to the log without entering the write graph, because its
  // installation (the publish below) is immediate.
  OperationDesc op = obj->exists ? MakeIdentityWrite(id, Slice(obj->value))
                                 : MakeDelete(id);
  Lsn lsn = log_->AppendOperation(op, 0, kInvalidLsn, {});
  ++stats_.identity_writes;
  stats_.identity_bytes_logged += obj->value.size();
  metrics_.identity_writes->Inc();
  metrics_.identity_bytes->Inc(obj->value.size());
  obj->vsi = lsn;
  obj->last_full_image = true;
  return PublishCurrentImage(id, obj);
}

Status CacheManager::CompactLogStore(size_t batch, uint64_t* images_moved,
                                     uint64_t* bytes_moved) {
  if (images_moved != nullptr) *images_moved = 0;
  if (bytes_moved != nullptr) *bytes_moved = 0;
  if (backend_ != StorageBackend::kLogStore || batch == 0) {
    return Status::OK();
  }
  DrainGraphBatch();
  // Oldest live images first: the minimum-LSN entry is what pins the
  // truncation point, so moving it is what lets the next checkpoint
  // reclaim bytes.
  std::vector<IndexCheckpointEntry> entries = index_.Snapshot();
  std::sort(entries.begin(), entries.end(),
            [](const IndexCheckpointEntry& a, const IndexCheckpointEntry& b) {
              return a.lsn < b.lsn;
            });
  struct Moved {
    ObjectId id;
    Lsn lsn;
    uint64_t old_size;
  };
  std::vector<Moved> moved;
  for (const IndexCheckpointEntry& e : entries) {
    if (moved.size() >= batch) break;
    CachedObject* obj = table_.Find(e.id);
    if (obj == nullptr) {
      CachedObject* faulted = nullptr;
      Status st = FaultInFromLog(e.id, kMaxIoRetries, &faulted);
      if (st.IsNotFound()) continue;  // raced with a delete
      LOGLOG_RETURN_IF_ERROR(st);
      obj = faulted;
    }
    if (obj->dirty || graph_->FirstUninstalledWriter(e.id) != kInvalidLsn) {
      // A pending writer republishes this object at install time anyway;
      // re-logging it now would be wasted log volume.
      continue;
    }
    if (graph_->HasUninstalledReader(e.id)) {
      // rW discipline: a write-after-read must not install before the
      // reader. The W_IP would publish instantly (bypassing the graph),
      // handing the object a version newer than the uninstalled reader —
      // recovery would then void the reader's redo and lose its writes.
      continue;
    }
    if (!obj->exists) {
      index_.Erase(e.id);
      continue;
    }
    Lsn lsn = log_->AppendOperation(MakeIdentityWrite(e.id, Slice(obj->value)),
                                    0, kInvalidLsn, {});
    ++stats_.identity_writes;
    stats_.identity_bytes_logged += obj->value.size();
    metrics_.identity_writes->Inc();
    metrics_.identity_bytes->Inc(obj->value.size());
    obj->vsi = lsn;
    obj->last_full_image = true;
    moved.push_back(Moved{e.id, lsn, e.size});
  }
  if (moved.empty()) return Status::OK();
  // One force covers the whole batch (group-commit for compaction), then
  // every moved image republishes at its forward position.
  LOGLOG_RETURN_IF_ERROR(log_->Force(moved.back().lsn));
  uint64_t old_bytes = 0;
  LogRecord install;
  install.type = RecordType::kInstall;
  for (const Moved& m : moved) {
    uint64_t off = 0;
    uint64_t sz = 0;
    if (!log_->StableExtentOf(m.lsn, &off, &sz)) {
      return Status::Corruption("compacted image has no stable extent");
    }
    index_.Publish(m.id, m.lsn, off, sz);
    install.installed_vars.push_back(InstallEntry{m.id, kInvalidLsn});
    old_bytes += m.old_size;
  }
  if (log_installs_) {
    // One lazy install record marks the whole batch for recovery's index
    // rebuild (see PublishCurrentImage).
    log_->Append(install);
  }
  if (images_moved != nullptr) *images_moved = moved.size();
  if (bytes_moved != nullptr) *bytes_moved = old_bytes;
  return Status::OK();
}

Status CacheManager::InstallHotNodesByLogging() {
  if (flush_policy_ != FlushPolicy::kIdentityWrites) return Status::OK();
  // Install every currently-minimal hot-only node without flushing: peel
  // each of its vars to zero with identity writes (their values go to
  // the log once), then install the empty node. Repeats until no minimal
  // hot-only node remains; each round installs one node, so it
  // terminates.
  // The identity writes injected here create fresh hot-only nodes of
  // their own; they carry this checkpoint's rSIs and must not be chased.
  std::set<Lsn> fresh_identity_ops;
  while (true) {
    NodeId target = kNoNode;
    for (NodeId id : graph_->MinimalNodes()) {
      const GraphNode* n = graph_->Find(id);
      if (n->vars.empty()) continue;
      bool eligible = false;
      for (Lsn lsn : n->ops) {
        if (!fresh_identity_ops.contains(lsn)) {
          eligible = true;
          break;
        }
      }
      if (!eligible) continue;
      bool hot_only = true;
      for (ObjectId x : n->vars) {
        if (!hot_.contains(x)) {
          hot_only = false;
          break;
        }
      }
      if (hot_only) {
        target = id;
        break;
      }
    }
    if (target == kNoNode) return Status::OK();
    while (true) {
      const GraphNode* n = graph_->Find(target);
      if (n == nullptr || n->vars.empty()) break;
      LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(*n->vars.begin()));
      fresh_identity_ops.insert(log_->last_assigned_lsn());
      // Peeling can merge nodes (cycles); re-check the node each round.
      graph_->Normalize();
    }
    // Peeling may have added predecessors (inverse write-read edges from
    // readers of the peeled values). Install only if still minimal; an
    // empty-vars node left behind installs via normal purging once its
    // predecessors go, and the next outer round skips it.
    const GraphNode* after = graph_->Find(target);
    if (after != nullptr && after->preds.empty()) {
      LOGLOG_RETURN_IF_ERROR(InstallNode(target));
    }
  }
}

Status CacheManager::EnforceRecoveryBudget(uint64_t budget_ops,
                                           size_t identity_cap) {
  if (uninstalled_ops() <= budget_ops) return Status::OK();
  DrainGraphBatch();
  TraceSpan span("cm.enforce_budget", "cache");
  span.AddArg("backlog", static_cast<uint64_t>(graph_->op_count()));
  // Flush policies with native multi-object atomicity drain the backlog
  // by ordinary (hot-inclusive) purging; no identity writes involved.
  if (flush_policy_ != FlushPolicy::kIdentityWrites) {
    while (graph_->op_count() > budget_ops) {
      Status st = PurgeOne(true);
      if (st.IsNotFound()) break;
      LOGLOG_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }
  // Proactive W_IP path: install the oldest chains, peeling hot vars
  // with identity writes so they install without a flush (Section 4's
  // install-without-flush, applied on demand instead of at checkpoints).
  // Identity writes injected here form fresh hot-only nodes carrying
  // already-advanced rSIs; chasing them would spin.
  std::set<Lsn> fresh_identity_ops;
  std::set<NodeId> deferred;  // gained preds while peeling; retry next cycle
  size_t identity_used = 0;
  while (graph_->op_count() > budget_ops) {
    // Oldest eligible minimal node = the head of the longest-standing
    // redo chain, exactly what the budget wants installed first.
    NodeId v = kNoNode;
    Lsn best = kMaxLsn;
    for (NodeId id : graph_->MinimalNodes()) {
      if (deferred.contains(id)) continue;
      const GraphNode* n = graph_->Find(id);
      bool eligible = false;
      for (Lsn lsn : n->ops) {
        if (!fresh_identity_ops.contains(lsn)) {
          eligible = true;
          break;
        }
      }
      if (!eligible) continue;
      if (n->MinOpLsn() < best) {
        best = n->MinOpLsn();
        v = id;
      }
    }
    if (v == kNoNode) break;  // nothing installable left this cycle
    // Peel every hot var (so the node installs without flushing them)
    // and, beyond that, down to a single keeper.
    bool out_of_identity_budget = false;
    while (true) {
      const GraphNode* n = graph_->Find(v);
      if (n == nullptr) break;
      ObjectId peel = kInvalidObjectId;
      for (ObjectId x : n->vars) {
        if (hot_.contains(x)) {
          peel = x;
          break;
        }
      }
      if (peel == kInvalidObjectId && n->vars.size() > 1) {
        ObjectId keep = LargestVarsObject(v);
        for (ObjectId x : n->vars) {
          if (x != keep) {
            peel = x;
            break;
          }
        }
      }
      if (peel == kInvalidObjectId) break;  // flushable as-is
      ++stats_.budget_identity_requests;
      metrics_.budget_identity_requests->Inc();
      if (identity_used >= identity_cap) {
        // Backpressure: the per-cycle W_IP allowance is spent. Drop the
        // request and resume on the next maintenance cycle.
        ++stats_.budget_identity_drops;
        metrics_.budget_identity_drops->Inc();
        out_of_identity_budget = true;
        break;
      }
      ++identity_used;
      LOGLOG_RETURN_IF_ERROR(InjectIdentityWrite(peel));
      fresh_identity_ops.insert(log_->last_assigned_lsn());
      // Peeling can merge nodes (cycles); re-check the node each round.
      graph_->Normalize();
    }
    if (out_of_identity_budget) break;
    const GraphNode* after = graph_->Find(v);
    if (after == nullptr) continue;  // merged away; re-scan
    if (!after->preds.empty()) {
      // Peeling added fan-in (readers of the peeled values); leave the
      // node for a later cycle and work on another chain.
      deferred.insert(v);
      continue;
    }
    ++stats_.budget_installs;
    metrics_.budget_installs->Inc();
    LOGLOG_RETURN_IF_ERROR(InstallNode(v));
  }
  span.AddArg("identity_used", static_cast<uint64_t>(identity_used));
  span.AddArg("backlog_after", static_cast<uint64_t>(graph_->op_count()));
  return Status::OK();
}

Status CacheManager::Checkpoint(Lsn truncate_floor, uint64_t txn_watermark) {
  DrainGraphBatch();
  // Advance hot objects' rSIs first: their operations install via
  // logging so the checkpoint can truncate past them without a flush
  // (Section 4: "merely install operations on them via logging, without
  // flushing them immediately").
  LOGLOG_RETURN_IF_ERROR(InstallHotNodesByLogging());
  ++stats_.checkpoints;
  metrics_.checkpoints->Inc();
  TraceSpan span("cm.checkpoint", "cache");
  // Under kLogStore, persist the object index first so recovery's rebuild
  // starts from this snapshot instead of scanning the whole retained log.
  // The record must survive truncation (it is this restart's rebuild
  // base), so its LSN joins the truncation floor below.
  Lsn idx_lsn = kMaxLsn;
  if (backend_ == StorageBackend::kLogStore) {
    LogRecord idx;
    idx.type = RecordType::kIndexCheckpoint;
    idx.index_entries = index_.Snapshot();
    idx_lsn = log_->Append(idx);
    metrics_.logstore_index_ckpts->Inc();
  }
  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  rec.dot = table_.DirtySnapshot();
  rec.txn_id = txn_watermark;
  Lsn min_rsi = kMaxLsn;
  for (const DotEntry& e : rec.dot) {
    if (e.rsi != kInvalidLsn) min_rsi = std::min(min_rsi, e.rsi);
  }
  Lsn ckpt_lsn = log_->Append(rec);
  LOGLOG_RETURN_IF_ERROR(log_->Force(ckpt_lsn));
  FlightRecorder::Global().Record(FlightEventType::kCheckpoint, ckpt_lsn);
  // Everything before min(first rSI, the checkpoint itself) is installed
  // in every explanation of the stable state and can be truncated — but
  // never past an active transaction's begin record (truncate_floor): a
  // rollback, at runtime or of a loser after a crash, must still find
  // the full backchain on the retained log.
  // Under kLogStore the floor deliberately ignores LogIndex::MinLsn: live
  // images below the truncation point fall into the device's cold tier
  // and stay readable there. Compaction, not retention, is what keeps
  // the hot log short.
  log_->TruncateBefore(std::min({min_rsi, ckpt_lsn, truncate_floor, idx_lsn}));
  if (backend_ == StorageBackend::kLogStore && !cold_retention_full_) {
    // Archive GC (opt-in): cold segments wholly below the oldest live
    // image hold only dead or rewritten bytes and can be released. The
    // bound is what compaction advances — without it, one cold object
    // pins the archive forever.
    uint64_t min_live = disk_->log().start_offset();
    for (const IndexCheckpointEntry& e : index_.Snapshot()) {
      min_live = std::min(min_live, e.offset);
    }
    disk_->log().ReclaimColdBelow(min_live);
  }
  return Status::OK();
}

void CacheManager::EvictTo(size_t capacity) {
  while (table_.size() > capacity) {
    ObjectId victim = table_.OldestClean();
    if (victim == kInvalidObjectId) return;  // everything dirty
    table_.Erase(victim);
    ++stats_.evictions;
    metrics_.evictions->Inc();
  }
}

Status CacheManager::CheckInvariants() {
  DrainGraphBatch();
  LOGLOG_RETURN_IF_ERROR(graph_->CheckInvariants());
  Status out = Status::OK();
  table_.ForEach([&](ObjectId id, const CachedObject& obj) {
    if (!out.ok()) return;
    Lsn first = graph_->FirstUninstalledWriter(id);
    if (obj.dirty && obj.rsi == kInvalidLsn) {
      out = Status::Corruption("dirty object without rSI");
    }
    if (first != kInvalidLsn && obj.rsi == kInvalidLsn) {
      out = Status::Corruption("uninstalled writer but clean rSI");
    }
    if (first != kInvalidLsn && obj.rsi > first) {
      out = Status::Corruption("rSI later than first uninstalled writer");
    }
  });
  if (out.ok()) {
    HealthRegistry::Global().Set(health::kCacheManager, HealthState::kOk);
  } else {
    HealthRegistry::Global().Set(health::kCacheManager,
                                 HealthState::kFailing, out.ToString());
  }
  return out;
}

}  // namespace loglog
