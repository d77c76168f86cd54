// End-to-end benchmark of the loglog engine through its public API.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE] [--selfcheck]
//
// One client thread drives one workload in a closed loop (the next
// request starts when the previous one returns) for S seconds of
// measured time. A second copy of the workload, built from the same seed,
// is driven to a fixed point of its checkpoint cycle and crashed before
// the measured phase; between request chunks it goes through timed
// crash -> restart -> first read cycles, so restart_ms is sampled across
// the whole run. At the end the measured copy crashes too, and untimed
// oracles check both recovered states. With --trace 0 the result line
// carries the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run, whose request chunks alternate between traced
// and untraced so the tracing overhead is measured on the same stream.
// --selfcheck is a traced run that also fails on broken trace accounting.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <sys/resource.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using loglog::RecoveryStats;

// Mean requests per chunk, the unit of timing, tracing and bookkeeping.
constexpr size_t kChunkRequests = 256;
constexpr double kWarmupSeconds = 0.25;
// Restart cycles take this share of the measured time, interleaved with
// the request chunks in batches of about kRestartBatchSeconds, so their
// median rides out the host's slow swings in speed instead of sampling one
// moment of them; at least kMinRestarts.
constexpr double kRestartShare = 0.15;
constexpr double kRestartBatchSeconds = 0.2;
constexpr size_t kMinRestarts = 11;
// Spans of the measured phase kept for the span dump (about 40 B each in
// memory); later chunks still count in every total. Restart spans are
// always kept.
constexpr size_t kKeptSpans = 300'000;
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfcheck = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selfcheck") {
      a->selfcheck = true;
    } else if (arg == "--workload" && has_value) {
      a->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      a->trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (a->selfcheck) a->trace = true;
  return have_workload && a->seconds > 0 && a->seconds <= 120;
}

#if defined(__GNUC__) && !defined(__clang__)
constexpr const char* kCompiler = "g++ " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned int regs[12];
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
double PercentileUs(std::vector<uint64_t>* ns, double q) {
  if (ns->empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(ns->size())));
  const size_t idx = std::clamp<size_t>(rank, 1, ns->size()) - 1;
  std::nth_element(ns->begin(), ns->begin() + static_cast<ptrdiff_t>(idx),
                   ns->end());
  return static_cast<double>((*ns)[idx]) / 1000.0;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The process-wide registry's part of Sample(). Every engine in the
/// process reports there, the crashed copy's restarts included, so
/// Measure subtracts what the restart cycles add.
Counters GlobalCounters() {
  Counters c;
  const loglog::MetricsSnapshot snap =
      loglog::MetricsRegistry::Global().Snapshot();
  for (std::string_view name : {loglog::metric::kLogstoreIndexPublishes,
                                loglog::metric::kLogstoreCompactionRuns,
                                loglog::metric::kLogstoreCompactionBytesMoved}) {
    auto it = snap.counters.find(std::string(name));
    c[std::string(name)] =
        it == snap.counters.end() ? 0 : static_cast<double>(it->second);
  }
  double samples = 0;
  for (const auto& [name, h] : snap.histograms) {
    samples += static_cast<double>(h.count());
  }
  c["obs.histogram_samples"] = samples;
  return c;
}

Counters Sample(Workload& w) {
  Counters c;
  const loglog::IoStats& io = w.disk().stats();
  c["io.log_bytes"] = static_cast<double>(io.log_bytes);
  c["io.log_forces"] = static_cast<double>(io.log_forces);
  c["io.object_writes"] = static_cast<double>(io.object_writes);
  c["io.object_bytes_written"] = static_cast<double>(io.object_bytes_written);
  const loglog::EngineStats& es = w.engine().stats();
  c["engine.op_log_bytes"] = static_cast<double>(es.op_log_bytes);
  const loglog::CacheStats& cs = w.engine().cache().stats();
  c["cache.nodes_installed"] = static_cast<double>(cs.nodes_installed);
  c["cache.ops_installed"] = static_cast<double>(cs.ops_installed);
  c["cache.identity_writes"] = static_cast<double>(cs.identity_writes);
  c["cache.evictions"] = static_cast<double>(cs.evictions);
  c["log.reclaimed_bytes"] =
      static_cast<double>(w.disk().log().reclaimed_bytes());
  for (const auto& [name, v] : GlobalCounters()) c[name] = v;
  w.AddCounters(&c);
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

/// One reported metric; an absent one carries the reason instead.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string absent;
};

std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\":";
  s += correct ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(attempted);
  s += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ",";
    s += "\"" + metrics[i].name + "\":{\"value\":" +
         FormatValue(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
         "\"}";
  }
  return s + "}}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  std::printf("  %-36s %14s  %-12s %s\n", "metric", "value", "unit",
              "samples / note");
  for (const Metric& m : metrics) {
    if (!m.absent.empty()) {
      std::printf("  %-36s %14s  %-12s absent: %s\n", m.name.c_str(), "-",
                  m.unit.c_str(), m.absent.c_str());
    } else if (m.samples > 0) {
      std::printf("  %-36s %14.4f  %-12s %llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-36s %14.4f  %-12s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// Everything one run measured.
struct RunResult {
  std::vector<double> setup_s;
  Latencies lat;
  double untraced_s = 0;
  uint64_t untraced_requests = 0;
  double traced_s = 0;
  uint64_t traced_requests = 0;
  Counters delta;
  Probes probes;
  std::map<std::string, SpanTotals> measured_spans;
  std::map<std::string, SpanTotals> restart_spans;
  std::vector<double> space_amp;
  std::vector<double> restart_ms;
  double restart_s = 0;
  /// What the restart cycles added to GlobalCounters().
  Counters restart_global;
  std::vector<std::pair<const char*, double>> rss_mb;
  RecoveryStats recovery;
  /// Requests of the untimed chunks that re-warm caches after a restart
  /// batch: they count in per-write and per-request ratios, not in
  /// latencies or ops_per_s.
  Latencies rewarm;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double writes() const {
    return static_cast<double>(lat.write_ns.size() + rewarm.write_ns.size());
  }
  double requests() const {
    return static_cast<double>(lat.requests() + rewarm.requests());
  }
};

/// One crash->restart->first-read cycle on the crashed copy; it crashes
/// again straight after its first read unless `last`.
Status RestartCycle(Workload* crashed, Tracer* tracer, bool trace, bool last,
                    RunResult* r) {
  RecoveryStats stats;
  double ms = 0;
  const Counters before = GlobalCounters();
  const uint64_t log_end = crashed->disk().log().end_offset();
  const uint64_t store_writes = crashed->disk().stats().TotalWrites();
  if (trace) tracer->Enable();
  Status st = crashed->Restart(&stats, &ms);
  if (trace) {
    tracer->Disable();
    tracer->Collect(&r->restart_spans, /*keep=*/true);
  }
  for (const auto& [name, v] : Delta(GlobalCounters(), before)) {
    r->restart_global[name] += v;
  }
  LOGLOG_RETURN_IF_ERROR(st);
  // Every cycle must redo the same work: recovery may not change the
  // crashed disk.
  if (crashed->disk().log().end_offset() != log_end ||
      crashed->disk().stats().TotalWrites() != store_writes) {
    return Status::Corruption("a restart cycle changed the crashed disk");
  }
  r->restart_ms.push_back(ms);
  r->restart_s += ms / 1000;
  r->recovery = stats;
  if (!last) crashed->Crash();
  return Status::OK();
}

/// Runs the generated requests, recording into `lat` (latencies) and
/// `probes` (traced chunks), and counts them as attempted.
Status RunCounted(Workload* w, Latencies* lat, Probes* probes, RunResult* r) {
  const size_t before = lat->requests();
  Status st = w->Run(lat, probes);
  r->attempted += lat->requests() - before;
  if (!st.ok()) {
    r->attempted += 1;
    r->failed += 1;
  }
  return st;
}

/// Runs requests for `seconds` of measured time. In a traced run every
/// other chunk is traced. Between chunks the crashed copy restarts, in a
/// batch whenever restarts have fallen kRestartBatchSeconds behind
/// kRestartShare of the measured time, so the restart samples spread over
/// the whole run. An untimed chunk after each batch re-warms the caches
/// the restarts evicted, which would otherwise land in the latency tails.
Status Measure(Workload* w, Workload* crashed, Tracer* tracer, double seconds,
               bool trace, uint64_t seed, RunResult* r) {
  // Chunk lengths vary at random so the space_amp samples taken between
  // chunks land at every phase of the checkpoint cycle instead of
  // aliasing with it.
  loglog::Random chunk_rng(loglog::Mix64(seed ^ 0x63686b));
  for (size_t chunk = 0; r->untraced_s + r->traced_s < seconds; ++chunk) {
    w->Generate(kChunkRequests / 2 + chunk_rng.Uniform(kChunkRequests));
    const bool traced = trace && chunk % 2 == 1;
    const size_t before = r->lat.requests();
    if (traced) tracer->Enable();
    const uint64_t t0 = NowNs();
    Status st = RunCounted(w, &r->lat, &r->probes, r);
    const uint64_t t1 = NowNs();
    if (traced) {
      tracer->Disable();
      tracer->Collect(&r->measured_spans, tracer->spans().size() < kKeptSpans);
    }
    LOGLOG_RETURN_IF_ERROR(st);
    const double s = static_cast<double>(t1 - t0) / 1e9;
    (traced ? r->traced_s : r->untraced_s) += s;
    (traced ? r->traced_requests : r->untraced_requests) +=
        r->lat.requests() - before;
    LOGLOG_RETURN_IF_ERROR(w->Check());
    r->space_amp.push_back(w->SpaceAmp());
    const double due = kRestartShare * (r->untraced_s + r->traced_s);
    if (due - r->restart_s >= kRestartBatchSeconds) {
      while (r->restart_s < due) {
        LOGLOG_RETURN_IF_ERROR(
            RestartCycle(crashed, tracer, trace, /*last=*/false, r));
      }
      w->Generate(kChunkRequests);
      LOGLOG_RETURN_IF_ERROR(RunCounted(w, &r->rewarm, nullptr, r));
      LOGLOG_RETURN_IF_ERROR(w->Check());
    }
  }
  return Status::OK();
}

Status RunWorkload(const Args& args, Workload* w, Workload* crashed,
                   Tracer* tracer, RunResult* r) {
  // Set-up, repeated; the last data set is the one measured.
  double total = 0;
  while (r->setup_s.size() < kMinSetups ||
         (r->setup_s.size() < kMaxSetups && total < kSetupBudgetSeconds)) {
    double s = 0;
    LOGLOG_RETURN_IF_ERROR(w->Setup(&s));
    r->setup_s.push_back(s);
    total += s;
  }
  r->rss_mb.emplace_back("setup", PeakRssMb());
  // The crashed copy: the same data set, driven to the crash point of its
  // checkpoint cycle and crashed, ready for the restart cycles.
  double ignored = 0;
  LOGLOG_RETURN_IF_ERROR(crashed->Setup(&ignored));
  LOGLOG_RETURN_IF_ERROR(crashed->DriveToCrashPoint());
  crashed->Crash();
  // Warm-up: same stream, nothing recorded.
  for (const uint64_t t0 = NowNs();
       static_cast<double>(NowNs() - t0) / 1e9 < kWarmupSeconds;) {
    w->Generate(kChunkRequests);
    LOGLOG_RETURN_IF_ERROR(w->Run(nullptr, nullptr));
    LOGLOG_RETURN_IF_ERROR(w->Check());
  }

  const Counters before = Sample(*w);
  LOGLOG_RETURN_IF_ERROR(
      Measure(w, crashed, tracer, args.seconds, args.trace, args.seed, r));
  r->delta = Delta(Sample(*w), before);
  for (const auto& [name, v] : r->restart_global) r->delta[name] -= v;
  r->rss_mb.emplace_back("measured phase", PeakRssMb());
  while (r->restart_ms.size() + 1 < kMinRestarts) {
    LOGLOG_RETURN_IF_ERROR(
        RestartCycle(crashed, tracer, args.trace, /*last=*/false, r));
  }
  LOGLOG_RETURN_IF_ERROR(
      RestartCycle(crashed, tracer, args.trace, /*last=*/true, r));
  LOGLOG_RETURN_IF_ERROR(crashed->Verify());

  // The measured run ends in a crash too: its whole history must survive.
  LOGLOG_RETURN_IF_ERROR(w->DriveToCrashPoint());
  w->Crash();
  RecoveryStats stats;
  double ms = 0;
  LOGLOG_RETURN_IF_ERROR(w->Restart(&stats, &ms));
  LOGLOG_RETURN_IF_ERROR(w->Verify());
  r->rss_mb.emplace_back("restarts and oracles", PeakRssMb());
  return Status::OK();
}

std::vector<Metric> EndToEnd(RunResult* r) {
  const double writes = r->writes();
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(r->setup_s), "s", r->setup_s.size(), ""});
  m.push_back({"ops_per_s",
               Ratio(static_cast<double>(r->untraced_requests), r->untraced_s),
               "1/s", r->untraced_requests, ""});
  const uint64_t nw = r->lat.write_ns.size();
  const uint64_t nr = r->lat.read_ns.size();
  m.push_back({"write_p50_us", PercentileUs(&r->lat.write_ns, 0.50), "us", nw, ""});
  m.push_back({"write_p99_us", PercentileUs(&r->lat.write_ns, 0.99), "us", nw, ""});
  m.push_back({"read_p50_us", PercentileUs(&r->lat.read_ns, 0.50), "us", nr, ""});
  m.push_back({"read_p99_us", PercentileUs(&r->lat.read_ns, 0.99), "us", nr, ""});
  m.push_back({"restart_ms", Median(r->restart_ms), "ms", r->restart_ms.size(), ""});
  m.push_back({"log_bytes_per_write", Ratio(r->delta["io.log_bytes"], writes),
               "B/write", nw, ""});
  m.push_back({"space_amp", Median(r->space_amp), "ratio",
               r->space_amp.size(), ""});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB", 0, ""});
  return m;
}

std::vector<Metric> PerLayer(const std::string& workload, RunResult* r) {
  const bool txn = workload == "txn_commit";
  const bool btree = workload == "btree_kv";
  const double writes = r->writes();
  const double requests = r->requests();
  Counters& d = r->delta;
  const Probes& p = r->probes;
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 uint64_t samples = 0, const std::string& absent = "") {
    m.push_back({name, absent.empty() ? v : 0, unit, samples, absent});
  };
  // Mean (or mean self) time of the measured phase's spans of one name.
  auto span = [&](const std::string& metric, const std::string& span_name,
                  bool self, const std::string& why_absent) {
    auto it = r->measured_spans.find(span_name);
    if (it == r->measured_spans.end() || it->second.count == 0) {
      add(metric, 0, "us", 0, why_absent);
      return;
    }
    const SpanTotals& t = it->second;
    add(metric, (self ? t.self_ns : t.total_ns) / t.count / 1000.0, "us",
        t.count);
  };
  // Mean per restart of a recovery span, in milliseconds.
  auto phase = [&](const std::string& metric, const std::string& span_name) {
    auto it = r->restart_spans.find(span_name);
    const double total = it == r->restart_spans.end() ? 0 : it->second.total_ns;
    const size_t cycles = r->restart_ms.size();
    add(metric, Ratio(total, static_cast<double>(cycles)) / 1e6, "ms", cycles);
  };

  const std::string exec_absent =
      txn ? "Execute runs inside TxnManager::Execute here (see txn.execute_us)"
      : btree ? "Execute runs inside Btree::Insert here (see write_p50_us)"
              : "";
  span("engine.execute_us", "engine.execute", false, exec_absent);
  span("engine.execute_self_us", "engine.execute", true, exec_absent);
  span("engine.read_us", "engine.read", false,
       "reads go through Btree::Get here (see read_p50_us)");
  const std::string no_txn = "no transactions on this workload";
  span("txn.begin_us", "txn.begin", false, no_txn);
  span("txn.execute_us", "txn.execute", false, no_txn);
  span("txn.commit_us", "txn.commit", false, no_txn);
  span("txn.rollback_us", "txn.rollback", false, no_txn);
  add("txn.conflict_aborts", d["txn.conflict_aborts"], "count", 0,
      txn ? "" : no_txn);

  add("wal.forces_per_write", Ratio(d["io.log_forces"], writes), "1/write");
  span("wal.force_us", "wal.force", false, "no log force in a traced chunk");
  add("wal.op_bytes_per_write", Ratio(d["engine.op_log_bytes"], writes),
      "B/write");
  add("wal.other_bytes_per_write",
      Ratio(d["io.log_bytes"] - d["engine.op_log_bytes"], writes), "B/write");

  add("cache.install_nodes_per_write",
      Ratio(d["cache.nodes_installed"], writes), "1/write");
  add("cache.ops_per_install",
      Ratio(d["cache.ops_installed"], d["cache.nodes_installed"]), "ops",
      static_cast<uint64_t>(d["cache.nodes_installed"]),
      d["cache.nodes_installed"] > 0 ? "" : "no install in the measured phase");
  span("cache.install_us", "cm.install_node", false,
       "no install in a traced chunk");
  span("cache.checkpoint_us", "cm.checkpoint", false,
       "no checkpoint in a traced chunk");
  add("cache.identity_writes_per_write",
      Ratio(d["cache.identity_writes"], writes), "1/write");
  add("cache.evictions_per_op", Ratio(d["cache.evictions"], requests), "1/op");
  add("cache.miss_ratio",
      Ratio(static_cast<double>(p.missed_reads), static_cast<double>(p.reads)),
      "ratio", p.reads);

  add("graph.backlog_ops_mean",
      Ratio(static_cast<double>(p.backlog_sum),
            static_cast<double>(p.backlog_samples)),
      "ops", p.backlog_samples);
  add("graph.backlog_ops_max", static_cast<double>(p.backlog_max), "ops",
      p.backlog_samples);

  add("storage.object_writes_per_write", Ratio(d["io.object_writes"], writes),
      "1/write");
  add("storage.object_bytes_per_write",
      Ratio(d["io.object_bytes_written"], writes), "B/write");
  const double reads = static_cast<double>(p.reads);
  add("storage.object_reads_per_read",
      Ratio(static_cast<double>(p.store_reads), reads), "1/read", p.reads);

  add("logstore.log_reads_per_read",
      Ratio(static_cast<double>(p.log_reads), reads), "1/read", p.reads);
  add("logstore.cold_reads_per_read",
      Ratio(static_cast<double>(p.cold_reads), reads), "1/read", p.reads);
  add("logstore.index_publishes_per_write",
      Ratio(d["logstore.index.publishes"], writes), "1/write");
  add("logstore.compaction_runs", d["logstore.compaction.runs"], "count");
  add("logstore.compaction_bytes_per_write",
      Ratio(d["logstore.compaction.bytes_moved"], writes), "B/write");
  add("logstore.reclaimed_bytes_per_write",
      Ratio(d["log.reclaimed_bytes"], writes), "B/write");

  phase("recovery.log_scan_ms", "recovery.log_scan");
  phase("recovery.analysis_ms", "recovery.analysis");
  phase("recovery.redo_ms", "recovery.redo");
  phase("recovery.loser_undo_ms", "recovery.loser_undo");
  phase("recovery.media_scrub_ms", "recovery.media_scrub");
  {
    auto it = r->restart_spans.find("first_read");
    const SpanTotals t = it == r->restart_spans.end() ? SpanTotals{} : it->second;
    add("recovery.first_read_us", Ratio(t.total_ns, t.count) / 1000.0, "us",
        t.count);
  }
  const RecoveryStats& rs = r->recovery;
  add("recovery.records_scanned", static_cast<double>(rs.records_scanned),
      "count");
  add("recovery.ops_redone", static_cast<double>(rs.ops_redone), "count");
  add("recovery.redo_ratio",
      Ratio(static_cast<double>(rs.ops_redone),
            static_cast<double>(rs.ops_considered)),
      "ratio", rs.ops_considered);
  add("recovery.expensive_redos", static_cast<double>(rs.expensive_redos),
      "count");

  add("btree.splits_per_insert", Ratio(d["btree.splits"], d["btree.inserts"]),
      "1/insert", static_cast<uint64_t>(d["btree.inserts"]),
      btree ? "" : "no B-tree on this workload");

  add("obs.histogram_samples_per_write",
      Ratio(d["obs.histogram_samples"], writes), "1/write");
  const double untraced = Ratio(static_cast<double>(r->untraced_requests),
                                r->untraced_s);
  const double traced =
      Ratio(static_cast<double>(r->traced_requests), r->traced_s);
  add("obs.trace_overhead_pct", (Ratio(untraced, traced) - 1) * 100, "%");
  return m;
}

void PrintContext(const Args& args, Workload* w) {
  std::printf(
      "context: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"host_cpus\":%ld,\"cpu_model\":\"%s\","
      "\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"client\":\"1 thread, closed loop\","
      "\"device_latency_model\":\"off (store and log latency 0 us)\","
      "\"chunk_requests_mean\":%zu%s}\n",
      w->name(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      PERFBENCH_BUILD_TYPE, kCompiler, kChunkRequests,
      w->Describe().c_str());
}

void PrintSpanTable(const Tracer& tracer, const RunResult& r) {
  std::printf("\nspans (traced chunks and restarts; self = minus children)\n");
  std::printf("  %-22s %10s %12s %12s\n", "span", "count", "mean_us",
              "self_us");
  auto print = [](const std::map<std::string, SpanTotals>& totals) {
    for (const auto& [name, t] : totals) {
      if (t.count == 0) continue;
      std::printf("  %-22s %10llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  t.total_ns / t.count / 1000.0, t.self_ns / t.count / 1000.0);
    }
  };
  print(r.measured_spans);
  std::printf("  -- restarts --\n");
  print(r.restart_spans);
  std::printf("  spans kept: %zu (%llu more counted, not kept), "
              "containment/self-time violations: %llu%s%s\n",
              tracer.spans().size(),
              static_cast<unsigned long long>(tracer.dropped()),
              static_cast<unsigned long long>(tracer.violations()),
              tracer.violations() ? ", first: " : "",
              tracer.first_violation().c_str());
}

void PrintRecoverySplit(const RunResult& r) {
  const double cycles = static_cast<double>(r.restart_ms.size());
  double restart = 0;
  for (double ms : r.restart_ms) restart += ms;
  restart = Ratio(restart, cycles);
  std::printf("\nrecovery phase split (mean per restart, traced)\n");
  double covered = 0;
  for (const char* phase : {"recovery.log_scan", "recovery.analysis",
                            "recovery.media_scrub", "recovery.redo",
                            "recovery.loser_undo"}) {
    auto it = r.restart_spans.find(phase);
    const double ms =
        it == r.restart_spans.end() ? 0 : it->second.total_ns / cycles / 1e6;
    covered += ms;
    std::printf("  %-22s %10.4f ms  %5.1f%%\n", phase, ms,
                Ratio(ms, restart) * 100);
  }
  std::printf("  %-22s %10.4f ms  %5.1f%%  (engine build, first read, rest)\n",
              "other", restart - covered, Ratio(restart - covered, restart) * 100);
  std::printf("  %-22s %10.4f ms\n", "restart (mean)", restart);
}

int Main(int argc, char** argv) {
#if defined(__GLIBC__)
  // The crashed copy's restart cycles build and free whole engines between
  // request chunks. By default glibc hands that memory back to the kernel
  // and the measured requests then fault it back in, which lands in their
  // latency tails; keeping freed memory in the heap leaves each request
  // paying for its own work only.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload {txn_commit|logical_mix|"
                 "btree_kv} --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--selfcheck]\n");
    return 2;
  }
  Tracer tracer;
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed, &tracer);
  std::unique_ptr<Workload> crashed =
      MakeWorkload(args.workload, args.seed, &tracer);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  PrintContext(args, w.get());

  RunResult r;
  // Reserved up front so the samples grow resident memory steadily rather
  // than in doubling steps that would make peak_rss_mb jump between runs.
  const size_t reserve = static_cast<size_t>(args.seconds * 200'000);
  r.lat.write_ns.reserve(reserve);
  r.lat.read_ns.reserve(reserve);
  Status st = RunWorkload(args, w.get(), crashed.get(), &tracer, &r);
  bool correct = st.ok();
  if (!st.ok()) {
    std::printf("\nFAILED: %s\n", st.ToString().c_str());
  }

  std::vector<Metric> e2e = EndToEnd(&r);
  std::vector<Metric> layers = PerLayer(args.workload, &r);
  PrintTable(args.trace ? "end-to-end (traced run; reference only)"
                        : "end-to-end",
             e2e);
  std::printf("  %-36s %14.6f  %-12s %llu attempted, %llu failed\n",
              "error_rate",
              Ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              "ratio", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  if (!r.restart_ms.empty()) {
    std::printf("  restart cycles: %zu, min %.3f ms, max %.3f ms\n",
                r.restart_ms.size(),
                *std::min_element(r.restart_ms.begin(), r.restart_ms.end()),
                *std::max_element(r.restart_ms.begin(), r.restart_ms.end()));
  }
  std::printf("  peak RSS by phase:");
  for (const auto& [phase, mb] : r.rss_mb) std::printf(" %s %.1f MB;", phase, mb);
  std::printf("\n");
  if (args.trace) {
    PrintTable("per-layer (traced run)", layers);
    std::printf("\ntracing overhead: untraced %.1f req/s over %.3f s, traced "
                "%.1f req/s over %.3f s\n",
                Ratio(static_cast<double>(r.untraced_requests), r.untraced_s),
                r.untraced_s,
                Ratio(static_cast<double>(r.traced_requests), r.traced_s),
                r.traced_s);
    PrintRecoverySplit(r);
    PrintSpanTable(tracer, r);
    if (!args.trace_out.empty()) {
      Status ws = tracer.WriteTsv(args.trace_out);
      std::printf("spans written to %s: %s\n", args.trace_out.c_str(),
                  ws.ToString().c_str());
    }
  }
  if (args.selfcheck) {
    if (tracer.violations() > 0) {
      std::printf("SELFCHECK: trace accounting broken: %s\n",
                  tracer.first_violation().c_str());
      correct = false;
    }
    for (const Metric& m : layers) {
      if (!m.absent.empty()) continue;
      if (!std::isfinite(m.value)) {
        std::printf("SELFCHECK: %s is not a number\n", m.name.c_str());
        correct = false;
      }
    }
  }
  std::printf("%s\n", ResultLine(correct, std::max<uint64_t>(r.attempted, 1),
                                 r.failed, args.trace ? layers : e2e)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
