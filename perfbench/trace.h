#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The program's own spans (TraceRecorder) tick in whole microseconds, so
/// a program span is placed inside a benchmark span only to within this
/// much; containment and self-time checks allow it.
inline constexpr uint64_t kProgramClockSlackNs = 2000;

/// One span on the steady clock, in nanoseconds.
struct Span {
  uint64_t request = 0;  // shared by every span of one request
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;   // index into spans(); -1 for a request root
  uint16_t name = 0;
  bool program = false;  // recorded by the program, not by the benchmark
};

/// Per-name aggregate over every collected span.
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// \brief The benchmark's span recorder.
///
/// The benchmark records a root span per request and a child span around
/// every public call it makes (`CallSpan`). While enabled it also turns on
/// the program's TraceRecorder::Global(), whose spans (wal.force,
/// cm.install_node, cm.checkpoint, recovery.*) Collect() pulls in, maps
/// onto the steady clock, and nests under the benchmark call they ran in.
/// Spans stay in memory until WriteTsv at the end of the run.
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint16_t Intern(const std::string& name);

  bool enabled() const { return enabled_; }
  void Enable();
  void Disable();

  /// Opens a request root; returns its index for EndRequest.
  int64_t BeginRequest(uint16_t name);
  void EndRequest(int64_t root, uint64_t start_ns, uint64_t end_ns);
  /// A benchmark call span inside the open request.
  void AddCall(uint16_t name, uint64_t start_ns, uint64_t end_ns);

  /// Pulls the program's spans recorded since the last call, nests the
  /// batch, checks containment and self time, and folds it into `totals`
  /// by span name. The batch's spans are kept for WriteTsv when `keep`.
  void Collect(std::map<std::string, SpanTotals>* totals, bool keep);

  const std::vector<Span>& spans() const { return spans_; }
  /// Spans counted in totals but not kept for WriteTsv.
  uint64_t dropped() const { return dropped_; }
  /// Containment or negative-self-time violations seen so far.
  uint64_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_violation_; }

  /// One line per span: request, name, parent, start (ns from the first
  /// span), duration (ns), source.
  loglog::Status WriteTsv(const std::string& path) const;

 private:
  void Violation(const std::string& what);

  bool enabled_ = false;
  uint64_t next_request_ = 0;
  int64_t open_root_ = -1;
  size_t batch_begin_ = 0;
  /// steady-clock ns at the program recorder's epoch.
  uint64_t program_epoch_ns_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint16_t> ids_;
  std::vector<Span> spans_;
  uint64_t violations_ = 0;
  uint64_t dropped_ = 0;
  std::string first_violation_;
};

/// Times one public call as a child of the open request, when enabled.
class CallSpan {
 public:
  CallSpan(Tracer* tracer, uint16_t name)
      : tracer_(tracer),
        name_(name),
        start_ns_(tracer->enabled() ? NowNs() : 0) {}
  ~CallSpan() {
    if (tracer_->enabled()) tracer_->AddCall(name_, start_ns_, NowNs());
  }

  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  Tracer* tracer_;
  uint16_t name_;
  uint64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
