#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "obs/trace.h"

namespace perfbench {

Tracer::Tracer() {
  // Find the program recorder's epoch on the steady clock: spin until its
  // microsecond counter ticks, which pins the epoch to within one loop
  // iteration.
  loglog::TraceRecorder& rec = loglog::TraceRecorder::Global();
  const uint64_t first_us = rec.NowUs();
  for (;;) {
    const uint64_t ns = NowNs();
    const uint64_t us = rec.NowUs();
    if (us != first_us) {
      program_epoch_ns_ = ns - us * 1000;
      break;
    }
  }
}

uint16_t Tracer::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint16_t id = static_cast<uint16_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

void Tracer::Enable() {
  enabled_ = true;
  loglog::TraceRecorder::Global().Enable();
}

void Tracer::Disable() {
  enabled_ = false;
  loglog::TraceRecorder::Global().Disable();
}

int64_t Tracer::BeginRequest(uint16_t name) {
  Span root;
  root.request = ++next_request_;
  root.name = name;
  spans_.push_back(root);
  open_root_ = static_cast<int64_t>(spans_.size()) - 1;
  return open_root_;
}

void Tracer::EndRequest(int64_t root, uint64_t start_ns, uint64_t end_ns) {
  spans_[root].start_ns = start_ns;
  spans_[root].end_ns = end_ns;
  open_root_ = -1;
}

void Tracer::AddCall(uint16_t name, uint64_t start_ns, uint64_t end_ns) {
  Span s;
  s.request = open_root_ >= 0 ? spans_[open_root_].request : 0;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_root_;
  s.name = name;
  if (open_root_ < 0) Violation("call span outside any request");
  spans_.push_back(s);
}

void Tracer::Violation(const std::string& what) {
  if (violations_++ == 0) first_violation_ = what;
}

void Tracer::Collect(std::map<std::string, SpanTotals>* totals,
                     bool keep) {
  loglog::TraceRecorder& rec = loglog::TraceRecorder::Global();
  std::vector<loglog::TraceEvent> events = rec.Events();
  rec.Clear();

  // Benchmark call spans of this batch: one client thread makes them one
  // after another, so recording order is start order.
  std::vector<size_t> calls;
  for (size_t i = batch_begin_; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) calls.push_back(i);
  }

  // Program spans nest among themselves exactly on their own microsecond
  // clock. Visit them parents-first: by start, then longest first, then
  // latest recorded first (a parent is recorded after its children).
  std::vector<size_t> order;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == loglog::TraceEvent::Phase::kComplete) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const loglog::TraceEvent& x = events[a];
    const loglog::TraceEvent& y = events[b];
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
    return a > b;
  });
  std::vector<std::pair<int64_t, uint64_t>> stack;  // (span index, end_us)
  for (size_t idx : order) {
    const loglog::TraceEvent& e = events[idx];
    const uint64_t end_us = e.ts_us + e.dur_us;
    while (!stack.empty() && stack.back().second < end_us) stack.pop_back();
    Span s;
    s.start_ns = program_epoch_ns_ + e.ts_us * 1000;
    s.end_ns = program_epoch_ns_ + end_us * 1000;
    s.name = Intern(e.name);
    s.program = true;
    if (!stack.empty()) {
      s.parent = stack.back().first;
      s.request = spans_[s.parent].request;
    } else {
      // Top level: the benchmark call it ran in. That is the last call
      // begun by start_ns, or else the next one, when the call began
      // within the program clock tick the span started in.
      auto it = std::upper_bound(
          calls.begin(), calls.end(), s.start_ns,
          [&](uint64_t t, size_t c) { return t < spans_[c].start_ns; });
      for (auto c = it == calls.begin() ? it : std::prev(it);
           c != calls.end() && c <= it; ++c) {
        const Span& call = spans_[*c];
        if (call.start_ns <= s.start_ns + kProgramClockSlackNs &&
            s.end_ns <= call.end_ns + kProgramClockSlackNs) {
          s.parent = static_cast<int64_t>(*c);
          s.request = call.request;
          break;
        }
      }
      if (s.parent < 0) {
        Violation("program span " + e.name + " outside every call span");
      }
    }
    spans_.push_back(s);
    stack.emplace_back(static_cast<int64_t>(spans_.size()) - 1, end_us);
  }

  // Containment and self time over the batch.
  const size_t n = spans_.size() - batch_begin_;
  std::vector<uint64_t> covered(n, 0);
  std::vector<uint32_t> program_children(n, 0);
  for (size_t i = batch_begin_; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) Violation(names_[s.name] + " ends before it starts");
    if (s.parent < 0) continue;
    const Span& p = spans_[s.parent];
    const uint64_t slack =
        s.program && !p.program ? kProgramClockSlackNs : 0;
    if (s.start_ns + slack < p.start_ns || s.end_ns > p.end_ns + slack) {
      Violation(names_[s.name] + " lies outside its parent " +
                names_[p.name]);
    }
    if (static_cast<size_t>(s.parent) >= batch_begin_) {
      covered[s.parent - batch_begin_] += s.end_ns - s.start_ns;
      if (s.program) ++program_children[s.parent - batch_begin_];
    }
  }
  for (size_t i = batch_begin_; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double self = dur - static_cast<double>(covered[i - batch_begin_]);
    const double slack = static_cast<double>(
        kProgramClockSlackNs * program_children[i - batch_begin_]);
    if (self < -slack) {
      Violation(names_[s.name] + " has negative self time");
    }
    SpanTotals& t = (*totals)[names_[s.name]];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += self;
  }
  if (!keep) {
    dropped_ += spans_.size() - batch_begin_;
    spans_.resize(batch_begin_);
  }
  batch_begin_ = spans_.size();
}

loglog::Status Tracer::WriteTsv(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                         &std::fclose);
  if (f == nullptr) return loglog::Status::IoError("cannot write " + path);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f.get(), "request\tname\tparent\tstart_ns\tdur_ns\tsource\n");
  for (const Span& s : spans_) {
    std::fprintf(f.get(), "%llu\t%s\t%lld\t%llu\t%llu\t%s\n",
                 static_cast<unsigned long long>(s.request),
                 names_[s.name].c_str(), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - s.start_ns),
                 s.program ? "program" : "bench");
  }
  if (std::ferror(f.get())) {
    return loglog::Status::IoError("short write to " + path);
  }
  return loglog::Status::OK();
}

}  // namespace perfbench
