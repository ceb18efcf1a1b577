// In-memory span recorder for the protocol benchmark's traced runs.
//
// A span is (name, start, end, parent, run id). The benchmark opens spans
// around its own calls into each snb module; nothing inside the program is
// instrumented. Spans live in memory until the run ends, then WriteChrome
// emits them in the Chrome trace-event format (load the file in
// chrome://tracing or Perfetto) and Summarize folds them into per-name
// totals with self time: a span's duration minus the part of it that its
// child spans cover.
//
// A disabled tracer records nothing, and ScopedSpan on it costs one branch.
// Spans may be opened from several threads; the parent of a ScopedSpan is
// the innermost span open on the same thread.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady_clock instants.
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;  // since the tracer's origin
  int64_t end_ns = 0;
  int32_t parent = -1;   // index into the span list, -1 for a root
  uint32_t run_id = 0;
  uint32_t thread = 0;   // small per-tracer thread number
};

struct SpanTotals {
  size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, uint32_t run_id);

  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost span open on this thread;
  /// returns its id, or -1 when disabled.
  int32_t Open(const std::string& name);
  /// Closes the span `id` returned by Open on this thread.
  void Close(int32_t id);

  std::vector<Span> Spans() const;
  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, SpanTotals> Summarize() const;
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// each event's args carry the span id, its parent and the run id.
  bool WriteChrome(const std::string& path) const;

  /// Measured cost of one Open/Close pair on this machine, in ms: the
  /// time a traced run adds per span over an untraced one.
  static double CostPerSpanMs();

 private:
  int64_t NowNs(Clock::time_point t) const;
  /// Innermost span of this tracer open on the calling thread, or -1.
  int32_t Current() const;

  const bool enabled_;
  const uint32_t run_id_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Open(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
