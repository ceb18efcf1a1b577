#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/// Spans open on this thread, innermost last, tagged with their tracer so
/// a scratch tracer (CostPerSpanMs) never becomes another's parent.
thread_local std::vector<std::pair<const Tracer*, int32_t>> open_spans;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

Tracer::Tracer(bool enabled, uint32_t run_id)
    : enabled_(enabled), run_id_(run_id), origin_(Clock::now()) {}

int64_t Tracer::NowNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int32_t Tracer::Current() const {
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) return it->second;
  }
  return -1;
}

int32_t Tracer::Open(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = Current();
  span.run_id = run_id_;
  span.thread = ThreadNumber();
  int32_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int32_t>(spans_.size());
    span.start_ns = NowNs(Clock::now());
    spans_.push_back(std::move(span));
  }
  open_spans.emplace_back(this, id);
  return id;
}

void Tracer::Close(int32_t id) {
  if (id < 0) return;
  const int64_t end = NowNs(Clock::now());
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end;
  }
  auto it = std::find(open_spans.begin(), open_spans.end(),
                      std::make_pair(static_cast<const Tracer*>(this), id));
  if (it != open_spans.end()) open_spans.erase(it);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::Summarize() const {
  const std::vector<Span> spans = Spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return totals;
}

bool Tracer::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = Spans();
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fputs("{\"name\": ", f);
    WriteJsonString(f, s.name);
    std::fprintf(f,
                 ", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, "
                 "\"tid\": %u, \"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"run\": %u}}%s\n",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.run_id,
                 s.thread, i, s.parent, s.run_id,
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double Tracer::CostPerSpanMs() {
  constexpr int kSpans = 20000;
  Tracer scratch(true, 0);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(scratch, "calibrate");
  }
  return MsBetween(t0, Clock::now()) / kSpans;
}

}  // namespace perfbench
