#pragma once
// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions (no instrumentation inside src/).  Each span
// keeps its name, start, end, parent and the arrival slot it belongs to;
// spans on track 1 are replays and correctness checks, kept apart from the
// served program's span tree so they never count towards its self time.
// At exit the spans are written as Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing), and per-name self times are summarised.

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string
  double start_us = 0.0;  // since the tracer's origin
  double end_us = 0.0;
  int parent = -1;   // index of the enclosing span; -1 for a root
  int arrival = -1;  // arrival slot; -1 for stream-level spans
  int track = 0;     // 0 = served program, 1 = replay / correctness gate
};

/// Per-name aggregate: how often a span ran, its total and its self time
/// (duration minus the part covered by its child spans).
struct SpanTotals {
  int count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

  /// Opens a span nested under the innermost open span; returns its id.
  int begin(const char* name, int arrival, int track = 0) {
    const int id = static_cast<int>(spans_.size());
    Span s;
    s.name = name;
    s.start_us = now_us();
    s.parent = open_.empty() ? -1 : open_.back();
    s.arrival = arrival;
    s.track = track;
    spans_.push_back(s);
    open_.push_back(id);
    return id;
  }

  /// Closes span `id` (must be the innermost open one); returns its
  /// duration in milliseconds.
  double end(int id) {
    assert(!open_.empty() && open_.back() == id);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    open_.pop_back();
    return (s.end_us - s.start_us) / 1e3;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  double duration_ms(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return (s.end_us - s.start_us) / 1e3;
  }

  /// Self time of every span, indexed like spans().
  std::vector<double> self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration_ms(static_cast<int>(i));
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= (s.end_us - s.start_us) / 1e3;
    }
    return self;
  }

  std::map<std::string, SpanTotals> totals_by_name() const {
    std::map<std::string, SpanTotals> out;
    const std::vector<double> self = self_ms();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_ms += duration_ms(static_cast<int>(i));
      t.self_ms += self[i];
    }
    return out;
  }

  /// Writes every span as a complete ("X") Chrome trace event.  Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path, const std::string& label) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"%s\"},"
                 "\"traceEvents\":[\n",
                 label.c_str());
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                 "\"args\":{\"name\":\"served program\"}},\n"
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
                 "\"args\":{\"name\":\"replay and gate\"}}");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":%d,\"args\":{\"span\":%zu,\"parent\":%d,\"arrival\":%d}}",
                   s.name, s.track == 0 ? "served" : "replay", s.start_us, s.end_us - s.start_us,
                   s.track + 1, i, s.parent, s.arrival);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
