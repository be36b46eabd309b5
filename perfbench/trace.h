#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into the library's public functions (name,
// start, end, parent span, request id), kept in memory, and written out
// once when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  double start = 0;  ///< seconds since the tracer was created
  double end = 0;
  int parent = -1;   ///< index of the enclosing span, -1 at the root
  uint64_t request = 0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, uint64_t request);
  void End(int span);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Records one span for its lifetime when `tracer` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
