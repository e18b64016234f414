// In-memory spans recorded by the benchmark around its calls into each
// layer of the library (nothing inside src/ is instrumented for this).
//
// A span has a name, a start and an end on the steady clock, the span that
// was open on the same thread when it began (its parent), and an operation
// id (a query or epoch number) shared by every span of one operation. Each
// thread records into its own SpanBuffer, so recording takes no lock; the
// buffers are merged once, when the run ends. A span's self time is its
// duration minus the time its children cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
int64_t NowNs();

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // query or epoch id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

class Tracer;

/// One thread's spans. Not thread-safe: exactly one thread records here.
class SpanBuffer {
 public:
  SpanBuffer(Tracer* tracer, uint32_t thread) : tracer_(tracer), thread_(thread) {}

 private:
  friend class ScopedSpan;
  friend class Tracer;
  Tracer* tracer_;
  uint32_t thread_;
  uint64_t open_ = 0;  // innermost open span on this thread
  std::vector<Span> spans_;
};

/// Owns every thread's buffer. A disabled tracer hands out null buffers, and
/// a ScopedSpan on a null buffer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A buffer for the calling thread (null when disabled). Thread-safe.
  SpanBuffer* NewBuffer();

  /// Every span recorded so far, across buffers. Call with no span open.
  std::vector<Span> Collect() const;

  /// Spans recorded so far.
  size_t size() const;

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::atomic<uint64_t> next_id_{1};
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  Span span_;
};

/// Per-name totals over a span list: count, summed duration and summed self
/// time (duration minus the union of child spans, which nest on one thread).
struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

/// Durations (µs) of the spans named `name`, summed per operation id:
/// result[op] = total µs of that op's `name` spans. `max_out`, when given,
/// receives the largest single span per op instead of the sum.
std::map<uint64_t, double> PerOpMicros(const std::vector<Span>& spans,
                                       const std::string& name,
                                       std::map<uint64_t, double>* max_out = nullptr);

/// Durations (µs) of every span named `name`, in record order.
std::vector<double> DurationsMicros(const std::vector<Span>& spans,
                                    const std::string& name);

/// Writes spans, the per-name summary and `extra` (a JSON object literal) to
/// `path` as one JSON document. Returns false on I/O failure.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::string& extra);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
