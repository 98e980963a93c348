#ifndef BENCH_E2E_TRACE_H_
#define BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench_e2e {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// One recorded span. `parent` is 0 for a root span (one per operation);
/// children wrap the public library calls the benchmark makes for that
/// operation. `work` is the unit count the call processed (rows returned,
/// points located, ids resolved), 0 when it has none.
struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;
  std::string layer;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t work = 0;
};

/// Per-layer totals over a set of spans. Self time is the span's duration
/// minus the time its direct children cover.
struct LayerTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  int64_t work = 0;
  std::vector<int64_t> durations_ns;

  /// Median call duration in ns (0 without calls).
  double MedianNs() const;
};

/// In-memory span recorder of the traced run. Spans are kept until the run
/// ends and written out once (WriteJsonl). Single-threaded: only the
/// benchmark's one client thread opens and closes spans.
class Tracer {
 public:
  /// Opens a span under the currently open root (or as a root when
  /// `root` is set) and returns its id.
  uint32_t Open(const std::string& layer, bool root);
  /// Closes span `id`; returns its duration in ns.
  int64_t Close(uint32_t id, int64_t work);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Totals by layer name over spans [first, spans().size()).
  std::map<std::string, LayerTotals> Summarize(size_t first = 0) const;

  /// One JSON object per span: {"id","parent","layer","begin_ns",
  /// "dur_ns","work"}. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  uint32_t open_root_ = 0;
};

/// RAII span; a no-op (and no clock read) when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, const std::string& layer, bool root = false)
      : tracer_(tracer), id_(tracer ? tracer->Open(layer, root) : 0) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_work(int64_t work) { work_ = work; }
  /// Ends the span early; returns its duration in ns (0 untraced or when
  /// already closed).
  int64_t Close() {
    if (tracer_ == nullptr || closed_) {
      return 0;
    }
    closed_ = true;
    return tracer_->Close(id_, work_);
  }

 private:
  Tracer* tracer_;
  uint32_t id_;
  int64_t work_ = 0;
  bool closed_ = false;
};

}  // namespace bench_e2e

#endif  // BENCH_E2E_TRACE_H_
