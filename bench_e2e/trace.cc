#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace bench_e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double LayerTotals::MedianNs() const {
  if (durations_ns.empty()) {
    return 0.0;
  }
  std::vector<int64_t> d = durations_ns;
  const size_t mid = d.size() / 2;
  std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(mid),
                   d.end());
  return static_cast<double>(d[mid]);
}

uint32_t Tracer::Open(const std::string& layer, bool root) {
  SpanRecord s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = root ? 0 : open_root_;
  s.layer = layer;
  if (root) {
    open_root_ = s.id;
  }
  spans_.push_back(std::move(s));
  // Read the clock last so the bookkeeping above is outside the span.
  spans_.back().begin_ns = NowNs();
  return spans_.back().id;
}

int64_t Tracer::Close(uint32_t id, int64_t work) {
  const int64_t now = NowNs();
  SpanRecord& s = spans_[id - 1];
  s.end_ns = now;
  s.work = work;
  if (s.parent == 0 && open_root_ == id) {
    open_root_ = 0;
  }
  return s.end_ns - s.begin_ns;
}

std::map<std::string, LayerTotals> Tracer::Summarize(size_t first) const {
  std::map<std::string, LayerTotals> out;
  std::map<uint32_t, int64_t> child_ns;
  for (size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) {
      child_ns[spans_[i].parent] += spans_[i].end_ns - spans_[i].begin_ns;
    }
  }
  for (size_t i = first; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const int64_t dur = s.end_ns - s.begin_ns;
    LayerTotals& t = out[s.layer];
    ++t.calls;
    t.total_ns += dur;
    auto it = child_ns.find(s.id);
    t.self_ns += dur - (it == child_ns.end() ? 0 : it->second);
    t.work += s.work;
    t.durations_ns.push_back(dur);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"layer\":\"%s\",\"begin_ns\":%lld,"
                 "\"dur_ns\":%lld,\"work\":%lld}\n",
                 s.id, s.parent, s.layer.c_str(),
                 static_cast<long long>(s.begin_ns),
                 static_cast<long long>(s.end_ns - s.begin_ns),
                 static_cast<long long>(s.work));
  }
  return std::fclose(f) == 0;
}

}  // namespace bench_e2e
