#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(
      this, static_cast<uint32_t>(buffers_.size())));
  return buffers_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans_.begin(), buffer->spans_.end());
  }
  return all;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans_.size();
  return n;
}

ScopedSpan::ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t op)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  span_.name = name;
  span_.id = buffer_->tracer_->NextId();
  span_.parent = buffer_->open_;
  span_.op = op;
  span_.thread = buffer_->thread_;
  buffer_->open_ = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  span_.end_ns = NowNs();
  buffer_->open_ = span_.parent;
  buffer_->spans_.push_back(span_);
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanSummary> out;
  for (const Span& s : spans) {
    SpanSummary& sum = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    ++sum.count;
    sum.total_ms += static_cast<double>(dur) * 1e-6;
    sum.self_ms += static_cast<double>(dur - children) * 1e-6;
  }
  return out;
}

std::map<uint64_t, double> PerOpMicros(const std::vector<Span>& spans,
                                       const std::string& name,
                                       std::map<uint64_t, double>* max_out) {
  std::map<uint64_t, double> out;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    out[s.op] += us;
    if (max_out != nullptr) {
      double& m = (*max_out)[s.op];
      if (us > m) m = us;
    }
  }
  return out;
}

std::vector<double> DurationsMicros(const std::vector<Span>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::string& extra) {
  std::ofstream os(path);
  if (!os) return false;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  os << "{\n  \"summary\": {";
  bool first = true;
  char buf[256];
  for (const auto& [name, sum] : Summarize(spans)) {
    std::snprintf(buf, sizeof buf,
                  "%s\n    \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                  "\"self_ms\": %.6f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(sum.count), sum.total_ms,
                  sum.self_ms);
    os << buf;
    first = false;
  }
  os << "\n  },\n  \"extra\": " << extra << ",\n  \"spans\": [";
  first = true;
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"op\": %llu, \"thread\": %u, \"start_ns\": %lld, "
                  "\"end_ns\": %lld}",
                  first ? "" : ",", s.name,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op), s.thread,
                  static_cast<long long>(s.start_ns - t0),
                  static_cast<long long>(s.end_ns - t0));
    os << buf;
    first = false;
  }
  os << "\n  ]\n}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
