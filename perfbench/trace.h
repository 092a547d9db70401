// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around its
// calls into the public API of each layer (chopper, engine, service, obs).
// They stay in memory until the run ends and are then written as one JSON
// object per line:
//
//   {"id":7,"parent":3,"name":"chopper.profile.runner","start_s":1.25,"end_s":1.5}
//
// Times are seconds since the tracer was created (steady clock). A span's
// parent is the span that was open when it began; 0 means a root span. The
// benchmark records spans from one thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    double duration() const { return end_s - start_s; }
  };

  /// Per-name totals: span count, summed duration, and self time (duration
  /// minus the time covered by direct child spans).
  struct Total {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Opens a span; returns its index (or -1 when tracing is off).
  long open(const char* name) {
    if (!enabled_) return -1;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.name = name;
    s.start_s = now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return static_cast<long>(spans_.size() - 1);
  }

  void close(long index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_s = now();
    // Spans close in LIFO order (Scope enforces it), so the top is `index`.
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, Total> totals() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent != 0) child_time[s.parent - 1] += s.duration();
    }
    std::map<std::string, Total> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Total& t = out[spans_[i].name];
      ++t.count;
      t.total_s += spans_[i].duration();
      t.self_s += spans_[i].duration() - child_time[i];
    }
    return out;
  }

  /// Writes every span as JSON lines; returns false when `path` cannot be
  /// opened.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   s.start_s, s.end_s);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< indices of the open spans
};

/// RAII span: opens on construction, closes on destruction or end().
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void end() {
    tracer_.close(index_);
    index_ = -1;
  }

 private:
  Tracer& tracer_;
  long index_;
};

}  // namespace perfbench
