// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a layer's public function, named
// `<module>.<call>` (harness.parse, geo.map_build, sim.run, ...). Spans nest:
// each records the span that was open when it started as its parent, so a
// reader can take a span's self time as its duration minus the durations
// of its children. Calls made once per simulated step (MovementEngine::
// step_all, SpatialGrid::update, ...) would be millions of spans, so they
// are folded into one aggregate span per call site that carries the call
// count and the summed duration. Spans stay in memory until write_json().
//
// Every span wraps a call made from the benchmark's own files; nothing
// here reaches inside the simulator's sources.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dtnbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t calls = 0;
    std::int64_t total_ns = 0;  ///< summed duration of every call
  };

  /// Opens a span under the innermost open one; returns its id.
  int open(const std::string& name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, top(), now_ns(), 0, 1, 0});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.total_ns = s.end_ns - s.start_ns;
    stack_.pop_back();
  }

  /// An aggregate span under the innermost open one: add() each call.
  int aggregate(const std::string& name) { return aggregate(name, top()); }

  /// An aggregate span under `parent` (another aggregate, or -1 for none).
  int aggregate(const std::string& name, int parent) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, parent, 0, 0, 0, 0});
    return id;
  }

  void add(int id, std::int64_t start_ns, std::int64_t end_ns) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    if (s.calls == 0) s.start_ns = start_ns;
    s.end_ns = end_ns;
    ++s.calls;
    s.total_ns += end_ns - start_ns;
  }

  [[nodiscard]] double seconds(int id) const {
    return static_cast<double>(spans_[static_cast<std::size_t>(id)].total_ns) * 1e-9;
  }

  /// Writes every span as one JSON array; false on I/O failure.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"calls\": %lld, \"total_ns\": %lld}%s\n",
                   i, s.name.c_str(), s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), static_cast<long long>(s.calls),
                   static_cast<long long>(s.total_ns), i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] int top() const { return stack_.empty() ? -1 : stack_.back(); }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer (the untraced run) records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace dtnbench
