#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder with Chrome trace-event export.
///
/// A traced run opens and closes spans on one thread; each span keeps its
/// name, start, end, parent and the id of the check it belongs to, plus
/// numeric args (the library's own counters, attached read-only). The
/// spans are written once, when the run ends, as Chrome trace-event JSON
/// (chrome://tracing and Perfetto open it offline).

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cecbench {

struct Span {
  std::string name;
  int check = -1;   ///< id shared by every span of one check
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  double start = 0, end = 0;  ///< seconds since the tracer was made
  std::vector<std::pair<std::string, double>> args;
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, int check) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), check, parent, now(), 0, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[id].end = now();
    stack_.pop_back();
  }
  void arg(int id, std::string key, double v) {
    spans_[id].args.emplace_back(std::move(key), v);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the durations of
  /// its direct children, summed over spans of the same name.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.seconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += spans_[i].seconds() - child[i];
    return out;
  }

  /// Writes every span as a complete ("X") trace event in microseconds,
  /// and the per-name self times under otherData. Returns false on I/O
  /// failure.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"check\":%d",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.start * 1e6,
                   s.seconds() * 1e6, i, s.parent, s.check);
      for (const auto& [k, v] : s.args)
        std::fprintf(f, ",\"%s\":%.9g", k.c_str(), v);
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n],\"otherData\":{\"self_seconds\":{");
    bool first = true;
    for (const auto& [name, sec] : self_seconds()) {
      std::fprintf(f, "%s\"%s\":%.9g", first ? "" : ",", name.c_str(), sec);
      first = false;
    }
    std::fprintf(f, "}}}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span scope.
class Scope {
 public:
  Scope(Tracer& t, std::string name, int check)
      : t_(t), id_(t.open(std::move(name), check)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

}  // namespace cecbench
