// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result line, the in-memory span tracer and small statistics helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Deliberate defects the self-test injects to prove a check can fail.
enum class Fault {
  kNone,
  kDropMake,   // forget one acked make in the ingest client model
  kFireCount,  // expect one firing more than the reference Step loop gave
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Fault fault = Fault::kNone;
  /// Scratch directory for database files and trace output.
  std::string work_dir = ".bench_build/work";
};

/// The run's verdict and metrics. Check() failures flip `correct` and are
/// reported on stderr; the metrics are printed as the last stdout line.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check; returns `ok` for chaining.
  bool Check(bool ok, const std::string& what);
  /// Raw deterministic counters, printed on their own line (not metrics):
  /// the exact-repeat test compares them across runs.
  void Count(const std::string& name, uint64_t value) {
    counters_[name] = value;
  }

  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string MetricsJson() const;
  std::string CountersJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, uint64_t> counters_;
};

/// Spans recorded around calls into the library, kept in memory and
/// written out at exit. One tracer per thread; a disabled tracer records
/// nothing and never reads the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (-1 when disabled).
  int Begin(const char* name, uint64_t group, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, group, parent, NowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }
  /// Renames an open or closed span (e.g. a Step that found nothing).
  void Rename(int span, const char* name) {
    if (span >= 0) spans_[static_cast<size_t>(span)].name = name;
  }

  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of the durations (ns) of every span named `name`.
  double TotalNs(const std::string& name) const;

  /// Appends another thread's spans (parent handles are rebased).
  void Merge(const Tracer& other);

  /// One line per span: name, group, parent, start_ns, end_ns, self_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t group;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<double> SelfTimes() const;

  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t group, int parent = -1)
      : tracer_(tracer), span_(tracer->Begin(name, group, parent)) {}
  ~Scope() { tracer_->End(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

/// Nearest-rank percentile, q in [0, 1]. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Heap bytes in use by this process (all malloc arenas), in MiB.
double HeapMb();

/// Restricts the process, and every thread it starts afterwards, to the
/// highest-numbered allowed CPU. A closed-loop client and its session
/// thread hand each batch back and forth; on one CPU that hand-off is a
/// local context switch, where across CPUs it waits for an idle virtual
/// CPU to be woken, which on a shared host adds milliseconds at random.
/// Call before any thread starts.
void PinToOneCpu();

/// nproc, CPU model, compiler and build type as one JSON object.
std::string HostFingerprint();

/// FNV-1a, for WM digests.
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ULL);

/// Aborts the run (exit 2, no result line) on a set-up failure: an
/// operation the workload relies on could not even be started.
void Require(const prodb::Status& st, const char* what);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
