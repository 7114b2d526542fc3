// Timing, statistics and reporting helpers of the round benchmark.
//
// The benchmark times everything from its own code with the steady
// clock. In a traced run it also records its own spans (build, rounds,
// every per-layer call) straight into the obs tracer with
// Tracer::record, so they land in the same Chrome trace as the
// library's spans without turning telemetry on around the timed calls.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace roundbench {

/// Steady-clock seconds since an arbitrary epoch.
double now_s();

/// CPU seconds the calling process has used, over all its threads.
/// Unlike wall time this leaves out time the host takes the virtual
/// CPUs away (steal), which on shared hosts varies run to run.
double process_cpu_s();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Calls of one per-layer metric that get a span each; the rest are
/// timed without one, which keeps the trace file small.
inline constexpr std::size_t kSpansPerMetric = 32;

/// Benchmark-side spans. Disabled spans cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Record a finished span that started at `start_ns` (tracer clock).
  void record(const std::string& name, std::uint64_t start_ns) const;
  /// Tracer-clock "now", or 0 when spans are off.
  std::uint64_t start() const;

 private:
  bool on_;
};

/// Scoped benchmark span.
class BenchSpan {
 public:
  BenchSpan(const SpanLog& log, std::string name)
      : log_(log), name_(std::move(name)), start_ns_(log.start()) {}
  ~BenchSpan() {
    if (log_.on()) log_.record(name_, start_ns_);
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const SpanLog& log_;
  std::string name_;
  std::uint64_t start_ns_;
};

/// Seconds per call of `fn`, one sample per call: three untimed warm-up
/// calls, then timed calls until both `min_iters` calls and
/// `min_seconds` have passed (at most `max_iters`). The first
/// kSpansPerMetric timed calls get a span named `span` when the log is on.
std::vector<double> time_calls(const SpanLog& log, const std::string& span,
                               const std::function<void()>& fn, std::size_t min_iters,
                               double min_seconds, std::size_t max_iters = 100000);

/// Everything the run reports: metric values with their samples, and
/// the correctness checks. Prints the result line and writes
/// one provenance record per metric.
class Report {
 public:
  /// A metric measured as a set of samples; `value` is what is
  /// reported (normally the median of `samples`).
  void add(const std::string& name, const std::string& unit, double value,
           std::vector<double> samples);
  /// A metric that is a single value (a count or a final accuracy).
  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, value, {value});
  }
  /// Timing samples in seconds, reported as their median times `scale`
  /// (1e3 for ms, 1e6 for us).
  void add_timing(const std::string& name, const std::string& unit, double scale,
                  std::vector<double> seconds);

  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }

  struct Provenance {
    std::string bench;
    std::string workload;
    std::uint64_t seed = 0;
    int trace = 0;
    std::string host;
    std::string git_sha;
    std::string build_flags;
    std::size_t threads = 0;
  };
  /// One JSON object per line: {bench, case, metric, unit, n, median,
  /// p10, p90, host, git_sha, build_flags, threads, seed, trace}.
  void write_records(const std::string& path, const Provenance& prov) const;

  /// Human-readable table on stdout, then the result object as the
  /// last line: {"correct", "attempted", "failed", "metrics"}.
  void print(std::size_t attempted, std::size_t failed) const;

 private:
  struct Entry {
    std::string unit;
    double value = 0.0;
    std::vector<double> samples;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> failures_;
};

}  // namespace roundbench
