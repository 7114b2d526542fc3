#include "roundbench/stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "src/obs/trace.hpp"
#include "src/utils/error.hpp"

namespace roundbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t SpanLog::start() const {
  return on_ ? fedcav::obs::Tracer::instance().now_ns() : 0;
}

void SpanLog::record(const std::string& name, std::uint64_t start_ns) const {
  if (!on_) return;
  fedcav::obs::Tracer& tracer = fedcav::obs::Tracer::instance();
  fedcav::obs::TraceEvent ev;
  ev.name = name;
  ev.cat = "bench";
  ev.ts_ns = start_ns;
  ev.dur_ns = tracer.now_ns() - start_ns;
  tracer.record(std::move(ev));
}

std::vector<double> time_calls(const SpanLog& log, const std::string& span,
                               const std::function<void()>& fn, std::size_t min_iters,
                               double min_seconds, std::size_t max_iters) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> samples;
  const double begin = now_s();
  while (samples.size() < max_iters &&
         (samples.size() < min_iters || now_s() - begin < min_seconds)) {
    const bool spanned = samples.size() < kSpansPerMetric;
    const std::uint64_t span_start = spanned ? log.start() : 0;
    const double t0 = now_s();
    fn();
    samples.push_back(now_s() - t0);
    if (spanned) log.record(span, span_start);
  }
  return samples;
}

void Report::add(const std::string& name, const std::string& unit, double value,
                 std::vector<double> samples) {
  FEDCAV_REQUIRE(metrics_.count(name) == 0, "Report: duplicate metric " + name);
  metrics_[name] = Entry{unit, value, std::move(samples)};
}

void Report::add_timing(const std::string& name, const std::string& unit,
                        double scale, std::vector<double> seconds) {
  for (double& s : seconds) s *= scale;
  const double value = median(seconds);
  add(name, unit, value, std::move(seconds));
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "roundbench: CHECK FAILED: %s\n", what.c_str());
  }
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::write_records(const std::string& path, const Provenance& prov) const {
  std::ofstream out(path, std::ios::trunc);
  FEDCAV_REQUIRE(out.good(), "Report: cannot write " + path);
  for (const auto& [name, e] : metrics_) {
    out << "{\"bench\": " << json_string(prov.bench)
        << ", \"case\": " << json_string(prov.workload)
        << ", \"metric\": " << json_string(name)
        << ", \"unit\": " << json_string(e.unit) << ", \"n\": " << e.samples.size()
        << ", \"value\": " << json_number(e.value)
        << ", \"median\": " << json_number(median(e.samples))
        << ", \"p10\": " << json_number(quantile(e.samples, 0.1))
        << ", \"p90\": " << json_number(quantile(e.samples, 0.9))
        << ", \"host\": " << json_string(prov.host)
        << ", \"git_sha\": " << json_string(prov.git_sha)
        << ", \"build_flags\": " << json_string(prov.build_flags)
        << ", \"threads\": " << prov.threads << ", \"seed\": " << prov.seed
        << ", \"trace\": " << prov.trace << "}\n";
  }
  FEDCAV_REQUIRE(out.good(), "Report: write failed for " + path);
}

void Report::print(std::size_t attempted, std::size_t failed) const {
  for (const auto& [name, e] : metrics_) {
    std::printf("%-44s %16.6g %-10s n=%zu p10=%.6g p90=%.6g\n", name.c_str(),
                e.value, e.unit.c_str(), e.samples.size(), quantile(e.samples, 0.1),
                quantile(e.samples, 0.9));
  }
  std::ostringstream line;
  line << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) line << ", ";
    first = false;
    line << json_string(name) << ": {\"value\": " << json_number(e.value)
         << ", \"unit\": " << json_string(e.unit) << "}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

}  // namespace roundbench
