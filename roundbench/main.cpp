// roundbench: the FedCav round benchmark (see README.md in this directory).
//
//   roundbench --workload digits-lenet5 --seed 2021 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics: whole rounds driven through
// fl::build_simulation / fl::Server::run_round with telemetry off, timed
// from outside. --trace 1 is the separate traced run: the same rounds
// untraced and traced (the overhead pair), the per-phase split, and the
// per-layer calls timed one by one; it writes one Chrome trace. Both
// print the result object as the last line of stdout and exit non-zero
// when a correctness check fails.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "roundbench/layers.hpp"
#include "roundbench/stats.hpp"
#include "roundbench/workloads.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/logging.hpp"

namespace roundbench {
namespace {

using namespace fedcav;

/// Server pool size; nproc on the reference host. Kernels stay single
/// threaded inside a round, as the server runs them.
constexpr std::size_t kThreads = 4;
/// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinMeasuredRounds = 100;
/// Set-up-only repetitions ahead of the measured ones: set-up takes
/// milliseconds in process, so one sample per repetition is too few for
/// a steady median.
constexpr std::size_t kSetupOnlyReps = 8;
/// Stop starting repetitions after this long whatever the budget says,
/// so a slow host still exits well inside run.py's 170 s limit.
constexpr double kHardCapSeconds = 120.0;

/// Hand freed heap back to the kernel and restart its peak-RSS count
/// (VmHWM) from the current RSS, so that the next peak_rss_mib() is the
/// peak of what runs in between.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS since the last reset_peak_rss(); the process's lifetime peak
/// where /proc does not give it.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t measured_rounds(const std::vector<RepResult>& reps) {
  std::size_t n = 0;
  for (const RepResult& r : reps) n += r.round_s.size();
  return n;
}

std::vector<double> pooled(const std::vector<RepResult>& reps,
                           std::vector<double> RepResult::*samples) {
  std::vector<double> all;
  for (const RepResult& r : reps) all.insert(all.end(), (r.*samples).begin(), (r.*samples).end());
  return all;
}

std::uint64_t total_bytes(const RepResult& r) {
  std::uint64_t b = 0;
  for (const auto& rec : r.records) b += rec.bytes_up + rec.bytes_down;
  return b;
}

std::uint64_t total_retries(const RepResult& r) {
  std::uint64_t n = 0;
  for (const auto& rec : r.records) n += rec.retries;
  return n;
}

/// First repetition of each data draw, in draw order.
std::vector<const RepResult*> first_of_each_draw(const std::vector<RepResult>& reps) {
  std::vector<const RepResult*> firsts;
  for (const RepResult& r : reps) {
    bool seen = false;
    for (const RepResult* f : firsts) seen = seen || f->seed == r.seed;
    if (!seen) firsts.push_back(&r);
  }
  return firsts;
}

/// The checks every run makes on its repetitions. Returns the number of
/// rounds that broke the accounting invariant.
std::size_t check_reps(const Workload& w, const std::vector<RepResult>& reps,
                       Runner& runner, Report& report) {
  std::size_t broken = 0;
  for (const RepResult& r : reps) {
    for (const auto& rec : r.records) {
      if (rec.sampled != rec.participants + rec.dropouts + rec.straggler_drops) ++broken;
    }
  }
  report.check(broken == 0, std::to_string(broken) +
                                " rounds break sampled == participants + dropouts + "
                                "straggler_drops");
  std::size_t repeated = 0;
  for (const RepResult* first : first_of_each_draw(reps)) {
    for (const RepResult& r : reps) {
      if (&r == first || r.seed != first->seed) continue;
      ++repeated;
      report.check(r.records.size() == first->records.size() && r.digest == first->digest,
                   "round CSV + final weights differ between repetitions of one seed");
      report.check(total_bytes(r) == total_bytes(*first),
                   "bytes per round differ between repetitions of one seed");
      report.check(total_retries(r) == total_retries(*first),
                   "retries differ between repetitions of one seed");
    }
    report.check(std::isfinite(first->records.back().test_loss),
                 "final test loss is not finite");
  }
  report.check(repeated > 0, "no data draw was repeated, so repeatability is unchecked");
  for (const RepResult& r : reps) {
    report.check(r.workers_ok, "a tcp worker did not exit cleanly");
  }
  if (w.tcp) {
    const RepResult& first = reps.front();
    const RepResult ref = runner.run_in_process(w, first.seed, w.rounds_per_rep);
    report.check(ref.digest == first.digest,
                 "tcp round CSV + final weights differ from the in-process run");
  }
  return broken;
}

struct RunCounts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

RunCounts run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                         Runner& runner, const SpanLog& spans, Report& report) {
  const double begin = now_s();
  const double deadline = begin + seconds;
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupOnlyReps; ++i) {
    setup.push_back(runner.run(w, data_seed(seed, i % w.draws), 0, false, spans).setup_cpu_s);
  }
  // Every draw once, then draw 0 again (the repeatability check), then
  // on round robin while the budget lasts.
  std::vector<RepResult> reps;
  double rep_seconds = 0.0;
  // Peak RSS is taken per repetition and the median reported. A peak
  // over the whole process would keep growing with the repetitions that
  // fit in --seconds: blocks freed in one thread's malloc arena are not
  // reused by another thread's, so each repetition can leave its arenas
  // larger than it found them.
  std::vector<double> peak_rss;
  for (;;) {
    const double now = now_s();
    const double next = reps.empty() ? 0.0 : rep_seconds / static_cast<double>(reps.size());
    const bool enough =
        reps.size() > w.draws && measured_rounds(reps) >= kMinMeasuredRounds;
    if ((enough && now + next > deadline) || now - begin > kHardCapSeconds) break;
    reset_peak_rss();
    reps.push_back(runner.run(w, data_seed(seed, reps.size() % w.draws),
                              w.rounds_per_rep, false, spans));
    peak_rss.push_back(peak_rss_mib());
    rep_seconds += now_s() - now;
    setup.push_back(reps.back().setup_cpu_s);
  }

  RunCounts counts;
  for (const RepResult& r : reps) counts.attempted += r.records.size();
  counts.failed = check_reps(w, reps, runner, report);
  report.check(measured_rounds(reps) >= kMinMeasuredRounds,
               "fewer than " + std::to_string(kMinMeasuredRounds) + " measured rounds");

  const std::vector<double> rounds = pooled(reps, &RepResult::round_cpu_s);
  double round_total = 0.0;
  double trained = 0.0;
  for (const RepResult& r : reps) {
    for (double s : r.round_cpu_s) round_total += s;
    trained += r.trained_samples;
  }
  // Quality and traffic: the mean over the data draws.
  const std::vector<const RepResult*> draws = first_of_each_draw(reps);
  std::vector<double> accuracy, loss, bytes;
  std::size_t sampled = 0;
  std::size_t lost = 0;
  for (const RepResult* r : draws) {
    accuracy.push_back(r->records.back().test_accuracy);
    loss.push_back(r->records.back().test_loss);
    bytes.push_back(static_cast<double>(total_bytes(*r)) /
                    static_cast<double>(r->records.size()));
    for (const auto& rec : r->records) {
      sampled += rec.sampled;
      lost += rec.dropouts + rec.upload_failures;
    }
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };

  report.add("round_cpu_s.p50", "s", quantile(rounds, 0.5), rounds);
  report.add("round_cpu_s.p90", "s", quantile(rounds, 0.9), rounds);
  report.add("train_samples_per_cpu_s", "samples/s", trained / round_total);
  report.add("bytes_per_round", "B", mean(bytes), bytes);
  report.add("final_test_accuracy", "fraction", mean(accuracy), accuracy);
  report.add("final_test_loss", "nats", mean(loss), loss);
  report.add("setup_s", "s", median(setup), setup);
  report.add("peak_rss_mb", "MiB", median(peak_rss), peak_rss);
  report.add("completed_share", "fraction",
             1.0 - static_cast<double>(lost) / static_cast<double>(sampled));
  return counts;
}

RunCounts run_traced(const Workload& w, std::uint64_t seed, double seconds,
                     Runner& runner, const SpanLog& spans, Report& report) {
  // Untraced repetitions fill about half the budget, then one traced
  // repetition follows (each traced round adds thousands of spans to the
  // trace); the per-layer calls take the rest.
  const double rounds_deadline = now_s() + 0.5 * seconds;
  std::vector<RepResult> untraced;
  double rep_seconds = 0.0;
  for (;;) {
    const double now = now_s();
    if (!untraced.empty() &&
        now + 2.0 * rep_seconds / static_cast<double>(untraced.size()) > rounds_deadline) {
      break;
    }
    untraced.push_back(runner.run(w, data_seed(seed, untraced.size() % w.draws),
                                  w.rounds_per_rep, false, spans));
    rep_seconds += now_s() - now;
  }
  // Draw 0 again, traced: also checks telemetry leaves the results alone.
  const std::vector<RepResult> traced = {
      runner.run(w, seed, w.rounds_per_rep, true, spans)};
  std::vector<RepResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());

  RunCounts counts;
  for (const RepResult& r : all) counts.attempted += r.records.size();
  counts.failed = check_reps(w, all, runner, report);

  // fl: per-phase medians of the traced rounds, and what they miss.
  std::vector<double> phase[7];
  std::vector<double> unattributed;
  for (const RepResult& r : traced) {
    for (std::size_t i = 1; i < r.records.size(); ++i) {
      const metrics::RoundPhases& p = r.records[i].phases;
      const double values[7] = {p.sample, p.broadcast,  p.metadata, p.local_update,
                                p.aggregate, p.detect, p.eval};
      for (std::size_t k = 0; k < 7; ++k) phase[k].push_back(values[k]);
      unattributed.push_back(r.round_s[i - 1] - p.sum());
    }
  }
  const char* phase_names[7] = {"sample", "broadcast", "metadata", "local_update",
                                "aggregate", "detect", "eval"};
  for (std::size_t k = 0; k < 7; ++k) {
    report.add(std::string("fl.phase.") + phase_names[k] + "_s", "s", median(phase[k]),
               phase[k]);
  }
  report.add("fl.phase.unattributed_s", "s", median(unattributed), unattributed);

  const RepResult& t0 = traced.front();
  const double rounds = static_cast<double>(t0.records.size());
  std::uint64_t crc_failures = 0;
  for (const auto& rec : t0.records) crc_failures += rec.crc_failures;
  report.add("comm.retries_per_round", "count",
             static_cast<double>(total_retries(t0)) / rounds);
  report.add("comm.crc_failures_per_round", "count",
             static_cast<double>(crc_failures) / rounds);
  report.add("nn.replica_pool.replicas", "count", static_cast<double>(t0.replicas));
  // The overhead pair: the traced repetition against the untraced ones
  // of the same data draw, in CPU time like the end-to-end rounds.
  std::vector<RepResult> untraced_same_draw;
  for (const RepResult& r : untraced) {
    if (r.seed == t0.seed) untraced_same_draw.push_back(r);
  }
  report.add("obs.trace_overhead_pct", "%",
             100.0 * (median(pooled(traced, &RepResult::round_cpu_s)) /
                          median(pooled(untraced_same_draw, &RepResult::round_cpu_s)) -
                      1.0));
  // Wall-clock latency of the untraced rounds: what a user waits for,
  // but on a shared host it moves with the CPU time the host steals, so
  // it is reported here rather than bounded as an end-to-end metric.
  const std::vector<double> wall = pooled(untraced, &RepResult::round_s);
  report.add("fl.round_wall_s.p50", "s", quantile(wall, 0.5), wall);
  report.add("fl.round_wall_s.p90", "s", quantile(wall, 0.9), wall);
  std::vector<double> setup_wall;
  for (const RepResult& r : untraced) setup_wall.push_back(r.setup_s);
  report.add("fl.setup_wall_s", "s", median(setup_wall), setup_wall);

  measure_models(runner, spans, report);
  measure_workload_layers(w, seed, t0.records.front().sampled, runner, spans, report);
  return counts;
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  using namespace roundbench;
  fedcav::CliParser cli("roundbench", "FedCav round benchmark");
  cli.add_string("workload", "", "digits-lenet5 | cifar-resnet-int8 | "
                                 "cohort-mlp-faulty | tcp-lenet5");
  cli.add_int("seed", 2021, "workload seed (held-out seed: 7919)");
  cli.add_double("seconds", 20.0, "measurement budget of the run");
  cli.add_int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run");
  cli.add_string("out-dir", ".bench_build/out", "provenance records and traces");
  cli.add_string("worker-bin", ROUNDBENCH_WORKER_BIN, "fedcav_worker executable");
  cli.add_string("host", "", "host fingerprint for the records");
  cli.add_string("git-sha", "", "source revision for the records");
  if (!cli.parse(argc, argv)) return 0;

  const Workload* w = find_workload(cli.get_string("workload"));
  if (w == nullptr) {
    std::fprintf(stderr, "roundbench: unknown workload '%s'; one of:",
                 cli.get_string("workload").c_str());
    for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const int trace = cli.get_int("trace") != 0 ? 1 : 0;
  const double seconds = cli.get_double("seconds");
  const std::string out_dir = cli.get_string("out-dir");

  fedcav::set_log_level(fedcav::LogLevel::kWarn);
  try {
    std::filesystem::create_directories(out_dir);
    Runner runner(cli.get_string("worker-bin"), kThreads);
    Report report;
    const SpanLog spans(trace == 1);
    const RunCounts counts =
        trace == 1 ? run_traced(*w, seed, seconds, runner, spans, report)
                   : run_end_to_end(*w, seed, seconds, runner, spans, report);

    Report::Provenance prov;
    prov.bench = "roundbench";
    prov.workload = w->name;
    prov.seed = seed;
    prov.trace = trace;
    prov.host = cli.get_string("host");
    prov.git_sha = cli.get_string("git-sha");
    prov.build_flags = ROUNDBENCH_BUILD_FLAGS;
    prov.threads = kThreads;
    const std::string stem = out_dir + "/" + w->name;
    report.write_records(
        stem + ".seed" + std::to_string(seed) + (trace == 1 ? ".layers.jsonl" : ".e2e.jsonl"),
        prov);
    if (trace == 1) {
      // One trace per workload (tens of MB each), replaced by the next
      // traced run.
      fedcav::obs::Tracer::instance().write_chrome_trace_file(stem + ".trace.json");
    }
    report.print(counts.attempted, counts.failed);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roundbench: %s\n", e.what());
    return 1;
  }
}
