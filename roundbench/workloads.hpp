// The benchmark's four workloads and the runner that drives one seeded
// federation through the public fl::build_simulation /
// fl::Server::run_round API, timing each round from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "roundbench/stats.hpp"
#include "src/fl/simulation.hpp"
#include "src/metrics/history.hpp"
#include "src/utils/threadpool.hpp"

namespace roundbench {

struct Workload {
  std::string name;
  /// Rounds of one repetition. Every repetition replays the same seeded
  /// federation from scratch, so the accuracy, loss and byte figures of
  /// a run do not depend on how many repetitions fit in --seconds.
  std::size_t rounds_per_rep = 0;
  /// Independent data draws per run: repetitions cycle through the
  /// federations of data_seed(seed, 0 .. draws-1), and the quality and
  /// byte figures are their mean, so one run does not hang on one
  /// partition of non-IID data.
  std::size_t draws = 1;
  /// Server over loopback TCP with one fedcav_worker process per client.
  bool tcp = false;
};

/// Seed of data draw `k` of a run with --seed `seed` (draw 0 is `seed`).
std::uint64_t data_seed(std::uint64_t seed, std::size_t k);

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// The generated simulation config of `w` at `seed` (the only input the
/// program under test receives).
fedcav::fl::SimulationConfig make_config(const Workload& w, std::uint64_t seed);

/// One repetition: set-up, `rounds` rounds, and what the checks need.
struct RepResult {
  std::uint64_t seed = 0;  // the data seed the federation was built from
  double setup_s = 0.0;      // wall
  double setup_cpu_s = 0.0;  // CPU of this process (+ tcp workers up to their join)
  /// Outside-timed wall seconds of every round after the first (the
  /// first round of a repetition is warm-up).
  std::vector<double> round_s;
  /// CPU seconds of the same rounds, summed over this process and,
  /// on tcp, the worker processes.
  std::vector<double> round_cpu_s;
  /// Σ participants' |d_i|·E over the same rounds as round_s.
  double trained_samples = 0.0;
  std::vector<fedcav::metrics::RoundRecord> records;  // every round
  /// FNV-1a of the timing-free round CSV followed by the final weights.
  std::uint64_t digest = 0;
  std::size_t replicas = 0;   // model replicas the server materialized
  bool workers_ok = true;     // tcp: every worker exited with status 0
};

class Runner {
 public:
  /// `worker_bin`: the fedcav_worker executable (tcp workload only).
  Runner(std::string worker_bin, std::size_t threads);

  /// Build the federation (set-up; on tcp also spawn the workers and
  /// complete their handshakes) and run `rounds` rounds. `telemetry`
  /// turns the library's obs spans on for this repetition only.
  RepResult run(const Workload& w, std::uint64_t seed, std::size_t rounds,
                bool telemetry, const SpanLog& spans);

  /// The same config run in one process over the in-memory fabric (the
  /// reference the tcp workload must match byte for byte).
  RepResult run_in_process(const Workload& w, std::uint64_t seed, std::size_t rounds);

  fedcav::ThreadPool& pool() { return pool_; }

 private:
  std::string worker_bin_;
  fedcav::ThreadPool pool_;
};

/// Loopback port the kernel reports free right now.
int free_loopback_port();

}  // namespace roundbench
