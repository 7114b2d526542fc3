#include "roundbench/workloads.hpp"

#include <cstring>
#include <ctime>
#include <functional>
#include <sstream>
#include <utility>

#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/comm/tcp_transport.hpp"
#include "src/fl/strategy.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/error.hpp"
#include "tools/federation_common.hpp"

extern char** environ;

namespace roundbench {

using namespace fedcav;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md;
// the numbers below are the workload definitions themselves.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"digits-lenet5", 50, 20, false},
      {"cifar-resnet-int8", 30, 8, false},
      {"cohort-mlp-faulty", 30, 6, false},
      {"tcp-lenet5", 40, 14, true},
  };
  return kWorkloads;
}

constexpr std::size_t kCohortClients = 512;
constexpr std::size_t kTcpClients = 3;
constexpr const char* kAuthToken = "roundbench-token";

/// Federation flags shared by the tcp server and its workers (the
/// endpoint, token and rank come on top). Both sides parse these through
/// tools/federation_common.hpp, so they build the same simulation.
std::vector<std::string> tcp_flags(std::uint64_t seed) {
  return {"--clients",         std::to_string(kTcpClients),
          "--dataset",         "digits",
          "--model",           "lenet5",
          "--strategy",        "fedcav",
          "--seed",            std::to_string(seed),
          "--sample-ratio",    "1.0",
          "--local-epochs",    "5",
          "--batch-size",      "10",
          "--lr",              "0.01",
          "--train-per-class", "60",
          "--test-per-class",  "20",
          "--derived-seeds"};
}

fl::SimulationConfig tcp_config(std::uint64_t seed) {
  CliParser cli("roundbench", "tcp-lenet5 federation config");
  tools::add_federation_flags(cli);
  const std::vector<std::string> flags = tcp_flags(seed);
  std::vector<const char*> argv = {"roundbench"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  FEDCAV_REQUIRE(cli.parse(static_cast<int>(argv.size()), argv.data()),
                 "roundbench: tcp federation flags did not parse");
  return tools::federation_config(cli);
}

/// Forwards every call to the configured strategy and tallies the
/// participants' |d_i| of each round that aggregates (the metadata
/// handed to begin_aggregation lists exactly the clients that train).
class SampleCounter final : public fl::AggregationStrategy {
 public:
  explicit SampleCounter(std::unique_ptr<fl::AggregationStrategy> inner)
      : inner_(std::move(inner)) {}

  nn::Weights aggregate(const nn::Weights& global,
                        const std::vector<fl::ClientUpdate>& updates) override {
    tally(updates);
    return inner_->aggregate(global, updates);
  }
  std::vector<double> aggregation_weights(
      const std::vector<fl::ClientUpdate>& updates) const override {
    return inner_->aggregation_weights(updates);
  }
  void apply_local_overrides(fl::LocalTrainConfig& config) const override {
    inner_->apply_local_overrides(config);
  }
  std::string name() const override { return inner_->name(); }
  void begin_aggregation(const nn::Weights& global,
                         const std::vector<fl::ClientUpdate>& metadata) override {
    tally(metadata);
    inner_->begin_aggregation(global, metadata);
  }
  void accumulate(fl::ClientUpdate update) override {
    inner_->accumulate(std::move(update));
  }
  nn::Weights finish_aggregation() override { return inner_->finish_aggregation(); }
  bool streaming_aggregation() const override { return inner_->streaming_aggregation(); }

  /// Samples tallied since the last call.
  std::size_t take() { return std::exchange(samples_, 0); }

 private:
  void tally(const std::vector<fl::ClientUpdate>& updates) {
    for (const fl::ClientUpdate& u : updates) samples_ += u.num_samples;
  }

  std::unique_ptr<fl::AggregationStrategy> inner_;
  std::size_t samples_ = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t run_digest(const fl::Server& server) {
  std::ostringstream csv;
  server.history().write_csv(csv, /*include_timings=*/false);
  const std::string text = csv.str();
  std::uint64_t h = fnv1a(14695981039346656037ull, text.data(), text.size());
  const nn::Weights& w = server.global_weights();
  return fnv1a(h, w.data(), w.size() * sizeof(float));
}

/// Worker processes of one tcp repetition. The destructor kills and
/// reaps whatever is still running, so no path leaves a child behind.
class WorkerGroup {
 public:
  WorkerGroup() = default;
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;
  ~WorkerGroup() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  void spawn(const std::vector<std::string>& argv) {
    std::vector<char*> raw;
    for (const std::string& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
    raw.push_back(nullptr);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, raw[0], nullptr, nullptr, raw.data(), environ);
    FEDCAV_REQUIRE(rc == 0, "roundbench: cannot spawn " + argv[0] + ": " +
                                std::strerror(rc));
    pids_.push_back(pid);
    clockid_t clock{};
    FEDCAV_REQUIRE(::clock_getcpuclockid(pid, &clock) == 0,
                   "roundbench: no CPU clock for a worker process");
    clocks_.push_back(clock);
  }

  /// CPU seconds the workers used so far (only while none has exited).
  double cpu_s() const {
    double sum = 0.0;
    for (const clockid_t clock : clocks_) {
      timespec t{};
      if (::clock_gettime(clock, &t) == 0) {
        sum += static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
      }
    }
    return sum;
  }

  /// Wait up to `deadline_s` for every worker to exit; true when all
  /// exited with status 0. Stragglers are left to the destructor.
  bool reap(double deadline_s) {
    bool all_ok = true;
    const double end = now_s() + deadline_s;
    while (!pids_.empty() && now_s() < end) {
      int status = 0;
      const pid_t got = ::waitpid(pids_.back(), &status, WNOHANG);
      if (got == 0) {
        ::usleep(2000);
        continue;
      }
      if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) all_ok = false;
      pids_.pop_back();
    }
    clocks_.clear();
    return all_ok && pids_.empty();
  }

 private:
  std::vector<pid_t> pids_;
  std::vector<clockid_t> clocks_;
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t data_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  // splitmix64 of (seed, k), kept to 31 bits so it passes through the
  // tools' integer --seed flag unchanged.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) & 0x7fffffffull;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : all_workloads()) names.push_back(w.name);
  return names;
}

fl::SimulationConfig make_config(const Workload& w, std::uint64_t seed) {
  if (w.tcp) return tcp_config(seed);
  fl::SimulationConfig c;
  c.seed = seed;
  c.server.seed = seed;
  c.strategy = "fedcav";
  if (w.name == "digits-lenet5") {
    // configs/paper_digits.cfg: the paper's §5.1.4 settings.
    c.dataset = "digits";
    c.model = "lenet5";
    c.train_samples_per_class = 60;
    c.partition.scheme = data::PartitionScheme::kNonIidImbalanced;
    c.partition.num_clients = 100;
    c.partition.sigma = 600.0;
    c.server.sample_ratio = 0.3;
    c.server.local.epochs = 5;
    c.server.local.batch_size = 10;
    c.server.local.lr = 0.01f;
    c.server.detection_enabled = true;
  } else if (w.name == "cifar-resnet-int8") {
    c.dataset = "cifar";
    c.model = "resnet";
    c.train_samples_per_class = 60;
    // Accuracy stays near chance here; 1000 test images keep its
    // sampling error small next to its value (cohort-mlp-faulty too).
    c.test_samples_per_class = 100;
    c.partition.scheme = data::PartitionScheme::kDirichlet;
    c.partition.num_clients = 40;
    c.partition.dirichlet_alpha = 0.5;
    c.server.sample_ratio = 0.3;
    c.server.local.epochs = 2;
    c.server.local.batch_size = 10;
    c.server.local.lr = 0.01f;
    c.server.quant = comm::QuantMode::kInt8;
    c.server.quant_keep = 0.25;
  } else if (w.name == "cohort-mlp-faulty") {
    c.dataset = "digits";
    c.model = "mlp";
    // Two samples per client: per-client nn work stays tiny.
    c.train_samples_per_class = kCohortClients * 2 / 10;
    c.test_samples_per_class = 100;
    c.partition.scheme = data::PartitionScheme::kIidBalanced;
    c.partition.num_clients = kCohortClients;
    c.server.sample_ratio = 1.0;
    c.server.local.epochs = 1;
    c.server.local.batch_size = 10;
    // One step on two samples per client makes a round one step of
    // full-batch descent; a large η lets 30 rounds get near convergence,
    // where the final accuracy depends little on the data draw.
    c.server.local.lr = 0.3f;
    c.server.shards = 4;
    // The fault stream is fixed; only the data follows --seed. Ranks are
    // fabric endpoints (0 = server), rounds are 1-based.
    comm::FaultPlan& f = c.server.network.faults;
    f.seed = 0xFA17;
    f.drop_prob = 0.02;
    f.corrupt_prob = 0.01;
    f.crashes = {{3, 2, w.rounds_per_rep}, {7, 5, 8}, {11, 10, 12}};
  } else {
    throw Error("roundbench: no config for workload " + w.name);
  }
  return c;
}

int free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FEDCAV_REQUIRE(fd >= 0, "roundbench: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
                  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  FEDCAV_REQUIRE(ok, "roundbench: cannot find a free loopback port");
  return ntohs(addr.sin_port);
}

Runner::Runner(std::string worker_bin, std::size_t threads)
    : worker_bin_(std::move(worker_bin)), pool_(threads) {}

namespace {

SampleCounter& install_counter(fl::Server& server, const std::string& strategy) {
  auto wrapped = std::make_unique<SampleCounter>(fl::make_strategy(strategy));
  SampleCounter& counter = *wrapped;
  server.set_strategy(std::move(wrapped));
  return counter;
}

/// Run `rounds` rounds; `cpu` reads the CPU seconds of every process
/// taking part.
RepResult drive(fl::Simulation& sim, SampleCounter& counter, std::size_t rounds,
                const SpanLog& spans, const std::function<double()>& cpu) {
  RepResult rep;
  const double epochs = static_cast<double>(sim.server->effective_local().epochs);
  for (std::size_t r = 0; r < rounds; ++r) {
    BenchSpan span(spans, "bench.run_round");
    const double c0 = cpu();
    const double t0 = now_s();
    sim.server->run_round();
    const double dt = now_s() - t0;
    const double dc = cpu() - c0;
    const double trained = static_cast<double>(counter.take()) * epochs;
    if (r > 0) {
      rep.round_s.push_back(dt);
      rep.round_cpu_s.push_back(dc);
      rep.trained_samples += trained;
    }
  }
  rep.records = sim.server->history().records();
  rep.digest = run_digest(*sim.server);
  if (const nn::ReplicaPool* rp = sim.server->replica_pool()) rep.replicas = rp->created();
  return rep;
}

}  // namespace

RepResult Runner::run(const Workload& w, std::uint64_t seed, std::size_t rounds,
                      bool telemetry, const SpanLog& spans) {
  obs::set_enabled(telemetry);
  fl::SimulationConfig config = make_config(w, seed);
  config.server.telemetry = telemetry;

  WorkerGroup workers;
  std::unique_ptr<comm::TcpTransport> transport;
  fl::Simulation sim;
  SampleCounter* counter = nullptr;
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  {
    BenchSpan span(spans, "bench.setup");
    sim = fl::build_simulation(config);
    counter = &install_counter(*sim.server, config.strategy);
    sim.server->set_thread_pool(&pool_);
    if (w.tcp) {
      const std::string address = "127.0.0.1:" + std::to_string(free_loopback_port());
      const std::vector<std::string> flags = tcp_flags(seed);
      for (std::size_t rank = 1; rank <= config.partition.num_clients; ++rank) {
        std::vector<std::string> argv = {worker_bin_, "--tcp", address, "--auth-token",
                                         kAuthToken, "--rank", std::to_string(rank)};
        argv.insert(argv.end(), flags.begin(), flags.end());
        workers.spawn(argv);
      }
      comm::StreamTransportConfig tcfg;
      tcfg.auth_token = kAuthToken;
      tcfg.abort_on_reject = true;
      tcfg.accept_timeout_s = 60.0;
      transport = comm::TcpTransport::serve(address, config.partition.num_clients, tcfg);
      sim.server->set_transport(transport.get(), /*remote=*/true);
    }
  }
  const double setup_s = now_s() - t0;
  const double setup_cpu_s = process_cpu_s() - c0 + workers.cpu_s();

  RepResult rep = drive(sim, *counter, rounds, spans,
                        [&] { return process_cpu_s() + workers.cpu_s(); });
  rep.seed = seed;
  rep.setup_s = setup_s;
  rep.setup_cpu_s = setup_cpu_s;
  if (w.tcp) {
    sim.server->set_transport(nullptr, false);
    transport.reset();  // EOF is the workers' shutdown signal
    rep.workers_ok = workers.reap(30.0);
  }
  obs::set_enabled(false);
  return rep;
}

RepResult Runner::run_in_process(const Workload& w, std::uint64_t seed,
                                 std::size_t rounds) {
  obs::set_enabled(false);
  const fl::SimulationConfig config = make_config(w, seed);
  fl::Simulation sim = fl::build_simulation(config);
  SampleCounter& counter = install_counter(*sim.server, config.strategy);
  sim.server->set_thread_pool(&pool_);
  RepResult rep = drive(sim, counter, rounds, SpanLog(false), process_cpu_s);
  rep.seed = seed;
  return rep;
}

}  // namespace roundbench
