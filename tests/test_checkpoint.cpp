// Checkpoint resume semantics: a run restored into a *fresh* server
// must continue bit-identically to one that never stopped — including
// sampler streams, straggler draws, per-client shuffle RNGs, the cached
// reverse-target weights, the detector reference, and the comm fabric's
// fault-RNG streams and in-flight messages. Also covers the staged load:
// a damaged, truncated, mismatched or retired-format file is rejected
// and leaves the target server exactly as it was.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "src/comm/network.hpp"
#include "src/fl/simulation.hpp"
#include "src/tensor/serialize.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"
#include "property.hpp"

namespace fedcav {
namespace {

fl::SimulationConfig small_config() {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.sample_ratio = 0.5;
  config.server.local.epochs = 2;
  config.server.local.batch_size = 8;
  return config;
}

// Names carry the process id so suites of two build trees running at the
// same time never overwrite each other's files.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

ByteBuffer read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ByteBuffer bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_file(const std::string& path, const ByteBuffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A run in which every checkpoint section is non-trivial: loss-biased
/// sampling (sampler loss memory), stragglers (straggler RNG), an int8
/// top-k wire (per-client error-feedback residuals) and a faulty fabric
/// (link RNGs, accounting, stale duplicates in flight).
fl::SimulationConfig every_section_config() {
  fl::SimulationConfig config = small_config();
  config.server.sampler = fl::SamplerPolicy::kLossBiased;
  config.server.straggler_drop_prob = 0.2;
  config.server.quant = comm::QuantMode::kInt8;
  config.server.quant_keep = 0.5;
  comm::FaultPlan& faults = config.server.network.faults;
  faults.seed = 31;
  faults.drop_prob = 0.2;
  faults.duplicate_prob = 0.2;
  faults.corrupt_prob = 0.1;
  config.server.max_retries = 2;
  return config;
}

/// Everything in a RoundRecord except wall-clock timings must match
/// exactly between an uninterrupted run and a resumed one.
void expect_records_identical(const metrics::RoundRecord& a,
                              const metrics::RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(a.test_loss, b.test_loss);
  EXPECT_EQ(a.mean_inference_loss, b.mean_inference_loss);
  EXPECT_EQ(a.max_inference_loss, b.max_inference_loss);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.dropouts, b.dropouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.crc_failures, b.crc_failures);
  EXPECT_EQ(a.detection_fired, b.detection_fired);
  EXPECT_EQ(a.reversed, b.reversed);
  EXPECT_EQ(a.attacked, b.attacked);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
}

TEST(CheckpointResume, FreshServerContinuesBitIdentically) {
  set_log_level(LogLevel::kError);
  // Loss-biased sampling + stragglers exercise every serialized stream:
  // the sampler's RNG and loss memory, and the straggler RNG.
  fl::SimulationConfig config = small_config();
  config.server.sampler = fl::SamplerPolicy::kLossBiased;
  config.server.straggler_drop_prob = 0.2;

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(4);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(2);
  const std::string path = temp_path("fedcav_resume_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->current_round(), 2u);
  resumed.server->run(2);

  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[2 + i],
                             resumed.server->history()[i]);
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, DetectorReversesFromRestoredCache) {
  set_log_level(LogLevel::kError);
  // A replacement attack at round 3 drives round 4's inference losses
  // past the detector's reference, so round 4 reverses onto the cached
  // weights — state that only survives a save/load because the server
  // section carries both (a resume that improvised them would diverge).
  fl::SimulationConfig config = small_config();
  config.server.detection_enabled = true;
  config.attack = "replacement";
  config.attack_rounds = {3};

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(5);
  ASSERT_TRUE(continuous.server->history()[2].attacked);
  ASSERT_TRUE(continuous.server->history()[3].detection_fired)
      << "attack was not strong enough to trip the detector";
  ASSERT_TRUE(continuous.server->history()[3].reversed);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(3);  // attack included; detection still pending
  const std::string path = temp_path("fedcav_detect_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  resumed.server->run(2);

  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  EXPECT_TRUE(resumed.server->history()[0].reversed);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[3 + i],
                             resumed.server->history()[i]);
  }
  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  std::remove(path.c_str());
}

TEST(CheckpointResume, FaultedRunResumesBitIdentically) {
  set_log_level(LogLevel::kError);
  // The hard case for the fabric section: an active fault plan means
  // the resumed run must replay the exact same per-link fault draws AND
  // see the same stale duplicates still sitting in the fabric's queues.
  fl::SimulationConfig config = small_config();
  comm::FaultPlan& faults = config.server.network.faults;
  faults.seed = 31;
  faults.drop_prob = 0.25;
  faults.duplicate_prob = 0.15;
  faults.corrupt_prob = 0.1;
  config.server.min_aggregate_clients = 2;
  config.server.max_retries = 2;

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(4);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(2);
  const std::string path = temp_path("fedcav_fault_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  resumed.server->run(2);

  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[2 + i],
                             resumed.server->history()[i]);
  }
  // Fabric accounting survives the checkpoint boundary: the resumed
  // fabric's books still balance. (The old v3 format dropped the counters,
  // so a resumed run restarted them at zero while the queues carried
  // in-flight duplicates, and this conservation sum broke.)
  const comm::InMemoryNetwork& net = *resumed.server->network();
  const comm::TrafficStats traffic = net.total_stats();
  const comm::FaultStats fs = net.fault_stats();
  EXPECT_EQ(traffic.messages_sent + fs.duplicated,
            fs.delivered + fs.dropped + fs.crash_dropped +
                net.pending_messages());
  std::remove(path.c_str());
}

TEST(CheckpointResume, QuantizedRunWithPendingResidualResumesBitIdentically) {
  set_log_level(LogLevel::kError);
  // The residual under test: after two int8 + top-k rounds every
  // participant holds a nonzero error-feedback residual, and the next
  // round's uplink delta depends on it. A resume that dropped the
  // residual would code different deltas and diverge immediately.
  fl::SimulationConfig config = small_config();
  config.server.quant = comm::QuantMode::kInt8;
  config.server.quant_keep = 0.5;

  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(4);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(2);
  const std::string path = temp_path("fedcav_quant_ckpt.bin");
  first_half.server->save_checkpoint(path);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->current_round(), 2u);
  resumed.server->run(2);

  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  ASSERT_EQ(resumed.server->history().rounds(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_records_identical(continuous.server->history()[2 + i],
                             resumed.server->history()[i]);
  }

  std::remove(path.c_str());
}

TEST(CheckpointResume, V6RoundTripsDerivedSeedMode) {
  set_log_level(LogLevel::kError);
  // The server section carries the RNG mode: a derived-seed run restored
  // into a fresh (legacy-default) server must come back in derived mode,
  // or the resumed half would re-derive nothing and diverge.
  fl::SimulationConfig config = small_config();
  config.server.rng_mode = RngMode::kDerived;
  config.server.straggler_drop_prob = 0.2;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(2);
  const std::string path = temp_path("fedcav_v6_mode_ckpt.bin");
  sim.server->save_checkpoint(path);

  fl::SimulationConfig legacy_config = small_config();
  legacy_config.server.straggler_drop_prob = 0.2;
  ASSERT_EQ(legacy_config.server.rng_mode, RngMode::kLegacyStream);
  fl::Simulation resumed = fl::build_simulation(legacy_config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->config().rng_mode, RngMode::kDerived);

  // And the resumed run continues bit-identically to the unbroken one.
  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(4);
  resumed.server->run(2);
  EXPECT_EQ(resumed.server->global_weights(),
            continuous.server->global_weights());
  std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsOlderFormats) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const nn::Weights weights = sim.server->global_weights();

  // Hand-written heads of the retired formats: magic 0xfedca5c4ec9016 + v,
  // then the round and the weights both began with.
  for (const std::uint64_t version : {1, 6}) {
    ByteBuffer buf;
    write_u64(buf, 0xfedca5c4ec9016ULL + version);
    write_u64(buf, 7);
    write_f32_span(buf, weights);
    const std::string path = temp_path("fedcav_retired_ckpt.bin");
    write_file(path, buf);
    fl::Simulation fresh = fl::build_simulation(config);
    try {
      fresh.server->load_checkpoint(path);
      ADD_FAILURE() << "a v" << version << " checkpoint loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("format v" + std::to_string(version)),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(fresh.server->current_round(), 0u);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, DamagedLastSectionLeavesServerUntouched) {
  set_log_level(LogLevel::kError);
  const fl::SimulationConfig config = every_section_config();
  fl::Simulation source = fl::build_simulation(config);
  source.server->run(3);
  const std::string path = temp_path("fedcav_damaged_source_ckpt.bin");
  source.server->save_checkpoint(path);
  const ByteBuffer valid = read_file(path);

  // The target has state of its own to lose; the twin never sees a load.
  fl::Simulation target = fl::build_simulation(config);
  fl::Simulation twin = fl::build_simulation(config);
  target.server->run(1);
  twin.server->run(1);
  const std::string state_path = temp_path("fedcav_damaged_target_ckpt.bin");
  target.server->save_checkpoint(state_path);
  const ByteBuffer before = read_file(state_path);

  // The fabric section ends the file, and its link RNG states and
  // accounting alone are far longer than the 12 bytes these reach back.
  ByteBuffer truncated(valid.begin(), valid.end() - 3);
  ByteBuffer flipped = valid;
  flipped[flipped.size() - 12] ^= 0x10;
  const std::string damaged_path = temp_path("fedcav_damaged_ckpt.bin");
  for (const ByteBuffer* damaged : {&truncated, &flipped}) {
    write_file(damaged_path, *damaged);
    EXPECT_THROW(target.server->load_checkpoint(damaged_path), Error);
    target.server->save_checkpoint(state_path);
    EXPECT_EQ(read_file(state_path), before) << "a failed load changed the server";
  }

  target.server->run(2);
  twin.server->run(2);
  EXPECT_EQ(target.server->global_weights(), twin.server->global_weights());
  ASSERT_EQ(target.server->history().rounds(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_records_identical(twin.server->history()[i], target.server->history()[i]);
  }
  for (const std::string& p : {path, state_path, damaged_path}) std::remove(p.c_str());
}

TEST(CheckpointResume, RejectsClientCountMismatch) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const std::string path = temp_path("fedcav_mismatch_ckpt.bin");
  sim.server->save_checkpoint(path);

  fl::SimulationConfig other = small_config();
  other.partition.num_clients = 5;
  fl::Simulation smaller = fl::build_simulation(other);
  EXPECT_THROW(smaller.server->load_checkpoint(path), Error);
  std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsTrailingBytes) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const std::string path = temp_path("fedcav_trailing_ckpt.bin");
  sim.server->save_checkpoint(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  fl::Simulation fresh = fl::build_simulation(config);
  EXPECT_THROW(fresh.server->load_checkpoint(path), Error);
  std::remove(path.c_str());
}

TEST(CheckpointResume, FailedSaveKeepsPreviousCheckpoint) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(2);
  const std::string path = temp_path("fedcav_atomic_ckpt.bin");
  sim.server->save_checkpoint(path);
  const nn::Weights saved = sim.server->global_weights();
  std::string saved_bytes;
  {
    std::ifstream in(path, std::ios::binary);
    saved_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }

  // The save goes through `path + ".tmp"`: a directory squatting there
  // makes the next save fail before the previous file is touched.
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  sim.server->run(1);
  EXPECT_THROW(sim.server->save_checkpoint(path), Error);
  ::rmdir(tmp.c_str());

  std::string bytes_after;
  {
    std::ifstream in(path, std::ios::binary);
    bytes_after.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(bytes_after, saved_bytes);
  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->current_round(), 2u);
  EXPECT_EQ(resumed.server->global_weights(), saved);
  std::remove(path.c_str());
}

TEST(PropertyCheckpoint, MutatedFilesAreRejectedAndLeaveServerUntouched) {
  set_log_level(LogLevel::kError);
  const fl::SimulationConfig config = every_section_config();
  fl::Simulation source = fl::build_simulation(config);
  source.server->run(2);
  const std::string path = temp_path("fedcav_fuzz_source_ckpt.bin");
  source.server->save_checkpoint(path);
  const ByteBuffer valid = read_file(path);

  fl::Simulation target = fl::build_simulation(config);
  target.server->run(1);
  const std::string state_path = temp_path("fedcav_fuzz_target_ckpt.bin");
  target.server->save_checkpoint(state_path);
  const ByteBuffer before = read_file(state_path);

  const std::string mutated_path = temp_path("fedcav_fuzz_mutated_ckpt.bin");
  FEDCAV_PROPERTY("checkpoint truncation / bit flip rejected", 200, [&](Rng& rng) {
    ByteBuffer mutated = valid;
    if (rng.bernoulli(0.5)) {
      mutated.resize(static_cast<std::size_t>(rng.uniform_int(valid.size())));
    } else {
      const std::uint64_t bit = rng.uniform_int(valid.size() * 8);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    write_file(mutated_path, mutated);
    EXPECT_THROW(target.server->load_checkpoint(mutated_path), Error);
    target.server->save_checkpoint(state_path);
    EXPECT_EQ(read_file(state_path), before) << "a failed load changed the server";
  });
  for (const std::string& p : {path, state_path, mutated_path}) std::remove(p.c_str());
}

}  // namespace
}  // namespace fedcav
