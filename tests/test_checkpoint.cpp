// Checkpoint resume semantics: a run restored into a *fresh* server
// must continue bit-identically to one that never stopped — including
// sampler streams, straggler draws, per-client shuffle RNGs, the cached
// reverse-target weights, and the detector reference. v3 adds the comm
// fabric's fault-RNG streams and in-flight messages, so that holds for
// chaos runs too. Also covers the v1/v2 compatibility paths and
// malformed-file rejection.
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

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

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
  // weights — state that only survives a save/load through the v2
  // format (a v1 resume would improvise both and diverge).
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
  // The hard case for v3: an active fault plan means the resumed run
  // must replay the exact same per-link fault draws AND see the same
  // stale duplicates still sitting in the fabric's queues.
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
  // fabric's books still balance. (The v3 format dropped the counters,
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
  // The v5 payload under test: after two int8 + top-k rounds every
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
  first_half.server->save_checkpoint(path);  // v5 by default

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

  // Prior formats still round-trip for the same run — a v4 file simply
  // never carried the residual, so it loads with the residuals cleared
  // (resumable, not bit-identical).
  const std::string v4_path = temp_path("fedcav_quant_v4_ckpt.bin");
  first_half.server->save_checkpoint(v4_path, /*version=*/4);
  fl::Simulation legacy = fl::build_simulation(config);
  legacy.server->load_checkpoint(v4_path);
  EXPECT_EQ(legacy.server->current_round(), 2u);
  legacy.server->run_round();  // must run cleanly from the cleared state
  std::remove(path.c_str());
  std::remove(v4_path.c_str());
}

TEST(CheckpointResume, WritesLoadableV2Files) {
  set_log_level(LogLevel::kError);
  // The legacy fabric-free format is still writable (version = 2) and
  // loadable; on a fault-free fabric the resume stays bit-identical
  // because a fresh fabric and a quiescent one behave the same.
  fl::SimulationConfig config = small_config();
  fl::Simulation continuous = fl::build_simulation(config);
  continuous.server->run(3);

  fl::Simulation first_half = fl::build_simulation(config);
  first_half.server->run(1);
  const std::string path = temp_path("fedcav_v2_ckpt.bin");
  first_half.server->save_checkpoint(path, /*version=*/2);

  fl::Simulation resumed = fl::build_simulation(config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->current_round(), 1u);
  resumed.server->run(2);
  EXPECT_EQ(resumed.server->global_weights(), continuous.server->global_weights());
  std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsUnsupportedSaveVersion) {
  set_log_level(LogLevel::kError);
  fl::Simulation sim = fl::build_simulation(small_config());
  EXPECT_THROW(sim.server->save_checkpoint(temp_path("never_written.bin"), 1), Error);
  EXPECT_THROW(sim.server->save_checkpoint(temp_path("never_written.bin"), 7), Error);
}

TEST(CheckpointResume, V6RoundTripsDerivedSeedMode) {
  set_log_level(LogLevel::kError);
  // The v6 payload carries the RNG mode: a derived-seed run restored
  // into a fresh (legacy-default) server must come back in derived mode,
  // or the resumed half would re-derive nothing and diverge.
  fl::SimulationConfig config = small_config();
  config.server.rng_mode = RngMode::kDerived;
  config.server.straggler_drop_prob = 0.2;
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(2);
  const std::string path = temp_path("fedcav_v6_mode_ckpt.bin");
  sim.server->save_checkpoint(path);  // default version = 6

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

TEST(CheckpointResume, PreV6FilesLoadInLegacyStreamMode) {
  set_log_level(LogLevel::kError);
  // A v5 file has no RNG-mode byte; loading one must force legacy-stream
  // mode even into a server configured for derived seeds — the old file
  // recorded advancing streams, not per-round derivation.
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const std::string path = temp_path("fedcav_v5_mode_ckpt.bin");
  sim.server->save_checkpoint(path, /*version=*/5);

  fl::SimulationConfig derived_config = small_config();
  derived_config.server.rng_mode = RngMode::kDerived;
  fl::Simulation resumed = fl::build_simulation(derived_config);
  resumed.server->load_checkpoint(path);
  EXPECT_EQ(resumed.server->config().rng_mode, RngMode::kLegacyStream);
  std::remove(path.c_str());
}

TEST(CheckpointResume, LoadsLegacyV1Files) {
  set_log_level(LogLevel::kError);
  fl::SimulationConfig config = small_config();
  fl::Simulation sim = fl::build_simulation(config);
  sim.server->run(1);
  const nn::Weights weights = sim.server->global_weights();

  // Hand-written v1 payload: magic, round, weights — nothing else.
  ByteBuffer buf;
  write_u64(buf, 0xfedca5c4ec9017ULL);
  write_u64(buf, 7);
  write_f32_span(buf, weights);
  const std::string path = temp_path("fedcav_v1_ckpt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }

  fl::Simulation fresh = fl::build_simulation(config);
  fresh.server->load_checkpoint(path);
  EXPECT_EQ(fresh.server->current_round(), 7u);
  EXPECT_EQ(fresh.server->global_weights(), weights);
  EXPECT_FALSE(fresh.server->detector().has_reference());
  fresh.server->run_round();  // resumable, just not bit-identical
  EXPECT_EQ(fresh.server->current_round(), 8u);
  std::remove(path.c_str());
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

}  // namespace
}  // namespace fedcav
