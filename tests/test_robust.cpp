// Tests for the Byzantine-robust aggregation rules and straggler
// handling in the server.
#include <gtest/gtest.h>

#include "src/fl/robust.hpp"
#include "src/fl/simulation.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::fl {
namespace {

ClientUpdate update_of(std::size_t id, std::vector<float> weights) {
  ClientUpdate u;
  u.client_id = id;
  u.weights = std::move(weights);
  u.num_samples = 10;
  u.inference_loss = 1.0;
  return u;
}

// ------------------------------------------------------------- median

TEST(CoordinateMedian, OddCohortPicksMiddleValue) {
  CoordinateMedian strategy;
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {1.0f, -10.0f}));
  updates.push_back(update_of(1, {2.0f, 0.0f}));
  updates.push_back(update_of(2, {100.0f, 10.0f}));
  const nn::Weights out = strategy.aggregate({0.0f, 0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(CoordinateMedian, EvenCohortAveragesCentralPair) {
  CoordinateMedian strategy;
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {1.0f}));
  updates.push_back(update_of(1, {3.0f}));
  updates.push_back(update_of(2, {5.0f}));
  updates.push_back(update_of(3, {100.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
}

TEST(CoordinateMedian, IgnoresSingleOutlier) {
  // One Byzantine update full of huge values must not move the median.
  CoordinateMedian strategy;
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < 4; ++i) updates.push_back(update_of(i, {1.0f, 2.0f}));
  updates.push_back(update_of(4, {1e9f, -1e9f}));
  const nn::Weights out = strategy.aggregate({0.0f, 0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

// -------------------------------------------------------- trimmed mean

TEST(TrimmedMean, TrimsTailsSymmetrically) {
  TrimmedMean strategy(0.25);  // with n=4: trim 1 from each side
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {0.0f}));
  updates.push_back(update_of(1, {1.0f}));
  updates.push_back(update_of(2, {3.0f}));
  updates.push_back(update_of(3, {1000.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 2.0f);  // mean of {1, 3}
}

TEST(TrimmedMean, ZeroTrimIsPlainMean) {
  TrimmedMean strategy(0.0);
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {2.0f}));
  updates.push_back(update_of(1, {4.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(TrimmedMean, RejectsExcessiveTrim) {
  EXPECT_THROW(TrimmedMean(0.5), Error);
  EXPECT_THROW(TrimmedMean(-0.1), Error);
}

// ---------------------------------------------------------------- krum

TEST(Krum, SelectsMemberOfTheCluster) {
  // Four clustered updates plus one far-away Byzantine: Krum must pick a
  // cluster member.
  Krum strategy(1);
  Rng rng(1);
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<float> w(8);
    for (auto& v : w) v = 1.0f + rng.uniform_f(-0.01f, 0.01f);
    updates.push_back(update_of(i, std::move(w)));
  }
  updates.push_back(update_of(4, std::vector<float>(8, 500.0f)));
  const std::size_t chosen = strategy.select(updates);
  EXPECT_LT(chosen, 4u);
  const nn::Weights out = strategy.aggregate(nn::Weights(8, 0.0f), updates);
  EXPECT_NEAR(out[0], 1.0f, 0.05f);
}

TEST(Krum, AggregationWeightsAreOneHot) {
  Krum strategy(1);
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < 4; ++i) {
    updates.push_back(update_of(i, {static_cast<float>(i)}));
  }
  const auto weights = strategy.aggregation_weights(updates);
  double sum = 0.0;
  int ones = 0;
  for (double w : weights) {
    sum += w;
    if (w == 1.0) ++ones;
  }
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_EQ(ones, 1);
}

TEST(Krum, AggregationWeightsOnWeightlessMetadataAreUniform) {
  // The server estimates an attack round's γ from metadata that carries
  // no weight vectors; Krum then has nothing to select on.
  Krum strategy(1);
  std::vector<ClientUpdate> metadata;
  for (std::size_t i = 0; i < 6; ++i) metadata.push_back(update_of(i, {}));
  const auto weights = strategy.aggregation_weights(metadata);
  ASSERT_EQ(weights.size(), 6u);
  for (double w : weights) EXPECT_DOUBLE_EQ(w, 1.0 / 6.0);
}

TEST(Krum, SingleUpdateIsReturned) {
  Krum strategy(1);
  std::vector<ClientUpdate> updates;
  updates.push_back(update_of(0, {7.0f}));
  const nn::Weights out = strategy.aggregate({0.0f}, updates);
  EXPECT_FLOAT_EQ(out[0], 7.0f);
}

// ------------------------------------------------------------- factory

TEST(RobustFactory, BuildsAllRules) {
  EXPECT_EQ(make_strategy("median")->name(), "CoordinateMedian");
  EXPECT_NE(make_strategy("trimmedmean")->name().find("TrimmedMean"), std::string::npos);
  EXPECT_NE(make_strategy("krum")->name().find("Krum"), std::string::npos);
}

TEST(RobustFactory, RobustRulesSurviveByzantineRound) {
  set_log_level(LogLevel::kError);
  for (const char* name : {"median", "trimmedmean"}) {
    SimulationConfig config;
    config.dataset = "digits";
    config.model = "mlp";
    config.strategy = name;
    config.train_samples_per_class = 15;
    config.test_samples_per_class = 10;
    // IID cohort: the median of honest updates is a sensible model, so
    // the test isolates Byzantine robustness from non-IID drift.
    config.partition.scheme = data::PartitionScheme::kIidBalanced;
    config.partition.num_clients = 8;
    config.server.local.lr = 0.05f;
    config.attack = "byzantine";
    config.attack_rounds = {2, 4};
    Simulation sim = build_simulation(config);
    sim.server->run(12);
    // Robust rules keep learning through the corrupted rounds.
    EXPECT_GT(sim.server->history().best_accuracy(), 0.3) << name;
  }
}

// ----------------------------------------------------------- straggler

TEST(Straggler, DropReducesParticipantsButTrainingContinues) {
  set_log_level(LogLevel::kError);
  SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 15;
  config.test_samples_per_class = 10;
  config.partition.num_clients = 10;
  config.server.sample_ratio = 1.0;
  config.server.straggler_drop_prob = 0.5;
  config.server.local.lr = 0.05f;
  Simulation sim = build_simulation(config);
  sim.server->run(6);
  // Some rounds lost participants but none went empty.
  bool any_reduced = false;
  for (const auto& record : sim.server->history().records()) {
    EXPECT_GE(record.participants, 1u);
    EXPECT_LE(record.participants, 10u);
    if (record.participants < 10) any_reduced = true;
  }
  EXPECT_TRUE(any_reduced);
  EXPECT_GT(sim.server->history().best_accuracy(), 0.3);
}

// The one semantics change of the streaming-only round path: a
// non-streaming rule now shares the streaming flow, so a reversed round
// trains no one after detection (the old materializing flow trained
// every survivor first, advancing each client's batch RNG for nothing).
TEST(CoordinateMedian, ReversedRoundLeavesNonVictimClientsUntrained) {
  set_log_level(LogLevel::kError);
  SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.strategy = "median";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 4;
  config.server.sample_ratio = 1.0;
  config.server.local.epochs = 1;
  config.server.detection_enabled = true;
  config.server.detector.vote_fraction = 0.25;  // the victim's vote suffices
  config.attack = "lossinflation";
  config.attack_rounds = {3};
  Simulation sim = build_simulation(config);
  sim.server->run(2);

  const auto client_state = [&](std::size_t i) {
    ByteBuffer buf;
    sim.server->client_at(i).save_state(buf);
    return buf;
  };
  std::vector<ByteBuffer> before;
  for (std::size_t i = 0; i < 4; ++i) before.push_back(client_state(i));

  const auto record = sim.server->run_round();
  ASSERT_TRUE(record.attacked);
  ASSERT_TRUE(record.detection_fired) << "loss inflation did not trip the detector";
  ASSERT_TRUE(record.reversed);
  // Slot 0 is the victim, trained before detection; no one else trained.
  std::size_t advanced = 0;
  for (std::size_t i = 0; i < 4; ++i) advanced += client_state(i) != before[i];
  EXPECT_EQ(advanced, 1u);
}

TEST(Straggler, ZeroProbabilityKeepsFullCohort) {
  set_log_level(LogLevel::kError);
  SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.sample_ratio = 0.5;
  Simulation sim = build_simulation(config);
  const auto record = sim.server->run_round();
  EXPECT_EQ(record.participants, 3u);
}

TEST(Straggler, ValidatesProbability) {
  SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 12;
  config.test_samples_per_class = 8;
  config.partition.num_clients = 6;
  config.server.straggler_drop_prob = 1.0;
  EXPECT_THROW(build_simulation(config), Error);
}

}  // namespace
}  // namespace fedcav::fl
