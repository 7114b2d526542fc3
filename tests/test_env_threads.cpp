// FEDCAV_TEST_SHARDS hook, compiled into every test binary.
//
// FEDCAV_TEST_SHARDS=S raises the sharded round engine's process default
// shard count (DESIGN.md §15), so every Server round in the suite —
// goldens and chaos seeds included — runs S-sharded. The §15 contract
// says shard count is invisible to results, so the whole suite must
// pass unchanged under =1 and =4; scripts/check.sh replays the golden +
// chaos-seed suites under both.
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "src/fl/round_engine.hpp"

namespace {

class RoundShardsEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* value = std::getenv("FEDCAV_TEST_SHARDS");
    if (value == nullptr) return;
    const int shards = std::atoi(value);
    if (shards <= 0) return;
    fedcav::fl::set_default_round_shards(static_cast<std::size_t>(shards));
    std::printf("[FEDCAV_TEST_SHARDS] round engine default: %d shard%s\n",
                shards, shards == 1 ? "" : "s");
  }

  void TearDown() override { fedcav::fl::set_default_round_shards(0); }
};

// Registration happens at static-init time; gtest owns the Environment.
const ::testing::Environment* const kRoundShardsEnvironment =
    ::testing::AddGlobalTestEnvironment(new RoundShardsEnvironment);

}  // namespace
