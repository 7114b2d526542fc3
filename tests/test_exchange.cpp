// The participant exchange (src/fl/exchange.*, DESIGN.md §10/§14): the
// codecs round-trip through their own accept filters, each filter
// rejects what is not addressed to it, and a remote server over a real
// socket turns a spoofed uplink into a counted stale discard and refuses
// to checkpoint state that lives in the workers.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include <stdlib.h>

#include "src/comm/socket_transport.hpp"
#include "src/fl/exchange.hpp"
#include "src/fl/simulation.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"

namespace fedcav {
namespace {

using fl::Exchange;
using fl::Verdict;

fl::SimulationConfig tiny_config(std::size_t clients) {
  fl::SimulationConfig config;
  config.dataset = "digits";
  config.model = "mlp";
  config.train_samples_per_class = 6;
  config.test_samples_per_class = 4;
  config.partition.num_clients = clients;
  config.server.sample_ratio = 1.0;
  config.server.local.epochs = 1;
  config.server.local.batch_size = 8;
  return config;
}

class ExchangeCodecs : public ::testing::TestWithParam<comm::QuantMode> {};

TEST_P(ExchangeCodecs, EveryKindRoundTripsThroughItsFilter) {
  set_log_level(LogLevel::kError);
  fl::Simulation sim = fl::build_simulation(tiny_config(2));
  fl::Client& client = sim.server->client_at(1);
  nn::Weights global = sim.server->global_weights();
  const Exchange exchange(GetParam(), 1.0, global.size());

  const ByteBuffer down_wire = exchange.encode_downlink(3, global);
  fl::Downlink down;
  EXPECT_EQ(exchange.accept_downlink(down_wire, 4, down), Verdict::kStale);  // round
  ASSERT_EQ(exchange.accept_downlink(down_wire, std::nullopt, down), Verdict::kAccepted);
  EXPECT_EQ(down.round, 3u);
  EXPECT_EQ(down.weights, global);  // a quantized run adopted the decoded image

  const ByteBuffer meta_wire = Exchange::encode_metadata(3, client, 0.25);
  fl::ClientUpdate meta;
  EXPECT_EQ(Exchange::accept_metadata(meta_wire, 3, 0, meta), Verdict::kStale);  // id
  ASSERT_EQ(Exchange::accept_metadata(meta_wire, 3, 1, meta), Verdict::kAccepted);
  EXPECT_EQ(meta.client_id, 1u);
  EXPECT_EQ(meta.num_samples, client.num_samples());
  EXPECT_EQ(meta.inference_loss, 0.25);

  fl::ClientUpdate trained;
  trained.client_id = 1;
  trained.num_samples = client.num_samples();
  trained.inference_loss = 0.25;
  trained.weights = global;
  for (float& w : trained.weights) w += 0.125f;
  const ByteBuffer report_wire = exchange.encode_report(3, client, trained, global);
  fl::ClientUpdate report;
  EXPECT_EQ(exchange.accept_report(report_wire, 2, 1, global, report), Verdict::kStale);
  EXPECT_EQ(exchange.accept_report(report_wire, 3, 0, global, report), Verdict::kStale);
  // Another kind on the same link is stale; a flipped bit is corrupt.
  EXPECT_EQ(exchange.accept_report(meta_wire, 3, 1, global, report), Verdict::kStale);
  ByteBuffer flipped = report_wire;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_EQ(exchange.accept_report(flipped, 3, 1, global, report), Verdict::kCorrupt);
  ASSERT_EQ(exchange.accept_report(report_wire, 3, 1, global, report),
            Verdict::kAccepted);
  EXPECT_EQ(report.client_id, 1u);
  ASSERT_EQ(report.weights.size(), global.size());
  if (GetParam() == comm::QuantMode::kNone) {
    EXPECT_EQ(report.weights, trained.weights);
  }

  // The unmetered codec reconstructs what the wire would have.
  nn::Weights local = trained.weights;
  fl::Simulation twin = fl::build_simulation(tiny_config(2));
  exchange.apply_report_codec(twin.server->client_at(1), local, global);
  EXPECT_EQ(local, report.weights);

  comm::NackMsg nack;
  const ByteBuffer nack_wire =
      Exchange::encode_nack(3, comm::MessageType::kMetadataReport);
  EXPECT_EQ(exchange.accept_downlink(nack_wire, 3, down, &nack), Verdict::kNack);
  EXPECT_EQ(nack.expected, comm::MessageType::kMetadataReport);
}

INSTANTIATE_TEST_SUITE_P(Modes, ExchangeCodecs,
                         ::testing::Values(comm::QuantMode::kNone, comm::QuantMode::kFp16,
                                           comm::QuantMode::kInt8));

std::string temp_socket_path() {
  char dir[] = "/tmp/fedcavXXXXXX";
  const char* made = ::mkdtemp(dir);
  EXPECT_NE(made, nullptr);
  return std::string(dir) + "/fed.sock";
}

/// A one-client remote federation: the server on rank 0 of a real Unix
/// socket, the worker end left to the test.
struct RemoteFederation {
  fl::Simulation sim;
  std::unique_ptr<comm::SocketTransport> daemon;
  std::unique_ptr<comm::SocketTransport> worker;

  RemoteFederation() : sim(fl::build_simulation(remote_config())) {
    const std::string path = temp_socket_path();
    std::thread joiner([&] { worker = comm::SocketTransport::connect(path, 1, {}); });
    daemon = comm::SocketTransport::serve(path, 1, {});
    joiner.join();
    sim.server->set_transport(daemon.get(), /*remote=*/true);
  }

  static fl::SimulationConfig remote_config() {
    fl::SimulationConfig config = tiny_config(1);
    config.server.remote_recv_timeout_s = 20.0;  // a hang fails, not wedges
    return config;
  }
};

TEST(RemoteServer, SpoofedClientIdIsStaleAndBecomesDropout) {
  set_log_level(LogLevel::kError);
  RemoteFederation fed;
  // The worker answers the downlink with metadata claiming another
  // client's id, then disconnects.
  std::thread spoofer([&] {
    std::optional<ByteBuffer> wire;
    while (!(wire = fed.worker->try_recv_wire(1, 0)).has_value()) fed.worker->poll(0.05);
    const comm::MetadataMsg spoofed{1, /*client_id=*/7, 50, 0.5};
    fed.worker->send(1, 0, comm::Envelope{comm::MessageType::kMetadataReport,
                                          spoofed.encode()});
    fed.worker.reset();
  });
  const metrics::RoundRecord record = fed.sim.server->run_round();
  spoofer.join();
  EXPECT_EQ(record.stale_discards, 1u);
  EXPECT_EQ(record.dropouts, 1u);
  EXPECT_EQ(record.participants, 0u);
  EXPECT_EQ(record.upload_failures, 0u);
}

TEST(RemoteServer, SaveCheckpointFailsInRemoteMode) {
  set_log_level(LogLevel::kError);
  RemoteFederation fed;
  const std::string path = ::testing::TempDir() + "fedcav_remote_ckpt.bin";
  try {
    fed.sim.server->save_checkpoint(path);
    ADD_FAILURE() << "save_checkpoint wrote client state the workers own";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("remote mode"), std::string::npos) << e.what();
  }
  // Detaching the transport restores the in-process fabric, which saves.
  fed.sim.server->set_transport(nullptr, false);
  EXPECT_NO_THROW(fed.sim.server->save_checkpoint(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedcav
