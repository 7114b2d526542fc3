// Worker rank of a multi-process federation (DESIGN.md §14/§16).
//
// Builds the same simulation as the daemon (identical seeds → identical
// shards and model init), joins the daemon's socket (--socket PATH) or
// TCP address (--tcp HOST:PORT, optionally with --auth-token), and then
// serves round downlinks: compute the inference loss, uplink the
// metadata scalars, train locally, uplink the full report. The worker
// keeps no round schedule of its own — it reacts to whatever the daemon
// sends and exits when the daemon closes the connection (EOF is
// shutdown).
//
// With --derived-seeds the worker also evaluates its own straggler coin
// (a pure function of seed/round/client id — DESIGN.md §16): a
// straggled round uplinks the metadata scalars but skips training and
// the report, exactly like the in-process path, so sampled/straggler
// configs stay bit-identical across process layouts.
//
//   ./fedcav_worker --socket /tmp/fed.sock --clients 4 [--rank 2]
//
// The --exit-* flags are failure-injection hooks for the integration
// tests: they kill the process at protocol-relevant instants so the
// daemon's dropout / upload-failure accounting can be asserted.
#include <cstdio>
#include <exception>

#include <unistd.h>

#include "src/comm/socket_transport.hpp"
#include "src/comm/tcp_transport.hpp"
#include "src/fl/exchange.hpp"
#include "src/fl/simulation.hpp"
#include "src/nn/zoo.hpp"
#include "src/utils/cli.hpp"
#include "src/utils/logging.hpp"
#include "tools/federation_common.hpp"

int main(int argc, char** argv) {
  using namespace fedcav;

  CliParser cli("fedcav_worker", "worker rank of a socket federation");
  tools::add_federation_flags(cli);
  cli.add_int("rank", 0, "worker rank to join as (0 = daemon assigns)");
  cli.add_int("exit-before-round", 0,
              "TEST: exit upon receiving round N's downlink (dropout)");
  cli.add_int("exit-after-metadata", 0,
              "TEST: exit right after round N's metadata uplink "
              "(upload failure)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string socket_path = cli.get_string("socket");
  const std::string tcp_address = cli.get_string("tcp");
  if (socket_path.empty() == tcp_address.empty()) {
    std::fprintf(stderr,
                 "fedcav_worker: exactly one of --socket or --tcp is required\n");
    return 2;
  }

  set_log_level(LogLevel::kWarn);
  try {
    const fl::SimulationConfig config = tools::federation_config(cli);
    fl::Simulation sim = fl::build_simulation(config);

    comm::StreamTransportConfig tcfg;
    tcfg.auth_token = cli.get_string("auth-token");
    const long long rank_flag = cli.get_int("rank");
    const std::uint64_t want_rank =
        rank_flag == 0 ? comm::kAnyRank : static_cast<std::uint64_t>(rank_flag);
    std::unique_ptr<comm::StreamTransport> transport;
    if (!tcp_address.empty()) {
      transport = comm::TcpTransport::connect(tcp_address, want_rank, tcfg);
    } else {
      transport = comm::SocketTransport::connect(socket_path, want_rank, tcfg);
    }
    const std::size_t rank = transport->local_rank();
    constexpr std::size_t kServerRank = 0;

    fl::Client& client = sim.server->client_at(rank - 1);
    const fl::LocalTrainConfig local = sim.server->effective_local();
    // Same init stream the in-process server seeds its global model
    // with; the downlink overwrites the weights every round anyway.
    Rng model_rng(config.seed ^ 0xabcdef12345ULL);
    std::unique_ptr<nn::Model> model = nn::model_builder(config.model)(model_rng);

    const fl::Exchange exchange(config.server.quant, config.server.quant_keep,
                                model->num_params());
    const std::size_t exit_before =
        static_cast<std::size_t>(cli.get_int("exit-before-round"));
    const std::size_t exit_after_meta =
        static_cast<std::size_t>(cli.get_int("exit-after-metadata"));

    std::size_t last_round = 0;
    // This round's uplink images, encoded once and resent as-is on a
    // NACK or a duplicate downlink; empty = nothing to resend.
    ByteBuffer meta_wire;
    ByteBuffer report_wire;
    const auto resend = [&](const ByteBuffer& image) {
      if (!image.empty()) transport->send(rank, kServerRank, image);
    };

    for (;;) {
      std::optional<ByteBuffer> wire = transport->try_recv_wire(rank, kServerRank);
      if (!wire.has_value()) {
        if (transport->peer_closed(kServerRank)) break;  // daemon done
        transport->poll(0.1);
        continue;
      }
      fl::Downlink down;
      comm::NackMsg nack;
      switch (exchange.accept_downlink(*wire, std::nullopt, down, &nack)) {
        case fl::Verdict::kCorrupt:
          // Damaged frame: ask for a downlink retransmit (the only thing
          // the daemon ever sends us besides NACKs).
          transport->send(rank, kServerRank,
                          fl::Exchange::encode_nack(last_round + 1,
                                                    exchange.downlink_type()));
          continue;
        case fl::Verdict::kNack:
          resend(nack.expected == comm::MessageType::kMetadataReport &&
                         !meta_wire.empty()
                     ? meta_wire
                     : report_wire);
          continue;
        case fl::Verdict::kStale:
          continue;  // unexpected or malformed: drop
        case fl::Verdict::kAccepted:
          break;
      }
      const std::size_t round = down.round;
      if (round == last_round) {
        // Duplicate downlink (daemon-side retransmit raced our uplink):
        // resend the cached images instead of training again, so the
        // client RNG stream and quant residual advance exactly once per
        // round no matter how lossy the exchange was.
        resend(meta_wire);
        resend(report_wire);
        continue;
      }
      last_round = round;

      if (exit_before != 0 && round == exit_before) {
        ::_exit(0);  // vanish before any uplink → phase-① dropout
      }

      const double f_i = client.compute_inference_loss(*model, down.weights);
      meta_wire = fl::Exchange::encode_metadata(round, client, f_i);
      report_wire.clear();  // stale report must not answer NACKs
      transport->send(rank, kServerRank, meta_wire);

      if (exit_after_meta != 0 && round == exit_after_meta) {
        ::_exit(0);  // vanish mid-uplink → phase-② upload failure
      }

      if (config.server.rng_mode == RngMode::kDerived) {
        // The straggler coin is a pure function of (seed, round, client
        // id), so the worker reaches the same verdict the daemon does
        // without a control message: a straggled round ends after the
        // metadata uplink — no training, no report — exactly like the
        // in-process path. The report cache stays empty so a stray NACK
        // cannot resurrect a report the daemon never expected.
        if (derived_bernoulli(config.seed, round, client.id(),
                              RngStream::kStraggler,
                              config.server.straggler_drop_prob)) {
          continue;
        }
        // Per-participation reseed: local training draws from the same
        // derived stream regardless of this worker's downlink history.
        client.reseed_for_round(config.seed, round);
      }

      const fl::ClientUpdate update =
          client.train_update(*model, down.weights, local, f_i);
      report_wire = exchange.encode_report(round, client, update, down.weights);
      transport->send(rank, kServerRank, report_wire);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedcav_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
