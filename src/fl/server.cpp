#include "src/fl/server.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>

#include <unistd.h>

#include "src/comm/crc32.hpp"
#include "src/fl/round_engine.hpp"
#include "src/metrics/evaluation.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/timer.hpp"

namespace fedcav::fl {

namespace {

constexpr std::size_t kServerRank = 0;

// Checkpoint file: a magic, a section table, then the section payloads
// back to back in table order.
//
//   u64 kCheckpointMagic
//   u64 section count
//   count × { u32 tag, u64 payload length, u32 CRC-32 of the payload }
//   payloads
//
// The sections are, in this order: server (round, global weights, cached
// reverse-target weights, detector reference, RngMode), sampler,
// straggler RNG, one per client, and the fabric when the server owns an
// InMemoryNetwork. Every single-bit flip or truncation fails a check
// made before any section is parsed: a flipped count or tag breaks the
// expected sequence, a flipped length the length sum, and a flipped CRC
// or payload byte that section's checksum.
constexpr std::uint64_t kCheckpointMagic = 0x54504b4356414346ULL;  // "FCAVCKPT"
// The retired formats v1–v6 used magic kRetiredMagicBase + v; they are
// recognised only to name them in the rejection.
constexpr std::uint64_t kRetiredMagicBase = 0xfedca5c4ec9016ULL;
constexpr std::uint64_t kRetiredVersions = 6;

enum class Section : std::uint32_t {
  kServer = 1,
  kSampler = 2,
  kStraggler = 3,
  kClient = 4,
  kFabric = 5,
};

/// The section sequence a server with `clients` clients (and a fabric
/// when `fabric`) writes and accepts.
std::vector<Section> section_layout(std::size_t clients, bool fabric) {
  std::vector<Section> tags = {Section::kServer, Section::kSampler, Section::kStraggler};
  tags.insert(tags.end(), clients, Section::kClient);
  if (fabric) tags.push_back(Section::kFabric);
  return tags;
}

/// Checks `file` — magic, the exact section sequence for a server with
/// `clients` clients and (when `fabric`) an owned fabric, every length,
/// every CRC — and returns each section's payload, unparsed.
std::vector<std::span<const std::uint8_t>> split_sections(std::span<const std::uint8_t> file,
                                                          std::size_t clients, bool fabric,
                                                          const std::string& path) {
  const std::string where = "load_checkpoint: " + path + ": ";
  ByteReader reader(file);
  const std::uint64_t magic = reader.read_u64();
  const std::uint64_t retired = magic - kRetiredMagicBase;
  FEDCAV_REQUIRE(retired < 1 || retired > kRetiredVersions,
                 where + "checkpoint format v" + std::to_string(retired) +
                     " is retired and no longer loads");
  FEDCAV_REQUIRE(magic == kCheckpointMagic, where + "bad magic (not a checkpoint)");
  const std::string mismatch = where + "sections do not match a server with " +
                               std::to_string(clients) + " clients and " +
                               (fabric ? "a" : "no") + " fabric";
  const std::vector<Section> expected = section_layout(clients, fabric);
  FEDCAV_REQUIRE(reader.read_u64() == expected.size(), mismatch);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;  // (length, CRC)
  for (const Section tag : expected) {
    FEDCAV_REQUIRE(static_cast<Section>(reader.read_u32()) == tag, mismatch);
    const std::uint64_t length = reader.read_u64();
    entries.emplace_back(length, reader.read_u32());
  }
  std::size_t offset = file.size() - reader.remaining();
  std::vector<std::span<const std::uint8_t>> payloads;
  for (const auto& [length, crc] : entries) {
    const std::string section = " section #" + std::to_string(payloads.size());
    FEDCAV_REQUIRE(length <= file.size() - offset, where + "truncated in" + section);
    payloads.push_back(file.subspan(offset, length));
    offset += length;
    FEDCAV_REQUIRE(comm::crc32(payloads.back()) == crc, where + "CRC-32 mismatch in" + section);
  }
  FEDCAV_REQUIRE(offset == file.size(), where + "trailing bytes");
  return payloads;
}

/// Require that a section's parser consumed its whole payload.
void require_consumed(const ByteReader& reader, const std::string& path) {
  FEDCAV_REQUIRE(reader.exhausted(), "load_checkpoint: trailing bytes in a section of " + path);
}

/// Crash-safe replace of `path` with `bytes`: write the sibling
/// `path + ".tmp"`, fsync it, then rename it over the target. A crash at
/// any point leaves the old file or the new one, never a torn mix.
void replace_file(const std::string& path, const ByteBuffer& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  FEDCAV_REQUIRE(file != nullptr, "save_checkpoint: cannot open " + tmp);
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0 && ok;
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("save_checkpoint: write failed for " + path);
  }
}

/// Adds one exchange's retry/CRC/stale/deadline tallies to the round.
void tally(metrics::RoundRecord& record, const ParticipantOutcome& outcome) {
  record.retries += outcome.retries;
  record.crc_failures += outcome.crc_failures;
  record.stale_discards += outcome.stale_discards;
  if (outcome.deadline_missed) record.deadline_misses += 1;
}

/// Attributes a scope's wall time to one RoundPhases field and mirrors
/// it as a "round.phase" trace span. The Stopwatch is unconditional
/// (two steady-clock reads); the span is inert unless telemetry is on.
class PhaseTimer {
 public:
  PhaseTimer(const char* name, std::size_t round, double& out)
      : span_(name, "round.phase"), out_(out) {
    span_.arg("round", static_cast<double>(round));
  }
  ~PhaseTimer() { out_ += watch_.seconds(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Span span_;
  Stopwatch watch_;
  double& out_;
};

}  // namespace

void ServerConfig::validate(std::size_t num_clients) const {
  FEDCAV_REQUIRE(sample_ratio > 0.0 && sample_ratio <= 1.0,
                 "ServerConfig: sample_ratio must be in (0, 1]");
  FEDCAV_REQUIRE(num_clients >= 1, "ServerConfig: need at least one client");
  FEDCAV_REQUIRE(eval_batch_size > 0, "ServerConfig: zero eval batch size");
  FEDCAV_REQUIRE(straggler_drop_prob >= 0.0 && straggler_drop_prob < 1.0,
                 "ServerConfig: straggler_drop_prob must be in [0, 1)");
  FEDCAV_REQUIRE(min_aggregate_clients >= 1,
                 "ServerConfig: min_aggregate_clients must be >= 1");
  FEDCAV_REQUIRE(min_aggregate_clients <= num_clients,
                 "ServerConfig: min_aggregate_clients exceeds the client count");
  FEDCAV_REQUIRE(max_retries <= 16,
                 "ServerConfig: max_retries > 16 (exponential backoff overflows)");
  FEDCAV_REQUIRE(retry_backoff_s >= 0.0, "ServerConfig: negative retry_backoff_s");
  FEDCAV_REQUIRE(uplink_deadline_s >= 0.0, "ServerConfig: negative uplink_deadline_s");
  FEDCAV_REQUIRE(quant_keep > 0.0 && quant_keep <= 1.0,
                 "ServerConfig: quant_keep must be in (0, 1]");
}

Server::Server(std::unique_ptr<nn::Model> global_model,
               std::unique_ptr<AggregationStrategy> strategy,
               std::vector<std::unique_ptr<Client>> clients, data::Dataset test_set,
               ServerConfig config)
    : global_model_(std::move(global_model)),
      strategy_(std::move(strategy)),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      effective_local_(config.local),
      detector_(config.detector),
      sampler_(config.sampler, clients_.size(), config.sample_ratio, config.seed),
      straggler_rng_(config.seed ^ 0x57a661e2ULL) {
  FEDCAV_REQUIRE(global_model_ != nullptr, "Server: null global model");
  FEDCAV_REQUIRE(strategy_ != nullptr, "Server: null strategy");
  FEDCAV_REQUIRE(!clients_.empty(), "Server: no clients");
  FEDCAV_REQUIRE(!test_set_.empty(), "Server: empty test set");
  config_.validate(clients_.size());
  strategy_->apply_local_overrides(effective_local_);
  if (config_.telemetry) obs::set_enabled(true);

  global_weights_ = global_model_->get_weights();
  cached_weights_ = global_weights_;
  exchange_ = Exchange(config_.quant, config_.quant_keep, global_weights_.size());
  if (config_.use_network) {
    comm::NetworkConfig net = config_.network;
    net.num_endpoints = clients_.size() + 1;
    network_ = std::make_unique<comm::InMemoryNetwork>(net);
    transport_ = network_.get();
  }
}

void Server::set_transport(comm::Transport* transport, bool remote) {
  if (transport == nullptr) {
    transport_ = network_.get();
    remote_ = false;
    return;
  }
  FEDCAV_REQUIRE(transport->num_endpoints() == clients_.size() + 1,
                 "Server::set_transport: transport endpoint count must be "
                 "num_clients + 1");
  transport_ = transport;
  remote_ = remote;
}

void Server::set_adversary(std::shared_ptr<attack::Adversary> adversary,
                           std::set<std::size_t> attack_rounds) {
  adversary_ = std::move(adversary);
  attack_rounds_ = std::move(attack_rounds);
}

void Server::set_strategy(std::unique_ptr<AggregationStrategy> strategy) {
  FEDCAV_REQUIRE(strategy != nullptr, "Server::set_strategy: null strategy");
  strategy_ = std::move(strategy);
  effective_local_ = config_.local;
  strategy_->apply_local_overrides(effective_local_);
}

void Server::set_global_weights(nn::Weights weights) {
  FEDCAV_REQUIRE(weights.size() == global_weights_.size(),
                 "Server::set_global_weights: size mismatch");
  global_weights_ = std::move(weights);
  global_model_->set_weights(global_weights_);
}

double Server::evaluate_accuracy() {
  global_model_->set_weights(global_weights_);
  return metrics::accuracy(*global_model_, test_set_, config_.eval_batch_size);
}

void Server::redistribute_data(std::vector<data::Dataset> per_client) {
  FEDCAV_REQUIRE(per_client.size() == clients_.size(),
                 "Server::redistribute_data: dataset count mismatch");
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->set_local_data(std::move(per_client[i]));
  }
}

ThreadPool& Server::pool() const {
  return pool_ != nullptr ? *pool_ : global_thread_pool();
}

void Server::ensure_replica_pool() {
  // Workers plus the caller (parallel_for may run a chunk inline), so
  // acquire() can never starve a thread that holds no lease yet.
  const std::size_t max_replicas = pool().size() + 1;
  if (replica_pool_ == nullptr || replica_pool_->max_replicas() != max_replicas) {
    replica_pool_ = std::make_unique<nn::ReplicaPool>(*global_model_, max_replicas);
  }
}

ParticipantOutcome Server::run_participant_metadata(std::size_t client_index) {
  obs::Span span("participant", "client");
  span.arg("client", static_cast<double>(client_index));
  ParticipantOutcome out;
  Client& client = *clients_[client_index];
  if (transport_ == nullptr) {
    nn::ReplicaPool::Lease replica = replica_pool_->acquire();
    ClientUpdate meta;
    meta.client_id = client.id();
    meta.num_samples = client.num_samples();
    meta.inference_loss = client.compute_inference_loss(replica.model(), global_weights_);
    out.metadata = std::move(meta);
    return out;
  }
  // Weights travel through the transport both ways so byte counters see
  // the genuine serialized payloads.
  const std::size_t rank = client_index + 1;
  ClientUpdate metadata;
  const AcceptFn accept_metadata = [&](const ByteBuffer& wire) {
    return Exchange::accept_metadata(wire, round_, client.id(), metadata);
  };
  bool received = false;
  if (remote_) {
    // The broadcast went out in run_round; its simulated cost is still
    // charged to this participant's exchange.
    out.elapsed_s += transport_->model_transfer_seconds(downlink_wire_.size());
    received = await_uplink(*transport_, rank, round_, comm::MessageType::kMetadataReport,
                            downlink_wire_, config_.max_retries,
                            config_.remote_recv_timeout_s, out, accept_metadata);
  } else {
    // Sending this participant's copy of the broadcast here, not in the
    // broadcast phase, keeps O(workers) wire images of the model in the
    // fabric instead of O(cohort).
    Downlink down;
    if (deliver(*transport_, kServerRank, rank, downlink_wire_, round_,
                config_.max_retries, config_.retry_backoff_s, out,
                [&](const ByteBuffer& wire) {
                  return exchange_.accept_downlink(wire, round_, down);
                })) {
      // The decoded copy dies here: phase ② re-loads the server's own
      // global_weights_, which the wire keeps bit-equal.
      double f_i = 0.0;
      {
        nn::ReplicaPool::Lease replica = replica_pool_->acquire();
        f_i = client.compute_inference_loss(replica.model(), down.weights);
        nn::Weights().swap(down.weights);
      }
      received = deliver(*transport_, rank, kServerRank,
                         Exchange::encode_metadata(round_, client, f_i), round_,
                         config_.max_retries, config_.retry_backoff_s, out,
                         accept_metadata);
    }
  }
  if (received && within_deadline(out)) out.metadata = std::move(metadata);
  return out;
}

std::optional<ClientUpdate> Server::run_participant_train(std::size_t client_index,
                                                          double inference_loss,
                                                          ParticipantOutcome& counters) {
  obs::Span span("participant", "client");
  span.arg("client", static_cast<double>(client_index));
  Client& client = *clients_[client_index];
  const std::size_t rank = client_index + 1;
  ClientUpdate update;
  // The report is accepted against global_weights_ (= w̃_t): a quantized
  // delta is reconstructed per slot right here, so the downstream fold
  // sees dense weights either way.
  const AcceptFn accept_report = [&](const ByteBuffer& wire) {
    return exchange_.accept_report(wire, round_, client.id(), global_weights_, update);
  };
  bool received = false;
  if (remote_) {
    // The worker trains unprompted after the downlink.
    received = await_uplink(*transport_, rank, round_, exchange_.report_type(),
                            downlink_wire_, config_.max_retries,
                            config_.remote_recv_timeout_s, counters, accept_report);
  } else {
    // Derived mode: the batch-shuffle stream for this participation is
    // Rng(derive_seed(seed, round, id, kClientTrain)) — the same stream a
    // remote worker hosting this client derives for itself (§16).
    if (config_.rng_mode == RngMode::kDerived) {
      client.reseed_for_round(config_.seed, round_);
    }
    {
      nn::ReplicaPool::Lease replica = replica_pool_->acquire();
      update = client.train_update(replica.model(), global_weights_, effective_local_,
                                   inference_loss);
    }
    if (transport_ == nullptr) {
      // Unmetered: the same codec effect, without the wire.
      exchange_.apply_report_codec(client, update.weights, global_weights_);
      return update;
    }
    // Encoded once: retries resend the same image, so the error-feedback
    // residual advances exactly once per participation.
    received = deliver(*transport_, rank, kServerRank,
                       exchange_.encode_report(round_, client, update, global_weights_),
                       round_, config_.max_retries, config_.retry_backoff_s, counters,
                       accept_report);
  }
  if (!received || !within_deadline(counters)) return std::nullopt;  // upload failure
  return update;
}

bool Server::within_deadline(ParticipantOutcome& counters) const {
  if (config_.uplink_deadline_s > 0.0 && counters.elapsed_s > config_.uplink_deadline_s) {
    counters.deadline_missed = true;
    return false;
  }
  return true;
}

void Server::set_lr_schedule(std::unique_ptr<nn::LrSchedule> schedule) {
  lr_schedule_ = std::move(schedule);
}

void Server::save_checkpoint(const std::string& path) const {
  // The per-client batch RNGs, FedCurv anchors and error-feedback
  // residuals of a remote federation live in the worker processes; the
  // daemon's copies never advance, so a file written here would resume
  // from stale client state.
  FEDCAV_REQUIRE(!remote_,
                 "save_checkpoint: not supported in remote mode — client state "
                 "lives in the worker processes");
  const std::vector<Section> tags = section_layout(clients_.size(), network_ != nullptr);
  std::vector<ByteBuffer> payloads(tags.size());
  ByteBuffer& server = payloads[0];
  write_u64(server, round_);
  write_f32_span(server, global_weights_);
  // The reverse target w_{t-1}: without it a resumed run that trips the
  // detector would "reverse" to whatever the loader improvised.
  write_f32_span(server, cached_weights_);
  const std::optional<double> reference = detector_.reference_max();
  write_u8(server, reference.has_value() ? 1 : 0);
  write_f64(server, reference.value_or(0.0));
  // The mode travels with the run: a derived-seed run resumes deriving.
  write_u8(server, static_cast<std::uint8_t>(config_.rng_mode));
  sampler_.save_state(payloads[1]);
  write_rng_state(payloads[2], straggler_rng_.state());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->save_state(payloads[3 + i]);
  }
  // Fault-RNG streams, in-flight wire images and the traffic/fault
  // accounting, so a resumed chaos run replays the same fault sequence.
  if (network_ != nullptr) network_->save_state(payloads.back());

  ByteBuffer file;
  write_u64(file, kCheckpointMagic);
  write_u64(file, tags.size());
  for (std::size_t i = 0; i < tags.size(); ++i) {
    write_u32(file, static_cast<std::uint32_t>(tags[i]));
    write_u64(file, payloads[i].size());
    write_u32(file, comm::crc32(payloads[i]));
  }
  for (const ByteBuffer& payload : payloads) {
    file.insert(file.end(), payload.begin(), payload.end());
  }
  replace_file(path, file);
}

void Server::load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  FEDCAV_REQUIRE(in.good(), "load_checkpoint: cannot open " + path);
  ByteBuffer file(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(file.data()), static_cast<std::streamsize>(file.size()));
  FEDCAV_REQUIRE(in.good(), "load_checkpoint: read failed for " + path);
  const std::vector<std::span<const std::uint8_t>> payloads =
      split_sections(file, clients_.size(), network_ != nullptr, path);

  // Stage: parse every section into a value the server does not own yet.
  ByteReader server(payloads[0]);
  const std::uint64_t saved_round = server.read_u64();
  nn::Weights weights = server.read_f32_vector();
  FEDCAV_REQUIRE(weights.size() == global_weights_.size(),
                 "load_checkpoint: weight count mismatch in " + path);
  nn::Weights cached = server.read_f32_vector();
  FEDCAV_REQUIRE(cached.size() == global_weights_.size(),
                 "load_checkpoint: cached weight count mismatch in " + path);
  const bool has_reference = server.read_u8() != 0;
  const double reference = server.read_f64();
  const std::uint8_t mode = server.read_u8();
  FEDCAV_REQUIRE(mode <= static_cast<std::uint8_t>(RngMode::kDerived),
                 "load_checkpoint: bad rng_mode in " + path);
  require_consumed(server, path);

  ParticipantSampler sampler = sampler_;
  ByteReader sampler_reader(payloads[1]);
  sampler.load_state(sampler_reader);
  require_consumed(sampler_reader, path);

  Rng straggler;
  ByteReader straggler_reader(payloads[2]);
  straggler.set_state(read_rng_state(straggler_reader));
  require_consumed(straggler_reader, path);

  std::vector<Client::State> client_states;
  client_states.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ByteReader reader(payloads[3 + i]);
    client_states.push_back(Client::read_state(reader, global_weights_.size()));
    require_consumed(reader, path);
  }

  std::unique_ptr<comm::InMemoryNetwork> fabric;
  if (network_ != nullptr) {
    fabric = std::make_unique<comm::InMemoryNetwork>(network_->config());
    ByteReader reader(payloads.back());
    fabric->load_state(reader);
    require_consumed(reader, path);
  }

  // Commit: moves, swaps and size-checked copies; nothing below can fail.
  if (fabric != nullptr) network_->swap_state(*fabric);
  round_ = saved_round;
  set_global_weights(std::move(weights));
  cached_weights_ = std::move(cached);
  detector_.restore_reference(has_reference ? std::optional<double>(reference)
                                            : std::nullopt);
  config_.rng_mode = static_cast<RngMode>(mode);
  sampler_ = std::move(sampler);
  straggler_rng_ = straggler;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->restore_state(std::move(client_states[i]));
  }
}

void Server::write_telemetry(const std::string& trace_path,
                             const std::string& metrics_path) const {
  if (!obs::enabled()) return;
  if (transport_ != nullptr) transport_->publish_metrics();
  if (!trace_path.empty()) obs::Tracer::instance().write_chrome_trace_file(trace_path);
  if (!metrics_path.empty()) obs::registry().write_summary_file(metrics_path);
}

metrics::RoundRecord Server::run_round() {
  ++round_;
  if (lr_schedule_ != nullptr) effective_local_.lr = lr_schedule_->lr(round_);
  if (transport_ != nullptr) transport_->begin_round(round_);
  ensure_replica_pool();
  Stopwatch watch;
  metrics::RoundRecord record;
  record.round = round_;
  obs::Span round_span("round", "round");
  round_span.arg("round", static_cast<double>(round_));

  const auto bytes_up_sent = [&] {
    std::uint64_t sent = 0;
    for (std::size_t i = 1; i <= clients_.size(); ++i) {
      sent += transport_->stats(i).bytes_sent;
    }
    return sent;
  };
  const std::uint64_t bytes_down_before =
      transport_ ? transport_->stats(kServerRank).bytes_sent : 0;
  const std::uint64_t bytes_up_before = transport_ ? bytes_up_sent() : 0;

  std::vector<std::size_t> participants;
  {
    PhaseTimer phase("sample", round_, record.phases.sample);
    if (config_.rng_mode == RngMode::kDerived) {
      // Derived mode: the cohort is a pure function of (seed, round) —
      // the sampler's stream no longer depends on how many rounds ran
      // before or where (DESIGN.md §16).
      sampler_.reseed(derive_seed(config_.seed, round_, 0, RngStream::kSampler));
    }
    participants = sampler_.sample();
  }
  record.sampled = participants.size();

  // Sharded round engine (DESIGN.md §15): the cohort is split into
  // contiguous shards that stream independently, chained into one
  // fixed-order reduction — bit-identical at every shard count. 0 =
  // auto: the process default (normally 1; FEDCAV_TEST_SHARDS raises it
  // for whole-suite replays).
  const std::size_t shard_request =
      config_.shards != 0 ? config_.shards : default_round_shards();
  ShardedRoundEngine engine(pool(), participants.size(), shard_request);

  // Downlink broadcast: the global model is encoded once per round, CRC
  // included; that one wire image is sent by every participant's
  // exchange inside phase ① and resent on NACKs. Queueing
  // per-participant copies here would put O(cohort × model) wire images
  // in the fabric at once; sending from the participant's own exchange
  // bounds that at O(workers).
  //
  // Quantized runs ADOPT THE DECODED BROADCAST as the round's reference
  // w̃_t: every later use of global_weights_ (the clients' training
  // start, the synthetic carried-mass update, the strategy's base, the
  // uplink-delta reconstruction) then agrees bit-exactly with what a
  // client decodes from the wire.
  if (transport_ != nullptr || exchange_.quantized()) {
    PhaseTimer phase("broadcast", round_, record.phases.broadcast);
    downlink_wire_ = exchange_.encode_downlink(round_, global_weights_);
  }

  // Phase ①: parallel metadata exchange (downlink + inference loss +
  // scalar report). Results land in fixed slots so every later loop is
  // deterministic (HPC-guide reduction idiom). No model-sized state per
  // participant survives this phase.
  std::vector<ParticipantOutcome> outcomes(participants.size());
  {
    PhaseTimer phase("metadata", round_, record.phases.metadata);
    if (remote_) {
      // Broadcast to every participant before collecting anything, so
      // all workers train concurrently; then collect serially in fixed
      // participant order (a SocketTransport is single-threaded).
      for (std::size_t i = 0; i < participants.size(); ++i) {
        transport_->send(kServerRank, participants[i] + 1, downlink_wire_);
      }
    }
    engine.run_metadata(
        [&](std::size_t i) {
          outcomes[i] = run_participant_metadata(participants[i]);
        },
        remote_);
  }

  // Collect, in fixed participant order: sampled clients whose exchange
  // failed (crash, retry exhaustion, deadline) become dropouts — the
  // fault-fabric analogue of a straggler. Each survivor keeps its
  // original sampled slot: the shard owner, and the outcome holding its
  // phase-① simulated time, carried into ②.
  std::vector<ClientUpdate> metadata;       // scalars only; weights stay empty
  std::vector<std::size_t> survivor_slots;
  metadata.reserve(outcomes.size());
  survivor_slots.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    tally(record, outcomes[i]);
    if (outcomes[i].metadata.has_value()) {
      metadata.push_back(std::move(*outcomes[i].metadata));
      survivor_slots.push_back(i);
    } else {
      record.dropouts += 1;
      engine.note_dropout(i);
    }
  }

  // Stragglers: each received report is additionally lost independently
  // with the configured probability; the round proceeds with whoever
  // got through.
  if (config_.straggler_drop_prob > 0.0 && !metadata.empty()) {
    PhaseTimer phase("straggler_filter", round_, record.phases.straggler_filter);
    // Draw every survivor's bernoulli first (the RNG stream consumption
    // order is pinned by the golden runs), then apply the legacy
    // keep-first guarantee before committing anything to the ledgers.
    //
    // Derived mode draws one pure coin per (round, client) — any process
    // that knows the seed reaches the same verdict, so a remote worker
    // decides its own fate locally (skips training + report) and the
    // server's filter here agrees without coordination. No keep-first
    // rescue there: a worker deciding alone cannot know it was the last
    // survivor, so a fully-straggled round skips via quorum instead.
    const bool derived = config_.rng_mode == RngMode::kDerived;
    std::vector<char> keep(metadata.size());
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      keep[i] = !(derived ? derived_bernoulli(config_.seed, round_, metadata[i].client_id,
                                              RngStream::kStraggler,
                                              config_.straggler_drop_prob)
                          : straggler_rng_.bernoulli(config_.straggler_drop_prob));
    }
    if (!derived && config_.min_aggregate_clients <= 1 &&
        std::find(keep.begin(), keep.end(), 1) == keep.end()) {
      // Everyone dropped: keep the first report so the round is defined
      // (legacy guarantee; a quorum > 1 skips the round instead).
      keep.front() = 1;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      if (keep[i]) {
        metadata[kept] = std::move(metadata[i]);
        survivor_slots[kept] = survivor_slots[i];
        ++kept;
      } else {
        engine.note_straggler(survivor_slots[i]);
      }
    }
    record.straggler_drops = metadata.size() - kept;
    metadata.resize(kept);
    survivor_slots.resize(kept);
  }
  std::vector<std::size_t> surviving;  // client index per survivor
  for (std::size_t slot : survivor_slots) surviving.push_back(participants[slot]);
  record.participants = metadata.size();
  FEDCAV_REQUIRE(record.sampled ==
                     record.participants + record.dropouts + record.straggler_drops,
                 "Server: round accounting invariant violated");
  // Same invariant at shard granularity: every sampled slot's fate must
  // have been booked against its owning shard (DESIGN.md §15).
  engine.check_accounting(record.participants, record.dropouts,
                          record.straggler_drops);

  // Quorum: with fewer survivors than min_aggregate_clients the round is
  // skipped outright — no training, no attack, no detection, no
  // aggregation; the global model carries forward unchanged.
  record.skipped = metadata.size() < config_.min_aggregate_clients;
  if (record.skipped) {
    FEDCAV_LOG_INFO << "round " << round_ << ": quorum not met (" << metadata.size()
                    << " < " << config_.min_aggregate_clients << "), skipping round";
  }

  const bool attack_now = !record.skipped && adversary_ != nullptr &&
                          attack_rounds_.count(round_) > 0 && !metadata.empty();
  // A phase-② upload failure after a successful metadata phase: the
  // client's γ mass was already committed, so fold the unchanged global
  // weights in its place — the weighted average then carries γ_j of w_t
  // forward instead of silently renormalizing over the survivors.
  auto make_synthetic = [&](std::size_t slot) {
    ClientUpdate synthetic = metadata[slot];  // the scalars; weights empty
    synthetic.weights = global_weights_;
    record.upload_failures += 1;
    engine.note_upload_failure(survivor_slots[slot]);
    return synthetic;
  };

  // Pipeline window: how many participants may train (and so hold a
  // full update) ahead of the fold cursor in phase ②.
  const std::size_t wave = std::max<std::size_t>(std::size_t{1}, pool().size());
  bool reversed = false;
  if (!record.skipped) {
    // γ is a pure function of the metadata scalars, so detection and
    // aggregation weights are decided before any full update is
    // materialized. A streaming strategy folds each report into its
    // accumulator and frees it — peak model memory stays O(wave ×
    // model); the others buffer through AggregationStrategy's default
    // begin/accumulate/finish, which is bit-identical to aggregate().

    // Attack rounds: train the victim (first survivor) up front so the
    // adversary has a real update to corrupt. The corrupted report is
    // what the server "received": its loss drives detection and its
    // scalars drive γ.
    std::optional<ClientUpdate> victim_update;
    if (attack_now) {
      ParticipantOutcome victim_counters;
      {
        PhaseTimer phase("local_update", round_, record.phases.local_update);
        victim_counters.elapsed_s = outcomes[survivor_slots[0]].elapsed_s;
        victim_update = run_participant_train(surviving[0], metadata[0].inference_loss,
                                              victim_counters);
      }
      tally(record, victim_counters);
      if (victim_update.has_value()) {
        PhaseTimer phase("attack", round_, record.phases.attack);
        attack::AttackContext ctx;
        ctx.global = &global_weights_;
        ctx.round = round_;
        // The cohort the adversary scales against is the one that
        // reaches aggregation; the honest γ estimate comes from the
        // metadata scalars.
        ctx.participants = metadata.size();
        ctx.estimated_gamma = strategy_->aggregation_weights(metadata).front();
        *victim_update = adversary_->corrupt(std::move(*victim_update), ctx);
        metadata[0].inference_loss = victim_update->inference_loss;
        metadata[0].num_samples = victim_update->num_samples;
        record.attacked = true;
      }
      // Victim upload failure: nothing reached the server to corrupt;
      // the round proceeds un-attacked and slot 0 folds as carried mass.
    }

    std::vector<double> losses(metadata.size());
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      losses[i] = metadata[i].inference_loss;
    }
    {
      PhaseTimer phase("detect", round_, record.phases.detect);
      sampler_.observe_losses(surviving, losses);
      record.mean_inference_loss = 0.0;
      for (double f : losses) record.mean_inference_loss += f;
      record.mean_inference_loss /= static_cast<double>(losses.size());
      record.max_inference_loss = *std::max_element(losses.begin(), losses.end());
      if (config_.detection_enabled) {
        const core::DetectionResult detection = detector_.check(losses);
        record.detection_fired = detection.abnormal;
        if (detection.abnormal) {
          FEDCAV_LOG_INFO << "round " << round_ << ": detector fired ("
                          << detection.votes << "/" << detection.voters
                          << " votes), reversing global model";
          global_weights_ = cached_weights_;
          reversed = true;
        }
      }
      record.reversed = reversed;
    }

    // Reversed rounds skip phase ② for the remaining survivors entirely:
    // their full updates would be discarded anyway (DESIGN.md §11).
    if (!reversed) {
      {
        PhaseTimer phase("aggregate", round_, record.phases.aggregate);
        cached_weights_ = global_weights_;
        if (config_.detection_enabled) detector_.commit(losses);
        strategy_->begin_aggregation(global_weights_, metadata);
        if (attack_now) {
          strategy_->accumulate(victim_update.has_value() ? std::move(*victim_update)
                                                          : make_synthetic(0));
        }
      }
      // Phase ②: stream the other survivors through the sharded engine —
      // training overlaps the serial ascending-order folds, so the fold
      // is independent of the worker count. Updates live in a ring of
      // `wave` cells (the scheduler guarantees train(s + wave) cannot
      // start before fold(s) freed its cell); fresh per-slot counters
      // carry the phase-① time in without re-counting its tallies.
      const std::size_t first = attack_now ? 1 : 0;
      const std::size_t n = surviving.size();
      if (first < n) {
        struct StreamSlot {
          std::optional<ClientUpdate> update;
          ParticipantOutcome counters;
        };
        std::vector<StreamSlot> ring(std::min(wave, n - first));
        // The span is named for the training that dominates the stream;
        // the folds it overlaps get their own agg.shard spans.
        obs::Span span("local_update", "round.phase");
        span.arg("round", static_cast<double>(round_));
        engine.run_streaming(
            first, n, wave,
            [&](std::size_t i) {
              StreamSlot& slot = ring[i % ring.size()];
              slot.counters = ParticipantOutcome{};
              slot.counters.elapsed_s = outcomes[survivor_slots[i]].elapsed_s;
              slot.update = run_participant_train(
                  surviving[i], metadata[i].inference_loss, slot.counters);
            },
            [&](std::size_t i) {
              StreamSlot& slot = ring[i % ring.size()];
              tally(record, slot.counters);
              strategy_->accumulate(slot.update.has_value() ? std::move(*slot.update)
                                                            : make_synthetic(i));
              slot.update.reset();
            },
            [&](std::size_t i) { return survivor_slots[i]; }, remote_);
      }
      PhaseTimer phase("aggregate", round_, record.phases.aggregate);
      global_weights_ = strategy_->finish_aggregation();
    }
  }

  // Phase attribution for the overlapped stream: wall time inside the
  // serial fold callbacks is aggregation; the rest of the stream
  // (training + uplink protocol, run concurrently) is local update.
  record.phases.aggregate += engine.fold_seconds();
  record.phases.local_update +=
      std::max(0.0, engine.stream_seconds() - engine.fold_seconds());

  if (!record.skipped && obs::enabled()) {
    engine.publish_metrics();
    // Analytic peak of aggregation-owned tensor bytes: a streaming fold
    // holds one f64 accumulator plus at most `wave` f32 updates; the
    // buffered default holds every survivor's update.
    const double dim = static_cast<double>(global_weights_.size());
    const double n = static_cast<double>(metadata.size());
    static obs::Gauge& peak_gauge = obs::registry().gauge("agg.peak_bytes");
    peak_gauge.set(strategy_->streaming_aggregation()
                       ? dim * (8.0 + std::min(static_cast<double>(wave), n) * 4.0)
                       : dim * n * 4.0);
  }

  {
    PhaseTimer phase("eval", round_, record.phases.eval);
    global_model_->set_weights(global_weights_);
    // Sharded over the round's thread pool + replica leases; the t_eval
    // CSV column reflects the fan-out. Per-batch fixed slots keep the
    // result bit-identical to the serial path at any pool size.
    const metrics::EvalResult eval =
        metrics::evaluate(*replica_pool_, global_weights_, test_set_, pool(),
                          config_.eval_batch_size);
    record.test_accuracy = eval.accuracy;
    record.test_loss = eval.mean_loss;
  }

  record.wall_seconds = watch.seconds();
  if (transport_ != nullptr) {
    record.bytes_down = transport_->stats(kServerRank).bytes_sent - bytes_down_before;
    record.bytes_up = bytes_up_sent() - bytes_up_before;
    if (obs::enabled()) transport_->publish_metrics();
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    const auto count = [&](const char* name, std::uint64_t n) {
      if (n > 0) reg.counter(name).add(n);
    };
    count("server.rounds", 1);
    reg.histogram("server.round_seconds").observe(record.wall_seconds);
    count("server.rounds_skipped", record.skipped ? 1 : 0);
    count("server.dropouts", record.dropouts);
    count("comm.retries", record.retries);
    count("comm.crc_failures", record.crc_failures);
    count("comm.stale_discards", record.stale_discards);
    count("comm.deadline_misses", record.deadline_misses);
    count("server.upload_failures", record.upload_failures);
  }

  history_.add(record);
  return record;
}

void Server::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

}  // namespace fedcav::fl
