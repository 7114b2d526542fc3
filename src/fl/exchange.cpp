#include "src/fl/exchange.hpp"

#include <utility>

#include "src/obs/metrics.hpp"
#include "src/utils/error.hpp"
#include "src/utils/timer.hpp"

namespace fedcav::fl {

namespace {

/// Feeds comm.bytes_saved: payload bytes the dense f32 protocol would
/// have used for `dim` weights plus `scalar_bytes` of header scalars
/// (the write_f32_span framing is 8 bytes of length), minus the coded
/// message's `actual` payload.
void count_bytes_saved(std::size_t dim, std::size_t scalar_bytes, std::size_t actual) {
  if (!obs::enabled()) return;
  static obs::Counter& saved = obs::registry().counter("comm.bytes_saved");
  const std::size_t dense = scalar_bytes + 8 + 4 * dim;
  if (dense > actual) saved.add(dense - actual);
}

/// The shared head of every accept filter: CRC, then type, then a
/// strict decode of the whole payload (trailing bytes are malformed
/// too), then the kind-specific `check`. A kNack envelope answers
/// kNack when its body decodes, and hands the body to `nack`.
template <typename Msg, typename Check>
Verdict filter(const ByteBuffer& wire, comm::MessageType type, comm::NackMsg* nack,
               Check&& check) {
  const std::optional<comm::EnvelopeView> env = comm::Envelope::try_view(wire);
  if (!env.has_value()) return Verdict::kCorrupt;
  try {
    ByteReader reader(env->payload);
    if (env->type == comm::MessageType::kNack) {
      const comm::NackMsg body = comm::NackMsg::decode(reader);
      if (!reader.exhausted()) return Verdict::kStale;
      if (nack != nullptr) *nack = body;
      return Verdict::kNack;
    }
    if (env->type != type) return Verdict::kStale;
    Msg msg = Msg::decode(reader);
    if (!reader.exhausted()) return Verdict::kStale;
    return check(msg) ? Verdict::kAccepted : Verdict::kStale;
  } catch (const Error&) {
    return Verdict::kStale;
  }
}

ByteBuffer wire_image(comm::MessageType type, ByteBuffer payload) {
  return comm::Envelope{type, std::move(payload)}.encode();
}

/// The message's scalars, once its round and client id were checked.
template <typename Msg>
void take_scalars(const Msg& msg, ClientUpdate& out) {
  out.client_id = msg.client_id;
  out.num_samples = msg.num_samples;
  out.inference_loss = msg.inference_loss;
}

}  // namespace

ByteBuffer Exchange::encode_downlink(std::uint64_t round, nn::Weights& global) const {
  if (!quantized()) {
    return wire_image(downlink_type(), comm::GlobalModelMsg{round, global}.encode());
  }
  // fp16 makes the round trip a no-op from round 2 on (requantizing an
  // fp16 image is exact); int8's per-round coding error is absorbed by
  // the clients' error-feedback residuals.
  const comm::QuantGlobalModelMsg down{round, comm::quantize(global, quant_)};
  global = comm::dequantize(down.model);
  count_bytes_saved(global.size(), 8, 8 + down.model.wire_size());
  return wire_image(downlink_type(), down.encode());
}

ByteBuffer Exchange::encode_metadata(std::uint64_t round, const Client& client,
                                     double inference_loss) {
  const comm::MetadataMsg meta{round, client.id(), client.num_samples(), inference_loss};
  return wire_image(comm::MessageType::kMetadataReport, meta.encode());
}

ByteBuffer Exchange::encode_report(std::uint64_t round, Client& client,
                                   const ClientUpdate& trained,
                                   const nn::Weights& reference) const {
  if (!quantized()) {
    const comm::ClientReportMsg up{round, client.id(), trained.num_samples,
                                   trained.inference_loss, trained.weights};
    return wire_image(report_type(), up.encode());
  }
  const comm::QuantReportMsg up{
      round, client.id(), trained.num_samples, trained.inference_loss,
      client.encode_quantized_update(trained.weights, reference, quant_, quant_keep_)};
  count_bytes_saved(reference.size(), 32, 32 + up.delta.wire_size());
  return wire_image(report_type(), up.encode());
}

void Exchange::apply_report_codec(Client& client, nn::Weights& trained,
                                  const nn::Weights& reference) const {
  if (!quantized()) return;
  const comm::QuantizedDelta coded =
      client.encode_quantized_update(trained, reference, quant_, quant_keep_);
  trained = reference;
  comm::dequantize_add(trained, coded);
}

ByteBuffer Exchange::encode_nack(std::uint64_t round, comm::MessageType expected) {
  return wire_image(comm::MessageType::kNack, comm::NackMsg{round, expected}.encode());
}

Verdict Exchange::accept_downlink(const ByteBuffer& wire,
                                  std::optional<std::uint64_t> round, Downlink& out,
                                  comm::NackMsg* nack) const {
  const auto round_ok = [&](std::uint64_t r) {
    return !round.has_value() || r == *round;
  };
  if (quantized()) {
    return filter<comm::QuantGlobalModelMsg>(
        wire, downlink_type(), nack, [&](const comm::QuantGlobalModelMsg& msg) {
          if (!round_ok(msg.round) || msg.model.dim != dim_) return false;
          out.round = msg.round;
          out.weights = comm::dequantize(msg.model);
          return true;
        });
  }
  return filter<comm::GlobalModelMsg>(
      wire, downlink_type(), nack, [&](comm::GlobalModelMsg& msg) {
        if (!round_ok(msg.round) || msg.weights.size() != dim_) return false;
        out.round = msg.round;
        out.weights = std::move(msg.weights);
        return true;
      });
}

Verdict Exchange::accept_metadata(const ByteBuffer& wire, std::uint64_t round,
                                  std::size_t client_id, ClientUpdate& out) {
  return filter<comm::MetadataMsg>(
      wire, comm::MessageType::kMetadataReport, nullptr,
      [&](const comm::MetadataMsg& msg) {
        if (msg.round != round || msg.client_id != client_id) return false;
        take_scalars(msg, out);
        return true;
      });
}

Verdict Exchange::accept_report(const ByteBuffer& wire, std::uint64_t round,
                                std::size_t client_id, const nn::Weights& reference,
                                ClientUpdate& out) const {
  if (quantized()) {
    return filter<comm::QuantReportMsg>(
        wire, report_type(), nullptr, [&](const comm::QuantReportMsg& msg) {
          if (msg.round != round || msg.client_id != client_id ||
              msg.delta.dim != dim_ || reference.size() != dim_) {
            return false;
          }
          take_scalars(msg, out);
          out.weights = reference;
          comm::dequantize_add(out.weights, msg.delta);
          return true;
        });
  }
  return filter<comm::ClientReportMsg>(
      wire, report_type(), nullptr, [&](comm::ClientReportMsg& msg) {
        if (msg.round != round || msg.client_id != client_id ||
            msg.weights.size() != dim_) {
          return false;
        }
        take_scalars(msg, out);
        out.weights = std::move(msg.weights);
        return true;
      });
}

bool deliver(comm::Transport& fabric, std::size_t from, std::size_t to,
             const ByteBuffer& wire, std::uint64_t round, std::size_t max_retries,
             double retry_backoff_s, ParticipantOutcome& counters,
             const AcceptFn& accept) {
  for (std::size_t attempt = 0;; ++attempt) {
    fabric.send(from, to, wire);
    counters.elapsed_s += fabric.model_transfer_seconds(wire.size());
    while (auto received = fabric.try_recv_wire(to, from)) {
      const Verdict verdict = accept(*received);
      if (verdict == Verdict::kAccepted) return true;
      // A NACK drained here was left on a link that also carries them:
      // stale, like a duplicate from an earlier round.
      (verdict == Verdict::kCorrupt ? counters.crc_failures : counters.stale_discards)++;
    }
    if (attempt == max_retries) return false;
    const ByteBuffer nack = Exchange::encode_nack(round, comm::Envelope::type_of(wire));
    fabric.send(to, from, nack);
    counters.elapsed_s += fabric.model_transfer_seconds(nack.size());
    const double backoff = retry_backoff_s * static_cast<double>(1ULL << attempt);
    fabric.add_link_delay(from, to, backoff);
    counters.elapsed_s += backoff;
    counters.retries += 1;
  }
}

bool await_uplink(comm::Transport& transport, std::size_t rank, std::uint64_t round,
                  comm::MessageType expected, const ByteBuffer& downlink,
                  std::size_t max_retries, double timeout_s,
                  ParticipantOutcome& counters, const AcceptFn& accept) {
  constexpr std::size_t kServerRank = 0;
  Stopwatch wall;
  for (;;) {
    while (auto wire = transport.try_recv_wire(kServerRank, rank)) {
      const Verdict verdict = accept(*wire);
      if (verdict == Verdict::kAccepted) {
        counters.elapsed_s += transport.model_transfer_seconds(wire->size());
        return true;
      }
      if (verdict == Verdict::kStale) {
        counters.stale_discards += 1;  // e.g. last round's report still queued
        continue;
      }
      if (verdict == Verdict::kCorrupt) counters.crc_failures += 1;
      if (counters.retries >= max_retries) continue;
      counters.retries += 1;
      if (verdict == Verdict::kCorrupt) {
        transport.send(kServerRank, rank, Exchange::encode_nack(round, expected));
      } else {
        transport.send(kServerRank, rank, downlink);  // the worker lost the downlink
      }
    }
    // Nothing queued: a closed peer can never answer; a live one gets
    // timeout_s of wall clock before the server gives up on it.
    if (transport.peer_closed(rank) || wall.seconds() > timeout_s) return false;
    transport.poll(0.05);
  }
}

}  // namespace fedcav::fl
