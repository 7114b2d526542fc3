// The participant exchange of one round (paper Fig. 3): the server
// broadcasts w_t; each client reports f_i(w_t) and |d_i| in a metadata
// message, then its trained update in a report.
//
// This is the only code that knows the message codecs — dense f32 or
// quantized (DESIGN.md §13) — and what each endpoint accepts. The
// in-process server, the remote server and tools/fedcav_worker all
// build and filter their traffic here, and two loops move it:
// deliver() over the simulated fabric, await_uplink() over a real
// transport (DESIGN.md §10, §14).
#pragma once

#include <functional>
#include <optional>

#include "src/comm/message.hpp"
#include "src/comm/transport.hpp"
#include "src/fl/client.hpp"
#include "src/fl/types.hpp"

namespace fedcav::fl {

/// What an accept filter made of one received wire image.
enum class Verdict : std::uint8_t {
  kAccepted,  // the expected message, decoded into the caller's output
  kCorrupt,   // failed the envelope CRC or framing
  kNack,      // a well-formed NACK: the peer asks for a resend
  kStale,     // CRC-clean but wrong type, round, size or client id, or a
              // structurally malformed payload
};

/// A decoded broadcast: its round and the dense weights w̃_t.
struct Downlink {
  std::uint64_t round = 0;
  nn::Weights weights;
};

/// Codecs and accept filters of one run: dense or quantized traffic for
/// a model of `dim` parameters.
class Exchange {
 public:
  Exchange() = default;
  Exchange(comm::QuantMode quant, double quant_keep, std::size_t dim)
      : quant_(quant), quant_keep_(quant_keep), dim_(dim) {}

  bool quantized() const { return quant_ != comm::QuantMode::kNone; }
  comm::MessageType downlink_type() const {
    return quantized() ? comm::MessageType::kQuantGlobalModel
                       : comm::MessageType::kGlobalModel;
  }
  comm::MessageType report_type() const {
    return quantized() ? comm::MessageType::kQuantReport
                       : comm::MessageType::kClientReport;
  }

  // Encoders return the envelope's wire image, CRC and all: encode once,
  // send and resend the image.

  /// Server: the round's broadcast of `global`. A quantized run adopts
  /// the decoded image — `global` becomes w̃_t, so both endpoints train
  /// and diff against the identical floats.
  ByteBuffer encode_downlink(std::uint64_t round, nn::Weights& global) const;
  /// Client: the 32-byte metadata report.
  static ByteBuffer encode_metadata(std::uint64_t round, const Client& client,
                                    double inference_loss);
  /// Client: the report of `trained` against the round's reference. A
  /// quantized report codes the delta with error feedback, which advances
  /// the client's residual: encode once, resend the image.
  ByteBuffer encode_report(std::uint64_t round, Client& client,
                           const ClientUpdate& trained,
                           const nn::Weights& reference) const;
  /// The report codec without a wire (use_network = false): `trained`
  /// becomes what the server would reconstruct from the report.
  void apply_report_codec(Client& client, nn::Weights& trained,
                          const nn::Weights& reference) const;
  static ByteBuffer encode_nack(std::uint64_t round, comm::MessageType expected);

  // Accept filters, one per message kind: CRC, then type, then round,
  // then size and client id. `out` is written only on kAccepted; a
  // malformed payload is kStale and never throws.

  /// `round` nullopt accepts any round (a worker learns it from the
  /// broadcast); a NACK's body lands in `nack` when given.
  Verdict accept_downlink(const ByteBuffer& wire, std::optional<std::uint64_t> round,
                          Downlink& out, comm::NackMsg* nack = nullptr) const;
  /// Fills the scalars of `out`; its weights stay untouched.
  static Verdict accept_metadata(const ByteBuffer& wire, std::uint64_t round,
                                 std::size_t client_id, ClientUpdate& out);
  /// A quantized report is reconstructed against `reference` (= w̃_t).
  Verdict accept_report(const ByteBuffer& wire, std::uint64_t round,
                        std::size_t client_id, const nn::Weights& reference,
                        ClientUpdate& out) const;

 private:
  comm::QuantMode quant_ = comm::QuantMode::kNone;
  double quant_keep_ = 1.0;
  std::size_t dim_ = 0;
};

using AcceptFn = std::function<Verdict(const ByteBuffer& wire)>;

/// Simulated-fabric delivery of the encoded image `wire` over link
/// from → to, playing both endpoints on this thread: send, drain the link
/// through `accept`; on a miss NACK back (naming the image's type), back
/// off retry_backoff_s · 2^attempt on the link and resend the same image,
/// up to max_retries. Every transfer and backoff is charged to
/// `counters.elapsed_s`; CRC rejects, stale messages and drained NACKs
/// are counted. False when the retries ran out.
bool deliver(comm::Transport& fabric, std::size_t from, std::size_t to,
             const ByteBuffer& wire, std::uint64_t round, std::size_t max_retries,
             double retry_backoff_s, ParticipantOutcome& counters,
             const AcceptFn& accept);

/// Remote collect on the wall clock: wait for `accept` to take one
/// uplink from worker `rank`. A CRC failure is answered with a NACK for
/// `expected`, a worker NACK with a resend of the `downlink` image, together
/// bounded by max_retries. The accepted transfer is charged to
/// `counters.elapsed_s`. False when the peer closed or stayed silent for
/// `timeout_s`.
bool await_uplink(comm::Transport& transport, std::size_t rank, std::uint64_t round,
                  comm::MessageType expected, const ByteBuffer& downlink,
                  std::size_t max_retries, double timeout_s,
                  ParticipantOutcome& counters, const AcceptFn& accept);

}  // namespace fedcav::fl
