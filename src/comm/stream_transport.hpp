// Shared machinery of the stream-socket transports (DESIGN.md §14/§16).
//
// Topology: rank 0 (the daemon) owns the listening socket and holds one
// stream connection per worker; workers (ranks 1..N-1) hold a single
// connection to the daemon. There are no worker-to-worker links — the
// FedCav round protocol is strictly hub-and-spoke, so the transport is
// too. Joining runs the fixed-size HELLO/ACCEPT handshake from
// src/comm/frame.hpp (magic + version-range negotiation + constant-time
// auth-token check + rank assignment); after that, every message is a
// length-prefixed Envelope wire image.
//
// Everything after the connected fd exists is fabric-agnostic: the
// handshake, framing, metering, poll/ingest loop, and failure model are
// identical over AF_UNIX and TCP. This base class owns all of it; the
// concrete backends (comm::SocketTransport, comm::TcpTransport) only
// create/bind/connect their flavor of socket and hand the fds over.
//
// Unlike InMemoryNetwork, which simulates both ends of every link, a
// stream transport is *local*: try_recv_wire(dst, ...) requires dst to
// be this process's rank, and send(src, ...) requires src to be it.
// Byte accounting follows the Transport contract — own sends are
// metered at send time, each peer's sends at frame-receive time, both
// over the Envelope image size only (the 4-byte length prefix is
// framing, not payload), so a drained federation reports the same
// bytes_up/bytes_down the in-memory fabric would for the identical
// message sequence.
//
// Failure model: a peer that dies mid-stream surfaces as EOF (or
// EPIPE/ECONNRESET on send), never as an exception from the transport —
// the peer is marked closed and the round loop converts peer_closed()
// into a dropout / upload failure. A peer that sends a hostile length
// prefix (> max_frame_bytes) or garbage is disconnected the same way.
// Instances are not thread-safe; each process drives its transport from
// one thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/frame.hpp"
#include "src/comm/transport.hpp"

namespace fedcav::comm {

struct StreamTransportConfig {
  /// Upper bound a received length prefix is validated against before
  /// any allocation. Must comfortably exceed the encoded dense model.
  std::size_t max_frame_bytes = 64ull * 1024 * 1024;
  /// Parameters of the deterministic transfer-time model, mirrored from
  /// NetworkConfig so simulated-deadline accounting agrees across
  /// backends.
  double latency_s = 0.01;
  double bandwidth_bytes_per_s = 1.25e6;
  /// serve(): total budget for all workers to join.
  double accept_timeout_s = 30.0;
  /// connect(): overall deadline to reach the daemon (covering every
  /// capped-backoff retry while the endpoint does not answer yet) plus
  /// complete the handshake.
  double connect_timeout_s = 30.0;
  /// Shared join secret, at most kAuthTokenBytes bytes; both sides
  /// default to the empty token. The daemon compares in constant time
  /// and answers kAuthRejected on mismatch without consuming a rank.
  std::string auth_token;
  /// Advertise this protocol range instead of the build's
  /// [kProtocolVersionMin, kProtocolVersion]. 0 = use the build value.
  /// The version-skew tests use these to simulate mixed builds on both
  /// backends; production tools leave them 0.
  std::uint32_t proto_min_override = 0;
  std::uint32_t proto_max_override = 0;
  /// serve(): treat any handshake reject (version mismatch, bad token,
  /// rank collision, malformed HELLO) as fatal — log it and throw —
  /// instead of replying with the status and continuing to listen. The
  /// daemon tool sets this: its rejected worker exits rather than
  /// retrying, so the configured worker count can never be met and
  /// waiting out accept_timeout_s would only bury the reason.
  bool abort_on_reject = false;
};

/// serve(): how long one accepted connection may take to deliver its
/// HELLO (capped by what is left of accept_timeout_s). Accepts are
/// serial, so without this bound one silent connection would hold off
/// every later join for the whole accept budget. An honest worker sends
/// its HELLO right after connect, so a few seconds is ample.
inline constexpr double kHelloReadTimeoutS = 3.0;

/// Human-readable HandshakeStatus (log + error messages).
const char* handshake_status_name(HandshakeStatus status);

namespace detail {

/// Close-on-scope-exit guard so every handshake exit path releases the
/// descriptor (the fd-leak audit in ISSUE 8 satellite 3).
struct UniqueFd {
  int fd = -1;
  UniqueFd() = default;
  explicit UniqueFd(int f) : fd(f) {}
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd(other.fd) { other.fd = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept;
  ~UniqueFd() { reset(); }
  void reset();
  int release() {
    int f = fd;
    fd = -1;
    return f;
  }
};

/// Sleep `ms` of wall clock, re-polling across EINTR so a signal cannot
/// silently shorten a backoff step.
void sleep_ms(int ms);

/// Capped exponential backoff for connect retry loops: 50 ms doubling
/// to a 1 s ceiling. The overall deadline stays the caller's job
/// (connect_timeout_s) — this only shapes the retry cadence so a
/// not-yet-listening daemon is probed gently instead of hammered every
/// 50 ms for the whole budget.
struct Backoff {
  int delay_ms = 50;
  static constexpr int kMaxDelayMs = 1000;
  void wait() {
    sleep_ms(delay_ms);
    delay_ms = std::min(delay_ms * 2, kMaxDelayMs);
  }
};

}  // namespace detail

/// The fabric-agnostic endpoint: framing, handshake protocol, metering,
/// and the poll/ingest/recv machinery. Concrete backends subclass it
/// and provide socket creation only.
class StreamTransport : public Transport {
 public:
  ~StreamTransport() override;

  StreamTransport(const StreamTransport&) = delete;
  StreamTransport& operator=(const StreamTransport&) = delete;

  std::size_t local_rank() const { return local_rank_; }
  std::uint32_t protocol_version() const { return proto_; }

  std::size_t num_endpoints() const override { return num_endpoints_; }
  void begin_round(std::size_t round) override { current_round_ = round; }
  void send(std::size_t src, std::size_t dst, const ByteBuffer& wire) override;
  using Transport::send;
  std::optional<ByteBuffer> try_recv_wire(std::size_t dst,
                                          std::size_t src) override;
  std::optional<ByteBuffer> try_recv_any_wire(std::size_t dst,
                                              std::size_t* src_out) override;
  void add_link_delay(std::size_t src, std::size_t dst,
                      double seconds) override;
  TrafficStats stats(std::size_t endpoint) const override;
  TrafficStats total_stats() const override;
  double model_transfer_seconds(std::size_t bytes) const override;
  std::size_t pending_messages() const override;
  bool peer_closed(std::size_t rank) const override;
  void poll(double timeout_s) override;

 protected:
  struct Peer {
    int fd = -1;  // -1 = no channel (never connected, or closed)
    bool closed = false;
    std::unique_ptr<FrameDecoder> decoder;
    std::deque<ByteBuffer> queue;  // completed frames awaiting recv
  };

  StreamTransport(StreamTransportConfig config, std::size_t num_endpoints,
                  std::size_t local_rank, std::uint32_t proto);

  /// The protocol range this endpoint advertises (config overrides, or
  /// the build constants).
  std::uint32_t effective_proto_min() const;
  std::uint32_t effective_proto_max() const;

  /// Daemon side: accept + handshake on the bound, listening
  /// `listener_fd` until `num_workers` workers joined (ranks
  /// 1..num_workers). Rejected connections get a status ACCEPT, a WARN
  /// log line, and are closed without consuming a rank — or, with
  /// config.abort_on_reject, abort the serve with fedcav::Error.
  /// Throws on timeout. `what` prefixes every diagnostic.
  void accept_workers(int listener_fd, std::size_t num_workers,
                      const char* what);

  /// Worker side: run the HELLO/ACCEPT exchange on the connected fd
  /// (ownership taken) and return it with the daemon's ACCEPT. Throws
  /// fedcav::Error on a rejecting or malformed ACCEPT, naming the
  /// status. `remaining_s` is what is left of the connect deadline.
  struct JoinResult {
    detail::UniqueFd fd;
    AcceptMsg accept;
  };
  static JoinResult join_handshake(detail::UniqueFd conn,
                                   std::uint64_t requested_rank,
                                   const StreamTransportConfig& config,
                                   double remaining_s, const char* what);

  /// Install a handshaken channel (ownership taken) as `rank`'s peer.
  void adopt_peer(std::size_t rank, int fd);

  /// Backend hook, called on every newly accepted/connected channel fd
  /// (e.g. the TCP backend sets TCP_NODELAY here). Default: nothing.
  virtual void configure_channel_fd(int fd) { (void)fd; }

  const StreamTransportConfig& config() const { return config_; }

 private:
  /// Drain whatever is readable on `peer`'s fd into its decoder; move
  /// completed frames into its queue and meter them. EOF, a read error,
  /// or a decoder failure closes the channel.
  void ingest(std::size_t rank, Peer& peer);
  void close_peer(Peer& peer);

  StreamTransportConfig config_;
  std::size_t num_endpoints_;
  std::size_t local_rank_;
  std::uint32_t proto_;
  std::size_t current_round_ = 0;
  std::vector<Peer> peers_;          // indexed by rank; local slot unused
  std::vector<TrafficStats> stats_;  // per endpoint, Transport metering rule
};

}  // namespace fedcav::comm
