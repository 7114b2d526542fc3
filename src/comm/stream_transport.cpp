#include "src/comm/stream_transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/utils/error.hpp"
#include "src/utils/logging.hpp"
#include "src/utils/timer.hpp"

namespace fedcav::comm {

namespace detail {

UniqueFd& UniqueFd::operator=(UniqueFd&& other) noexcept {
  if (this != &other) {
    reset();
    fd = other.fd;
    other.fd = -1;
  }
  return *this;
}

void UniqueFd::reset() {
  if (fd >= 0) {
    while (::close(fd) < 0 && errno == EINTR) {
    }
    fd = -1;
  }
}

void sleep_ms(int ms) {
  // poll(2) returns early on EINTR without reporting the elapsed share;
  // loop against wall clock so a signal storm cannot shorten the sleep.
  Stopwatch watch;
  for (;;) {
    const int remaining = ms - static_cast<int>(watch.seconds() * 1000.0);
    if (remaining <= 0) return;
    ::poll(nullptr, 0, remaining);
  }
}

}  // namespace detail

namespace {

/// Best-effort status reply on a handshake reject path; the peer may
/// already be gone, which is fine — we close either way.
void send_accept(int fd, const AcceptMsg& msg) {
  const ByteBuffer wire = msg.encode();
  (void)write_all(fd, wire.data(), wire.size());
}

}  // namespace

const char* handshake_status_name(HandshakeStatus status) {
  switch (status) {
    case HandshakeStatus::kOk: return "ok";
    case HandshakeStatus::kVersionMismatch: return "version mismatch";
    case HandshakeStatus::kRankUnavailable: return "rank unavailable";
    case HandshakeStatus::kFederationFull: return "federation full";
    case HandshakeStatus::kMalformedHello: return "malformed hello";
    case HandshakeStatus::kAuthRejected: return "auth rejected";
  }
  return "unknown";
}

StreamTransport::StreamTransport(StreamTransportConfig config,
                                 std::size_t num_endpoints,
                                 std::size_t local_rank, std::uint32_t proto)
    : config_(std::move(config)),
      num_endpoints_(num_endpoints),
      local_rank_(local_rank),
      proto_(proto),
      peers_(num_endpoints),
      stats_(num_endpoints) {}

StreamTransport::~StreamTransport() {
  for (Peer& peer : peers_) close_peer(peer);
}

std::uint32_t StreamTransport::effective_proto_min() const {
  return config_.proto_min_override != 0 ? config_.proto_min_override
                                         : kProtocolVersionMin;
}

std::uint32_t StreamTransport::effective_proto_max() const {
  return config_.proto_max_override != 0 ? config_.proto_max_override
                                         : kProtocolVersion;
}

void StreamTransport::accept_workers(int listener_fd, std::size_t num_workers,
                                     const char* what) {
  const std::array<std::uint8_t, kAuthTokenBytes> expected_token =
      encode_auth_token(config_.auth_token);
  const std::uint32_t proto_min = effective_proto_min();
  const std::uint32_t proto_max = effective_proto_max();

  // Reject path, shared by every failed check: reply with the status,
  // log it loudly, and either keep listening (the reject consumed no
  // rank) or — under abort_on_reject — give up on the federation at
  // once, because the rejected worker process exits instead of retrying
  // and the remaining slots can never all fill.
  auto reject = [&](int fd, HandshakeStatus status) {
    send_accept(fd, AcceptMsg{status, proto_max, 0, num_endpoints_});
    FEDCAV_LOG_WARN << what << ": rejected join attempt: "
                    << handshake_status_name(status);
    FEDCAV_CHECK(!config_.abort_on_reject,
                 std::string(what) + ": worker join rejected (" +
                     handshake_status_name(status) +
                     "); the federation can never fill, aborting");
  };

  std::size_t joined = 0;
  Stopwatch watch;
  while (joined < num_workers) {
    const double remaining = config_.accept_timeout_s - watch.seconds();
    FEDCAV_CHECK(remaining > 0.0,
                 std::string(what) + ": timed out with " +
                     std::to_string(joined) + "/" +
                     std::to_string(num_workers) + " workers joined");
    struct pollfd pfd{listener_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining * 1000.0) + 1);
    if (ready < 0) {
      FEDCAV_CHECK(errno == EINTR, std::string(what) + ": poll failed");
      continue;
    }
    if (ready == 0) continue;

    detail::UniqueFd conn(::accept(listener_fd, nullptr, nullptr));
    if (conn.fd < 0) continue;  // transient accept failure; keep listening
    configure_channel_fd(conn.fd);

    // Read the fixed-size HELLO within kHelloReadTimeoutS (or whatever
    // budget is left, if less). A peer that stalls or sends garbage is
    // rejected and closed — it never consumes a rank, and `conn`
    // guarantees the fd is released.
    ByteBuffer hello_wire(kHelloBytes);
    const IoStatus io = read_exact(
        conn.fd, hello_wire.data(), hello_wire.size(),
        std::clamp(config_.accept_timeout_s - watch.seconds(), 0.1, kHelloReadTimeoutS));
    if (io != IoStatus::kOk) continue;
    const std::optional<HelloMsg> hello = HelloMsg::decode(hello_wire);
    if (!hello.has_value()) {
      reject(conn.fd, HandshakeStatus::kMalformedHello);
      continue;
    }

    // Version negotiation: speak the newest version both sides support.
    const std::uint32_t neg = std::min(proto_max, hello->proto_max);
    if (neg < std::max(proto_min, hello->proto_min)) {
      reject(conn.fd, HandshakeStatus::kVersionMismatch);
      continue;
    }

    // Auth: constant-time token compare, after the version check (a
    // skewed-but-honest worker learns the real reason) and before rank
    // assignment (an unauthenticated probe can never consume a slot).
    if (!auth_tokens_equal(hello->auth_token, expected_token)) {
      reject(conn.fd, HandshakeStatus::kAuthRejected);
      continue;
    }

    // Rank assignment: honor an explicit request if that slot is free;
    // kAnyRank takes the lowest free worker rank.
    std::size_t rank = 0;
    if (hello->requested_rank == kAnyRank) {
      for (std::size_t r = 1; r < num_endpoints_; ++r) {
        if (peers_[r].fd < 0) {
          rank = r;
          break;
        }
      }
      if (rank == 0) {
        reject(conn.fd, HandshakeStatus::kFederationFull);
        continue;
      }
    } else {
      const std::uint64_t req = hello->requested_rank;
      if (req == 0 || req >= num_endpoints_ || peers_[req].fd >= 0) {
        reject(conn.fd, HandshakeStatus::kRankUnavailable);
        continue;
      }
      rank = static_cast<std::size_t>(req);
    }

    send_accept(conn.fd, AcceptMsg{HandshakeStatus::kOk, neg, rank,
                                   num_endpoints_});
    adopt_peer(rank, conn.release());
    ++joined;
  }
}

StreamTransport::JoinResult StreamTransport::join_handshake(
    detail::UniqueFd conn, std::uint64_t requested_rank,
    const StreamTransportConfig& config, double remaining_s,
    const char* what) {
  HelloMsg hello;
  hello.proto_min = config.proto_min_override != 0 ? config.proto_min_override
                                                   : kProtocolVersionMin;
  hello.proto_max = config.proto_max_override != 0 ? config.proto_max_override
                                                   : kProtocolVersion;
  hello.requested_rank = requested_rank;
  hello.auth_token = encode_auth_token(config.auth_token);
  const ByteBuffer hello_wire = hello.encode();
  FEDCAV_CHECK(write_all(conn.fd, hello_wire.data(), hello_wire.size()) ==
                   IoStatus::kOk,
               std::string(what) + ": failed to send HELLO");

  ByteBuffer accept_wire(kAcceptBytes);
  FEDCAV_CHECK(read_exact(conn.fd, accept_wire.data(), accept_wire.size(),
                          std::max(0.1, remaining_s)) == IoStatus::kOk,
               std::string(what) + ": no ACCEPT from daemon");
  const std::optional<AcceptMsg> accept = AcceptMsg::decode(accept_wire);
  FEDCAV_CHECK(accept.has_value(), std::string(what) + ": malformed ACCEPT");
  FEDCAV_CHECK(accept->status == HandshakeStatus::kOk,
               std::string(what) + ": daemon rejected join: " +
                   handshake_status_name(accept->status));
  FEDCAV_CHECK(accept->rank >= 1 && accept->rank < accept->num_endpoints,
               std::string(what) + ": daemon assigned invalid rank");
  return JoinResult{std::move(conn), *accept};
}

void StreamTransport::adopt_peer(std::size_t rank, int fd) {
  FEDCAV_REQUIRE(rank < num_endpoints_ && rank != local_rank_,
                 "StreamTransport::adopt_peer: bad rank");
  Peer& peer = peers_[rank];
  FEDCAV_REQUIRE(peer.fd < 0 && !peer.closed,
                 "StreamTransport::adopt_peer: rank already channeled");
  peer.fd = fd;
  peer.decoder = std::make_unique<FrameDecoder>(config_.max_frame_bytes);
}

void StreamTransport::close_peer(Peer& peer) {
  if (peer.fd >= 0) {
    while (::close(peer.fd) < 0 && errno == EINTR) {
    }
    peer.fd = -1;
  }
  peer.closed = true;
}

void StreamTransport::send(std::size_t src, std::size_t dst,
                           const ByteBuffer& wire) {
  FEDCAV_REQUIRE(src == local_rank_,
                 "StreamTransport::send: src must be the local rank");
  FEDCAV_REQUIRE(dst < num_endpoints_ && dst != local_rank_,
                 "StreamTransport::send: bad destination");
  Peer& peer = peers_[dst];
  FEDCAV_REQUIRE(peer.fd >= 0 || peer.closed,
                 "StreamTransport::send: no channel to rank " +
                     std::to_string(dst));

  // Meter the attempt regardless of delivery — same rule as the
  // in-memory fabric, so bytes_up/bytes_down stay backend-independent.
  TrafficStats& st = stats_[src];
  st.messages_sent += 1;
  st.bytes_sent += wire.size();
  st.simulated_seconds += model_transfer_seconds(wire.size());

  if (peer.closed) return;  // dead peer: metered, silently dropped
  ByteBuffer framed;
  framed.reserve(wire.size() + 4);
  append_frame(framed, wire);
  if (write_all(peer.fd, framed.data(), framed.size()) != IoStatus::kOk) {
    close_peer(peer);
  }
}

void StreamTransport::ingest(std::size_t rank, Peer& peer) {
  if (peer.fd < 0) return;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(peer.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      if (!peer.decoder->push(buf, static_cast<std::size_t>(n))) {
        close_peer(peer);  // hostile length prefix — drop the connection
        break;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // orderly EOF: peer exited
      close_peer(peer);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_peer(peer);  // ECONNRESET and friends
    break;
  }
  while (peer.decoder && peer.decoder->has_frame()) {
    ByteBuffer frame = *peer.decoder->next_frame();
    // Peer-send metering happens here, at frame completion (the only
    // point where this endpoint can observe the peer's send).
    TrafficStats& st = stats_[rank];
    st.messages_sent += 1;
    st.bytes_sent += frame.size();
    st.simulated_seconds += model_transfer_seconds(frame.size());
    peer.queue.push_back(std::move(frame));
  }
}

void StreamTransport::poll(double timeout_s) {
  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> ranks;
  for (std::size_t r = 0; r < num_endpoints_; ++r) {
    if (peers_[r].fd >= 0) {
      pfds.push_back({peers_[r].fd, POLLIN, 0});
      ranks.push_back(r);
    }
  }
  if (pfds.empty()) {
    detail::sleep_ms(static_cast<int>(timeout_s * 1000.0));
    return;
  }
  const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                           static_cast<int>(timeout_s * 1000.0));
  if (ready <= 0) return;
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      ingest(ranks[i], peers_[ranks[i]]);
    }
  }
}

std::optional<ByteBuffer> StreamTransport::try_recv_wire(std::size_t dst,
                                                         std::size_t src) {
  FEDCAV_REQUIRE(dst == local_rank_,
                 "StreamTransport::try_recv_wire: dst must be the local rank");
  FEDCAV_REQUIRE(src < num_endpoints_ && src != local_rank_,
                 "StreamTransport::try_recv_wire: bad source");
  Peer& peer = peers_[src];
  if (peer.queue.empty()) ingest(src, peer);
  if (peer.queue.empty()) return std::nullopt;
  ByteBuffer wire = std::move(peer.queue.front());
  peer.queue.pop_front();
  return wire;
}

std::optional<ByteBuffer> StreamTransport::try_recv_any_wire(
    std::size_t dst, std::size_t* src_out) {
  FEDCAV_REQUIRE(dst == local_rank_,
                 "StreamTransport::try_recv_any_wire: dst must be local rank");
  // Same ascending-rank scan the in-memory fabric documents: lowest
  // source rank with a completed frame wins, per-source order is FIFO.
  for (std::size_t r = 0; r < num_endpoints_; ++r) {
    if (r == local_rank_) continue;
    Peer& peer = peers_[r];
    if (peer.queue.empty()) ingest(r, peer);
    if (!peer.queue.empty()) {
      ByteBuffer wire = std::move(peer.queue.front());
      peer.queue.pop_front();
      if (src_out != nullptr) *src_out = r;
      return wire;
    }
  }
  return std::nullopt;
}

void StreamTransport::add_link_delay(std::size_t src, std::size_t dst,
                                     double seconds) {
  FEDCAV_REQUIRE(src < num_endpoints_ && dst < num_endpoints_,
                 "StreamTransport::add_link_delay: bad endpoint");
  stats_[src].simulated_seconds += seconds;
}

TrafficStats StreamTransport::stats(std::size_t endpoint) const {
  FEDCAV_REQUIRE(endpoint < num_endpoints_,
                 "StreamTransport::stats: bad endpoint");
  return stats_[endpoint];
}

TrafficStats StreamTransport::total_stats() const {
  TrafficStats total;
  for (const TrafficStats& st : stats_) {
    total.messages_sent += st.messages_sent;
    total.bytes_sent += st.bytes_sent;
    total.simulated_seconds += st.simulated_seconds;
  }
  return total;
}

double StreamTransport::model_transfer_seconds(std::size_t bytes) const {
  return config_.latency_s +
         static_cast<double>(bytes) / config_.bandwidth_bytes_per_s;
}

std::size_t StreamTransport::pending_messages() const {
  std::size_t pending = 0;
  for (const Peer& peer : peers_) pending += peer.queue.size();
  return pending;
}

bool StreamTransport::peer_closed(std::size_t rank) const {
  FEDCAV_REQUIRE(rank < num_endpoints_ && rank != local_rank_,
                 "StreamTransport::peer_closed: bad rank");
  const Peer& peer = peers_[rank];
  if (!peer.closed) return false;
  // Bytes that arrived before the close are still deliverable; the peer
  // only counts as gone once nothing more can ever be popped.
  return peer.queue.empty() && (!peer.decoder || !peer.decoder->has_frame());
}

}  // namespace fedcav::comm
