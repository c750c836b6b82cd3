#include "distributed/hier_comm.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace disttgl::dist {
namespace {

// kCollective mini-header, little-endian like every wire integer:
//   u32 kind · u32 block_host · u64 seq · u64 body bytes
// The bulk body (doubles / floats) is raw host memory — the simulated
// hosts share one machine, so cross-endian concerns don't arise (and
// put_f32s sets the same precedent for result frames).
constexpr std::size_t kRingHeaderBytes = 24;

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_u32(out, static_cast<std::uint32_t>(v));
  append_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return p[0] | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return load_u32(p) | (std::uint64_t{load_u32(p + 4)} << 32);
}

struct RingHeader {
  HierComm::RingMsg kind;
  std::uint32_t block_host;
  std::uint64_t seq;
  std::uint64_t body_len;
};

RingHeader parse_ring_header(const Frame& frame) {
  if (frame.type != MsgType::kCollective)
    throw_fabric(FabricErrc::kBadMagic,
                 "ring stream desync: expected kCollective, got type " +
                     std::to_string(static_cast<int>(frame.type)));
  if (frame.payload.size() < kRingHeaderBytes)
    throw_fabric(FabricErrc::kTruncated,
                 "kCollective frame shorter than its mini-header");
  const std::uint8_t* p = frame.payload.data();
  RingHeader h;
  h.kind = static_cast<HierComm::RingMsg>(load_u32(p));
  h.block_host = load_u32(p + 4);
  h.seq = load_u64(p + 8);
  h.body_len = load_u64(p + 16);
  if (h.body_len != frame.payload.size() - kRingHeaderBytes)
    throw_fabric(FabricErrc::kTruncated,
                 "kCollective body " +
                     std::to_string(frame.payload.size() - kRingHeaderBytes) +
                     " bytes, declared " + std::to_string(h.body_len));
  return h;
}

}  // namespace

std::pair<std::size_t, std::size_t> host_span(std::size_t host,
                                              std::size_t world,
                                              std::size_t hosts) {
  DT_CHECK_LT(host, hosts);
  const std::size_t base = world / hosts;
  const std::size_t rem = world % hosts;
  const std::size_t begin = host * base + std::min(host, rem);
  return {begin, begin + base + (host < rem ? 1 : 0)};
}

std::size_t host_of_rank(std::size_t rank, std::size_t world,
                         std::size_t hosts) {
  DT_CHECK_LT(rank, world);
  for (std::size_t h = 0; h < hosts; ++h) {
    const auto [begin, end] = host_span(h, world, hosts);
    if (rank >= begin && rank < end) return h;
  }
  DT_CHECK_MSG(false, "rank " << rank << " outside every host span");
  return hosts;
}

RingEndpoints connect_ring(int listen_fd, const ClusterMap& map,
                           std::size_t host, Deadline deadline, bool nodelay,
                           const ChaosConfig& chaos, std::uint64_t epoch) {
  RingEndpoints ring;
  const std::size_t hosts = map.hosts();
  if (hosts <= 1) return ring;
  const std::size_t next_host = (host + 1) % hosts;
  const std::size_t prev_host = (host + hosts - 1) % hosts;

  // Dial the successor first: the kernel backlog completes the connect
  // even while the peer is itself dialing, so no accept ordering can
  // deadlock the ring.
  ring.next = ChaosEndpoint(
      TcpEndpoint(tcp_connect(map.bind_host,
                              map.spans[next_host].leader_port, deadline,
                              nodelay)),
      chaos, host);
  std::vector<std::uint8_t> hs;
  append_u32(hs, static_cast<std::uint32_t>(HierComm::RingMsg::kHandshake));
  append_u32(hs, static_cast<std::uint32_t>(host));
  append_u64(hs, epoch);
  append_u64(hs, 0);
  ring.next.send(MsgType::kCollective, hs, deadline);

  for (;;) {
    FdHandle conn = accept_conn(listen_fd, deadline);
    if (nodelay) tcp_set_nodelay(conn.get());
    ring.prev = ChaosEndpoint(TcpEndpoint(std::move(conn)));
    Frame frame;
    if (!ring.prev.recv(frame, deadline))
      throw_fabric(FabricErrc::kPeerClosed,
                   "ring predecessor closed before its handshake");
    const RingHeader h = parse_ring_header(frame);
    if (h.kind != HierComm::RingMsg::kHandshake || h.block_host != prev_host)
      throw_fabric(FabricErrc::kRankConflict,
                   "ring mis-wired: host " + std::to_string(host) +
                       " expected predecessor " + std::to_string(prev_host) +
                       ", got host " + std::to_string(h.block_host));
    if (h.seq < epoch) {
      // Leftover dial from an abandoned reconnect attempt at an earlier
      // collective — drop it and wait for the live one.
      ring.prev.close();
      continue;
    }
    if (h.seq > epoch)
      throw_fabric(FabricErrc::kAborted,
                   "ring epoch mismatch: predecessor host " +
                       std::to_string(prev_host) + " reconnecting at seq " +
                       std::to_string(h.seq) + ", we are at seq " +
                       std::to_string(epoch) +
                       " — collective state diverged, restart required");
    return ring;
  }
}

HierComm::Topology HierComm::topology_for(std::size_t rank, std::size_t world,
                                          std::size_t hosts) {
  Topology t;
  t.world = world;
  t.hosts = hosts;
  t.host = host_of_rank(rank, world, hosts);
  const auto [begin, end] = host_span(t.host, world, hosts);
  t.global_rank = rank;
  t.local_rank = rank - begin;
  t.local_world = end - begin;
  return t;
}

HierComm::HierComm(ProcComm local, Topology topo, RingEndpoints ring,
                   std::chrono::milliseconds timeout)
    : Comm(topo.world, local.options()),
      local_(std::move(local)),
      topo_(topo),
      ring_(std::move(ring)),
      timeout_(timeout) {
  DT_CHECK_EQ(local_.ranks(), topo_.local_world);
  const bool needs_ring = topo_.hosts > 1 && topo_.local_rank == 0;
  DT_CHECK_MSG(ring_.next.valid() == needs_ring &&
                   ring_.prev.valid() == needs_ring,
               "ring endpoints must be connected exactly on multi-host "
               "leaders (host "
                   << topo_.host << ", local rank " << topo_.local_rank
                   << ")");
}

void HierComm::enable_reconnect(ReconnectPolicy policy) {
  DT_CHECK_MSG(policy.listener.valid(),
               "reconnect policy needs the live ring listener");
  reconnect_ = std::move(policy);
}

void HierComm::redial_ring(std::size_t attempt) {
  // Close both streams first so the neighbours' blocked ring I/O fails
  // fast (transient) and they enter their own re-dial — H=2 leaders
  // converge on retrying the same seq; larger rings that diverged are
  // caught by the handshake's epoch check.
  ring_.next.close();
  ring_.prev.close();

  const RetryConfig& retry = reconnect_->retry;
  const std::uint64_t base = std::min<std::uint64_t>(
      retry.backoff_ms << std::min<std::size_t>(attempt, 20),
      retry.backoff_cap_ms);
  if (base > 1) {
    // Deterministic jitter into [base/2, base]: leaders that failed
    // together de-synchronize their re-dials without losing replay.
    Rng jitter(reconnect_->jitter_seed ^ (seq_ * 0x9e3779b97f4a7c15ULL) ^
               attempt);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        base / 2 + jitter.uniform_int(base / 2 + 1)));
  } else if (base == 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ChaosConfig chaos = reconnect_->chaos;
  chaos.reset_at_byte = 0;  // the injected reset models ONE transient fault
  ring_ = connect_ring(reconnect_->listener.get(), reconnect_->map,
                       topo_.host, deadline_after(timeout_),
                       reconnect_->nodelay, chaos, seq_);
}

void HierComm::run_leader_phase(const Staging& s, std::size_t size) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      leader_reduce_broadcast(s, size);
      return;
    } catch (const FabricError& e) {
      // kBadMagic here is a ring stream desync (duplicate/garbled
      // frame): a fresh stream plus the epoch-checked phase retry heals
      // it exactly like a torn connection, so it rides the same tier.
      const bool recoverable = fabric_errc_transient(e.code()) ||
                               e.code() == FabricErrc::kBadMagic;
      if (!reconnect_ || !recoverable ||
          attempt >= reconnect_->retry.max_attempts)
        throw;
      WallTimer timer;
      redial_ring(attempt);
      ++reconnects_;
      reconnect_seconds_ += timer.seconds();
    }
  }
}

void HierComm::send_ring(RingMsg kind, std::size_t block_host,
                         std::span<const std::uint8_t> body,
                         Deadline deadline) {
  body_.clear();
  append_u32(body_, static_cast<std::uint32_t>(kind));
  append_u32(body_, static_cast<std::uint32_t>(block_host));
  append_u64(body_, seq_);
  append_u64(body_, body.size());
  body_.insert(body_.end(), body.begin(), body.end());
  ring_.next.send(MsgType::kCollective, body_, deadline);
}

std::span<const std::uint8_t> HierComm::recv_ring(RingMsg kind,
                                                  std::size_t expect_host,
                                                  Deadline deadline) {
  if (!ring_.prev.recv(frame_, deadline))
    throw_fabric(FabricErrc::kPeerClosed,
                 "ring predecessor closed mid-collective");
  const RingHeader h = parse_ring_header(frame_);
  if (h.kind != kind || h.seq != seq_ || h.block_host != expect_host)
    throw_fabric(FabricErrc::kBadMagic,
                 "ring stream desync: got {kind " +
                     std::to_string(static_cast<int>(h.kind)) + ", host " +
                     std::to_string(h.block_host) + ", seq " +
                     std::to_string(h.seq) + "}, expected {kind " +
                     std::to_string(static_cast<int>(kind)) + ", host " +
                     std::to_string(expect_host) + ", seq " +
                     std::to_string(seq_) + "}");
  return {frame_.payload.data() + kRingHeaderBytes,
          static_cast<std::size_t>(h.body_len)};
}

// The left fold over global ranks, distributed: host 0 starts the
// double accumulator at zero, every host folds its local staged rows
// one rank at a time (local order == contiguous global order), the last
// host rounds to float means — the identical arithmetic, in the
// identical order, as Comm::reduce's per-element loop.
void HierComm::leader_reduce_broadcast(const Staging& s, std::size_t size) {
  const Deadline deadline = deadline_after(timeout_);
  const std::size_t hosts = topo_.hosts;

  acc_.resize(size);
  if (topo_.host == 0) {
    std::fill(acc_.begin(), acc_.end(), 0.0);
  } else {
    const auto body = recv_ring(RingMsg::kReduce, topo_.host - 1, deadline);
    DT_CHECK_MSG(body.size() == size * sizeof(double),
                 "cross-host allreduce size mismatch: host "
                     << topo_.host - 1 << " sent " << body.size()
                     << " bytes, expected " << size * sizeof(double));
    if (size > 0) std::memcpy(acc_.data(), body.data(), body.size());
  }
  for (std::size_t r = 0; r < s.rows; ++r) {
    const float* row = s.staged + r * s.stride;
    for (std::size_t i = 0; i < size; ++i)
      acc_[i] += static_cast<double>(row[i]);
  }

  if (topo_.host + 1 < hosts) {
    send_ring(RingMsg::kReduce, topo_.host,
              {reinterpret_cast<const std::uint8_t*>(acc_.data()),
               size * sizeof(double)},
              deadline);
    // The float means ring back from the last host (which alone holds
    // the completed fold), origin-tagged so a desynced ring fails typed.
    const auto body = recv_ring(RingMsg::kBroadcast, hosts - 1, deadline);
    DT_CHECK_MSG(body.size() == size * sizeof(float),
                 "cross-host broadcast size mismatch");
    if (size > 0) std::memcpy(s.result, body.data(), body.size());
    // Forward until the hop before the origin: hosts 0..H-3 relay.
    if (topo_.host + 1 < hosts - 1)
      send_ring(RingMsg::kBroadcast, hosts - 1, body, deadline);
  } else {
    const double inv = 1.0 / static_cast<double>(ranks_);
    for (std::size_t i = 0; i < size; ++i)
      s.result[i] = static_cast<float>(acc_[i] * inv);
    if (hosts > 1)
      send_ring(RingMsg::kBroadcast, topo_.host,
                {reinterpret_cast<const std::uint8_t*>(s.result),
                 size * sizeof(float)},
                deadline);
  }
}

Comm::Staging HierComm::stage(std::size_t rank, std::size_t size) {
  DT_CHECK_EQ(rank, topo_.global_rank);
  const Staging s = local_.stage(topo_.local_rank, size);
  ++seq_;
  return s;
}

void HierComm::sync(std::size_t) { local_.sync(topo_.local_rank); }

void HierComm::record(std::uint64_t bytes) { local_.record(bytes); }

// The leader's receipt of the broadcast transitively proves every host
// contributed, so the collective is a *global* synchronization point
// even for empty payloads (which is what Comm::barrier leans on across
// the checkpoint protocol).
void HierComm::reduce(std::size_t, std::size_t size, const Staging& s) {
  if (!is_leader()) return;
  check_uniform_size(s, size);
  try {
    run_leader_phase(s, size);
  } catch (...) {
    // Fail the followers fast (kAborted) instead of letting them wait
    // out their own barrier deadline on a ring that is already dead.
    local_.abort_session();
    throw;
  }
}

}  // namespace disttgl::dist
