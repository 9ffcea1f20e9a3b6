#include "fabric/chaos.hpp"

#include <vector>

#include "server/wire.hpp"

namespace aeep::fabric {

using server::ServerError;
using server::Socket;

namespace {

u32 read_u32le(const u8* in) {
  return static_cast<u32>(in[0]) | (static_cast<u32>(in[1]) << 8) |
         (static_cast<u32>(in[2]) << 16) | (static_cast<u32>(in[3]) << 24);
}

/// Bound every blocking read so a stalled peer delays stop() by at most
/// this much, not forever.
constexpr int kReadTimeoutMs = 2'000;

}  // namespace

ChaosProxy::ChaosProxy(std::string upstream_host, u16 upstream_port,
                       ChaosPolicy policy, u16 listen_port)
    : upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      policy_(policy),
      listen_port_(listen_port) {}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  if (started_.exchange(true)) return;
  listener_ =
      std::make_unique<server::Listener>("127.0.0.1", listen_port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

u16 ChaosProxy::port() const {
  return listener_ ? listener_->port() : listen_port_;
}

void ChaosProxy::stop() {
  if (!started_.load()) return;
  closing_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Relay> doomed;
  {
    const MutexLock lock(mutex_);
    doomed.splice(doomed.begin(), relays_);
  }
  for (auto& relay : doomed)
    if (relay.thread.joinable()) relay.thread.join();
  if (listener_) listener_->close();
  started_.store(false);
  closing_.store(false);
}

ChaosStats ChaosProxy::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

void ChaosProxy::reset_stats() {
  const MutexLock lock(mutex_);
  stats_ = ChaosStats{};
}

void ChaosProxy::accept_loop() {
  while (!closing_.load()) {
    std::optional<Socket> sock;
    try {
      sock = listener_->accept(200);
    } catch (const ServerError&) {
      if (closing_.load()) break;
      continue;
    }
    {
      // Reap relays that finished since the last pass.
      const MutexLock lock(mutex_);
      for (auto it = relays_.begin(); it != relays_.end();) {
        if (it->done.load()) {
          it->thread.join();
          it = relays_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!sock) continue;

    const MutexLock lock(mutex_);
    ++stats_.connections;
    const u64 conn_id = next_conn_id_++;
    relays_.emplace_back();
    Relay& entry = relays_.back();
    entry.thread =
        std::thread([this, &entry, conn_id, s = std::move(*sock)]() mutable {
          relay_connection(std::move(s), conn_id);
          entry.done.store(true);
        });
  }
}

void ChaosProxy::relay_connection(Socket client, u64 conn_id) {
  Socket upstream;
  try {
    upstream = server::connect_to(upstream_host_, upstream_port_);
  } catch (const ServerError&) {
    const MutexLock lock(mutex_);
    ++stats_.upstream_failures;
    return;  // client sees an immediate close — as if the worker vanished
  }
  // Per-connection fault draws: reproducible for a fixed policy seed and
  // connection arrival order.
  Xorshift64Star rng(policy_.seed * 0x9E3779B97F4A7C15ull + conn_id);
  try {
    while (!closing_.load()) {
      const Forward req = forward_frame(client, upstream, rng);
      if (req == Forward::kClosed) break;
      if (req == Forward::kSwallowed) continue;  // no reply is coming
      if (forward_frame(upstream, client, rng) == Forward::kClosed) break;
    }
  } catch (const ServerError&) {
    // Either side vanished mid-frame; both sockets close below.
  }
}

ChaosProxy::Forward ChaosProxy::forward_frame(Socket& src, Socket& dst,
                                              Xorshift64Star& rng) {
  // Poll so a proxy shutdown is noticed between frames.
  while (!closing_.load()) {
    if (src.wait_readable(200)) break;
  }
  if (closing_.load()) return Forward::kClosed;

  u8 prefix[4];
  if (!src.recv_exact(prefix, sizeof(prefix), kReadTimeoutMs))
    return Forward::kClosed;  // clean close between frames
  const u32 len = read_u32le(prefix);
  if (len > server::kMaxFrameBytes) return Forward::kClosed;
  std::vector<u8> payload(len);
  if (len > 0 && !src.recv_exact(payload.data(), payload.size(),
                                 kReadTimeoutMs))
    return Forward::kClosed;

  // At most one fault per frame, drawn in severity order.
  if (policy_.kill > 0.0 && rng.chance(policy_.kill)) {
    const MutexLock lock(mutex_);
    ++stats_.killed;
    return Forward::kClosed;
  }
  if (policy_.drop > 0.0 && rng.chance(policy_.drop)) {
    const MutexLock lock(mutex_);
    ++stats_.dropped;
    return Forward::kSwallowed;
  }
  if (policy_.truncate > 0.0 && rng.chance(policy_.truncate)) {
    // Forward an honest prefix but only half the payload, then close: the
    // peer observes a connection lost mid-frame.
    dst.send_all(prefix, sizeof(prefix));
    if (len > 1) dst.send_all(payload.data(), len / 2);
    {
      const MutexLock lock(mutex_);
      ++stats_.truncated;
    }
    return Forward::kClosed;
  }
  if (len > 0 && policy_.corrupt > 0.0 && rng.chance(policy_.corrupt)) {
    payload[rng.next_below(len)] ^= 0xFF;
    const MutexLock lock(mutex_);
    ++stats_.corrupted;
  }

  // Counted before the bytes go out: once the peer observes the frame the
  // counter must already reflect it (a stats() racing the last reply in a
  // test would otherwise briefly under-count).
  {
    const MutexLock lock(mutex_);
    ++stats_.frames_forwarded;
  }
  dst.send_all(prefix, sizeof(prefix));
  if (len > 0) dst.send_all(payload.data(), payload.size());
  return Forward::kForwarded;
}

}  // namespace aeep::fabric
