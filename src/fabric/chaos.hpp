// Fault injection for the wire protocol itself. A ChaosProxy sits between
// a coordinator (or any client) and one worker, relays length-prefixed
// frames byte-for-byte, and — with seeded per-frame probabilities — drops,
// truncates or corrupts them, or kills the connection outright. This is the
// strike process for the fabric: just as fault::StrikeProcess flips bits in
// live cache arrays so RecoveryController's paths are exercised rather than
// assumed, ChaosProxy damages live frames so every coordinator recovery
// path (retry, worker drop, local fallback) is hit in tests and CI instead
// of lying dormant until a real outage.
//
// Faults map onto the typed errors the peers must observe:
//   corrupt  -> flipped payload byte  -> ServerError(kProtocol) (bad JSON)
//   truncate -> short payload + close -> ServerError(kIo) mid-frame close
//   kill     -> close before forward  -> ServerError(kIo) (connection died)
//   drop     -> frame never forwarded -> caller's read times out (kIo)
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "server/socket.hpp"

namespace aeep::fabric {

/// Per-frame fault probabilities (independent draws, checked in the order
/// kill, drop, truncate, corrupt; the first that fires wins).
struct ChaosPolicy {
  double kill = 0.0;      ///< close both directions before forwarding
  double drop = 0.0;      ///< swallow the frame, keep the connection
  double truncate = 0.0;  ///< forward a short payload, then close
  double corrupt = 0.0;   ///< flip one payload byte (breaks the JSON)
  u64 seed = 1;           ///< per-connection fault draws derive from this
};

/// Per-fault-type counters, so a test can assert the scenario it configured
/// actually happened (a chaos run that injected nothing proves nothing).
struct ChaosStats {
  u64 connections = 0;
  u64 upstream_failures = 0;  ///< worker unreachable at connect time
  u64 frames_forwarded = 0;
  u64 killed = 0;
  u64 dropped = 0;
  u64 truncated = 0;
  u64 corrupted = 0;
};

class ChaosProxy {
 public:
  /// Proxy for `upstream_host:upstream_port`, listening on 127.0.0.1:
  /// `listen_port` (0 = kernel-assigned).
  ChaosProxy(std::string upstream_host, u16 upstream_port, ChaosPolicy policy,
             u16 listen_port = 0);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Bind + spawn the accept loop. Throws ServerError(kIo) on a taken port.
  void start();

  /// The port clients should connect to.
  u16 port() const;

  /// Close the listener and every relay; joins all threads. Idempotent.
  void stop();

  ChaosStats stats() const;
  void reset_stats();

 private:
  enum class Forward { kForwarded, kSwallowed, kClosed };

  struct Relay {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void relay_connection(server::Socket client, u64 conn_id);
  /// Move one frame src -> dst, applying at most one fault.
  Forward forward_frame(server::Socket& src, server::Socket& dst,
                        Xorshift64Star& rng);

  std::string upstream_host_;
  u16 upstream_port_;
  ChaosPolicy policy_;
  u16 listen_port_;

  std::unique_ptr<server::Listener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> closing_{false};
  std::atomic<bool> started_{false};

  mutable aeep::Mutex mutex_;  ///< stats_ + relays_
  ChaosStats stats_ AEEP_GUARDED_BY(mutex_){};
  std::list<Relay> relays_ AEEP_GUARDED_BY(mutex_);
  u64 next_conn_id_ AEEP_GUARDED_BY(mutex_) = 1;
};

}  // namespace aeep::fabric
