// Seeded socket-level fault injection for the serving stack (`asimt chaos`).
//
// ChaosProxy sits between a client and the serve daemon on its own unix
// socket and forwards bytes both ways while injecting transport faults drawn
// from a SplitMix64-seeded schedule — the serving-layer sibling of the PR 5
// `src/fault` soft-error campaigns, with the same discipline: every fault is
// a pure function of (seed, connection ordinal, direction, byte offset), so
// a campaign replays byte-identically for a given seed and a failure
// reproduces from its seed alone.
//
// Fault modes (docs/SERVING.md § Resilience):
//   chop        forward the next K bytes one byte per send — the receiver
//               sees 1-byte reads, the sender's short-write loops are forced
//   stall       pause forwarding for stall_ms — exercises read deadlines
//               (client->server: a synthetic slow loris) and write deadlines
//   garbage     inject a whole junk line at the next line boundary
//               (client->server only: the daemon must answer it with a parse
//               error and keep the stream usable)
//   disconnect  drop both sides mid-stream — clients must reconnect, the
//               daemon must reap the dead connection
//
// Schedules are *offset*-indexed (fault at the Nth forwarded byte), not
// time-indexed, so the injected fault sequence is deterministic even though
// wall-clock timing is not. The ctest campaign (tests/serve/chaos_test.cpp,
// tools/chaos_campaign.sh) asserts the daemon behind the proxy never
// crashes, never deadlocks, and answers every surviving request
// byte-identically to a fault-free run.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "check/rng.h"

namespace asimt::serve {

enum class ChaosMode : unsigned {
  kChop = 0,
  kStall,
  kGarbage,
  kDisconnect,
};
inline constexpr unsigned kChaosModeCount = 4;
const char* chaos_mode_name(ChaosMode mode);
std::optional<ChaosMode> chaos_mode_from_name(const std::string& name);

struct ChaosOptions {
  std::string listen_path;    // where clients connect
  std::string upstream_path;  // the real daemon's socket
  std::uint64_t seed = 1;
  bool enabled[kChaosModeCount] = {true, true, true, true};
  // Mean forwarded bytes between injected faults (per direction); the gap is
  // uniform in [1, 2*mean-1], so the mean is exact and the stream is never
  // fault-free for long.
  std::uint64_t mean_gap_bytes = 256;
  std::uint64_t chop_bytes = 64;  // bytes forwarded 1-at-a-time per chop
  std::uint64_t stall_ms = 10;
  int backlog = 64;
};

// Per-mode injection counters plus totals; readable while the proxy runs.
struct ChaosStats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> bytes_forwarded{0};
  std::atomic<std::uint64_t> faults[kChaosModeCount] = {};

  std::uint64_t total_faults() const {
    std::uint64_t total = 0;
    for (unsigned m = 0; m < kChaosModeCount; ++m) {
      total += faults[m].load(std::memory_order_relaxed);
    }
    return total;
  }
};

// The deterministic per-direction fault stream: event N is a pure function
// of (options.seed, connection ordinal, direction). Exposed for the
// determinism test; the proxy consumes it internally.
class ChaosSchedule {
 public:
  struct Event {
    std::uint64_t offset = 0;  // forwarded-byte offset the fault fires at
    ChaosMode mode = ChaosMode::kChop;
  };

  ChaosSchedule(const ChaosOptions& options, std::uint64_t conn_ordinal,
                bool to_upstream);

  // False when every mode is disabled — the proxy degenerates to a plain
  // byte forwarder.
  bool any() const { return any_enabled_; }
  const Event& peek() const { return next_; }
  void pop();

 private:
  void generate();

  ChaosOptions options_;
  bool to_upstream_;
  bool any_enabled_;
  check::Rng rng_{0};
  std::uint64_t cursor_ = 0;
  Event next_;
};

// The proxy itself. Lifecycle mirrors serve::Server: start() binds the
// listen socket (with the same stale-inode reclaim), run() blocks until
// notify_stop() (async-signal-safe), the destructor joins every pump thread.
class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosOptions options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  bool start();
  std::uint64_t run();  // returns connections proxied
  void notify_stop();

  const std::string& error() const { return error_; }
  const ChaosOptions& options() const { return options_; }
  const ChaosStats& stats() const { return stats_; }

 private:
  struct Connection {
    int client_fd = -1;
    int upstream_fd = -1;
    std::uint64_t ordinal = 0;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void pump_connection(Connection* connection);
  void reap_finished_connections();

  ChaosOptions options_;
  ChaosStats stats_;
  std::string error_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex connections_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
  std::uint64_t connections_served_ = 0;
};

// SIGINT/SIGTERM -> notify_stop() on `proxy` (nullptr uninstalls); the
// chaos-CLI analogue of serve::install_stop_signal_handlers.
void install_chaos_signal_handlers(ChaosProxy* proxy);

}  // namespace asimt::serve
