#include "serve/chaos.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obsv/span.h"

namespace asimt::serve {

namespace {

constexpr const char* kModeNames[kChaosModeCount] = {"chop", "stall", "garbage",
                                                     "disconnect"};

// The junk line injected by garbage faults: printable, newline-terminated,
// and unparseable as JSON, so the daemon must answer it with a parse error
// and keep reading — never with silence or a dropped connection.
constexpr const char kGarbageLine[] = "%%chaos-garbage%%\n";

}  // namespace

const char* chaos_mode_name(ChaosMode mode) {
  return kModeNames[static_cast<unsigned>(mode)];
}

std::optional<ChaosMode> chaos_mode_from_name(const std::string& name) {
  for (unsigned m = 0; m < kChaosModeCount; ++m) {
    if (name == kModeNames[m]) return static_cast<ChaosMode>(m);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ChaosSchedule

ChaosSchedule::ChaosSchedule(const ChaosOptions& options,
                             std::uint64_t conn_ordinal, bool to_upstream)
    : options_(options), to_upstream_(to_upstream) {
  // Same stream-derivation shape as the loadgen's per-connection seeds: one
  // SplitMix64 state per (seed, conn, direction), decorrelated by the golden
  // ratio. The ordinal starts at 1 (accept order), directions at 0/1.
  rng_ = check::Rng(options.seed ^ (0x9E3779B97F4A7C15ull *
                                     (conn_ordinal * 2 + (to_upstream ? 0 : 1))));
  any_enabled_ = false;
  for (unsigned m = 0; m < kChaosModeCount; ++m) {
    // Garbage must be a protocol-level *request*; injecting junk lines into
    // the reply stream would corrupt what the campaign asserts byte-identity
    // on, so server->client schedules never draw it.
    if (!to_upstream_ && static_cast<ChaosMode>(m) == ChaosMode::kGarbage) {
      continue;
    }
    any_enabled_ = any_enabled_ || options_.enabled[m];
  }
  if (any_enabled_) generate();
}

void ChaosSchedule::pop() { generate(); }

void ChaosSchedule::generate() {
  // Gap uniform in [1, 2*mean-1]: mean exactly mean_gap_bytes, never zero —
  // two faults can't fire at the same offset.
  const std::uint64_t mean = std::max<std::uint64_t>(1, options_.mean_gap_bytes);
  const std::uint64_t gap = 1 + rng_.next() % (2 * mean - 1);
  cursor_ += gap;
  next_.offset = cursor_;
  // Weighted draw over the enabled modes. Weights favor the benign faults
  // (chop exercises every short-read/short-write loop) over the destructive
  // one (disconnect costs the client a reconnect and every in-flight reply).
  static constexpr std::uint64_t kWeights[kChaosModeCount] = {45, 25, 20, 10};
  std::uint64_t total = 0;
  for (unsigned m = 0; m < kChaosModeCount; ++m) {
    const bool usable =
        options_.enabled[m] &&
        (to_upstream_ || static_cast<ChaosMode>(m) != ChaosMode::kGarbage);
    if (usable) total += kWeights[m];
  }
  std::uint64_t draw = rng_.next() % total;
  for (unsigned m = 0; m < kChaosModeCount; ++m) {
    const bool usable =
        options_.enabled[m] &&
        (to_upstream_ || static_cast<ChaosMode>(m) != ChaosMode::kGarbage);
    if (!usable) continue;
    if (draw < kWeights[m]) {
      next_.mode = static_cast<ChaosMode>(m);
      return;
    }
    draw -= kWeights[m];
  }
  next_.mode = ChaosMode::kChop;  // unreachable: total covers every draw
}

// ---------------------------------------------------------------------------
// ChaosProxy

namespace {

// One direction of a proxied connection: bytes read from `src` accumulate in
// `pending` and are forwarded to `dst`, with the schedule applied at
// forwarded-byte offsets. Both pumps of a connection are driven by one
// thread and one poll set — no cross-thread state.
struct Pump {
  int src = -1;
  int dst = -1;
  ChaosSchedule schedule;
  std::string pending;
  std::uint64_t forwarded = 0;       // source bytes sent to dst so far
  std::uint64_t chop_remaining = 0;  // bytes still to forward 1-at-a-time
  std::uint64_t stall_until_ns = 0;
  bool garbage_pending = false;  // inject kGarbageLine at next line boundary
  bool at_line_start = true;
  bool src_eof = false;
  bool half_closed = false;  // SHUT_WR already propagated to dst

  Pump(int src_fd, int dst_fd, ChaosSchedule sched)
      : src(src_fd), dst(dst_fd), schedule(std::move(sched)) {}

  bool drained() const {
    return src_eof && pending.empty() && !garbage_pending;
  }
};

// How the pump loop's single step ended.
enum class PumpStatus {
  kProgress,  // keep going
  kBlocked,   // dst not writable right now: poll for POLLOUT
  kStalled,   // stall fault active: poll with a timeout, send nothing
  kDead,      // disconnect fault or hard socket error: tear the conn down
};

// Forwards as much of `pending` as the schedule and the kernel allow.
PumpStatus pump_step(Pump& p, const ChaosOptions& options, ChaosStats& stats) {
  if (p.stall_until_ns != 0) {
    if (obsv::now_ns() < p.stall_until_ns) return PumpStatus::kStalled;
    p.stall_until_ns = 0;
  }
  auto send_bytes = [&](const char* data, std::size_t len,
                        std::size_t& sent_out) -> PumpStatus {
    const ssize_t n = ::send(p.dst, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        sent_out = 0;
        return PumpStatus::kProgress;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        sent_out = 0;
        return PumpStatus::kBlocked;
      }
      return PumpStatus::kDead;  // peer reset: nothing left to forward to
    }
    sent_out = static_cast<std::size_t>(n);
    return PumpStatus::kProgress;
  };

  for (;;) {
    // Garbage waits for a line boundary so the junk is a clean extra *line*,
    // not a corruption of a real request the campaign must see answered.
    if (p.garbage_pending && p.at_line_start) {
      std::size_t sent = 0;
      const PumpStatus status =
          send_bytes(kGarbageLine, sizeof(kGarbageLine) - 1, sent);
      if (status != PumpStatus::kProgress) return status;
      if (sent < sizeof(kGarbageLine) - 1) {
        // Partial garbage write: extraordinarily rare (the line is tiny);
        // finish it synchronously rather than tracking a cursor for it.
        std::size_t off = sent;
        while (off < sizeof(kGarbageLine) - 1) {
          pollfd pfd{p.dst, POLLOUT, 0};
          if (::poll(&pfd, 1, 1000) <= 0) return PumpStatus::kDead;
          std::size_t more = 0;
          if (send_bytes(kGarbageLine + off, sizeof(kGarbageLine) - 1 - off,
                         more) == PumpStatus::kDead) {
            return PumpStatus::kDead;
          }
          off += more;
        }
      }
      p.garbage_pending = false;
      stats.faults[static_cast<unsigned>(ChaosMode::kGarbage)].fetch_add(
          1, std::memory_order_relaxed);
      continue;
    }
    if (p.pending.empty()) return PumpStatus::kProgress;

    // Fire every fault scheduled at the current offset before forwarding.
    if (p.schedule.any() && p.forwarded == p.schedule.peek().offset) {
      const ChaosMode mode = p.schedule.peek().mode;
      p.schedule.pop();
      switch (mode) {
        case ChaosMode::kChop:
          p.chop_remaining = std::max<std::uint64_t>(1, options.chop_bytes);
          stats.faults[static_cast<unsigned>(ChaosMode::kChop)].fetch_add(
              1, std::memory_order_relaxed);
          break;
        case ChaosMode::kStall:
          p.stall_until_ns = obsv::now_ns() + options.stall_ms * 1'000'000ull;
          stats.faults[static_cast<unsigned>(ChaosMode::kStall)].fetch_add(
              1, std::memory_order_relaxed);
          return PumpStatus::kStalled;
        case ChaosMode::kGarbage:
          p.garbage_pending = true;
          continue;  // counted when actually injected
        case ChaosMode::kDisconnect:
          stats.faults[static_cast<unsigned>(ChaosMode::kDisconnect)]
              .fetch_add(1, std::memory_order_relaxed);
          return PumpStatus::kDead;
      }
    }

    std::size_t n = p.pending.size();
    if (p.schedule.any()) {
      n = std::min<std::size_t>(n, p.schedule.peek().offset - p.forwarded);
    }
    if (p.chop_remaining > 0) n = 1;
    std::size_t sent = 0;
    const PumpStatus status = send_bytes(p.pending.data(), n, sent);
    if (status != PumpStatus::kProgress) return status;
    if (sent > 0) {
      p.at_line_start = p.pending[sent - 1] == '\n';
      p.pending.erase(0, sent);
      p.forwarded += sent;
      stats.bytes_forwarded.fetch_add(sent, std::memory_order_relaxed);
      if (p.chop_remaining > 0) --p.chop_remaining;
    }
  }
}

}  // namespace

ChaosProxy::ChaosProxy(ChaosOptions options) : options_(std::move(options)) {}

ChaosProxy::~ChaosProxy() {
  notify_stop();
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) {
      if (connection->client_fd >= 0) {
        ::shutdown(connection->client_fd, SHUT_RDWR);
      }
      if (connection->upstream_fd >= 0) {
        ::shutdown(connection->upstream_fd, SHUT_RDWR);
      }
    }
  }
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
    if (connection->client_fd >= 0) ::close(connection->client_fd);
    if (connection->upstream_fd >= 0) ::close(connection->upstream_fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

bool ChaosProxy::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.listen_path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + options_.listen_path;
    return false;
  }
  if (options_.upstream_path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + options_.upstream_path;
    return false;
  }
  std::memcpy(addr.sun_path, options_.listen_path.c_str(),
              options_.listen_path.size() + 1);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    error_ = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  ::fcntl(wake_write_fd_, F_SETFL, O_NONBLOCK);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Same stale-inode reclaim as Server::start(): a leftover socket file from
  // a crashed proxy is unlinked, a live listener is an error.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno == EADDRINUSE) {
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool alive =
          probe >= 0 && ::connect(probe,
                                  reinterpret_cast<const sockaddr*>(&addr),
                                  sizeof(addr)) == 0;
      if (probe >= 0) ::close(probe);
      if (alive) {
        error_ =
            "another proxy is already listening on " + options_.listen_path;
        return false;
      }
      ::unlink(options_.listen_path.c_str());
      if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        error_ = "bind " + options_.listen_path + ": " + std::strerror(errno);
        return false;
      }
    } else {
      error_ = "bind " + options_.listen_path + ": " + std::strerror(errno);
      return false;
    }
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  return true;
}

std::uint64_t ChaosProxy::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_read_fd_, POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("poll: ") + std::strerror(errno);
      break;
    }
    if (fds[1].revents != 0) break;  // notify_stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      error_ = std::string("accept: ") + std::strerror(errno);
      break;
    }

    // Dial the upstream synchronously; a dead daemon means the client sees
    // an immediate close — exactly what it would see connecting directly.
    sockaddr_un upstream_addr{};
    upstream_addr.sun_family = AF_UNIX;
    std::memcpy(upstream_addr.sun_path, options_.upstream_path.c_str(),
                options_.upstream_path.size() + 1);
    const int upstream = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (upstream < 0 ||
        ::connect(upstream, reinterpret_cast<const sockaddr*>(&upstream_addr),
                  sizeof(upstream_addr)) != 0) {
      if (upstream >= 0) ::close(upstream);
      ::close(client);
      continue;
    }

    ++connections_served_;
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->client_fd = client;
    connection->upstream_fd = upstream;
    connection->ordinal = connections_served_;
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { pump_connection(raw); });
    reap_finished_connections();
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.listen_path.c_str());
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) {
      if (connection->client_fd >= 0) {
        ::shutdown(connection->client_fd, SHUT_RDWR);
      }
      if (connection->upstream_fd >= 0) {
        ::shutdown(connection->upstream_fd, SHUT_RDWR);
      }
    }
  }
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  return connections_served_;
}

void ChaosProxy::notify_stop() {
  stopping_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void ChaosProxy::pump_connection(Connection* connection) {
  const int cfd = connection->client_fd;
  const int ufd = connection->upstream_fd;
  ::fcntl(cfd, F_SETFL, ::fcntl(cfd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(ufd, F_SETFL, ::fcntl(ufd, F_GETFL, 0) | O_NONBLOCK);

  Pump pumps[2] = {
      // client -> upstream: requests; the direction garbage can target.
      Pump(cfd, ufd, ChaosSchedule(options_, connection->ordinal, true)),
      // upstream -> client: replies.
      Pump(ufd, cfd, ChaosSchedule(options_, connection->ordinal, false)),
  };
  // Bounded staging: never read more than this much ahead of the slowest
  // sink, so one stalled direction cannot balloon the proxy's memory.
  constexpr std::size_t kMaxPending = 1 << 16;
  char chunk[4096];
  bool dead = false;

  while (!dead && !stopping_.load(std::memory_order_acquire)) {
    if (pumps[0].drained() && pumps[1].drained()) break;

    // Drive both pumps, then build the poll set from what blocked them.
    int poll_timeout_ms = -1;
    bool want[2][2] = {{false, false}, {false, false}};  // [pump][in/out]
    for (Pump& p : pumps) {
      const PumpStatus status = pump_step(p, options_, stats_);
      if (status == PumpStatus::kDead) {
        dead = true;
        break;
      }
      const std::size_t idx = &p == &pumps[0] ? 0 : 1;
      if (status == PumpStatus::kStalled) {
        const std::uint64_t now = obsv::now_ns();
        const int remain_ms =
            p.stall_until_ns > now
                ? static_cast<int>((p.stall_until_ns - now) / 1'000'000ull) + 1
                : 1;
        poll_timeout_ms = poll_timeout_ms < 0
                              ? remain_ms
                              : std::min(poll_timeout_ms, remain_ms);
      } else if (status == PumpStatus::kBlocked) {
        want[idx][1] = true;
      }
      // Read more only when there is room and the source is still open and
      // the pump is not frozen by a stall (a stalled pump must not keep
      // buffering unbounded input past the fault point).
      if (!p.src_eof && p.pending.size() < kMaxPending &&
          p.stall_until_ns == 0) {
        want[idx][0] = true;
      }
      // Source finished and everything forwarded: propagate the half-close
      // so the daemon sees the same EOF the client sent (SHUT_WR pattern).
      if (p.drained() && !p.half_closed) {
        ::shutdown(p.dst, SHUT_WR);
        p.half_closed = true;
      }
    }
    if (dead) break;

    pollfd fds[4];  // up to POLLIN on src + POLLOUT on dst, per pump
    nfds_t nfds = 0;
    int map[2] = {-1, -1};  // pump index -> fds index
    for (std::size_t i = 0; i < 2; ++i) {
      short events = 0;
      if (want[i][0]) events |= POLLIN;
      if (want[i][1]) events |= POLLOUT;
      if (events != 0) {
        // POLLIN watches src, POLLOUT watches dst; when both are wanted the
        // fds differ, so register src for reads and dst for writes.
        if (want[i][0]) {
          map[i] = static_cast<int>(nfds);
          fds[nfds++] = {pumps[i].src, POLLIN, 0};
        }
        if (want[i][1]) {
          fds[nfds++] = {pumps[i].dst, POLLOUT, 0};
        }
      }
    }
    if (nfds == 0 && poll_timeout_ms < 0) break;  // nothing left to wait on
    if (nfds > 0 || poll_timeout_ms >= 0) {
      // Cap the wait so a stop request is noticed promptly even when both
      // directions are idle.
      const int wait_ms = poll_timeout_ms < 0
                              ? 100
                              : std::min(poll_timeout_ms, 100);
      const int ready = ::poll(fds, nfds, wait_ms);
      if (ready < 0 && errno != EINTR) break;
    }

    // Ingest whatever arrived.
    for (std::size_t i = 0; i < 2; ++i) {
      Pump& p = pumps[i];
      if (map[i] < 0 || p.src_eof) continue;
      const ssize_t n = ::recv(p.src, chunk, sizeof(chunk), 0);
      if (n > 0) {
        p.pending.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        p.src_eof = true;
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        dead = true;
      }
    }
  }

  // Disconnect faults and hard errors drop both directions at once — the
  // client's recv sees EOF/reset mid-stream, which is the point.
  ::shutdown(cfd, SHUT_RDWR);
  ::shutdown(ufd, SHUT_RDWR);
  ::close(cfd);
  ::close(ufd);
  connection->client_fd = -1;
  connection->upstream_fd = -1;
  connection->done.store(true, std::memory_order_release);
}

void ChaosProxy::reap_finished_connections() {
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire) &&
        (*it)->thread.joinable()) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

std::atomic<ChaosProxy*> g_signal_proxy{nullptr};

void chaos_signal_handler(int) {
  if (ChaosProxy* proxy = g_signal_proxy.load(std::memory_order_acquire)) {
    proxy->notify_stop();
  }
}

}  // namespace

void install_chaos_signal_handlers(ChaosProxy* proxy) {
  g_signal_proxy.store(proxy, std::memory_order_release);
  struct sigaction action {};
  if (proxy != nullptr) {
    action.sa_handler = chaos_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: poll() must return EINTR
  } else {
    action.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

}  // namespace asimt::serve
