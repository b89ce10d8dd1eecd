#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "check/rng.h"
#include "obsv/span.h"

namespace asimt::serve {

namespace {

// Remaining-time helper: milliseconds until `deadline_ns`, or -1 for "no
// deadline". Clamped at >= 1 while time remains so poll never spins.
int wait_budget_ms(std::uint64_t deadline_ns) {
  if (deadline_ns == 0) return -1;
  const std::uint64_t now = obsv::now_ns();
  if (now >= deadline_ns) return 0;
  return static_cast<int>((deadline_ns - now) / 1'000'000ull) + 1;
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      io_timeout_ms_(other.io_timeout_ms_),
      buffer_(std::move(other.buffer_)),
      error_(std::move(other.error_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    io_timeout_ms_ = other.io_timeout_ms_;
    buffer_ = std::move(other.buffer_);
    error_ = std::move(other.error_);
  }
  return *this;
}

bool Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error_ = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  // Local connect() completes synchronously; only the established fd goes
  // nonblocking, so every subsequent send/recv is poll-paced and can honor
  // the io timeout.
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::shutdown_write() {
  if (fd_ < 0) return false;
  return ::shutdown(fd_, SHUT_WR) == 0;
}

bool Client::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  const char* data = framed.data();
  std::size_t len = framed.size();
  const std::uint64_t deadline_ns =
      io_timeout_ms_ == 0 ? 0
                          : obsv::now_ns() + io_timeout_ms_ * 1'000'000ull;
  while (len > 0) {
    // MSG_NOSIGNAL: a daemon that went away mid-send is an error return,
    // not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        const int wait_ms = wait_budget_ms(deadline_ns);
        if (wait_ms == 0) {
          error_ = "send: timed out";
          return false;
        }
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0 && errno != EINTR) {
          error_ = std::string("poll: ") + std::strerror(errno);
          return false;
        }
        if (ready == 0) {
          error_ = "send: timed out";
          return false;
        }
        continue;
      }
      error_ = std::string("send: ") + std::strerror(errno);
      return false;
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

Client::LineResult Client::recv_line_wait(std::string& line, int timeout_ms) {
  if (fd_ < 0) {
    error_ = "not connected";
    return LineResult::kClosed;
  }
  const std::uint64_t deadline_ns =
      timeout_ms < 0
          ? 0
          : obsv::now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return LineResult::kLine;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        int wait_ms = -1;
        if (deadline_ns != 0) {
          wait_ms = wait_budget_ms(deadline_ns);
          if (wait_ms == 0) {
            error_ = "recv: timed out";
            return LineResult::kTimeout;
          }
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0 && errno != EINTR) {
          error_ = std::string("poll: ") + std::strerror(errno);
          return LineResult::kClosed;
        }
        if (ready == 0 && deadline_ns != 0) {
          error_ = "recv: timed out";
          return LineResult::kTimeout;
        }
        continue;
      }
      error_ = std::string("recv: ") + std::strerror(errno);
      return LineResult::kClosed;
    }
    if (n == 0) {
      error_ = "connection closed by server";
      return LineResult::kClosed;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> Client::recv_line() {
  std::string line;
  const int timeout_ms =
      io_timeout_ms_ == 0 ? -1 : static_cast<int>(io_timeout_ms_);
  if (recv_line_wait(line, timeout_ms) != LineResult::kLine) {
    return std::nullopt;
  }
  return line;
}

// ---------------------------------------------------------------------------
// RetryingClient

std::uint64_t jittered_backoff_ms(std::uint64_t& rng_state, unsigned attempt,
                                  const RetryPolicy& policy) {
  // Ceiling doubles per attempt, capped; the draw is uniform in [0, ceiling]
  // (full jitter — decorrelates clients that failed together).
  std::uint64_t ceiling = policy.base_backoff_ms;
  for (unsigned i = 0; i < attempt && ceiling < policy.max_backoff_ms; ++i) {
    ceiling *= 2;
  }
  ceiling = std::min(ceiling, policy.max_backoff_ms);
  if (ceiling == 0) return 0;
  return check::Rng::step(rng_state) % (ceiling + 1);
}

namespace {

// Error replies are spliced deterministically, so the kind is exactly the
// substring `"kind":"overloaded"` when the server shed this request.
bool is_overloaded_reply(const std::string& reply) {
  return reply.find("\"ok\":false") != std::string::npos &&
         reply.find("\"kind\":\"overloaded\"") != std::string::npos;
}

std::uint64_t parse_retry_after_ms(const std::string& reply) {
  static const std::string kField = "\"retry_after_ms\":";
  const std::size_t pos = reply.find(kField);
  if (pos == std::string::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = pos + kField.size();
       i < reply.size() && reply[i] >= '0' && reply[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(reply[i] - '0');
  }
  return value;
}

}  // namespace

RetryingClient::RetryingClient(std::string socket_path, RetryPolicy policy)
    : socket_path_(std::move(socket_path)),
      policy_(policy),
      rng_state_(policy.seed),
      budget_(policy.initial_budget) {}

bool RetryingClient::ensure_connected() {
  if (client_.connected()) return true;
  if (!client_.connect(socket_path_)) return false;
  client_.set_io_timeout_ms(policy_.io_timeout_ms);
  if (stats_.attempts > 1) ++stats_.reconnects;
  return true;
}

std::optional<std::string> RetryingClient::roundtrip(const std::string& line) {
  std::uint64_t sleep_floor_ms = 0;  // the server's retry_after_ms hint
  for (unsigned attempt = 0; attempt < std::max(1u, policy_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      if (budget_ < 1.0) {
        ++stats_.budget_exhausted;
        error_ = "retry budget exhausted";
        return std::nullopt;
      }
      budget_ -= 1.0;
      ++stats_.retries;
      const std::uint64_t backoff =
          jittered_backoff_ms(rng_state_, attempt - 1, policy_);
      const std::uint64_t sleep_ms = std::max(backoff, sleep_floor_ms);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      sleep_floor_ms = 0;
    }
    ++stats_.attempts;
    if (!ensure_connected()) {
      error_ = client_.error();
      continue;
    }
    if (!client_.send_line(line)) {
      error_ = client_.error();
      client_.close();
      continue;
    }
    std::string reply;
    const Client::LineResult result = client_.recv_line_wait(
        reply, policy_.io_timeout_ms == 0
                   ? -1
                   : static_cast<int>(policy_.io_timeout_ms));
    if (result != Client::LineResult::kLine) {
      // Timeout included: a reply may still be in flight, so the stream can
      // no longer be trusted to pair requests with replies — reconnect.
      error_ = client_.error();
      client_.close();
      continue;
    }
    if (is_overloaded_reply(reply)) {
      ++stats_.overloaded_replies;
      sleep_floor_ms = parse_retry_after_ms(reply);
      error_ = "server overloaded";
      continue;
    }
    budget_ = std::min(policy_.budget_cap,
                       budget_ + policy_.budget_per_success);
    return reply;
  }
  if (error_.empty()) error_ = "all attempts failed";
  return std::nullopt;
}

}  // namespace asimt::serve
