#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>

#include "bench.h"
#include "check/rng.h"
#include "serve/client.h"

extern char** environ;

namespace perfbench {

namespace {

std::int64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// Parses the decimal digits at `pos`; false when there are none.
bool parse_digits(const std::string& s, std::size_t pos, std::uint64_t& out) {
  if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return false;
  std::uint64_t value = 0;
  for (; pos < s.size() && s[pos] >= '0' && s[pos] <= '9'; ++pos) {
    value = value * 10 + static_cast<std::uint64_t>(s[pos] - '0');
  }
  out = value;
  return true;
}

// Reply envelopes are spliced by the daemon, so the id always leads and the
// echoed latency, when present, is exactly `"server_ns":<digits>`.
constexpr char kIdPrefix[] = "{\"id\":";
constexpr char kServerNs[] = "\"server_ns\":";

}  // namespace

void pin_cpus(unsigned first, unsigned count) {
  const unsigned online =
      static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  if (count == 0) {
    first = 0;
    count = online;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu = first; cpu < first + count && cpu < online; ++cpu) {
    CPU_SET(cpu, &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Daemon

bool Daemon::start(const std::string& asimt, const std::string& socket,
                   const std::vector<std::string>& flags,
                   const std::string& log_path, double timeout_s,
                   std::string& error) {
  stop();
  ::unlink(socket.c_str());
  std::vector<std::string> args = {asimt, "serve", "--socket", socket};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, asimt.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    error = "cannot spawn " + asimt + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  socket_ = socket;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      error = "daemon exited during start-up (log: " + log_path + ")";
      return false;
    }
    asimt::serve::Client client;
    if (client.connect(socket)) {
      client.set_io_timeout_ms(2000);
      const std::optional<std::string> reply =
          client.roundtrip("{\"id\":0,\"op\":\"ping\"}");
      if (reply && reply->find("\"ok\":true") != std::string::npos) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  error = "daemon did not answer a ping within the start-up bound";
  stop();
  return false;
}

void Daemon::stop(double grace_s) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGCONT);
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(grace_s));
  int status = 0;
  for (;;) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) break;
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
}

void Daemon::suspend() {
  if (pid_ > 0) ::kill(pid_, SIGSTOP);
}

void Daemon::resume() {
  if (pid_ > 0) ::kill(pid_, SIGCONT);
}

double Daemon::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Generator

struct Generator::Conn {
  asimt::serve::Client client;  // owns the nonblocking fd
  bool alive = true;
  std::string out;              // queued bytes; out_off of them already sent
  std::size_t out_off = 0;
  std::uint64_t queued_bytes = 0;  // stream offsets, for lateness stamps
  std::uint64_t sent_bytes = 0;
  struct Unsent {
    std::uint64_t end;  // stream offset of the request's last byte + 1
    std::size_t slot;
  };
  std::deque<Unsent> unsent;
  std::string in;

  void queue(const std::string& line, std::size_t slot) {
    out += line;
    queued_bytes += line.size();
    unsent.push_back(Unsent{queued_bytes, slot});
  }
  bool has_output() const { return out_off < out.size(); }

  // Sends what the socket takes; `on_sent(slot)` fires for every request
  // whose last byte left.
  template <typename F>
  void flush(F&& on_sent) {
    while (alive && has_output()) {
      const ssize_t n = ::send(client.fd(), out.data() + out_off,
                               out.size() - out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) alive = false;
        break;
      }
      out_off += static_cast<std::size_t>(n);
      sent_bytes += static_cast<std::uint64_t>(n);
      while (!unsent.empty() && unsent.front().end <= sent_bytes) {
        on_sent(unsent.front().slot);
        unsent.pop_front();
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    } else if (out_off > (1u << 16)) {
      out.erase(0, out_off);
      out_off = 0;
    }
  }

  // Reads everything available; `on_line(line)` per complete reply line.
  template <typename F>
  void read(F&& on_line) {
    char buffer[1 << 16];
    while (alive) {
      const ssize_t n = ::recv(client.fd(), buffer, sizeof(buffer),
                               MSG_DONTWAIT);
      if (n == 0) {
        alive = false;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) alive = false;
        break;
      }
      in.append(buffer, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      on_line(in.substr(start, nl - start));
    }
    in.erase(0, start);
  }
};

Generator::Generator() = default;
Generator::~Generator() { close(); }

bool Generator::connect(const std::string& socket, unsigned conns,
                        std::string& error) {
  close();
  socket_ = socket;
  // Sub-millisecond pacing: ppoll wake-ups land within 1 us of the due
  // time instead of the default 50 us slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  for (unsigned i = 0; i < std::max(1u, conns); ++i) {
    auto conn = std::make_unique<Conn>();
    if (!conn->client.connect(socket)) {
      error = conn->client.error();
      close();
      return false;
    }
    conns_.push_back(std::move(conn));
  }
  return true;
}

void Generator::close() { conns_.clear(); }

StepResult Generator::run_step(const StepOptions& options, const BodyFn& body) {
  StepResult r;
  r.rate = options.rate;
  r.seconds = options.seconds;

  // The arrival schedule is fixed before the clock starts: a pure function
  // of (seed, rate, window).
  std::vector<std::int64_t> due_ns;
  {
    asimt::check::Rng rng(options.seed);
    double t = 0.0;
    for (;;) {
      const double u =
          (static_cast<double>(rng.next() >> 11) + 1.0) / 9007199254740993.0;
      t += -std::log(u) / options.rate;
      if (t >= options.seconds) break;
      due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    }
  }
  const std::size_t n = due_ns.size();
  r.scheduled = n;
  if (options.keep_replies) r.payloads.assign(n, std::string());
  // Nothing inside the timed loop may grow a vector: a reallocation's page
  // faults would show up as send lateness.
  for (auto* v : {&r.latency_us, &r.lateness_us, &r.server_us, &r.gap_us}) {
    v->reserve(n);
  }
  std::vector<std::int64_t> sent_ns(n, -1);
  std::vector<char> answered(n, 0);
  std::size_t answered_count = 0;
  const std::uint64_t base_id = next_id_;
  next_id_ += n;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const std::int64_t window_end_ns =
      static_cast<std::int64_t>(options.seconds * 1e9);
  const std::int64_t hard_end_ns =
      window_end_ns + static_cast<std::int64_t>(options.drain_seconds * 1e9);
  std::size_t next = 0;
  bool window_closed = false;
  std::int64_t now_ns = 0;

  auto on_sent = [&](std::size_t slot) {
    sent_ns[slot] = elapsed_ns(start, Clock::now());
  };
  auto on_line = [&](const std::string& line) {
    const std::int64_t received_ns = elapsed_ns(start, Clock::now());
    std::uint64_t id = 0;
    if (line.compare(0, sizeof(kIdPrefix) - 1, kIdPrefix) != 0 ||
        !parse_digits(line, sizeof(kIdPrefix) - 1, id) || id < base_id ||
        id - base_id >= n || answered[id - base_id]) {
      return;  // not a reply to this step's requests
    }
    const std::size_t slot = static_cast<std::size_t>(id - base_id);
    answered[slot] = 1;
    ++answered_count;
    ++r.received;
    const double latency =
        static_cast<double>(received_ns - due_ns[slot]) / 1e3;
    const double lateness =
        static_cast<double>(std::max<std::int64_t>(sent_ns[slot], due_ns[slot]) -
                            due_ns[slot]) / 1e3;
    r.latency_us.push_back(latency);
    r.lateness_us.push_back(lateness);
    const std::size_t at = line.find(kServerNs);
    std::uint64_t server_ns = 0;
    if (at != std::string::npos &&
        parse_digits(line, at + sizeof(kServerNs) - 1, server_ns)) {
      const double server = static_cast<double>(server_ns) / 1e3;
      r.server_us.push_back(server);
      r.gap_us.push_back(latency - lateness - server);
    }
    std::string payload = result_payload(line);
    if (!payload.empty()) {
      ++r.ok;
      if (options.keep_replies) r.payloads[slot] = std::move(payload);
    }
  };

  std::vector<pollfd> fds(conns_.size());
  std::string line;
  for (;;) {
    now_ns = elapsed_ns(start, Clock::now());
    while (next < n && due_ns[next] <= now_ns) {
      Conn& conn = *conns_[next % conns_.size()];
      if (conn.alive) {
        line = kIdPrefix;
        line += std::to_string(base_id + next);
        line += body(next);
        line += '\n';
        conn.queue(line, next);
      }
      ++next;
    }
    bool any_alive = false;
    for (auto& conn : conns_) {
      conn->flush(on_sent);
      conn->read(on_line);
      any_alive = any_alive || conn->alive;
    }
    now_ns = elapsed_ns(start, Clock::now());
    if (!window_closed && now_ns >= window_end_ns) {
      window_closed = true;
      r.backlog = next - answered_count;
    }
    if (next == n && answered_count == n) break;
    if (now_ns >= hard_end_ns || !any_alive) {
      r.stalled = answered_count < n;
      break;
    }

    const std::int64_t wake_ns = next < n ? due_ns[next] : hard_end_ns;
    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake_ns - now_ns);
    std::size_t nfds = 0;
    for (auto& conn : conns_) {
      if (!conn->alive) continue;
      fds[nfds].fd = conn->client.fd();
      fds[nfds].events =
          static_cast<short>(POLLIN | (conn->has_output() ? POLLOUT : 0));
      fds[nfds].revents = 0;
      ++nfds;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(fds.data(), nfds, &ts, nullptr);
  }
  if (!window_closed) r.backlog = 0;
  r.missing = n - answered_count;
  r.wall_s = static_cast<double>(elapsed_ns(start, Clock::now())) / 1e9;

  // Whatever is still queued or unanswered belongs to this step only.
  bool clean = r.missing == 0;
  for (auto& conn : conns_) clean = clean && conn->alive && !conn->has_output();
  if (!clean) {
    std::string error;
    const unsigned count = static_cast<unsigned>(conns_.size());
    connect(socket_, count, error);
  }
  return r;
}

std::string Generator::roundtrip(const std::string& body, double timeout_s) {
  if (conns_.empty()) return std::string();
  Conn& conn = *conns_.front();
  const std::uint64_t id = next_id_++;
  const std::string prefix = kIdPrefix + std::to_string(id);
  conn.queue(prefix + body + "\n", 0);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::string reply;
  auto on_line = [&](const std::string& line) {
    if (line.compare(0, prefix.size(), prefix) == 0 &&
        line.size() > prefix.size() && line[prefix.size()] == ',') {
      reply = line;
    }
  };
  while (reply.empty() && conn.alive) {
    conn.flush([](std::size_t) {});
    conn.read(on_line);
    if (!reply.empty()) break;
    const std::int64_t left = elapsed_ns(Clock::now(), deadline);
    if (left <= 0) break;
    pollfd fd{conn.client.fd(),
              static_cast<short>(POLLIN | (conn.has_output() ? POLLOUT : 0)),
              0};
    timespec ts{static_cast<time_t>(left / 1'000'000'000),
                static_cast<long>(left % 1'000'000'000)};
    ::ppoll(&fd, 1, &ts, nullptr);
  }
  conn.unsent.clear();
  return reply;
}

std::string result_payload(const std::string& reply) {
  std::uint64_t id = 0;
  if (reply.compare(0, sizeof(kIdPrefix) - 1, kIdPrefix) != 0 ||
      !parse_digits(reply, sizeof(kIdPrefix) - 1, id)) {
    return std::string();
  }
  std::size_t pos = sizeof(kIdPrefix) - 1;
  while (pos < reply.size() && reply[pos] >= '0' && reply[pos] <= '9') ++pos;
  static const std::string kOk = ",\"ok\":true,";
  if (reply.compare(pos, kOk.size(), kOk) != 0) return std::string();
  static const std::string kResult = "\"result\":";
  const std::size_t at = reply.find(kResult, pos);
  if (at == std::string::npos || reply.back() != '}') return std::string();
  const std::size_t begin = at + kResult.size();
  return reply.substr(begin, reply.size() - 1 - begin);
}

}  // namespace perfbench
