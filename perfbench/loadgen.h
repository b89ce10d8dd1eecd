// The benchmark's own open-loop load generator and the daemon it drives.
//
// One process, one I/O thread, a fixed set of connections. Arrivals are
// seeded Poisson; each request is timed from its *due* time, so a stall
// charges every request queued behind it (no coordinated omission), and the
// generator records how late it handed each request to the kernel. Pacing
// waits in ppoll with nanosecond timeouts and a 1 us timer slack, so the
// schedule keeps sub-millisecond resolution. Sockets are nonblocking and the
// loop reads every readable reply before it waits again, so a daemon that
// stops reading can fill the send buffers but can never block the
// generator: every step ends within its send window plus its drain bound,
// and the replies still missing then count as failed operations.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// A spawned `asimt serve`. The destructor stops it; nothing outlives the run.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `asimt serve --socket <socket> <flags...>` with stdout/stderr in
  // `log_path`, then pings until the first ok reply. False (with `error`)
  // when the daemon exits or stays silent for `timeout_s`.
  bool start(const std::string& asimt, const std::string& socket,
             const std::vector<std::string>& flags,
             const std::string& log_path, double timeout_s,
             std::string& error);

  // SIGTERM, then SIGKILL after `grace_s`; always reaps the process.
  void stop(double grace_s = 5.0);

  // SIGSTOP / SIGCONT: a daemon that stops replying, for the stall guard.
  void suspend();
  void resume();

  // Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// Pins the calling thread (and the threads and processes it starts from
// now on) to the CPUs [first, first + count); count 0 means every online CPU.
// The generator takes one CPU to itself and spawns the daemon on the others:
// sharing a CPU, each wake-up of a daemon thread preempts the generator and
// shows up as send lateness.
void pin_cpus(unsigned first, unsigned count);

// Everything after the id of one request line: `,"op":...}`.
using BodyFn = std::function<std::string(std::uint64_t index)>;

struct StepOptions {
  double rate = 1000.0;        // offered requests per second
  double seconds = 1.0;        // send window
  double drain_seconds = 1.0;  // bound on waiting for replies afterwards
  std::uint64_t seed = 1;      // arrival schedule
  bool keep_replies = false;   // keep each reply's result payload
};

struct StepResult {
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t scheduled = 0;  // requests due inside the window
  std::uint64_t received = 0;
  std::uint64_t ok = 0;          // replies with "ok":true
  std::uint64_t missing = 0;     // no reply within the drain bound
  std::uint64_t backlog = 0;     // replies outstanding when the window closed
  bool stalled = false;          // ended by the drain bound
  double wall_s = 0.0;
  // Per received reply, in microseconds: due -> reply (latency), due ->
  // last byte sent (lateness), echoed server_ns, and what is left.
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  std::vector<double> server_us;
  std::vector<double> gap_us;
  // keep_replies: slot i holds request i's result payload, or is empty
  // when the request failed or went unanswered.
  std::vector<std::string> payloads;

  std::uint64_t failed() const { return scheduled - ok; }
};

class Generator {
 public:
  Generator();
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect(const std::string& socket, unsigned conns, std::string& error);
  void close();

  // One open-loop step; request i's line is `{"id":<n>` + body(i). A step
  // that ends with replies outstanding reconnects afterwards, so the next
  // step never reads this one's stragglers.
  StepResult run_step(const StepOptions& options, const BodyFn& body);

  // Closed loop on the first connection: sends `body` and waits (bounded by
  // `timeout_s`) for its reply. Empty string when none came.
  std::string roundtrip(const std::string& body, double timeout_s = 10.0);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::string socket_;
  std::uint64_t next_id_ = 1;
};

// The `result` payload of an ok reply with the given envelope, or empty.
std::string result_payload(const std::string& reply);

}  // namespace perfbench
