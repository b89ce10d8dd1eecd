#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "check/rng.h"
#include "obs/manifest.h"
#include "serve/client.h"
#include "telemetry/json.h"

namespace asimt::serve {

namespace {

using Clock = std::chrono::steady_clock;

// The deterministic workload pool: small countdown kernels whose loop bodies
// differ enough that each assembles to a distinct instruction image (its own
// cache entry). Generated, not loaded from disk, so the loadgen needs no
// fixture files and every invocation agrees on the pool.
std::vector<std::string> make_program_pool() {
  std::vector<std::string> pool;
  for (int variant = 0; variant < 6; ++variant) {
    std::string text = ".text\nstart:\n";
    text += "  li $t0, " + std::to_string(17 + 11 * variant) + "\n";
    text += "  li $t1, 0\n";
    text += "loop:\n";
    for (int op = 0; op <= variant; ++op) {
      text += "  addiu $t1, $t1, " + std::to_string(3 + op) + "\n";
    }
    text += "  addiu $t0, $t0, -1\n";
    text += "  bnez $t0, loop\n";
    text += "  halt\n";
    pool.push_back(std::move(text));
  }
  return pool;
}

// Requests are pre-rendered minus the id ("body" = everything after the id
// field), so the per-send cost is one integer format + two appends, not a
// JSON escape of the program text.
std::vector<std::string> make_request_bodies(const LoadgenOptions& options) {
  // Every request opts into the server-side latency echo; the echoed field
  // lives in the reply envelope, outside the cached payload, so this does
  // not disturb the byte-identity contract.
  std::string prefix;
  if (options.deadline_ms > 0) {
    prefix = ",\"deadline_ms\":" + std::to_string(options.deadline_ms);
  }
  prefix += ",\"echo_span\":true";
  std::vector<std::string> bodies;
  const std::vector<std::string> pool = make_program_pool();
  for (const std::string& text : pool) {
    for (int k = 4; k <= 6; ++k) {
      bodies.push_back(prefix + ",\"op\":\"encode\",\"text\":\"" +
                       json::escape(text) + "\",\"k\":" + std::to_string(k) +
                       "}");
    }
  }
  // One verify body per program (k=5) keeps the decode path in the mix.
  for (const std::string& text : pool) {
    bodies.push_back(prefix + ",\"op\":\"verify\",\"text\":\"" +
                     json::escape(text) + "\",\"k\":5}");
  }
  return bodies;
}

struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t missed = 0;
  std::uint64_t lost = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t ok_replies = 0;
  bool connect_failed = false;
  bool gave_up = false;
  std::vector<double> latencies_ms;
  std::vector<double> server_ms;  // echoed server_ns per reply, as ms
  Clock::time_point last_reply{};
};

// Pulls the echoed "server_ns" integer out of a reply line, if present.
// The envelope is spliced (not re-serialized), so the field, when present,
// is exactly `"server_ns":<digits>`.
bool parse_server_ns(const std::string& reply, std::uint64_t& out) {
  static const std::string kField = "\"server_ns\":";
  const std::size_t pos = reply.find(kField);
  if (pos == std::string::npos) return false;
  std::uint64_t value = 0;
  std::size_t i = pos + kField.size();
  if (i >= reply.size() || reply[i] < '0' || reply[i] > '9') return false;
  for (; i < reply.size() && reply[i] >= '0' && reply[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(reply[i] - '0');
  }
  out = value;
  return true;
}

// The reply envelope is spliced with the id first: `{"id":<dump>,...`. Only
// integer ids match a loadgen request; "id":null (the daemon answering an
// injected garbage line) parses false and lands in `unmatched`.
bool parse_reply_id(const std::string& reply, std::uint64_t& out) {
  static const std::string kPrefix = "{\"id\":";
  if (reply.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  std::size_t i = kPrefix.size();
  if (i >= reply.size() || reply[i] < '0' || reply[i] > '9') return false;
  std::uint64_t value = 0;
  for (; i < reply.size() && reply[i] >= '0' && reply[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(reply[i] - '0');
  }
  out = value;
  return true;
}

// One loadgen connection: a single poll loop that paces the open-loop
// schedule, drains replies between scheduled instants, and matches each
// reply to its request by id.
void run_connection(const LoadgenOptions& options, unsigned conn_index,
                    const std::vector<std::string>& bodies,
                    Clock::time_point start, ConnResult& result) {
  Client client;
  // The initial connect is deliberately single-attempt: a daemon that was
  // never there fails the run fast and honestly. Only a connection that
  // *worked* and then dropped earns reconnect attempts.
  if (!client.connect(options.socket_path)) {
    result.connect_failed = true;
    return;
  }
  const double per_conn_rate =
      options.rate / static_cast<double>(std::max(1u, options.conns));
  const double mean_gap_s = 1.0 / std::max(1e-6, per_conn_rate);

  // Workload stream: pacing + request picks, byte-compatible with the
  // pre-reconnect loadgen. Backoff stream: separate state, so an outage
  // consumes no workload draws and the request sequence stays deterministic.
  check::Rng rng(options.seed ^ (0x9E3779B97F4A7C15ull * (conn_index + 1)));
  check::Rng backoff_rng(options.seed ^ 0xB4C0FF5EED5EED5Eull ^
                         (0x9E3779B97F4A7C15ull * (conn_index + 1)));

  std::unordered_map<std::uint64_t, Clock::time_point> inflight;
  bool connected = true;

  auto on_disconnect = [&] {
    // Whatever was in flight will never be answered on this socket.
    result.lost += inflight.size();
    inflight.clear();
    client.close();
    connected = false;
  };

  auto handle_reply = [&](const std::string& reply) {
    const Clock::time_point now = Clock::now();
    std::uint64_t id = 0;
    if (!parse_reply_id(reply, id)) {
      ++result.unmatched;
      return;
    }
    const auto it = inflight.find(id);
    if (it == inflight.end()) {
      ++result.unmatched;
      return;
    }
    const Clock::time_point scheduled = it->second;
    inflight.erase(it);
    ++result.received;
    result.last_reply = now;
    result.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(now - scheduled).count());
    if (reply.find("\"ok\":true") != std::string::npos) {
      ++result.ok_replies;
    } else if (reply.find("\"kind\":\"overloaded\"") != std::string::npos) {
      ++result.shed;
    } else if (reply.find("\"kind\":\"timeout\"") != std::string::npos) {
      ++result.timeouts;
    } else {
      ++result.errors;
    }
    std::uint64_t server_ns = 0;
    if (parse_server_ns(reply, server_ns)) {
      result.server_ms.push_back(static_cast<double>(server_ns) / 1e6);
    }
  };

  // Bounded full-jitter reconnect; false once the outage exhausted its
  // attempts (the connection is then done for good — `gave_up`).
  auto try_reconnect = [&]() -> bool {
    if (result.gave_up) return false;
    for (unsigned attempt = 0; attempt < options.reconnect_attempts;
         ++attempt) {
      std::uint64_t ceiling = options.reconnect_base_ms;
      for (unsigned i = 0; i < attempt && ceiling < options.reconnect_max_ms;
           ++i) {
        ceiling *= 2;
      }
      ceiling = std::min(ceiling, options.reconnect_max_ms);
      const std::uint64_t sleep_ms =
          ceiling == 0 ? 0 : backoff_rng.next() % (ceiling + 1);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      if (client.connect(options.socket_path)) {
        connected = true;
        ++result.reconnects;
        return true;
      }
    }
    result.gave_up = true;
    return false;
  };

  // Drains replies until `until` (or, when asked, until nothing is in
  // flight); returns false when the connection died.
  auto drain_until = [&](Clock::time_point until,
                         bool stop_when_drained) -> bool {
    while (connected) {
      if (stop_when_drained && inflight.empty()) return true;
      const Clock::time_point now = Clock::now();
      if (now >= until) return true;
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
              .count()) +
          1;
      std::string line;
      switch (client.recv_line_wait(line, wait_ms)) {
        case Client::LineResult::kLine:
          handle_reply(line);
          break;
        case Client::LineResult::kTimeout:
          return true;  // the scheduled instant arrived
        case Client::LineResult::kClosed:
          on_disconnect();
          return false;
      }
    }
    return false;
  };

  const Clock::time_point send_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  Clock::time_point scheduled = start;
  std::uint64_t seq = 0;
  for (;;) {
    scheduled += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(rng.next_unit()) * mean_gap_s));
    const std::uint64_t pick = rng.next();  // drawn unconditionally: the
    // workload sequence is a pure function of the seed, outages included.
    if (scheduled >= send_deadline) break;
    if (connected) {
      drain_until(scheduled, /*stop_when_drained=*/false);
    } else {
      std::this_thread::sleep_until(scheduled);
    }
    if (!connected && !try_reconnect()) {
      // Open loop: a send slot inside an outage is *missed*, not deferred —
      // no burst of stale requests when the daemon comes back.
      ++result.missed;
      ++seq;  // the id space also stays a pure function of the schedule
      continue;
    }
    std::this_thread::sleep_until(scheduled);
    const std::string& body = bodies[pick % bodies.size()];
    const std::uint64_t id =
        static_cast<std::uint64_t>(conn_index) * 1'000'000'000ull + seq++;
    if (!client.send_line("{\"id\":" + std::to_string(id) + body)) {
      on_disconnect();
      ++result.missed;
      continue;
    }
    inflight.emplace(id, scheduled);
    ++result.sent;
  }

  // Drain stragglers past the send window, bounded: a daemon that stopped
  // replying costs drain_seconds, not forever.
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.drain_seconds));
  if (connected && !inflight.empty()) {
    drain_until(drain_deadline, /*stop_when_drained=*/true);
  }
  result.lost += inflight.size();
  inflight.clear();
  client.close();
}

json::Value stats_row(const std::string& name, double median,
                      std::uint64_t count) {
  json::Value stats = json::Value::object();
  stats.set("median", median);
  stats.set("count", static_cast<long long>(count));
  json::Value row = json::Value::object();
  row.set("name", name);
  row.set("stats", std::move(stats));
  return row;
}

}  // namespace

double interpolated_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  // Type-7 (the R/NumPy default): rank h = (n-1)q, linear between the two
  // covering order statistics. The old ceil-rank selection returned the max
  // for every q > (n-1)/n, which made p99.9 meaningless below 1000 samples.
  const double h = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const double frac = h - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

LoadgenReport run_loadgen(const LoadgenOptions& options) {
  const std::vector<std::string> bodies = make_request_bodies(options);
  const unsigned conns = std::max(1u, options.conns);
  std::vector<ConnResult> results(conns);
  // A common start instant slightly in the future so every connection's
  // schedule begins together (connection setup cost stays off the clock).
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      run_connection(options, c, bodies, start, results[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadgenReport report;
  std::uint64_t ok_replies = 0;
  std::vector<double> latencies;
  std::vector<double> server;
  Clock::time_point last_reply = start;
  for (const ConnResult& result : results) {
    report.sent += result.sent;
    report.received += result.received;
    report.errors += result.errors;
    report.shed += result.shed;
    report.timeouts += result.timeouts;
    report.missed_sends += result.missed;
    report.lost += result.lost;
    report.unmatched += result.unmatched;
    report.reconnects += result.reconnects;
    ok_replies += result.ok_replies;
    if (result.connect_failed) ++report.connect_failures;
    if (result.gave_up) ++report.conns_gave_up;
    latencies.insert(latencies.end(), result.latencies_ms.begin(),
                     result.latencies_ms.end());
    server.insert(server.end(), result.server_ms.begin(),
                  result.server_ms.end());
    if (result.received > 0 && result.last_reply > last_reply) {
      last_reply = result.last_reply;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(server.begin(), server.end());
  report.elapsed_seconds =
      std::chrono::duration<double>(last_reply - start).count();
  if (report.elapsed_seconds > 0.0) {
    report.throughput_rps =
        static_cast<double>(report.received) / report.elapsed_seconds;
    report.goodput_rps =
        static_cast<double>(ok_replies) / report.elapsed_seconds;
    report.attempted_rps =
        static_cast<double>(report.sent + report.missed_sends) /
        report.elapsed_seconds;
  }
  report.p50_ms = interpolated_quantile(latencies, 0.50);
  report.p90_ms = interpolated_quantile(latencies, 0.90);
  report.p99_ms = interpolated_quantile(latencies, 0.99);
  report.p999_ms = interpolated_quantile(latencies, 0.999);
  report.max_ms = latencies.empty() ? 0.0 : latencies.back();
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    report.mean_ms = sum / static_cast<double>(latencies.size());
  }
  report.server_samples = server.size();
  report.server_p50_ms = interpolated_quantile(server, 0.50);
  report.server_p90_ms = interpolated_quantile(server, 0.90);
  report.server_p99_ms = interpolated_quantile(server, 0.99);
  report.server_p999_ms = interpolated_quantile(server, 0.999);
  report.server_max_ms = server.empty() ? 0.0 : server.back();
  if (!server.empty()) {
    double sum = 0.0;
    for (const double v : server) sum += v;
    report.server_mean_ms = sum / static_cast<double>(server.size());
  }
  return report;
}

json::Value loadgen_artifact(const LoadgenOptions& options,
                             const LoadgenReport& report) {
  json::Value doc = json::Value::object();
  doc.set("schema_version", 2);
  doc.set("bench", "serve_loadgen");
  json::Value opts = json::Value::object();
  opts.set("conns", options.conns);
  opts.set("rate", options.rate);
  opts.set("seconds", options.seconds);
  opts.set("seed", options.seed);
  opts.set("deadline_ms", options.deadline_ms);
  doc.set("options", std::move(opts));
  json::Value summary = json::Value::object();
  summary.set("sent", report.sent);
  summary.set("received", report.received);
  summary.set("errors", report.errors);
  summary.set("shed", report.shed);
  summary.set("timeouts", report.timeouts);
  summary.set("connect_failures", report.connect_failures);
  summary.set("missed_sends", report.missed_sends);
  summary.set("lost", report.lost);
  summary.set("unmatched", report.unmatched);
  summary.set("reconnects", report.reconnects);
  summary.set("conns_gave_up", report.conns_gave_up);
  summary.set("elapsed_seconds", report.elapsed_seconds);
  summary.set("throughput_rps", report.throughput_rps);
  summary.set("goodput_rps", report.goodput_rps);
  summary.set("attempted_rps", report.attempted_rps);
  // Server-observed latency rides in the summary (not the gated benchmark
  // rows): it is context for reading the client-observed numbers, with the
  // client-minus-server gap isolating queueing + transport.
  json::Value server = json::Value::object();
  server.set("samples", report.server_samples);
  server.set("p50_ms", report.server_p50_ms);
  server.set("p90_ms", report.server_p90_ms);
  server.set("p99_ms", report.server_p99_ms);
  server.set("p999_ms", report.server_p999_ms);
  server.set("max_ms", report.server_max_ms);
  server.set("mean_ms", report.server_mean_ms);
  summary.set("server_latency", std::move(server));
  doc.set("summary", std::move(summary));
  json::Value rows = json::Value::array();
  rows.push_back(stats_row("latency/p50", report.p50_ms, report.received));
  rows.push_back(stats_row("latency/p90", report.p90_ms, report.received));
  rows.push_back(stats_row("latency/p99", report.p99_ms, report.received));
  rows.push_back(stats_row("latency/p999", report.p999_ms, report.received));
  // Throughput in gate-friendly lower-is-better form: ns per request. The
  // human-readable requests/second lives in "summary". goodput_time_ns
  // counts only "ok":true replies — under overload or chaos it diverges
  // from req_time_ns by exactly the shed/timeout/error toll.
  rows.push_back(stats_row(
      "req_time_ns",
      report.throughput_rps > 0.0 ? 1e9 / report.throughput_rps : 0.0,
      report.received));
  rows.push_back(stats_row(
      "goodput_time_ns",
      report.goodput_rps > 0.0 ? 1e9 / report.goodput_rps : 0.0,
      report.received));
  doc.set("benchmarks", std::move(rows));
  obs::embed_manifest(doc, obs::ManifestFields::kFull);
  return doc;
}

std::string format_report(const LoadgenReport& report) {
  char buffer[1024];
  int n = std::snprintf(
      buffer, sizeof(buffer),
      "sent %llu  received %llu  errors %llu  shed %llu  timeouts %llu  "
      "connect_failures %llu\n"
      "missed %llu  lost %llu  unmatched %llu  reconnects %llu  "
      "gave_up %llu\n"
      "elapsed %.3f s  throughput %.0f req/s  goodput %.0f req/s  "
      "attempted %.0f req/s\n"
      "client ms   p50 %.3f  p90 %.3f  p99 %.3f  p99.9 %.3f  "
      "max %.3f  mean %.3f\n",
      static_cast<unsigned long long>(report.sent),
      static_cast<unsigned long long>(report.received),
      static_cast<unsigned long long>(report.errors),
      static_cast<unsigned long long>(report.shed),
      static_cast<unsigned long long>(report.timeouts),
      static_cast<unsigned long long>(report.connect_failures),
      static_cast<unsigned long long>(report.missed_sends),
      static_cast<unsigned long long>(report.lost),
      static_cast<unsigned long long>(report.unmatched),
      static_cast<unsigned long long>(report.reconnects),
      static_cast<unsigned long long>(report.conns_gave_up),
      report.elapsed_seconds, report.throughput_rps, report.goodput_rps,
      report.attempted_rps, report.p50_ms, report.p90_ms, report.p99_ms,
      report.p999_ms, report.max_ms, report.mean_ms);
  if (n > 0 && report.server_samples > 0 &&
      static_cast<std::size_t>(n) < sizeof(buffer)) {
    std::snprintf(buffer + n, sizeof(buffer) - static_cast<std::size_t>(n),
                  "server ms   p50 %.3f  p90 %.3f  p99 %.3f  p99.9 %.3f  "
                  "max %.3f  mean %.3f  (echoed by %llu replies; "
                  "client - server = queueing + transport)\n",
                  report.server_p50_ms, report.server_p90_ms,
                  report.server_p99_ms, report.server_p999_ms,
                  report.server_max_ms, report.server_mean_ms,
                  static_cast<unsigned long long>(report.server_samples));
  }
  return buffer;
}

}  // namespace asimt::serve
