// serve_hot and serve_cold: `asimt serve` driven by the open-loop generator,
// plus (with --trace 1) an in-process replay of the same seeded request
// stream that times each public layer call per request.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "bitstream/bitseq.h"
#include "check/rng.h"
#include "core/chain_encoder.h"
#include "isa/assembler.h"
#include "loadgen.h"
#include "parallel/pool.h"
#include "serve/client.h"
#include "serve/service.h"
#include "telemetry/json.h"

namespace perfbench {

namespace {

using asimt::json::Value;

struct ServeWorkload {
  const char* name;
  bool cold;             // every request a new instruction image
  double rate;           // fixed offered rate, about half the capacity
  double p99_limit_ms;   // capacity criterion, ~10x the median service time
};

// Rates and limits were set from capacity measured on a 4-core x86-64 VM
// (perfbench/README.md records the numbers).
constexpr ServeWorkload kHot{"serve_hot", false, 5500.0, 1.0};
constexpr ServeWorkload kCold{"serve_cold", true, 4000.0, 2.0};

// A step is invalid when the generator itself sends this late (p99, as a
// share of the workload's latency limit): its latencies would then measure
// the generator, not the daemon. An invalid step is run again, on a fresh
// schedule, up to kAttempts times in all; after that the run is invalid.
constexpr double kLatenessShare = 0.25;
constexpr int kAttempts = 3;
// The capacity search never offers more than this multiple of the fixed
// rate; the calibration step runs pings at exactly this rate.
constexpr double kMaxRateFactor = 8.0;
constexpr int kSetupRepeats = 9;
constexpr int kBlockSizes[] = {4, 5, 6};
constexpr const char* kOps[] = {"encode", "verify"};

// One kernel's source, JSON-escaped and split after its `.text` line so a
// variant can slip two instructions in front of the first real one.
struct Kernel {
  std::string name;
  std::string head;  // escaped, up to and including the `.text` line
  std::string tail;  // escaped rest
};

std::vector<Kernel> load_kernels() {
  std::vector<Kernel> kernels;
  for (const auto& w : kernel_suite()) {
    const std::size_t text = w.source.find(".text");
    const std::size_t split =
        text == std::string::npos ? 0 : w.source.find('\n', text) + 1;
    kernels.push_back(Kernel{w.name,
                             asimt::json::escape(w.source.substr(0, split)),
                             asimt::json::escape(w.source.substr(split))});
  }
  return kernels;
}

// The request mix: (kernel, k, op) combos, and for serve_cold a 32-bit
// variant id that makes the instruction image new.
class RequestSource {
 public:
  RequestSource(bool cold, std::uint64_t seed)
      : cold_(cold), seed_(seed), kernels_(load_kernels()) {}

  std::size_t combos() const { return kernels_.size() * 6; }

  // Body of a combo; `variant` < 0 means the kernel source as is.
  std::string body(std::size_t combo, long long variant,
                   bool echo = true) const {
    const Kernel& kernel = kernels_[combo / 6];
    std::string out = echo ? ",\"echo_span\":true" : "";
    out += ",\"op\":\"";
    out += kOps[combo % 2];
    out += "\",\"k\":";
    out += std::to_string(kBlockSizes[(combo / 2) % 3]);
    out += ",\"text\":\"";
    out += kernel.head;
    if (variant >= 0) {
      const auto v = static_cast<std::uint32_t>(variant);
      out += "  lui $t9, " + std::to_string(v >> 16) + "\\n  ori $t9, $t9, " +
             std::to_string(v & 0xFFFFu) + "\\n";
    }
    out += kernel.tail;
    out += "\"}";
    return out;
  }

  // Request i of step `step`: a seeded combo, and on serve_cold a variant
  // no other request of the run shares.
  std::size_t combo_of(std::uint64_t step, std::uint64_t i) const {
    return static_cast<std::size_t>(
        asimt::check::Rng(seed_ * 0x9E3779B97F4A7C15ull + step)
            .fork(i)
            .below(combos()));
  }
  long long variant_of(std::uint64_t step, std::uint64_t i) const {
    if (!cold_) return -1;
    return static_cast<long long>(
        (seed_ * 2654435761ull + step * 1'000'003ull + i) & 0xFFFFFFFFull);
  }
  std::string request(std::uint64_t step, std::uint64_t i) const {
    return body(combo_of(step, i), variant_of(step, i));
  }

  BodyFn step_fn(std::uint64_t step) const {
    return [this, step](std::uint64_t i) { return request(step, i); };
  }

 private:
  bool cold_;
  std::uint64_t seed_;
  std::vector<Kernel> kernels_;
};

// Expected result payload of a request line, from an in-process Service.
std::string reference_payload(asimt::serve::Service& service,
                              const std::string& body) {
  return result_payload(service.handle_line("{\"id\":0" + body));
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

// Expected payload of every combo of the mix (in-process Service) and the
// FNV-1a digest over them.
std::string expected_digest(const RequestSource& source,
                            std::vector<std::string>& expected) {
  asimt::serve::Service service;
  std::uint64_t digest = 0xCBF29CE484222325ull;
  for (std::size_t c = 0; c < source.combos(); ++c) {
    expected.push_back(reference_payload(service, source.body(c, -1)));
    digest = fnv1a(expected.back() + "\n", digest);
  }
  return hex64(digest);
}

// Replies the daemon gave, to be checked against the in-process reference
// once the daemon is down (serve_cold's references cost a full encode each).
struct Answer {
  std::uint64_t step;
  std::uint64_t index;
  std::string payload;
};

class ServeRun {
 public:
  ServeRun(const Options& options, const ServeWorkload& workload)
      : options_(options),
        workload_(workload),
        source_(workload.cold, options.seed) {
    nproc_ = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
    socket_ = options.work_dir + "/pb-" + std::to_string(::getpid()) + ".sock";
    log_ = options.work_dir + "/daemon-" + std::to_string(::getpid()) + ".log";
    flags_ = {"--jobs", std::to_string(options.serve_jobs)};
  }

  RunResult run() {
    result_.details.set("daemon_flags", flags_joined());
    result_.details.set("conns", options_.conns);
    result_.details.set("rate", workload_.rate);
    result_.details.set("p99_limit_ms", workload_.p99_limit_ms);
    if (!check_reference()) return std::move(result_);
    if (options_.trace) {
      traced();
    } else {
      end_to_end();
    }
    verify_answers();
    ::unlink(log_.c_str());
    return std::move(result_);
  }

 private:
  std::string flags_joined() const {
    std::string out;
    for (const std::string& flag : flags_) out += (out.empty() ? "" : " ") + flag;
    return out;
  }

  // Expected payloads of the serve_hot mix, pinned by a committed digest so
  // an output drift in the encoder fails the run even when daemon and
  // reference drift together.
  bool check_reference() {
    const std::string digest = expected_digest(source_, expected_);
    std::string committed;
    if (!read_file(options_.reference + "/serve_hot.digest", committed)) {
      result_.fail("missing reference " + options_.reference +
                   "/serve_hot.digest");
      return false;
    }
    committed.erase(committed.find_last_not_of(" \n\r\t") + 1);
    result_.details.set("serve_hot_digest", digest);
    if (committed != digest) {
      result_.fail("serve_hot reply digest " + digest +
                   " differs from the committed " + committed);
      return false;
    }
    return true;
  }

  // Spawn -> first ok ping, plus on serve_hot the warm pass that fills the
  // cache with every request of the mix.
  double start_daemon() {
    const Clock::time_point t0 = Clock::now();
    std::string error;
    pin_cpus(0, nproc_ - 1);
    const bool started =
        daemon_.start(options_.asimt, socket_, flags_, log_, 30.0, error);
    pin_cpus(nproc_ - 1, 1);
    if (!started) throw std::runtime_error(error);
    if (!workload_.cold) {
      asimt::serve::Client client;
      if (!client.connect(socket_)) throw std::runtime_error(client.error());
      client.set_io_timeout_ms(10'000);
      for (std::size_t c = 0; c < source_.combos(); ++c) {
        const auto reply =
            client.roundtrip("{\"id\":" + std::to_string(c) +
                             source_.body(c, -1, /*echo=*/false));
        if (!reply || result_payload(*reply) != expected_[c]) {
          throw std::runtime_error("warm pass: wrong reply for combo " +
                                   std::to_string(c));
        }
      }
    }
    return seconds_between(t0, Clock::now());
  }

  void connect() {
    std::string error;
    if (!generator_.connect(socket_, options_.conns, error)) {
      throw std::runtime_error("generator connect: " + error);
    }
  }

  // Folds a step into the run: counters, and payloads for verification.
  void absorb(std::uint64_t step, StepResult& r) {
    result_.count(r.scheduled, r.ok);
    for (std::size_t i = 0; i < r.payloads.size(); ++i) {
      if (!r.payloads[i].empty()) {
        answers_.push_back(Answer{step, i, std::move(r.payloads[i])});
      }
    }
    r.payloads.clear();
  }

  StepResult step(std::uint64_t step_no, double rate, double seconds,
                  double drain_seconds) {
    StepOptions opts;
    opts.rate = rate;
    opts.seconds = seconds;
    opts.drain_seconds = drain_seconds;
    opts.seed = options_.seed * 0xD1B54A32D192ED03ull + step_no;
    opts.keep_replies = true;
    StepResult r = generator_.run_step(opts, source_.step_fn(step_no));
    absorb(step_no, r);
    return r;
  }

  // Ping-only calibration at the highest rate the run offers: the
  // generator's own send lateness must stay far below the latency limit.
  void calibrate() {
    const StepResult r = valid_step("calibration", [&](int attempt) {
      StepOptions opts;
      opts.rate = workload_.rate * kMaxRateFactor;
      opts.seconds = 0.25;
      opts.seed = options_.seed + static_cast<std::uint64_t>(attempt);
      StepResult ping = generator_.run_step(opts, [](std::uint64_t) {
        return std::string(",\"op\":\"ping\"}");
      });
      result_.count(ping.scheduled, ping.ok);
      return ping;
    });
    Value cal = Value::object();
    cal.set("rate", workload_.rate * kMaxRateFactor);
    cal.set("requests", r.scheduled);
    cal.set("limit_us", kLatenessShare * workload_.p99_limit_ms * 1e3);
    result_.details.set("calibration", std::move(cal));
  }

  // Runs `attempt(i)` until its step passes the lateness check, at most
  // kAttempts times; every attempt is recorded, and the run is flagged
  // invalid when none passes.
  template <typename F>
  StepResult valid_step(const char* what, F&& attempt) {
    Value tries = Value::array();
    StepResult r;
    for (int i = 0; i < kAttempts; ++i) {
      r = attempt(i);
      const double p99 = quantile(r.lateness_us, 0.99);
      tries.push_back(p99);
      if (p99 <= kLatenessShare * workload_.p99_limit_ms * 1e3) {
        result_.details.set(std::string(what) + "_lateness_us_p99",
                            std::move(tries));
        return r;
      }
    }
    result_.details.set(std::string(what) + "_lateness_us_p99",
                        std::move(tries));
    invalid_ = std::string(what) + ": generator send lateness p99 " +
               std::to_string(quantile(r.lateness_us, 0.99)) +
               " us exceeds " + std::to_string(kLatenessShare * 100) +
               "% of the " + std::to_string(workload_.p99_limit_ms) +
               " ms limit in " + std::to_string(kAttempts) + " attempts";
    return r;
  }

  // Closed-loop passes over the whole mix, one request at a time, for
  // `budget_s` (at least one pass); each pass's time goes to pass_s_.
  void sweep_passes(double budget_s) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(budget_s));
    do {
      const std::uint64_t step_no = 1000 + pass_s_.size();
      const Clock::time_point t0 = Clock::now();
      std::uint64_t ok = 0;
      for (std::size_t c = 0; c < source_.combos(); ++c) {
        // Pass requests walk the mix in order; cold ones still get fresh
        // variants (the variant id keys on the pass and the combo).
        const std::string payload = result_payload(generator_.roundtrip(
            source_.body(c, source_.variant_of(step_no, c))));
        if (payload.empty()) continue;
        ++ok;
        answers_.push_back(Answer{step_no, c, payload});
      }
      pass_s_.push_back(seconds_between(t0, Clock::now()));
      result_.count(source_.combos(), ok);
    } while (Clock::now() < end);
  }

  static bool meets(const StepResult& r, double limit_ms) {
    return r.missing == 0 && r.ok == r.scheduled &&
           quantile(r.latency_us, 0.99) <= limit_ms * 1e3 &&
           static_cast<double>(r.backlog) <= r.rate * limit_ms / 1e3 + 1.0;
  }

  // Highest offered rate meeting the p99 limit with no failed replies and
  // no backlog: a geometric ladder up from the fixed rate, bisection
  // between the last passing and first failing step, and a log-linear
  // interpolation of p99 between those two for the final estimate. It is a
  // traced-run metric, not an end-to-end one: the knee moved between 10.7k
  // and over 22k req/s across five serve_hot runs of one build, far beyond
  // any regression bound (perfbench/README.md).
  void capacity(double budget_s) {
    constexpr int kSteps = 10;
    const double d = budget_s / kSteps;
    const double limit = workload_.p99_limit_ms;
    double lo = 0.0, lo_p99 = 0.0, hi = 0.0, hi_p99 = 0.0;
    double rate = workload_.rate;
    Value steps = Value::array();
    for (int s = 0; s < kSteps; ++s) {
      StepResult r = step(100 + static_cast<std::uint64_t>(s), rate, d, 3.0);
      const double p99 = quantile(r.latency_us, 0.99);
      const bool pass = meets(r, limit);
      Value row = Value::object();
      row.set("rate", rate);
      row.set("p99_ms", p99 / 1e3);
      row.set("samples", r.received);
      row.set("backlog", r.backlog);
      row.set("missing", r.missing);
      row.set("pass", pass);
      steps.push_back(std::move(row));
      if (pass) {
        lo = rate;
        lo_p99 = p99;
      } else {
        hi = rate;
        hi_p99 = p99;
      }
      if (hi == 0.0) {
        rate = std::min(rate * 1.4, workload_.rate * kMaxRateFactor);
      } else if (lo == 0.0) {
        rate = rate / 1.4;
      } else {
        rate = std::sqrt(lo * hi);
      }
    }
    double estimate = lo;
    if (lo > 0.0 && hi > lo && hi_p99 > lo_p99 && lo_p99 > 0.0) {
      const double frac = (std::log(limit * 1e3) - std::log(lo_p99)) /
                          (std::log(hi_p99) - std::log(lo_p99));
      estimate = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    result_.details.set("capacity_steps", std::move(steps));
    result_.add("serve.capacity_rps", estimate, "op/s", kSteps);
  }

  asimt::serve::CacheStats stats() {
    asimt::serve::CacheStats s;
    const std::string reply = generator_.roundtrip(",\"op\":\"stats\"}");
    const std::string payload = result_payload(reply);
    if (payload.empty()) return s;
    const Value v = asimt::json::parse(payload);
    const Value& cache = v.at("cache");
    s.lookups = static_cast<std::uint64_t>(cache.at("lookups").as_int());
    s.hits = static_cast<std::uint64_t>(cache.at("hits").as_int());
    s.misses = static_cast<std::uint64_t>(cache.at("misses").as_int());
    s.evictions = static_cast<std::uint64_t>(cache.at("evictions").as_int());
    return s;
  }

  // The run is one repetition per 1.25 s, each against a freshly started
  // daemon: closed-loop passes, then a 1 s fixed-rate step. Each metric is the
  // median over the repetitions. How fast one daemon runs varies from start
  // to start and over seconds (thread placement, the host's other load), and
  // a single stall of a few ms moves one segment's p99; the median keeps
  // both inside the run instead of in the run-to-run spread.
  void end_to_end() {
    const double s = options_.seconds;
    const int segments = std::max(1, static_cast<int>(std::lround(0.8 * s)));
    std::vector<double> setups, p50_ms, p99_ms;
    std::uint64_t samples = 0;
    double peak_rss_mb = 0.0;
    for (int i = segments; i < kSetupRepeats; ++i) {
      setups.push_back(start_daemon());
      daemon_.stop();
    }
    for (int seg = 0; seg < segments; ++seg) {
      setups.push_back(start_daemon());
      connect();
      if (seg == 0) calibrate();
      sweep_passes(0.1 * s / segments);
      const std::string what = "segment" + std::to_string(seg);
      const StepResult fixed = valid_step(what.c_str(), [&](int attempt) {
        return step(1 + static_cast<std::uint64_t>(seg * kAttempts + attempt),
                    workload_.rate, 0.8 * s / segments, 3.0);
      });
      p50_ms.push_back(quantile(fixed.latency_us, 0.50) / 1e3);
      p99_ms.push_back(quantile(fixed.latency_us, 0.99) / 1e3);
      samples += fixed.latency_us.size();
      peak_rss_mb = std::max(peak_rss_mb, daemon_.peak_rss_mb());
      generator_.close();
      daemon_.stop();
    }
    pin_cpus(0, 0);
    Value p50s = Value::array(), p99s = Value::array();
    for (int seg = 0; seg < segments; ++seg) {
      p50s.push_back(p50_ms[seg]);
      p99s.push_back(p99_ms[seg]);
    }
    result_.details.set("segment_p50_ms", std::move(p50s));
    result_.details.set("segment_p99_ms", std::move(p99s));
    result_.add("setup_s", median(setups), "s", setups.size());
    result_.add("p50_ms", median(p50_ms), "ms", samples);
    result_.add("p99_ms", median(p99_ms), "ms", samples);
    result_.add("sweep_s", median(pass_s_), "s", pass_s_.size());
    result_.add("peak_rss_mb", peak_rss_mb, "MiB", segments);
  }

  void traced() {
    start_daemon();
    connect();
    calibrate();
    const asimt::serve::CacheStats before = stats();
    std::uint64_t live_step = 0;
    const StepResult live = valid_step("live_step", [&](int attempt) {
      live_step = 1 + static_cast<std::uint64_t>(attempt);
      return step(live_step, workload_.rate, 0.4 * options_.seconds, 3.0);
    });
    const asimt::serve::CacheStats after = stats();
    capacity(0.45 * options_.seconds);
    generator_.close();
    daemon_.stop();
    pin_cpus(0, 0);

    const double lookups = static_cast<double>(after.lookups - before.lookups);
    result_.add("serve.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(after.hits - before.hits) /
                                  lookups
                            : 0.0,
                "ratio", static_cast<std::uint64_t>(lookups));
    result_.add("serve.cache_evictions",
                static_cast<double>(after.evictions - before.evictions),
                "count");
    const double server_p50 = quantile(live.server_us, 0.50);
    result_.add("serve.server_us_p50", server_p50, "us", live.server_us.size());
    result_.add("serve.server_us_p99", quantile(live.server_us, 0.99), "us",
                live.server_us.size());
    result_.add("serve.socket_gap_us_p50", quantile(live.gap_us, 0.50), "us",
                live.gap_us.size());
    result_.add("serve.socket_gap_us_p99", quantile(live.gap_us, 0.99), "us",
                live.gap_us.size());
    result_.add("bench.send_lateness_us_p50", quantile(live.lateness_us, 0.50),
                "us", live.lateness_us.size());
    result_.add("bench.send_lateness_us_p99", quantile(live.lateness_us, 0.99),
                "us", live.lateness_us.size());

    const double handle_p50 =
        replay(live_step, live.scheduled, 0.4 * options_.seconds);
    // Reconciliation: the replay times handle_line alone, the daemon's echo
    // spans read..serialize of the same requests.
    const double ratio = server_p50 > 0 ? handle_p50 / server_p50 : 0.0;
    Value reconcile = Value::object();
    reconcile.set("replay_handle_line_us_p50", handle_p50);
    reconcile.set("live_server_us_p50", server_p50);
    reconcile.set("ratio", ratio);
    reconcile.set("tolerance", "0.67..1.5");
    reconcile.set("reconciled", ratio >= 0.67 && ratio <= 1.5);
    result_.details.set("reconciliation", std::move(reconcile));
  }

  // Replays the live step's requests in process and times every public
  // layer call on each; returns the handle_line median in microseconds.
  double replay(std::uint64_t step_no, std::uint64_t requests,
                double budget_s) {
    asimt::parallel::set_default_jobs(options_.serve_jobs);
    asimt::serve::Service service;
    if (!workload_.cold) {
      for (std::size_t c = 0; c < source_.combos(); ++c) {
        reference_payload(service, source_.body(c, -1, false));
      }
    }
    std::vector<double> parse_us, assemble_us, lines_us, encode_us,
        decode_us, handle_us, self_us;
    auto us_since = [](Clock::time_point t0) {
      return std::chrono::duration<double, std::micro>(Clock::now() - t0)
          .count();
    };
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(budget_s));
    std::uint64_t attempted = 0, ok = 0;
    for (std::uint64_t i = 0; i < requests && Clock::now() < end; ++i) {
      const std::string line = "{\"id\":" + std::to_string(i) +
                               source_.request(step_no, i);
      ++attempted;
      Clock::time_point t0 = Clock::now();
      const Value request = asimt::json::parse(line);
      const double t_parse = us_since(t0);
      const int k = static_cast<int>(request.at("k").as_int());
      const bool verify = request.at("op").as_string() == "verify";

      t0 = Clock::now();
      const asimt::isa::Program program =
          asimt::isa::assemble(request.at("text").as_string());
      const double t_assemble = us_since(t0);

      t0 = Clock::now();
      const std::vector<asimt::bits::BitSeq> lines =
          asimt::bits::vertical_lines(program.text);
      const double t_lines = us_since(t0);

      const std::uint64_t hits_before = service.cache().stats().hits;
      t0 = Clock::now();
      const std::string reply = service.handle_line(line);
      const double t_handle = us_since(t0);
      const bool miss = service.cache().stats().hits == hits_before;

      double t_encode = 0.0, t_decode = 0.0;
      if (miss) {
        asimt::core::ChainOptions chain;
        chain.block_size = k;
        chain.strategy = asimt::core::ChainStrategy::kOptimalDp;
        const asimt::core::ChainEncoder encoder(chain);
        t0 = Clock::now();
        const std::vector<asimt::core::EncodedChain> chains =
            encoder.encode_many(lines);
        t_encode = us_since(t0);
        encode_us.push_back(t_encode);
        if (verify) {
          t0 = Clock::now();
          for (const auto& c : chains) asimt::core::decode_chain(c);
          t_decode = us_since(t0);
          decode_us.push_back(t_decode);
        }
      }
      parse_us.push_back(t_parse);
      assemble_us.push_back(t_assemble);
      lines_us.push_back(t_lines);
      handle_us.push_back(t_handle);
      self_us.push_back(t_handle - t_parse - t_assemble - t_lines - t_encode -
                        t_decode);

      if (!result_payload(reply).empty()) ++ok;
    }
    result_.count(attempted, ok);
    result_.add("telemetry.json_parse_us", median(parse_us), "us",
                parse_us.size());
    result_.add("isa.assemble_us", median(assemble_us), "us",
                assemble_us.size());
    result_.add("bitstream.vertical_lines_us", median(lines_us), "us",
                lines_us.size());
    result_.add("core.chain_encode_us", median(encode_us), "us",
                encode_us.size());
    result_.add("core.decode_chain_us", median(decode_us), "us",
                decode_us.size());
    result_.add("serve.handle_line_us", median(handle_us), "us",
                handle_us.size());
    result_.add("serve.self_us", median(self_us), "us", self_us.size());
    asimt::parallel::set_default_jobs(0);
    return median(handle_us);
  }

  // Every ok reply must equal the in-process reference byte for byte
  // (server_ns and id aside). serve_hot compares against the mix's expected
  // payloads; serve_cold recomputes each variant's reply in parallel.
  void verify_answers() {
    std::vector<char> bad(answers_.size(), 0);
    if (!workload_.cold) {
      for (std::size_t a = 0; a < answers_.size(); ++a) {
        const Answer& ans = answers_[a];
        const std::size_t combo = ans.step >= 1000
                                      ? static_cast<std::size_t>(ans.index)
                                      : source_.combo_of(ans.step, ans.index);
        bad[a] = ans.payload != expected_[combo];
      }
    } else {
      asimt::serve::ServiceOptions small;
      small.cache_capacity = 64;
      asimt::serve::Service service(small);
      asimt::parallel::parallel_for(answers_.size(), [&](std::size_t a) {
        const Answer& ans = answers_[a];
        const std::string body =
            ans.step >= 1000
                ? source_.body(static_cast<std::size_t>(ans.index),
                               source_.variant_of(ans.step, ans.index))
                : source_.request(ans.step, ans.index);
        bad[a] = ans.payload != reference_payload(service, body);
      });
    }
    const auto mismatches = std::count(bad.begin(), bad.end(), 1);
    result_.details.set("replies_verified",
                        static_cast<long long>(answers_.size()));
    if (mismatches > 0) {
      result_.fail(std::to_string(mismatches) +
                   " replies differ from the in-process reference");
    }
    if (!invalid_.empty()) result_.details.set("invalid", invalid_);
  }

 public:
  const std::string& invalid() const { return invalid_; }

 private:
  const Options& options_;
  const ServeWorkload& workload_;
  RequestSource source_;
  unsigned nproc_ = 1;
  std::string socket_;
  std::string log_;
  std::vector<std::string> flags_;
  std::vector<std::string> expected_;  // serve_hot payload per combo
  std::vector<Answer> answers_;
  std::vector<double> pass_s_;  // closed-loop pass times
  std::string invalid_;
  Daemon daemon_;
  Generator generator_;
  RunResult result_;
};

}  // namespace

// The stall guard must hold in the two ways a step can outrun the daemon:
// an offered rate far above capacity, and a daemon that stops replying
// (SIGSTOP) mid-step. Either way the step ends within its send window plus
// its drain bound, and every unanswered request counts as failed.
int run_selftest(const Options& options) {
  const std::string socket =
      options.work_dir + "/pb-selftest-" + std::to_string(::getpid()) + ".sock";
  const std::string log =
      options.work_dir + "/daemon-selftest-" + std::to_string(::getpid()) +
      ".log";
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  auto bounded = [&](const StepResult& r, double slack_s) {
    return r.wall_s <= r.seconds + 1.0 + slack_s &&
           r.received + r.missing == r.scheduled &&
           r.failed() >= r.missing;
  };

  Daemon daemon;
  std::string error;
  if (!daemon.start(options.asimt, socket,
                    {"--jobs", std::to_string(options.serve_jobs)}, log, 30.0,
                    error)) {
    std::printf("FAIL  daemon start: %s\n", error.c_str());
    return 1;
  }
  const RequestSource cold(true, options.seed);
  Generator generator;
  check(generator.connect(socket, options.conns, error), "generator connects");

  StepOptions over;
  over.rate = kCold.rate * 20.0;
  over.seconds = 0.5;
  over.drain_seconds = 1.0;
  StepResult r = generator.run_step(over, cold.step_fn(1));
  std::printf("      overload step: %llu scheduled, %llu answered, %llu "
              "missing, %.2f s\n",
              static_cast<unsigned long long>(r.scheduled),
              static_cast<unsigned long long>(r.received),
              static_cast<unsigned long long>(r.missing), r.wall_s);
  check(bounded(r, 0.5), "step far above capacity ends within its bound");
  check(r.missing > 0 && r.stalled,
        "its unanswered requests count as failed operations");

  StepOptions paced;
  paced.rate = 2000.0;
  paced.seconds = 1.0;
  paced.drain_seconds = 1.0;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    daemon.suspend();
  });
  r = generator.run_step(paced, cold.step_fn(2));
  stopper.join();
  daemon.resume();
  std::printf("      stalled daemon: %llu scheduled, %llu answered, %llu "
              "missing, %.2f s\n",
              static_cast<unsigned long long>(r.scheduled),
              static_cast<unsigned long long>(r.received),
              static_cast<unsigned long long>(r.missing), r.wall_s);
  check(bounded(r, 0.5), "step against a stopped daemon ends within its bound");
  check(r.missing > 0 && r.stalled && r.received > 0,
        "replies before the stop count, the rest are failed");
  check(!result_payload(generator.roundtrip(",\"op\":\"ping\"}")).empty(),
        "the generator reconnects and the daemon answers afterwards");
  generator.close();
  daemon.stop();
  ::unlink(log.c_str());
  std::printf("%s\n", failures == 0 ? "selftest: all checks passed"
                                     : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}

std::string serve_hot_digest() {
  std::vector<std::string> expected;
  return expected_digest(RequestSource(false, 1), expected);
}

RunResult run_serve(const Options& options) {
  const ServeWorkload& workload =
      options.workload == kHot.name ? kHot : kCold;
  ServeRun run(options, workload);
  RunResult result = run.run();
  if (!run.invalid().empty()) {
    throw std::runtime_error("invalid run: " + run.invalid());
  }
  return result;
}

}  // namespace perfbench
