// perfbench: the repository benchmark binary (perfbench/README.md).
//
//   perfbench --workload serve_hot|serve_cold|batch_sweep --seed N
//             --seconds S --trace 0|1 --asimt PATH --reference DIR
//             --work-dir DIR [--serve-jobs N] [--conns N]
//   perfbench --selftest ...        stall-guard checks against a live daemon
//   perfbench --write-reference ... regenerate the committed references
//
// Prints every metric by name with its unit and sample count, then the run
// report (provenance included) as JSON, and as its last line the one-line
// result: {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
// output differs from the reference, 2 on a usage error or an invalid run.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "obs/manifest.h"
#include "serve/loadgen.h"
#include "telemetry/export.h"
#include "util/args.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return asimt::serve::interpolated_quantile(values, q);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json declares, in report order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"p50_ms", "ms"},      {"p99_ms", "ms"},
    {"sweep_s", "s"}, {"peak_rss_mb", "MiB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"telemetry.json_parse_us", "us"},
    {"isa.assemble_us", "us"},
    {"bitstream.vertical_lines_us", "us"},
    {"core.chain_encode_us", "us"},
    {"core.decode_chain_us", "us"},
    {"serve.handle_line_us", "us"},
    {"serve.self_us", "us"},
    {"serve.capacity_rps", "op/s"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.server_us_p50", "us"},
    {"serve.server_us_p99", "us"},
    {"serve.socket_gap_us_p50", "us"},
    {"serve.socket_gap_us_p99", "us"},
    {"bench.send_lateness_us_p50", "us"},
    {"bench.send_lateness_us_p99", "us"},
    {"isa.assemble_ms", "ms"},
    {"cfg.build_cfg_ms", "ms"},
    {"sim.run_s", "s"},
    {"sim.mips", "MIPS"},
    {"cfg.profile_s", "s"},
    {"core.select_encode_ms", "ms"},
    {"cfg.dynamic_transitions_ms", "ms"},
    {"core.fetch_decoder_s", "s"},
    {"parallel.busy_share", "share"},
    {"parallel.straggler_s", "s"},
    {"sim.instructions", "count"},
    {"core.decoded_fetches", "count"},
    {"bench.trace_overhead_share", "share"},
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload serve_hot|serve_cold|batch_sweep "
               "--seed N --seconds S --trace 0|1\n"
               "                 --asimt PATH --reference DIR --work-dir DIR "
               "[--serve-jobs N] [--conns N]\n"
               "       perfbench --selftest | --write-reference  (same "
               "paths)\n",
               message.c_str());
  std::exit(2);
}

// Lines the result is made of: each declared metric in order; a per-layer
// metric whose layer the workload never calls reads 0 with 0 samples.
asimt::json::Value result_metrics(const RunResult& result, bool trace) {
  asimt::json::Value metrics = asimt::json::Value::object();
  std::printf("%-30s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  auto emit = [&](const MetricSpec& spec, bool required) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics) {
      if (m.name == spec.name) found = &m;
    }
    if (found && found->unit != spec.unit) {
      throw std::logic_error(std::string("metric ") + spec.name +
                             " reported in " + found->unit);
    }
    if (!found && required) {
      throw std::logic_error(std::string("metric ") + spec.name +
                             " was not measured");
    }
    const double value = found ? found->value : 0.0;
    const std::uint64_t samples = found ? found->samples : 0;
    std::printf("%-30s %16.6f  %-6s %llu\n", spec.name, value, spec.unit,
                static_cast<unsigned long long>(samples));
    asimt::json::Value m = asimt::json::Value::object();
    m.set("value", value);
    m.set("unit", spec.unit);
    metrics.set(spec.name, std::move(m));
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  return metrics;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool selftest = false;
  bool write_reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    auto number = [&](long long min, long long max) -> long long {
      const std::string text = value();
      const std::optional<long long> v =
          asimt::util::parse_number<long long>(text);
      if (!v || *v < min || *v > max) usage("bad value for " + arg);
      return *v;
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(number(0, 1LL << 62));
    } else if (arg == "--seconds") {
      const std::optional<double> v =
          asimt::util::parse_number<double>(value());
      if (!v || *v <= 0 || *v > 600) usage("bad value for --seconds");
      options.seconds = *v;
    } else if (arg == "--trace") {
      options.trace = number(0, 1) == 1;
    } else if (arg == "--asimt") {
      options.asimt = value();
    } else if (arg == "--reference") {
      options.reference = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--serve-jobs") {
      options.serve_jobs = static_cast<unsigned>(number(1, 256));
    } else if (arg == "--conns") {
      options.conns = static_cast<unsigned>(number(1, 256));
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--write-reference") {
      write_reference = true;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (options.reference.empty() || options.work_dir.empty()) {
    usage("--reference and --work-dir are required");
  }
  const unsigned nproc = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
  // One generator thread plus the daemon's connection threads must fit.
  if (options.conns + 1 > nproc || options.serve_jobs > nproc) {
    usage("--conns + 1 and --serve-jobs must not exceed nproc (" +
          std::to_string(nproc) + ")");
  }

  try {
    if (write_reference) {
      const std::string digest = options.reference + "/serve_hot.digest";
      if (!asimt::telemetry::write_text_file(digest,
                                             serve_hot_digest() + "\n")) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", digest.c_str());
        return 1;
      }
      std::printf("wrote %s\n", digest.c_str());
      return write_sweep_reference(options);
    }
    if (options.asimt.empty()) usage("--asimt is required");
    if (selftest) return run_selftest(options);

    RunResult result;
    if (options.workload == "serve_hot" || options.workload == "serve_cold") {
      result = run_serve(options);
    } else if (options.workload == "batch_sweep") {
      result = run_sweep(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }

    std::printf("perfbench %s  seed %llu  %.1f s  trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    for (const std::string& problem : result.problems) {
      std::printf("INCORRECT: %s\n", problem.c_str());
    }
    // A reference that does not match stops the run before it measures.
    if (result.metrics.empty()) return 1;
    const asimt::json::Value metrics = result_metrics(result, options.trace);
    std::printf("operations: %llu attempted, %llu succeeded, %llu failed\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.succeeded),
                static_cast<unsigned long long>(result.failed));

    asimt::json::Value report = asimt::json::Value::object();
    report.set("workload", options.workload);
    report.set("seed", options.seed);
    report.set("seconds", options.seconds);
    report.set("trace", options.trace);
    report.set("nproc", nproc);
    asimt::obs::embed_manifest(report);
    asimt::json::Value samples = asimt::json::Value::object();
    for (const Metric& m : result.metrics) samples.set(m.name, m.samples);
    report.set("samples", std::move(samples));
    report.set("details", std::move(result.details));
    std::printf("%s\n", report.dump(2).c_str());

    asimt::json::Value line = asimt::json::Value::object();
    line.set("correct", result.correct);
    line.set("attempted", result.attempted);
    line.set("failed", result.failed);
    line.set("metrics", metrics);
    std::printf("%s\n", line.dump().c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
