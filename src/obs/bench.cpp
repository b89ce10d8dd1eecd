#include "obs/bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "check/rng.h"
#include "obs/history.h"
#include "obs/manifest.h"
#include "obs/selfmetrics.h"
#include "obs/stats.h"
#include "parallel/pool.h"
#include "telemetry/export.h"
#include "util/args.h"

namespace asimt::obs {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

void BenchContext::measure(const std::function<void()>& op) {
  if (mock_) {
    // Run the body once so mock mode still exercises the measured code, but
    // take the elapsed time from the injected deterministic stream.
    op();
    elapsed_ns_ = mock_elapsed_ns_;
    measured_ = true;
    return;
  }
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < iters_; ++i) op();
  elapsed_ns_ = now_ns() - start;
  measured_ = true;
}

void BenchContext::set_counter(const std::string& name, double value) {
  for (auto& [existing, v] : counters_) {
    if (existing == name) {
      v = value;
      return;
    }
  }
  counters_.emplace_back(name, value);
}

std::vector<BenchSpec>& bench_registry() {
  static std::vector<BenchSpec> registry;
  return registry;
}

BenchRegistrar::BenchRegistrar(std::string name, BenchFn fn) {
  bench_registry().push_back({std::move(name), std::move(fn)});
}

BenchOptions BenchOptions::defaults() {
  BenchOptions options;
  if (const char* fast = std::getenv("ASIMT_FAST");
      fast != nullptr && fast[0] == '1') {
    options.repetitions = 5;
    options.warmup = 1;
    options.min_sample_ms = 2.0;
  }
  return options;
}

// Friend of BenchContext: drives calibration and repetition around the
// user-visible measure() surface.
class BenchRunner {
 public:
  // One calibrated + measured bench; returns the artifact row, or nullopt
  // for a body that never called measure().
  static std::optional<json::Value> run_one(const BenchSpec& spec,
                                            const BenchOptions& options);
};

std::optional<json::Value> BenchRunner::run_one(const BenchSpec& spec,
                                                const BenchOptions& options) {
  BenchContext ctx;
  ctx.mock_ = options.mock_time;

  if (!options.mock_time) {
    // Calibrate the inner iteration count: double until one timed sample
    // costs at least min_sample_ms, so per-sample clock overhead is noise.
    const std::int64_t target_ns =
        static_cast<std::int64_t>(options.min_sample_ms * 1e6);
    ctx.iters_ = 1;
    for (;;) {
      ctx.measured_ = false;
      spec.fn(ctx);
      if (!ctx.measured_) return std::nullopt;
      if (ctx.elapsed_ns_ >= target_ns || ctx.iters_ >= (1ull << 30)) break;
      if (ctx.elapsed_ns_ <= 0) {
        ctx.iters_ *= 16;
        continue;
      }
      // Aim directly at the target (doubling as a floor) to keep
      // calibration cheap for slow benches.
      const std::uint64_t scaled = static_cast<std::uint64_t>(
          static_cast<double>(ctx.iters_) *
          (static_cast<double>(target_ns) /
           static_cast<double>(ctx.elapsed_ns_)) * 1.2);
      ctx.iters_ = std::max(ctx.iters_ * 2, scaled);
    }
  }

  check::Rng mock_rng(options.seed ^ fnv1a(spec.name));
  const auto next_mock_ns = [&]() {
    // ~1–2 microseconds per op with small deterministic jitter.
    return static_cast<std::int64_t>(1000 + (fnv1a(spec.name) % 1000) +
                                     mock_rng.next() % 50);
  };

  std::vector<double> ns_per_op;
  ns_per_op.reserve(static_cast<std::size_t>(options.repetitions));
  const int total = options.warmup + options.repetitions;
  for (int rep = 0; rep < total; ++rep) {
    ctx.measured_ = false;
    if (options.mock_time) ctx.mock_elapsed_ns_ = next_mock_ns();
    spec.fn(ctx);
    if (!ctx.measured_) return std::nullopt;
    if (rep >= options.warmup) {
      ns_per_op.push_back(static_cast<double>(ctx.elapsed_ns_) /
                          static_cast<double>(ctx.iters_));
    }
  }

  StatsOptions stats_options;
  stats_options.seed = options.seed ^ fnv1a(spec.name);
  const SampleStats stats = summarize(ns_per_op, stats_options);

  json::Value row = json::Value::object();
  row.set("name", spec.name);
  row.set("iterations", static_cast<long long>(ctx.iters_));
  row.set("repetitions", options.repetitions);
  row.set("warmup", options.warmup);
  if (ctx.items_per_iter_ > 0) {
    row.set("items_per_iter", static_cast<long long>(ctx.items_per_iter_));
    if (stats.median > 0) {
      row.set("items_per_second",
              static_cast<double>(ctx.items_per_iter_) * 1e9 / stats.median);
    }
  }
  if (!ctx.counters_.empty()) {
    json::Value counters = json::Value::object();
    for (const auto& [name, value] : ctx.counters_) counters.set(name, value);
    row.set("counters", std::move(counters));
  }
  row.set("stats", obs::to_json(stats));
  return row;
}

json::Value run_benches(const BenchOptions& options,
                        const std::string& artifact_name) {
  json::Value rows = json::Value::array();
  if (options.verbose_console) {
    std::printf("%-44s %12s %12s %10s %24s\n", "benchmark", "iters",
                "median ns/op", "mad", "95% CI");
  }
  for (const BenchSpec& spec : bench_registry()) {
    if (!options.filter.empty() &&
        spec.name.find(options.filter) == std::string::npos) {
      continue;
    }
    const std::optional<json::Value> row = BenchRunner::run_one(spec, options);
    if (!row) {
      std::fprintf(stderr, "bench: %s never called measure(), skipped\n",
                   spec.name.c_str());
      continue;
    }
    if (options.verbose_console) {
      const SampleStats stats = stats_from_json(row->at("stats"));
      std::printf("%-44s %12lld %12.1f %10.2f [%10.1f, %10.1f]\n",
                  spec.name.c_str(), row->at("iterations").as_int(),
                  stats.median, stats.mad, stats.ci_lo, stats.ci_hi);
    }
    rows.push_back(std::move(*row));
  }

  json::Value doc = json::Value::object();
  doc.set("schema_version", kBenchSchemaVersion);
  doc.set("bench", artifact_name);
  embed_manifest(doc);
  json::Value opts = json::Value::object();
  opts.set("filter", options.filter);
  opts.set("repetitions", options.repetitions);
  opts.set("warmup", options.warmup);
  opts.set("min_sample_ms", options.min_sample_ms);
  opts.set("seed", static_cast<long long>(options.seed));
  opts.set("mock_time", options.mock_time);
  doc.set("options", std::move(opts));
  doc.set("benchmarks", std::move(rows));
  doc.set("process", obs::to_json(sample_process_metrics()));
  return doc;
}

int bench_suite_cli_main(int argc, char** argv, const char* artifact_name,
                         const char* default_out) {
  BenchOptions options = BenchOptions::defaults();
  std::string out_path = default_out;
  std::string history_dir;
  bool json_stdout = false;
  bool list_only = false;

  const auto usage = [&](const char* diagnostic) -> int {
    if (diagnostic != nullptr) {
      std::fprintf(stderr, "%s: %s\n", artifact_name, diagnostic);
    }
    std::fprintf(stderr,
                 "usage: %s [--filter SUBSTR] [--repetitions N] [--warmup N]\n"
                 "       [--min-sample-ms MS] [--seed S] [--out PATH]\n"
                 "       [--history DIR] [--jobs N] [--json] [--list]\n"
                 "       [--mock-time]\n",
                 artifact_name);
    return 2;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto next_int = [&](int min) -> std::optional<int> {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      return util::parse_int_in(value, min, std::numeric_limits<int>::max());
    };
    if (arg == "--filter") {
      const char* value = next();
      if (value == nullptr) return usage("--filter needs a value");
      options.filter = value;
    } else if (arg == "--repetitions") {
      const std::optional<int> v = next_int(1);
      if (!v) return usage("--repetitions needs an integer >= 1");
      options.repetitions = *v;
    } else if (arg == "--warmup") {
      const std::optional<int> v = next_int(0);
      if (!v) return usage("--warmup needs an integer >= 0");
      options.warmup = *v;
    } else if (arg == "--min-sample-ms") {
      const char* value = next();
      const std::optional<double> v =
          value ? util::parse_number<double>(value) : std::nullopt;
      if (!v || *v < 0) return usage("--min-sample-ms needs a number >= 0");
      options.min_sample_ms = *v;
    } else if (arg == "--seed") {
      const char* value = next();
      const std::optional<std::uint64_t> v =
          value ? util::parse_number<std::uint64_t>(value) : std::nullopt;
      if (!v) return usage("--seed needs a non-negative integer");
      options.seed = *v;
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) return usage("--out needs a path");
      out_path = value;
    } else if (arg == "--history") {
      const char* value = next();
      if (value == nullptr) return usage("--history needs a directory");
      history_dir = value;
    } else if (arg == "--jobs") {
      const std::optional<int> v = next_int(1);
      if (!v) return usage("--jobs needs an integer >= 1");
      parallel::set_default_jobs(static_cast<unsigned>(*v));
    } else if (arg == "--json") {
      json_stdout = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--mock-time") {
      options.mock_time = true;
    } else {
      return usage(("unknown option '" + arg + "'").c_str());
    }
  }

  if (list_only) {
    for (const BenchSpec& spec : bench_registry()) {
      if (options.filter.empty() ||
          spec.name.find(options.filter) != std::string::npos) {
        std::printf("%s\n", spec.name.c_str());
      }
    }
    return 0;
  }

  options.verbose_console = !json_stdout;
  const json::Value doc = run_benches(options, artifact_name);
  if (json_stdout) {
    std::printf("%s\n", doc.dump(2).c_str());
  }
  if (!out_path.empty()) {
    if (!telemetry::write_text_file(out_path, doc.dump(2) + "\n")) {
      std::fprintf(stderr, "%s: cannot write %s\n", artifact_name,
                   out_path.c_str());
      return 1;
    }
    if (!json_stdout) std::printf("wrote %s\n", out_path.c_str());
  }
  if (!history_dir.empty()) {
    if (!append_history(history_dir, doc)) {
      std::fprintf(stderr, "%s: cannot append history under %s\n",
                   artifact_name, history_dir.c_str());
      return 1;
    }
    if (!json_stdout) {
      std::printf("appended %s\n",
                  history_path(history_dir, artifact_name).c_str());
    }
  }
  return 0;
}

int bench_artifact_main(const char* bench_name, int argc, char** argv,
                        int (*body)()) {
  int repetitions = 1;
  int warmup = 0;
  std::string out_path = std::string("BENCH_") + bench_name + ".json";
  std::string history_dir;

  const auto usage = [&](const char* diagnostic) -> int {
    if (diagnostic != nullptr) {
      std::fprintf(stderr, "%s: %s\n", bench_name, diagnostic);
    }
    std::fprintf(stderr,
                 "usage: %s [--repetitions N] [--warmup N] [--jobs N]\n"
                 "       [--out PATH] [--history DIR]\n",
                 bench_name);
    return 2;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_int = [&](int min) -> std::optional<int> {
      if (i + 1 >= argc) return std::nullopt;
      return util::parse_int_in(argv[++i], min,
                                std::numeric_limits<int>::max());
    };
    if (arg == "--repetitions") {
      const std::optional<int> v = next_int(1);
      if (!v) return usage("--repetitions needs an integer >= 1");
      repetitions = *v;
    } else if (arg == "--warmup") {
      const std::optional<int> v = next_int(0);
      if (!v) return usage("--warmup needs an integer >= 0");
      warmup = *v;
    } else if (arg == "--jobs") {
      const std::optional<int> v = next_int(1);
      if (!v) return usage("--jobs needs an integer >= 1");
      parallel::set_default_jobs(static_cast<unsigned>(*v));
    } else if (arg == "--out") {
      if (i + 1 >= argc) return usage("--out needs a path");
      out_path = argv[++i];
    } else if (arg == "--history") {
      if (i + 1 >= argc) return usage("--history needs a directory");
      history_dir = argv[++i];
    } else {
      return usage(("unknown option '" + arg + "'").c_str());
    }
  }

  int rc = 0;
  std::vector<double> wall_ms;
  wall_ms.reserve(static_cast<std::size_t>(repetitions));
  for (int rep = 0; rep < warmup + repetitions && rc == 0; ++rep) {
    const std::int64_t start = now_ns();
    rc = body();
    const double elapsed_ms =
        static_cast<double>(now_ns() - start) / 1e6;
    if (rep >= warmup) wall_ms.push_back(elapsed_ms);
  }

  json::Value doc = json::Value::object();
  doc.set("schema_version", kBenchSchemaVersion);
  doc.set("bench", bench_name);
  embed_manifest(doc);
  doc.set("jobs", static_cast<long long>(parallel::default_jobs()));
  doc.set("repetitions", repetitions);
  doc.set("warmup", warmup);
  doc.set("ok", rc == 0);
  if (!wall_ms.empty()) {
    doc.set("wall_ms", wall_ms.back());
    doc.set("wall_ms_stats", obs::to_json(summarize(wall_ms)));
  }
  doc.set("process", obs::to_json(sample_process_metrics()));
  if (!telemetry::write_text_file(out_path, doc.dump(2) + "\n")) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench_name,
                 out_path.c_str());
    return rc != 0 ? rc : 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!history_dir.empty() && !append_history(history_dir, doc)) {
    std::fprintf(stderr, "%s: cannot append history under %s\n", bench_name,
                 history_dir.c_str());
    return rc != 0 ? rc : 1;
  }
  return rc;
}

}  // namespace asimt::obs
