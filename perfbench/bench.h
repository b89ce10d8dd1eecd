// Shared pieces of the perfbench binary: run options, the result every
// workload returns, and small statistics helpers. perfbench/README.md has
// the metric -> layer -> workload table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "workloads/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;     // measured time of one run
  bool trace = false;        // per-layer run instead of the end-to-end one
  std::string asimt;         // daemon binary
  std::string reference;     // committed reference directory
  std::string work_dir;      // sockets and daemon logs
  unsigned serve_jobs = 2;   // `asimt serve --jobs`
  unsigned conns = 2;        // generator connections
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Observations behind the value (requests, calls, sweeps); printed next
  // to every percentile so its support is visible.
  std::uint64_t samples = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false
  // Free-form provenance and per-step detail for the printed report.
  asimt::json::Value details = asimt::json::Value::object();

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0) {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
  // Folds one batch of operations into the counters.
  void count(std::uint64_t attempted_ops, std::uint64_t succeeded_ops) {
    attempted += attempted_ops;
    succeeded += succeeded_ops;
    failed += attempted_ops - succeeded_ops;
  }
};

// Type-7 quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The ten real kernels both halves of the benchmark run:
// workloads::make_all followed by workloads::make_extra.
std::vector<asimt::workloads::Workload> kernel_suite();

// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out);

RunResult run_serve(const Options& options);  // serve_hot, serve_cold
RunResult run_sweep(const Options& options);  // batch_sweep
// Generator stall-guard checks against a live daemon; 0 when all pass.
int run_selftest(const Options& options);

// Regenerates the committed references under options.reference: the
// batch_sweep rows and the digest of the expected serve_hot replies.
int write_sweep_reference(const Options& options);
std::string serve_hot_digest();

}  // namespace perfbench
