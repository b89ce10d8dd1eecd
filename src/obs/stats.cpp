#include "obs/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "check/rng.h"

namespace asimt::obs {

namespace {

double sorted_median(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return sorted_median(v);
}

double mad(const std::vector<double>& v, double center) {
  if (v.empty()) return 0.0;
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::abs(x - center));
  return median(std::move(dev));
}

SampleStats summarize(const std::vector<double>& samples,
                      const StatsOptions& options) {
  SampleStats s;
  if (samples.empty()) return s;

  // Outlier fence around the raw median. MAD == 0 (all-equal or n == 1)
  // keeps everything: a zero-width fence would reject every sample that is
  // not exactly the median.
  const double raw_median = obs::median(samples);
  const double raw_mad = obs::mad(samples, raw_median);
  std::vector<double> kept;
  kept.reserve(samples.size());
  if (options.outlier_mad_k > 0 && raw_mad > 0) {
    const double fence = options.outlier_mad_k * raw_mad;
    for (const double x : samples) {
      if (std::abs(x - raw_median) <= fence) kept.push_back(x);
    }
  } else {
    kept = samples;
  }
  s.outliers_rejected = samples.size() - kept.size();

  std::sort(kept.begin(), kept.end());
  s.n = kept.size();
  s.min = kept.front();
  s.max = kept.back();
  double sum = 0.0;
  for (const double x : kept) sum += x;
  s.mean = sum / static_cast<double>(s.n);
  s.median = sorted_median(kept);
  s.mad = obs::mad(kept, s.median);

  if (s.n == 1) {
    s.ci_lo = s.ci_hi = s.median;
    return s;
  }

  // Percentile bootstrap of the median. Resampled medians are sorted and
  // the (1±confidence)/2 quantiles read off; modulo bias in the index draw
  // is irrelevant at these n and keeps the arithmetic identical everywhere.
  check::Rng rng(options.seed);
  const int resamples = std::max(1, options.resamples);
  std::vector<double> medians;
  medians.reserve(static_cast<std::size_t>(resamples));
  std::vector<double> draw(s.n);
  for (int r = 0; r < resamples; ++r) {
    for (std::size_t i = 0; i < s.n; ++i) {
      draw[i] = kept[static_cast<std::size_t>(rng.next() % s.n)];
    }
    medians.push_back(obs::median(draw));
  }
  std::sort(medians.begin(), medians.end());
  const double alpha = (1.0 - options.confidence) / 2.0;
  const auto quantile_index = [&](double q) {
    const double pos = q * static_cast<double>(medians.size() - 1);
    return static_cast<std::size_t>(pos + 0.5);  // nearest-rank, deterministic
  };
  s.ci_lo = medians[quantile_index(alpha)];
  s.ci_hi = medians[quantile_index(1.0 - alpha)];
  return s;
}

json::Value to_json(const SampleStats& s) {
  json::Value v = json::Value::object();
  v.set("n", static_cast<long long>(s.n));
  v.set("outliers_rejected", static_cast<long long>(s.outliers_rejected));
  v.set("min", s.min);
  v.set("max", s.max);
  v.set("mean", s.mean);
  v.set("median", s.median);
  v.set("mad", s.mad);
  v.set("ci95_lo", s.ci_lo);
  v.set("ci95_hi", s.ci_hi);
  return v;
}

SampleStats stats_from_json(const json::Value& v) {
  SampleStats s;
  s.n = static_cast<std::size_t>(v.at("n").as_int());
  s.outliers_rejected =
      static_cast<std::size_t>(v.at("outliers_rejected").as_int());
  s.min = v.at("min").as_double();
  s.max = v.at("max").as_double();
  s.mean = v.at("mean").as_double();
  s.median = v.at("median").as_double();
  s.mad = v.at("mad").as_double();
  s.ci_lo = v.at("ci95_lo").as_double();
  s.ci_hi = v.at("ci95_hi").as_double();
  return s;
}

}  // namespace asimt::obs
