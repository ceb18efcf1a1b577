// Scoring and summary statistics of the protocol benchmark.
//
// The BI scoring (VLDB'22 paper §6, spec v2.x) folds the refresh into the
// power metric: the geometric mean runs over the mean batch write time and
// the 25 per-template mean read times t_q,
//
//   power_score = 3600 / geomean_s(w, t_1, ..., t_25)
//
// sched::ComputePowerScore leaves the write term out, so the benchmark
// computes the score itself. It reports the score without the SF factor
// (the scale is fixed per run and printed in the descriptor).
#ifndef PERFBENCH_SCORE_H_
#define PERFBENCH_SCORE_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Geometric mean of positive values; 0 for an empty input.
inline double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// 3600 / geomean in seconds of the mean batch write time and each
/// template's mean read time, all given in milliseconds.
inline double PowerScore(double mean_write_ms,
                         const std::vector<double>& template_mean_ms) {
  std::vector<double> seconds;
  seconds.reserve(template_mean_ms.size() + 1);
  seconds.push_back(mean_write_ms / 1000.0);
  for (double ms : template_mean_ms) seconds.push_back(ms / 1000.0);
  return 3600.0 / Geomean(seconds);
}

/// The p-quantile (0 <= p <= 1) of `values` with linear interpolation
/// between closest ranks; 0 for an empty input.
inline double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_SCORE_H_
