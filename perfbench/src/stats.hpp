// Order statistics for the benchmark's timings. A percentile always travels
// with its sample count and the number of samples above it, so a reader can
// tell a p95 backed by 400 samples from one backed by 12.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   ///< samples the percentile was taken from
  std::size_t beyond = 0;  ///< samples strictly greater than value
};

/// The q-quantile (q in [0, 1]) by linear interpolation between the two
/// closest ranks of the sorted samples (rank q * (n - 1)). An empty sample
/// set gives {0, 0, 0}.
Percentile percentile(std::vector<double> samples, double q);

/// Median of the samples (0 for none).
double median(std::vector<double> samples);

double sum(const std::vector<double>& samples);

/// Arithmetic mean (0 for no samples).
double mean(const std::vector<double>& samples);

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest quarter (n / 4 each, rounded down). Follows the
/// share of time a run spends at each speed of a host that flips between
/// speeds, like a mean, while a short stall moves it no more than a median
/// (0 for no samples).
double interquartile_mean(std::vector<double> samples);

}  // namespace perfbench
