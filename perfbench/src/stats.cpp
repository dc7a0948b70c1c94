#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  out.beyond = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

double sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : sum(samples) / static_cast<double>(samples.size());
}

double interquartile_mean(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t cut = samples.size() / 4;
  return mean({samples.begin() + static_cast<std::ptrdiff_t>(cut),
               samples.end() - static_cast<std::ptrdiff_t>(cut)});
}

}  // namespace perfbench
