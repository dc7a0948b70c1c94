// The three workloads and what one run of wsnex_bench reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Workload { kCampaignNsga2, kCampaignMosa, kServeMixed };

const char* to_string(Workload workload);
std::optional<Workload> workload_from_string(const std::string& name);

struct RunConfig {
  Workload workload = Workload::kCampaignNsga2;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: tiny budgets, few scenarios and jobs.
  bool tiny = false;
  std::string work_dir;   ///< scratch directory the run may fill
  std::string self_exe;   ///< this program (re-executed for set-up probes)
  std::string wsnex_exe;  ///< the shipped CLI (serve_mixed spawns it)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. `failed` counts operations whose output check
/// failed (see the workload files for what one operation is).
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< first few failure messages

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

Result run_campaign_workload(const RunConfig& config);
Result run_serve_workload(const RunConfig& config);

/// Metrics every traced run reports even when its workload does not call
/// the layer (value 0): the per-layer list is one list for all workloads.
void add_unexercised_serve_metrics(Result& result);
void add_unexercised_validate_metrics(Result& result);

}  // namespace perfbench
