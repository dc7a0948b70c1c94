// Per-layer measurement shared by the traced runs: the component calls a
// workload's scenarios make, each repeated on its own with a span around
// it, so a layer's time and counts can be read off directly or by
// subtraction:
//
//   telemetry.cost_s       = Σ execute_scenario (progress on)
//                          − Σ execute_scenario (progress off), paired
//   scenario.post_search_s = Σ execute_scenario (progress off)
//                          − Σ run_scenario (no sink)
//   dse.optimizer_self_s   = Σ run_nsga2/run_mosa (decorated objective)
//                          − time inside the decorated evaluate
//   dse.fanout_cost_s      = Σ run_nsga2/run_mosa on hardware_concurrency
//                            threads − Σ the same on one thread, no sink
//                            (what the CLI default --threads 0 costs or
//                            saves inside one optimizer run)
//
// These spans carry ledger = false: they are not part of the workload's
// wall clock.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Artifacts {
  std::size_t files = 0;
  std::size_t bytes = 0;
  std::size_t progress_records = 0;  ///< progress.jsonl lines
  std::size_t progress_bytes = 0;
};

/// Counts every file under a result store and its progress.jsonl lines.
Artifacts count_artifacts(const std::vector<wsnex::scenario::ScenarioSpec>& specs,
                          const std::string& store_dir);

struct LayerProbe {
  std::vector<double> execute_on_s;   ///< per scenario, progress on
  std::vector<double> execute_off_s;  ///< per scenario, progress off
  double store_init_s = 0.0;          ///< the progress-on store
  double record_complete_s = 0.0;
  Artifacts artifacts;                ///< of the progress-on store
  double run_scenario_s = 0.0;
  double memo_build_s = 0.0;
  double search_s = 0.0;
  double evaluate_s = 0.0;  ///< wall time with ≥ 1 evaluation running
  std::size_t designs = 0;  ///< designs handed to evaluate
  std::size_t evaluations = 0;  ///< DseResult::evaluations
  std::size_t snapshots = 0;    ///< ProgressSink calls
  double fanout_cost_s = 0.0;
  double cache_hit_ratio = 0.0;
};

/// Runs the component calls for `specs` under `options` into scratch
/// stores below `dir`, one scenario at a time, with the SharedEvalCache
/// cleared before each group so every group sees what one campaign pass
/// sees.
LayerProbe probe_layers(const std::vector<wsnex::scenario::ScenarioSpec>& specs,
                        const wsnex::scenario::CampaignOptions& options,
                        const std::string& dir, Tracer& tracer);

/// Adds the dsp, model, dse and telemetry metrics of a probe.
void add_layer_metrics(Result& result, const LayerProbe& probe,
                       double calibrate_s);

/// Prints a ledger whose totals cover `passes` sections, divided by it;
/// `what` says what one section is.
void print_ledger(const Ledger& ledger, double passes, const char* what);

}  // namespace perfbench
