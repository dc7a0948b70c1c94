// Campaign-scale throughput: cold start, warm cache and the jobs axis.
//
// PR 2's bench_dse_throughput tracks the DSE inner loop (objective
// evaluations per second); this driver tracks the layer above it — what a
// user actually waits for when running `wsnex run <11 presets>`:
//
//   * calibration: the process cold start (real DWT/CS encode + FISTA
//     decode sweeps behind dsp::default_prd_curves()), cold vs. loaded
//     from the on-disk warm cache (`--cache-dir`), and cold vs. the same
//     grid points calibrated one at a time inline (the grid fan-out's
//     parallel speedup, which CI gates),
//   * memo build: constructing the 11 presets' memoized objectives with
//     per-scenario (fresh) tables vs. the process-wide SharedEvalCache,
//   * campaign: end-to-end run_campaign() over every built-in preset,
//     swept along the --jobs axis,
//   * composed cold/warm invocation totals (calibration + campaign),
//   * telemetry: one MOSA and one NSGA-II preset at their default budgets
//     with convergence telemetry (progress.jsonl) on and off, and the
//     on/off ratio CI gates.
//
// Usage: bench_campaign_throughput [--json[=PATH]] [--quick]
//   --quick shrinks per-scenario budgets to the smoke size and runs one
//   repetition — CI uses it to keep this path and its JSON from rotting.
//   The telemetry block keeps the default budgets either way: the cost it
//   gates is the one the shipped defaults pay.
//
// The committed BENCH_campaign_throughput.json embeds this driver's
// output inside hand-recorded context blocks (`machine`, and
// `baseline_pre_pr` = the pre-PR serial engine timed with the same
// preset list on the same machine). To refresh it, regenerate with this
// tool and splice the measured blocks in — do not overwrite the file
// wholesale or the baseline reference is lost.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dse/eval_cache.hpp"
#include "dse/objectives.hpp"
#include "dsp/prd_calibration.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "util/stats.hpp"

namespace {

using namespace wsnex;
using bench::best_of;
namespace fs = std::filesystem;

struct CampaignPoint {
  std::size_t jobs = 1;
  double wall_s = 0.0;
};

struct TelemetryPoint {
  std::string scenario;
  double on_s = 0.0;   ///< median wall time, progress on
  double off_s = 0.0;  ///< median wall time, progress off
};

/// One scenario through run_campaign (fresh store each time) with
/// progress on and off, in `pairs` alternating pairs so both sides see the
/// same machine drift. Medians, not best-of: the gate is on the typical
/// run.
TelemetryPoint measure_telemetry(const scenario::ScenarioSpec& spec,
                                 const fs::path& root, int pairs) {
  const auto run = [&](bool progress) {
    const fs::path store = root / (spec.name + (progress ? "_on" : "_off"));
    fs::remove_all(store);
    scenario::CampaignOptions options;
    options.out_dir = store.string();
    options.progress = progress;
    const double start = bench::now_s();
    (void)scenario::run_campaign({spec}, options);
    const double wall_s = bench::now_s() - start;
    fs::remove_all(store);
    return wall_s;
  };
  (void)run(true);  // warm-up: shared eval cache, page cache
  (void)run(false);
  std::vector<double> on, off;
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      on.push_back(run(true));
      off.push_back(run(false));
    } else {
      off.push_back(run(false));
      on.push_back(run(true));
    }
  }
  return {spec.name, util::percentile(on, 50.0),
          util::percentile(off, 50.0)};
}

int run_bench(const std::string& path, bool quick) {
  std::FILE* out = bench::open_json_sink(path);
  if (out == nullptr) return 1;
  const int reps = quick ? 1 : 3;
  const auto presets = scenario::all_presets();
  const fs::path scratch_root =
      fs::temp_directory_path() /
      ("wsnex_bench_campaign_" + std::to_string(::getpid()));
  fs::remove_all(scratch_root);

  // --- Calibration: cold (compute) vs. warm (load from disk). ---------
  const double calibration_cold_s = best_of(reps, [] {
    (void)dsp::calibrate_dwt();
    (void)dsp::calibrate_cs();
  });
  // The same grid point by point: a one-point grid runs inline, so the
  // sum is the serial cost the grid fan-out hides. CI gates the ratio.
  const double serial_points_s = best_of(reps, [] {
    for (const double cr : dsp::PrdCalibrationConfig{}.cr_grid) {
      dsp::PrdCalibrationConfig one;
      one.cr_grid = {cr};
      (void)dsp::calibrate_dwt({}, one);
      (void)dsp::calibrate_cs({}, one);
    }
  });
  const double parallel_speedup = serial_points_s / calibration_cold_s;
  const fs::path cache_dir = scratch_root / "prd_cache";
  // First call populates the cache file (untimed), later ones load it.
  (void)dsp::load_or_calibrate_default_prd_curves(cache_dir.string());
  const double calibration_warm_s = best_of(reps, [&] {
    (void)dsp::load_or_calibrate_default_prd_curves(cache_dir.string());
  });
  std::fprintf(stderr,
               "calibration: cold %.3f s (points serially %.3f s, %.2fx), "
               "warm %.3f s (%.1fx)\n",
               calibration_cold_s, serial_points_s, parallel_speedup,
               calibration_warm_s, calibration_cold_s / calibration_warm_s);

  // --- Memo build: fresh per-scenario tables vs. the shared cache. ----
  // (Forces the process-level calibration first so neither side pays it.)
  (void)model::NetworkModelEvaluator::make_default();
  const auto build_all = [&](dse::SharedEvalCache* cache) {
    for (const scenario::ScenarioSpec& spec : presets) {
      const auto evaluator = model::NetworkModelEvaluator::make_default(
          spec.evaluator_options());
      const dse::DesignSpace space(spec.design_space_config());
      (void)dse::make_memoized_full_model_objective(evaluator, space, 1,
                                                    cache);
    }
  };
  const double memo_fresh_s = best_of(reps, [&] { build_all(nullptr); });
  const double memo_shared_s = best_of(reps, [&] {
    dse::SharedEvalCache cache;
    build_all(&cache);
  });
  std::fprintf(stderr, "memo build (11 presets): fresh %.4f s, shared %.4f s\n",
               memo_fresh_s, memo_shared_s);

  // --- End-to-end campaigns over every preset, jobs axis. -------------
  std::vector<CampaignPoint> campaigns;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
    CampaignPoint point;
    point.jobs = jobs;
    point.wall_s = best_of(reps, [&] {
      const fs::path store =
          scratch_root / ("campaign_j" + std::to_string(jobs));
      fs::remove_all(store);
      scenario::CampaignOptions options;
      options.out_dir = store.string();
      options.quick = quick;
      options.jobs = jobs;
      (void)scenario::run_campaign(presets, options);
      fs::remove_all(store);
    });
    campaigns.push_back(point);
    std::fprintf(stderr, "campaign (%zu presets, jobs=%zu): %.3f s\n",
                 presets.size(), jobs, point.wall_s);
  }

  // --- Telemetry on/off at default budgets. ---------------------------
  const int pairs = quick ? 15 : 31;
  std::vector<TelemetryPoint> telemetry;
  for (const char* name : {"relaxed_quality_mosa_6", "hospital_ward_6"}) {
    telemetry.push_back(
        measure_telemetry(scenario::preset(name), scratch_root, pairs));
    const TelemetryPoint& t = telemetry.back();
    std::fprintf(stderr, "telemetry (%s): on %.4f s, off %.4f s (%.2fx)\n",
                 name, t.on_s, t.off_s, t.on_s / t.off_s);
  }

  const double campaign_serial_s = campaigns.front().wall_s;
  const double cold_total_s = calibration_cold_s + campaign_serial_s;
  const double warm_total_s = calibration_warm_s + campaign_serial_s;

  std::fprintf(out, "{\n  \"bench\": \"campaign_throughput\",\n");
  std::fprintf(out, "  \"unit\": \"seconds of wall clock\",\n");
  bench::fprint_provenance(out);
  std::fprintf(out,
               "  \"note\": \"best of %d repetitions; %zu built-in presets, "
               "%s budgets; optimizer runs are sequential, so the jobs "
               "axis isolates the campaign scheduler\",\n",
               reps, presets.size(), quick ? "quick" : "full");
  std::fprintf(out, "  \"scenarios\": %zu,\n", presets.size());
  std::fprintf(out, "  \"calibration\": {\"cold_s\": %.6f, \"warm_s\": %.6f, "
                    "\"warm_speedup\": %.2f, \"serial_points_s\": %.6f, "
                    "\"parallel_speedup\": %.2f},\n",
               calibration_cold_s, calibration_warm_s,
               calibration_cold_s / calibration_warm_s, serial_points_s,
               parallel_speedup);
  std::fprintf(out, "  \"memo_build\": {\"fresh_s\": %.6f, \"shared_s\": "
                    "%.6f},\n",
               memo_fresh_s, memo_shared_s);
  std::fprintf(out, "  \"campaign\": [\n");
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    std::fprintf(out, "    {\"jobs\": %zu, \"wall_s\": %.6f}%s\n",
                 campaigns[i].jobs, campaigns[i].wall_s,
                 i + 1 < campaigns.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"invocation_totals\": {\"cold_s\": %.6f, \"warm_s\": "
                    "%.6f, \"warm_vs_cold_speedup\": %.2f},\n",
               cold_total_s, warm_total_s, cold_total_s / warm_total_s);
  std::fprintf(out, "  \"telemetry\": {\"pairs\": %d, \"budget\": "
                    "\"default\", \"scenarios\": [\n",
               pairs);
  for (std::size_t i = 0; i < telemetry.size(); ++i) {
    const TelemetryPoint& t = telemetry[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"on_s\": %.6f, \"off_s\": "
                 "%.6f, \"on_off_ratio\": %.3f}%s\n",
                 t.scenario.c_str(), t.on_s, t.off_s, t.on_s / t.off_s,
                 i + 1 < telemetry.size() ? "," : "");
  }
  std::fprintf(out, "  ]}\n");
  std::fprintf(out, "}\n");
  bench::close_json_sink(out, path);
  fs::remove_all(scratch_root);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // JSON is the only output mode; bare --json is accepted for symmetry
  // with the other drivers.
  wsnex::bench::Args args;
  if (!wsnex::bench::parse_args(argc, argv, args)) return 2;
  return run_bench(args.json_path, args.quick);
}
