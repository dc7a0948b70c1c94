#include "layers.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dse/eval_cache.hpp"
#include "dse/objectives.hpp"
#include "dse/optimizers.hpp"
#include "model/evaluator.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace sc = wsnex::scenario;
namespace dse = wsnex::dse;
namespace fs = std::filesystem;
using wsnex::util::ThreadPool;

namespace {

/// Timing/counting decorator around the memoized objective. Each worker
/// slot is used by one thread at a time, so per-slot interval lists need
/// no lock. covered_s() is the wall time during which at least one
/// evaluation was running, so search time minus it is the optimizer's own
/// time even when evaluations run on several threads.
class TimedObjective final : public dse::BatchObjectiveFunction {
 public:
  explicit TimedObjective(const dse::BatchObjectiveFunction& inner)
      : inner_(inner), slots_(inner.worker_slots()) {}

  std::size_t arity() const override { return inner_.arity(); }
  std::size_t worker_slots() const override { return inner_.worker_slots(); }
  std::size_t evaluate(const dse::Genome& genome, std::span<double> out,
                       std::size_t worker) const override {
    const double start = now_s();
    const std::size_t n = inner_.evaluate(genome, out, worker);
    slots_[worker].intervals.emplace_back(start, now_s());
    return n;
  }

  std::size_t designs() const {
    std::size_t n = 0;
    for (const Slot& slot : slots_) n += slot.intervals.size();
    return n;
  }
  double covered_s() const {
    std::vector<std::pair<double, double>> all;
    for (const Slot& slot : slots_) {
      all.insert(all.end(), slot.intervals.begin(), slot.intervals.end());
    }
    return union_length(std::move(all));
  }

 private:
  struct alignas(64) Slot {
    std::vector<std::pair<double, double>> intervals;
  };
  const dse::BatchObjectiveFunction& inner_;
  mutable std::vector<Slot> slots_;
};

/// run_nsga2/run_mosa with the options scenario::run_scenario derives from
/// the spec, on a run-private pool of `workers` threads.
dse::DseResult search(const sc::ScenarioSpec& spec,
                      const dse::DesignSpace& space,
                      const dse::BatchObjectiveFunction& fn,
                      std::size_t workers, const dse::ProgressSink& sink) {
  const sc::OptimizerSettings& opt = spec.optimizer;
  if (opt.kind == sc::OptimizerKind::kMosa) {
    dse::MosaOptions o;
    o.iterations = opt.iterations;
    o.initial_temperature = opt.initial_temperature;
    o.cooling = opt.cooling;
    if (opt.mutation_rate > 0.0) o.mutation_rate = opt.mutation_rate;
    o.seed = opt.seed;
    o.threads = workers;
    o.progress = sink;
    return dse::run_mosa(space, fn, o);
  }
  dse::Nsga2Options o;
  o.population = opt.population;
  o.generations = opt.generations;
  o.crossover_rate = opt.crossover_rate;
  if (opt.mutation_rate > 0.0) o.mutation_rate = opt.mutation_rate;
  o.seed = opt.seed;
  o.threads = workers;
  o.progress = sink;
  return dse::run_nsga2(space, fn, o);
}

/// execute_scenario + record_complete for every spec, one at a time, into
/// a fresh store.
std::vector<double> execute_all(const std::vector<sc::ScenarioSpec>& specs,
                                const sc::CampaignOptions& options,
                                const std::string& dir, Tracer& tracer,
                                const char* span_name, LayerProbe* totals) {
  dse::SharedEvalCache& cache = dse::SharedEvalCache::instance();
  cache.clear();
  std::vector<double> execute_s;
  std::optional<sc::ResultStore> store;
  {
    const Span span(&tracer, "aux.store_init", 0, 0, false);
    const double t0 = now_s();
    store.emplace(dir);
    store->initialize(specs, options.quick);
    if (totals != nullptr) totals->store_init_s += now_s() - t0;
  }
  for (const sc::ScenarioSpec& spec : specs) {
    sc::ScenarioStatus status;
    {
      const Span span(&tracer, span_name, 0, 0, false);
      const double t0 = now_s();
      status = sc::execute_scenario(spec, options, *store, nullptr, &cache);
      execute_s.push_back(now_s() - t0);
    }
    const Span span(&tracer, "aux.record_complete", 0, 0, false);
    const double t0 = now_s();
    store->record_complete(status);
    if (totals != nullptr) totals->record_complete_s += now_s() - t0;
  }
  if (totals != nullptr) totals->artifacts = count_artifacts(specs, dir);
  fs::remove_all(dir);
  return execute_s;
}

}  // namespace

Artifacts count_artifacts(const std::vector<sc::ScenarioSpec>& specs,
                          const std::string& store_dir) {
  Artifacts out;
  for (const auto& entry : fs::recursive_directory_iterator(store_dir)) {
    if (!entry.is_regular_file()) continue;
    ++out.files;
    out.bytes += entry.file_size();
  }
  const sc::ResultStore store(store_dir);
  for (const sc::ScenarioSpec& spec : specs) {
    std::ifstream in(store.progress_jsonl_path(spec.name), std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      ++out.progress_records;
      out.progress_bytes += line.size() + 1;
    }
  }
  return out;
}

LayerProbe probe_layers(const std::vector<sc::ScenarioSpec>& specs,
                        const sc::CampaignOptions& options,
                        const std::string& dir, Tracer& tracer) {
  LayerProbe probe;
  dse::SharedEvalCache& cache = dse::SharedEvalCache::instance();

  // One scenario at a time, each on its own evaluation pool: concurrent
  // scenarios would make each one's duration depend on its neighbours and
  // the subtractions would be noise.
  sc::CampaignOptions on = options;
  on.out_dir = dir + "/progress-on";
  on.progress = true;
  probe.execute_on_s = execute_all(specs, on, on.out_dir, tracer,
                                   "aux.execute_progress_on", &probe);
  sc::CampaignOptions off = on;
  off.out_dir = dir + "/progress-off";
  off.progress = false;
  probe.execute_off_s = execute_all(specs, off, off.out_dir, tracer,
                                    "aux.execute_progress_off", nullptr);

  // The search alone: no sink, no lifetime pass, no files.
  cache.clear();
  for (const sc::ScenarioSpec& spec : specs) {
    const Span span(&tracer, "aux.run_scenario", 0, 0, false);
    const double t0 = now_s();
    sc::run_scenario(spec, options.quick, options.threads, nullptr, &cache);
    probe.run_scenario_s += now_s() - t0;
  }

  // Memo build and decorated search, one scenario at a time on its own
  // evaluation pool, so search time minus evaluate time is optimizer time.
  cache.clear();
  const dse::SharedEvalCache::Stats before = cache.stats();
  // Cache traffic of the fan-out memos, kept out of the hit ratio.
  std::vector<std::pair<dse::SharedEvalCache::Stats,
                        dse::SharedEvalCache::Stats>> excluded;
  for (const sc::ScenarioSpec& spec : specs) {
    const std::size_t workers = ThreadPool::resolve_threads(
        options.threads.value_or(spec.optimizer.threads));
    const auto evaluator = wsnex::model::NetworkModelEvaluator::make_default(
        spec.evaluator_options());
    const dse::DesignSpace space(spec.design_space_config());
    std::unique_ptr<dse::BatchObjectiveFunction> memo;
    {
      const Span span(&tracer, "dse.memo_build", 0, 0, false);
      const double t0 = now_s();
      memo = dse::make_memoized_full_model_objective(evaluator, space,
                                                     workers, &cache);
      probe.memo_build_s += now_s() - t0;
    }
    const TimedObjective timed(*memo);
    {
      const Span span(&tracer, "dse.search", 0, 0, false);
      const double t0 = now_s();
      const dse::DseResult result = search(spec, space, timed, workers, {});
      probe.search_s += now_s() - t0;
      probe.evaluations += result.evaluations;
    }
    probe.evaluate_s += timed.covered_s();
    probe.designs += timed.designs();

    // The same search once more with the benchmark's own counting sink.
    const Span span(&tracer, "aux.search_counting_sink", 0, 0, false);
    std::size_t snapshots = 0;
    search(spec, space, *memo, workers,
           [&](const dse::ProgressSnapshot&) { ++snapshots; });
    probe.snapshots += snapshots;

    // The search fanned out over every hardware thread and on one, no
    // sink, on a memo with a slot per thread (its tables are cached now).
    const std::size_t hardware = ThreadPool::resolve_threads(0);
    const dse::SharedEvalCache::Stats wide_before = cache.stats();
    const auto wide = dse::make_memoized_full_model_objective(
        evaluator, space, hardware, &cache);
    excluded.push_back({wide_before, cache.stats()});
    double fanned_s = 0.0;
    {
      const Span fanned(&tracer, "aux.search_hardware_threads", 0, 0, false);
      const double t0 = now_s();
      search(spec, space, *wide, hardware, {});
      fanned_s = now_s() - t0;
    }
    const Span serial(&tracer, "aux.search_one_thread", 0, 0, false);
    const double t0 = now_s();
    search(spec, space, *wide, 1, {});
    probe.fanout_cost_s += fanned_s - (now_s() - t0);
  }
  const auto hits_and_misses = [](const dse::SharedEvalCache::Stats& from,
                                   const dse::SharedEvalCache::Stats& to) {
    return std::pair<double, double>(
        static_cast<double>((to.app_table_hits - from.app_table_hits) +
                            (to.mac_model_hits - from.mac_model_hits)),
        static_cast<double>(
            (to.app_table_misses - from.app_table_misses) +
            (to.app_table_bypasses - from.app_table_bypasses) +
            (to.mac_model_misses - from.mac_model_misses)));
  };
  auto [hits, misses] = hits_and_misses(before, cache.stats());
  for (const auto& [from, to] : excluded) {
    const auto [h, m] = hits_and_misses(from, to);
    hits -= h;
    misses -= m;
  }
  probe.cache_hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  return probe;
}

void add_layer_metrics(Result& result, const LayerProbe& probe,
                       double calibrate_s) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto designs = static_cast<double>(probe.designs);
  const auto snapshots = static_cast<double>(probe.snapshots);
  result.add("dsp.calibrate_s", calibrate_s, "s");
  result.add("model.evaluate_s", probe.evaluate_s, "s");
  result.add("model.designs", designs, "count");
  result.add("model.ns_per_design", ratio(probe.evaluate_s * 1e9, designs),
             "ns");
  result.add("dse.memo_build_s", probe.memo_build_s, "s");
  result.add("dse.eval_cache_hit_ratio", probe.cache_hit_ratio, "ratio");
  result.add("dse.search_s", probe.search_s, "s");
  result.add("dse.optimizer_self_s", probe.search_s - probe.evaluate_s, "s");
  result.add("dse.evaluations", static_cast<double>(probe.evaluations),
             "count");
  result.add("dse.useful_eval_ratio",
             ratio(static_cast<double>(probe.evaluations), designs), "ratio");
  // The optimizers evaluate one batch per ProgressSink call (a generation
  // of NSGA-II, a speculative round of MOSA), so the sink count is the
  // batch count.
  result.add("dse.batches", snapshots, "count");
  result.add("dse.designs_per_batch", ratio(designs, snapshots), "count");
  result.add("dse.fanout_cost_s", probe.fanout_cost_s, "s");
  result.add("telemetry.snapshots", snapshots, "count");
  result.add("telemetry.records",
             static_cast<double>(probe.artifacts.progress_records), "count");
  result.add("telemetry.bytes",
             static_cast<double>(probe.artifacts.progress_bytes), "B");
  result.add("telemetry.cost_s",
             sum(probe.execute_on_s) - sum(probe.execute_off_s), "s");
  result.add("scenario.post_search_s",
             sum(probe.execute_off_s) - probe.run_scenario_s, "s");
  result.add("scenario.artifact_files",
             static_cast<double>(probe.artifacts.files), "count");
  result.add("scenario.artifact_bytes",
             static_cast<double>(probe.artifacts.bytes), "B");
}

void print_ledger(const Ledger& ledger, double passes, const char* what) {
  std::printf("ledger (%s):\n", what);
  std::printf("  %-28s %8s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const PhaseTotal& phase : ledger.phases) {
    std::printf("  %-28s %8.1f %12.6f %12.6f\n", phase.name.c_str(),
                static_cast<double>(phase.count) / passes,
                phase.total_s / passes, phase.self_s / passes);
  }
  const double share =
      ledger.wall_s > 0.0 ? ledger.unaccounted_s / ledger.wall_s : 0.0;
  std::printf("  wall %.6f s = phases %.6f s + unaccounted %.6f s%s\n",
              ledger.wall_s / passes, ledger.phases_s / passes,
              ledger.unaccounted_s / passes,
              share > 0.10 ? "  [FLAG: unaccounted > 10 % of wall]" : "");
}

}  // namespace perfbench
