// campaign_nsga2 and campaign_mosa: a generated corpus run through
// scenario::run_campaign with CampaignOptions filled as `wsnex run` fills
// them (progress on, no cache dir; --jobs nproc and threads unset for the
// NSGA-II corpus, the default jobs 1 and --threads 1 for MOSA).
//
// One pass = one campaign over the whole corpus into a fresh result
// store, with the process-wide SharedEvalCache cleared first, so each
// pass does the work of one `wsnex run` after its PRD calibration. The
// calibration is the set-up (setup_s, from fresh probe processes). A run
// makes one untimed warm-up pass, then timed passes until --seconds have
// passed. One operation = one scenario of one pass: it fails when the
// scenario is not complete or when its pareto.csv/feasible.csv differ
// byte for byte from a serial (threads=1), progress-off reference of the
// same spec computed after the timed passes.
//
// "Jobs" on a campaign are its scenarios: job latency is the time from
// the start of the pass until run_campaign reports the scenario done, and
// cpu_ms_per_job is the process's CPU time (user + system, all threads)
// over the run_campaign call divided by the scenarios.
//
// The MOSA corpus runs with `--threads 1`. At the default (threads 0) each
// MOSA run fans its speculative lookahead out over a pool and waits for it
// every round; on a shared VM the time of those thousands of hand-offs
// follows how fast the host wakes idle vCPUs, and ten runs of the same
// code spread by 28-36 %. The fan-out's cost is measured per layer
// instead (dse.fanout_cost_s in the traced run).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "corpus.hpp"
#include "dse/eval_cache.hpp"
#include "dsp/prd_calibration.hpp"
#include "layers.hpp"
#include "process.hpp"
#include "scenario/campaign.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/fsio.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sc = wsnex::scenario;
namespace dse = wsnex::dse;
namespace fs = std::filesystem;
using wsnex::util::ThreadPool;

namespace {

/// Peak resident set of this process so far, MiB.
double self_peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// CPU time (user + system, all threads) of this process so far.
double self_cpu_s() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

constexpr std::size_t kSetupProbes = 9;

struct Campaign {
  std::vector<sc::ScenarioSpec> specs;
  sc::CampaignOptions options;
};

Campaign make_campaign(const RunConfig& config) {
  Campaign c;
  const bool nsga2 = config.workload == Workload::kCampaignNsga2;
  c.specs = nsga2 ? nsga2_corpus(config.seed, config.tiny)
                  : mosa_corpus(config.seed, config.tiny);
  if (nsga2) {
    c.options.jobs = std::max(1u, std::thread::hardware_concurrency());
  } else {
    c.options.threads = 1;  // `wsnex run --threads 1`
  }
  return c;
}

struct Archives {
  std::string pareto;
  std::string feasible;
  bool operator==(const Archives&) const = default;
};

/// Distinct archive contents seen per scenario, with how many passes
/// produced each. Usually one entry per scenario.
class ArchiveCheck {
 public:
  explicit ArchiveCheck(std::size_t scenarios) : seen_(scenarios) {}

  void add(std::size_t i, Archives archives) {
    for (auto& [content, count] : seen_[i]) {
      if (content == archives) {
        ++count;
        return;
      }
    }
    seen_[i].emplace_back(std::move(archives), 1);
  }

  /// Fails every recorded operation whose archives differ from `ref`
  /// (all of them when there is no reference).
  void judge(std::size_t i, const std::optional<Archives>& ref,
             const std::string& name, Result& result) const {
    for (const auto& [content, count] : seen_[i]) {
      if (ref && content == *ref) continue;
      for (std::size_t k = 0; k < count; ++k) {
        result.fail(name + ": archives differ from the serial reference");
      }
    }
  }

 private:
  std::vector<std::vector<std::pair<Archives, std::size_t>>> seen_;
};

/// The scenario's archives, or nothing when a file cannot be read.
std::optional<Archives> read_archives(const sc::ResultStore& store,
                                      const std::string& name) {
  try {
    return Archives{wsnex::util::read_file(store.pareto_csv_path(name)),
                    wsnex::util::read_file(store.feasible_csv_path(name))};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct PassOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_s;
  std::size_t evaluations = 0;
};

/// Checks one finished pass: completion from `statuses`, archives into
/// `check`. Removes the pass directory afterwards.
void check_pass(const Campaign& c, const std::string& dir,
                const std::vector<sc::ScenarioStatus>& statuses,
                ArchiveCheck& check, Result& result) {
  const sc::ResultStore store(dir);
  for (std::size_t i = 0; i < c.specs.size(); ++i) {
    ++result.attempted;
    const std::string& name = c.specs[i].name;
    const bool complete = i < statuses.size() && statuses[i].complete &&
                          statuses[i].name == name;
    if (!complete) {
      result.fail(name + ": scenario not complete");
      continue;
    }
    std::optional<Archives> archives = read_archives(store, name);
    if (!archives) {
      result.fail(name + ": archives unreadable");
      continue;
    }
    check.add(i, std::move(*archives));
  }
  fs::remove_all(dir);
}

PassOutcome campaign_pass(const Campaign& c, const std::string& dir,
                          ArchiveCheck& check, Result& result) {
  dse::SharedEvalCache::instance().clear();
  sc::CampaignOptions options = c.options;
  options.out_dir = dir;
  PassOutcome out;
  const double cpu_start = self_cpu_s();
  const double start = now_s();
  // run_campaign serializes its progress callbacks.
  const sc::CampaignReport report = sc::run_campaign(
      c.specs, options, [&](const sc::CampaignOutcome&) {
        out.latency_s.push_back(now_s() - start);
      });
  out.wall_s = now_s() - start;
  out.cpu_s = self_cpu_s() - cpu_start;
  std::vector<sc::ScenarioStatus> statuses;
  for (const sc::CampaignOutcome& o : report.outcomes) {
    statuses.push_back(o.status);
    out.evaluations += o.status.evaluations;
  }
  if (!report.complete) statuses.clear();
  check_pass(c, dir, statuses, check, result);
  return out;
}

/// Runs fn(i, pool) for every scenario the way run_campaign schedules
/// them: serially without a pool for jobs == 1, otherwise as tasks on one
/// shared pool sized by ThreadPool::resolve_layout.
void for_each_scenario(std::size_t count, const sc::CampaignOptions& options,
                       const std::function<void(std::size_t, ThreadPool*)>& fn) {
  if (options.jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i, nullptr);
    return;
  }
  const ThreadPool::Layout layout =
      ThreadPool::resolve_layout(options.jobs, options.threads.value_or(0));
  ThreadPool pool(layout.pool_width);
  pool.run_tasks(count, [&](std::size_t i) { fn(i, &pool); });
}

/// Reference archives: the same specs, serial, threads=1, progress off.
std::vector<std::optional<Archives>> reference_archives(
    const Campaign& c, const std::string& dir) {
  dse::SharedEvalCache::instance().clear();
  sc::CampaignOptions options;
  options.out_dir = dir;
  options.threads = 1;
  options.progress = false;
  sc::run_campaign(c.specs, options);
  const sc::ResultStore store(dir);
  std::vector<std::optional<Archives>> refs;
  for (const sc::ScenarioSpec& spec : c.specs) {
    refs.push_back(read_archives(store, spec.name));
  }
  fs::remove_all(dir);
  return refs;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

struct TracedPass {
  double wall_s = 0.0;
  Ledger ledger;
};

/// The workload pass rebuilt from the public calls run_campaign makes —
/// ResultStore::initialize, then execute_scenario + record_complete per
/// scenario on the same pool layout — with a span around each call.
TracedPass traced_pass(const Campaign& c, const std::string& dir,
                       Tracer& tracer, ArchiveCheck& check, Result& result) {
  dse::SharedEvalCache& cache = dse::SharedEvalCache::instance();
  cache.clear();
  sc::CampaignOptions options = c.options;
  options.out_dir = dir;
  TracedPass out;
  std::vector<sc::ScenarioStatus> statuses(c.specs.size());
  const std::uint32_t first = tracer.next_id();
  const double start = now_s();
  std::optional<sc::ResultStore> store;
  {
    const Span span(&tracer, "scenario.store_init");
    store.emplace(dir);
    store->initialize(c.specs, options.quick);
  }
  {
    const Span region(&tracer, "campaign.scenarios");
    std::mutex store_mutex;
    const auto run_one = [&](std::size_t i, ThreadPool* pool) {
      sc::ScenarioStatus status;
      {
        const Span span(&tracer, "scenario.execute", region.id());
        status = sc::execute_scenario(c.specs[i], options, *store, pool,
                                      &cache);
      }
      const std::lock_guard<std::mutex> lock(store_mutex);
      const Span span(&tracer, "scenario.record_complete", region.id());
      store->record_complete(status);
      statuses[i] = status;
    };
    for_each_scenario(c.specs.size(), options, run_one);
  }
  out.wall_s = now_s() - start;
  out.ledger = build_ledger(tracer.spans(first), 1, out.wall_s);
  check_pass(c, dir, statuses, check, result);
  return out;
}

double phase_total(const Ledger& ledger, const std::string& name) {
  for (const PhaseTotal& phase : ledger.phases) {
    if (phase.name == name) return phase.total_s;
  }
  return 0.0;
}

void add_ledger(Ledger& total, const Ledger& pass) {
  total.wall_s += pass.wall_s;
  total.phases_s += pass.phases_s;
  total.unaccounted_s += pass.unaccounted_s;
  for (const PhaseTotal& phase : pass.phases) {
    auto it = std::find_if(total.phases.begin(), total.phases.end(),
                           [&](const PhaseTotal& p) {
                             return p.name == phase.name;
                           });
    if (it == total.phases.end()) {
      total.phases.push_back(phase);
    } else {
      it->count += phase.count;
      it->total_s += phase.total_s;
      it->self_s += phase.self_s;
    }
  }
}

}  // namespace

Result run_campaign_workload(const RunConfig& config) {
  const Campaign c = make_campaign(config);
  Result result;
  ArchiveCheck check(c.specs.size());
  std::size_t pass_index = 0;
  const auto pass_dir = [&] {
    return config.work_dir + "/pass-" + std::to_string(pass_index++);
  };
  std::printf("%s: %zu scenarios, jobs %zu, progress on\n",
              to_string(config.workload), c.specs.size(), c.options.jobs);

  if (!config.trace) {
    std::vector<double> setup;
    for (std::size_t k = 0; k < kSetupProbes; ++k) {
      setup.push_back(probe_calibration_setup(config.self_exe));
    }
    wsnex::dsp::default_prd_curves();
    campaign_pass(c, pass_dir(), check, result);  // warm-up

    // Every figure is taken per pass (latency percentiles within the
    // pass) and reported as the interquartile mean over passes.
    std::vector<double> walls;
    std::vector<double> evals_per_s;
    std::vector<double> jobs_per_s;
    std::vector<double> cpu_ms_per_job;
    std::vector<double> p50_ms;
    std::vector<double> p95_ms;
    std::size_t samples = 0;
    const double deadline = now_s() + config.seconds;
    do {
      const PassOutcome pass =
          campaign_pass(c, pass_dir(), check, result);
      walls.push_back(pass.wall_s);
      evals_per_s.push_back(static_cast<double>(pass.evaluations) /
                            pass.wall_s);
      jobs_per_s.push_back(static_cast<double>(pass.latency_s.size()) /
                           pass.wall_s);
      cpu_ms_per_job.push_back(pass.cpu_s * 1e3 /
                               static_cast<double>(c.specs.size()));
      std::vector<double> latency_ms;
      for (double s : pass.latency_s) latency_ms.push_back(s * 1e3);
      p50_ms.push_back(percentile(latency_ms, 0.50).value);
      p95_ms.push_back(percentile(latency_ms, 0.95).value);
      samples += latency_ms.size();
    } while (now_s() < deadline);
    const double rss_mb = self_peak_rss_mb();

    const auto refs =
        reference_archives(c, config.work_dir + "/reference");
    for (std::size_t i = 0; i < c.specs.size(); ++i) {
      check.judge(i, refs[i], c.specs[i].name, result);
    }

    std::printf("timed passes %zu, %zu scenario latency samples (%zu per "
                "pass)\n",
                walls.size(), samples, c.specs.size());
    result.add("setup_s", interquartile_mean(setup), "s");
    result.add("wall_s", interquartile_mean(walls), "s");
    result.add("evals_per_s", interquartile_mean(evals_per_s), "1/s");
    result.add("job_latency_p50_ms", interquartile_mean(p50_ms), "ms");
    result.add("job_latency_p95_ms", interquartile_mean(p95_ms), "ms");
    result.add("jobs_per_s", interquartile_mean(jobs_per_s), "1/s");
    result.add("cpu_ms_per_job", interquartile_mean(cpu_ms_per_job), "ms");
    result.add("peak_rss_mb", rss_mb, "MiB");
    return result;
  }

  Tracer tracer(true);
  double calibrate_s = 0.0;
  {
    const Span span(&tracer, "dsp.calibrate", 0, 0, false);
    const double t0 = now_s();
    wsnex::dsp::default_prd_curves();
    calibrate_s = now_s() - t0;
  }
  campaign_pass(c, pass_dir(), check, result);  // warm-up

  // Untraced and traced passes alternate in one process; the difference
  // of their walls is the tracing overhead.
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  Ledger ledger;
  const double deadline = now_s() + config.seconds;
  do {
    untraced_walls.push_back(
        campaign_pass(c, pass_dir(), check, result).wall_s);
    const TracedPass pass = traced_pass(c, pass_dir(), tracer, check, result);
    traced_walls.push_back(pass.wall_s);
    add_ledger(ledger, pass.ledger);
  } while (now_s() < deadline);
  const double passes = static_cast<double>(traced_walls.size());

  const LayerProbe probe =
      probe_layers(c.specs, c.options, config.work_dir + "/aux", tracer);

  const auto refs =
      reference_archives(c, config.work_dir + "/reference");
  for (std::size_t i = 0; i < c.specs.size(); ++i) {
    check.judge(i, refs[i], c.specs[i].name, result);
  }
  write_spans(tracer.spans(), config.work_dir + "/spans.jsonl");

  const std::string what =
      "per pass, mean of " + std::to_string(traced_walls.size()) +
      " traced passes";
  print_ledger(ledger, passes, what.c_str());
  const double untraced = interquartile_mean(untraced_walls);
  const double traced = interquartile_mean(traced_walls);
  std::printf("tracing overhead: traced wall %.6f s - untraced wall %.6f s "
              "= %.6f s per pass\n",
              traced, untraced, traced - untraced);

  add_layer_metrics(result, probe, calibrate_s);
  result.add("scenario.execute_s",
             phase_total(ledger, "scenario.execute") / passes, "s");
  result.add("scenario.record_complete_s",
             phase_total(ledger, "scenario.record_complete") / passes, "s");
  result.add("scenario.store_init_s",
             phase_total(ledger, "scenario.store_init") / passes, "s");
  result.add("scenario.unaccounted_s", ledger.unaccounted_s / passes, "s");
  add_unexercised_validate_metrics(result);
  add_unexercised_serve_metrics(result);
  result.add("trace.overhead_ratio", traced / untraced - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
