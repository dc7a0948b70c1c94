// serve_mixed: the shipped `wsnex serve` daemon (default flags) driven by
// a closed loop of four clients, each submitting its next job only when
// the previous one is terminal and a fixed think time has passed. Jobs
// come from the generated stream in order.
//
// A client observes completion by long-polling the job's event stream
// (Client::events with wait), so no poll period quantizes latency; when a
// page reports dropped events it asks status() once, since the lost
// events may include job_started. Latency runs from just before submit
// until the client sees job_finished (or a terminal status).
//
// Set-up is measured five times per run: daemon spawn until /healthz
// answers and one warm-up job has finished (which includes the daemon's
// lazy PRD calibration). The last daemon serves the timed loop.
// cpu_ms_per_job is the daemon's CPU time (user + system, from wait4) over
// the loop, divided by the jobs it ran. Latency percentiles are printed,
// overall and by kind of job, but not listed in BENCHMARK.json: a job here
// is tens of thread hand-offs and HTTP round trips, so its latency follows
// how fast a shared VM wakes idle vCPUs. On a 4-vCPU VM the p95 (held by
// the MOSA jobs) read 150-330 ms across runs of the same code minutes
// apart, while the daemon's CPU time per job moved by about a tenth.
//
// One operation = one submitted job. It fails when it is refused, an
// HTTP exchange fails, it does not end complete, a campaign scenario's
// summary (evaluations, front_size, feasible_size, best_feasible) differs
// from a serial threads=1 progress-off reference of the same spec, or a
// validation scenario's report did not pass.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "corpus.hpp"
#include "dse/eval_cache.hpp"
#include "dsp/prd_calibration.hpp"
#include "layers.hpp"
#include "process.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "serve/client.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "validate/validation.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sc = wsnex::scenario;
namespace sv = wsnex::serve;
namespace fs = std::filesystem;
using wsnex::util::Json;

void add_unexercised_serve_metrics(Result& result) {
  result.add("serve.submit_ms", 0.0, "ms");
  result.add("serve.start_wait_ms", 0.0, "ms");
  result.add("serve.run_ms", 0.0, "ms");
  result.add("serve.events_dropped", 0.0, "count");
  result.add("serve.status_fallbacks", 0.0, "count");
  result.add("serve.refused", 0.0, "count");
  result.add("serve.http_requests_per_job", 0.0, "count");
}

void add_unexercised_validate_metrics(Result& result) {
  result.add("validate.run_s", 0.0, "s");
  result.add("sim.sim_s_per_host_s", 0.0, "s/s");
}

namespace {

constexpr std::size_t kSetupDaemons = 5;
constexpr int kLongPollMs = 10000;
constexpr int kClientTimeoutMs = 60000;
/// Think time between a client's jobs. It keeps the daemon below
/// saturation, so latency measures the request path rather than a queue
/// whose length follows the host's momentary speed, and it bounds the job
/// count, which the daemon's memory grows with (job records and their
/// event rings stay resident). At 100 ms the job count, and with it
/// jobs_per_s and peak RSS, still moved with the host's speed by 12-14 %
/// over five runs; at 200 ms by 4-7 % over ten.
constexpr std::chrono::milliseconds kThinkTime{200};

std::size_t client_count() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

struct Daemon {
  std::unique_ptr<ChildProcess> process;
  std::uint16_t port = 0;
};

Daemon start_daemon(const RunConfig& config, const std::string& dir) {
  fs::create_directories(dir);
  const std::string port_file = dir + "/port";
  Daemon d;
  d.process = std::make_unique<ChildProcess>(
      std::vector<std::string>{config.wsnex_exe, "serve", "--data",
                               dir + "/data", "--port-file", port_file},
      dir + "/daemon.log");
  const double deadline = now_s() + 60.0;
  while (d.port == 0) {
    if (now_s() > deadline) throw std::runtime_error("daemon did not start");
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port) {
      d.port = static_cast<std::uint16_t>(port);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (;;) {
    try {
      sv::Client(d.port, 2000).health();
      return d;
    } catch (const std::exception&) {
      if (now_s() > deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// What one client saw of one job.
struct JobObservation {
  std::size_t index = 0;  ///< position in the job stream
  bool ok = false;        ///< ended complete and its results were fetched
  bool refused = false;
  std::string error;
  double finished_at = 0.0;  ///< now_s() when the end was observed
  double latency_ms = 0.0;
  double submit_ms = 0.0;
  double start_wait_ms = -1.0;  ///< -1: job_started not observed
  double run_ms = -1.0;
  std::uint64_t dropped = 0;
  bool fallback = false;
  std::size_t requests = 0;
  bool traced = false;  ///< observed by a client that recorded spans
  Json results;
};

JobObservation run_job(const sv::Client& client, const sv::JobSpec& job,
                       std::size_t index, Tracer* tracer,
                       std::uint32_t lane) {
  JobObservation o;
  o.index = index;
  const Json body = job.to_json();
  const double t0 = now_s();
  try {
    std::string id;
    {
      const Span span(tracer, "client.submit", 0, lane);
      ++o.requests;
      id = client.submit(body).at("id").as_string();
    }
    o.submit_ms = (now_s() - t0) * 1e3;
    std::uint64_t cursor = 0;
    double started = -1.0;
    double finished = -1.0;
    std::string state;
    while (finished < 0.0) {
      Json page;
      {
        const Span span(tracer, "client.events", 0, lane);
        ++o.requests;
        page = client.events(id, cursor, kLongPollMs);
      }
      const double seen = now_s();
      const auto dropped =
          static_cast<std::uint64_t>(page.at("dropped").as_int64());
      o.dropped += dropped;
      for (const Json& event : page.at("events").as_array()) {
        const std::string& kind = event.at("kind").as_string();
        if (kind == "job_started" && started < 0.0) started = seen;
        if (kind == "job_finished") {
          finished = seen;
          state = event.at("detail").as_string();
        }
      }
      cursor = static_cast<std::uint64_t>(page.at("next").as_int64());
      if (dropped > 0 && finished < 0.0) {
        o.fallback = true;
        const Span span(tracer, "client.status", 0, lane);
        ++o.requests;
        const Json status = client.status(id);
        const std::string& now_state = status.at("state").as_string();
        if (sv::is_terminal(sv::job_state_from_string(now_state))) {
          finished = now_s();
          state = now_state;
        }
      }
    }
    o.finished_at = finished;
    o.latency_ms = (finished - t0) * 1e3;
    if (started >= 0.0) {
      o.start_wait_ms = (started - t0) * 1e3;
      o.run_ms = (finished - started) * 1e3;
    }
    if (state != "complete") {
      o.error = "job " + id + " ended " + state;
      return o;
    }
    const Span span(tracer, "client.results", 0, lane);
    ++o.requests;
    o.results = client.results(id);
    o.ok = true;
  } catch (const sv::ServeApiError& e) {
    o.refused = e.status() == 429 || e.status() == 503;
    o.error = std::string("HTTP ") + std::to_string(e.status()) + ": " +
              e.what();
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

struct Loop {
  double start = 0.0;
  std::vector<JobObservation> jobs;
  double wall_s = 0.0;         ///< first submit until the last client ended
  double traced_wall_s = 0.0;  ///< Σ wall of the clients that traced
};

/// Runs the closed loop for `seconds`. Between two jobs a client thinks
/// for kThinkTime. The first `traced_clients` clients record spans into
/// `tracer` (lanes 1..traced_clients); the others run untraced at the
/// same time, so the two groups' latencies give the tracing overhead.
Loop closed_loop(std::uint16_t port, const std::vector<sv::JobSpec>& stream,
                 double seconds, Tracer* tracer, std::size_t traced_clients) {
  Loop loop;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  const double start = now_s();
  const double deadline = start + seconds;
  loop.start = start;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < client_count(); ++c) {
    clients.emplace_back([&, c] {
      const bool traced = c < traced_clients;
      const auto lane = static_cast<std::uint32_t>(c + 1);
      const sv::Client client(port, kClientTimeoutMs);
      std::vector<JobObservation> mine;
      while (now_s() < deadline) {
        const std::size_t index = next.fetch_add(1);
        mine.push_back(run_job(client, stream[index % stream.size()], index,
                               traced ? tracer : nullptr, lane));
        mine.back().traced = traced;
        const Span span(traced ? tracer : nullptr, "client.think", 0, lane);
        std::this_thread::sleep_for(kThinkTime);
      }
      const double end = now_s();
      const std::lock_guard<std::mutex> lock(mutex);
      if (traced) loop.traced_wall_s += end - start;
      loop.wall_s = std::max(loop.wall_s, end - start);
      for (JobObservation& o : mine) loop.jobs.push_back(std::move(o));
    });
  }
  for (std::thread& t : clients) t.join();
  std::sort(loop.jobs.begin(), loop.jobs.end(),
            [](const JobObservation& a, const JobObservation& b) {
              return a.index < b.index;
            });
  return loop;
}

/// A warm-up job: awaited the same way the loop awaits its jobs.
void warm_up(std::uint16_t port) {
  sv::JobSpec job;
  job.quick = true;
  job.scenarios.push_back(sc::preset("hospital_ward_2"));
  const JobObservation o =
      run_job(sv::Client(port, kClientTimeoutMs), job, 0, nullptr, 0);
  if (!o.ok) throw std::runtime_error("warm-up job failed: " + o.error);
}

struct SummaryRef {
  Json fields;  ///< evaluations, front_size, feasible_size, best_feasible
};

Json summary_fields(const Json& summary) {
  Json out = Json::object();
  for (const char* key :
       {"evaluations", "front_size", "feasible_size", "best_feasible"}) {
    const Json* v = summary.find(key);
    out.set(key, v != nullptr ? *v : Json());
  }
  return out;
}

/// Serial, threads=1, progress-off reference summaries of every distinct
/// campaign scenario the observed jobs ran.
std::map<std::string, Json> reference_summaries(
    const std::vector<sv::JobSpec>& stream, const Loop& loop,
    const std::string& dir) {
  std::map<std::string, sc::ScenarioSpec> distinct;
  for (const JobObservation& o : loop.jobs) {
    const sv::JobSpec& job = stream[o.index % stream.size()];
    if (job.kind != sv::JobKind::kCampaign) continue;
    for (const sc::ScenarioSpec& spec : job.scenarios) {
      distinct.emplace(spec.name, spec);
    }
  }
  std::map<std::string, Json> refs;
  if (distinct.empty()) return refs;
  std::vector<sc::ScenarioSpec> specs;
  for (const auto& [name, spec] : distinct) specs.push_back(spec);
  wsnex::dse::SharedEvalCache::instance().clear();
  sc::CampaignOptions options;
  options.out_dir = dir;
  options.threads = 1;
  options.progress = false;
  sc::run_campaign(specs, options);
  const sc::ResultStore store(dir);
  for (const sc::ScenarioSpec& spec : specs) {
    refs[spec.name] = summary_fields(store.load_summary(spec.name));
  }
  fs::remove_all(dir);
  return refs;
}

/// Counts every observed job as one operation; returns, per job, the
/// evaluations of its campaign scenarios (0 for a failed job).
std::vector<std::size_t> check_jobs(const std::vector<sv::JobSpec>& stream,
                                    const Loop& loop,
                                    const std::map<std::string, Json>& refs,
                                    Result& result) {
  std::vector<std::size_t> evaluations(loop.jobs.size(), 0);
  for (std::size_t k = 0; k < loop.jobs.size(); ++k) {
    const JobObservation& o = loop.jobs[k];
    ++result.attempted;
    const std::string label = "job #" + std::to_string(o.index);
    if (!o.ok) {
      result.fail(label + ": " + o.error);
      continue;
    }
    const sv::JobSpec& job = stream[o.index % stream.size()];
    const Json::Array& entries = o.results.at("scenarios").as_array();
    std::string problem;
    std::size_t job_evaluations = 0;
    if (entries.size() != job.scenarios.size()) problem = "scenario count";
    for (const Json& entry : entries) {
      if (!problem.empty()) break;
      const std::string& name = entry.at("name").as_string();
      if (!entry.at("complete").as_bool()) {
        problem = name + " not complete";
      } else if (job.kind == sv::JobKind::kCampaign) {
        const Json* summary = entry.find("summary");
        const auto ref = refs.find(name);
        if (summary == nullptr || ref == refs.end() ||
            !(summary_fields(*summary) == ref->second)) {
          problem = name + " summary differs from the serial reference";
        } else {
          job_evaluations += static_cast<std::size_t>(
              summary->at("evaluations").as_int64());
        }
      } else {
        const Json* report = entry.find("validation");
        if (report == nullptr || !report->at("passed").as_bool()) {
          problem = name + " validation did not pass";
        }
      }
    }
    if (!problem.empty()) {
      result.fail(label + ": " + problem);
    } else {
      evaluations[k] = job_evaluations;
    }
  }
  return evaluations;
}

/// Latency percentiles of a loop: taken within each whole three-second
/// window (by the time a job's end was observed), then the interquartile
/// mean over the windows (see stats.hpp).
std::pair<double, double> windowed_p50_p95(const Loop& loop) {
  const double width = std::min(3.0, loop.wall_s);
  std::vector<std::vector<double>> windows(
      static_cast<std::size_t>(std::max(1.0, loop.wall_s / width)));
  for (const JobObservation& o : loop.jobs) {
    const double at = o.finished_at - loop.start;
    if (!o.ok || at < 0.0) continue;
    if (const auto w = static_cast<std::size_t>(at / width);
        w < windows.size()) {
      windows[w].push_back(o.latency_ms);
    }
  }
  std::vector<double> p50;
  std::vector<double> p95;
  for (const std::vector<double>& window : windows) {
    if (window.empty()) continue;
    p50.push_back(percentile(window, 0.50).value);
    p95.push_back(percentile(window, 0.95).value);
  }
  return {interquartile_mean(std::move(p50)),
          interquartile_mean(std::move(p95))};
}

/// Printed beside the percentiles: latency by kind of job, so a reader
/// can see which group of jobs the p95 falls in.
void print_latency_by_kind(const Loop& loop,
                           const std::vector<sv::JobSpec>& stream) {
  std::map<std::string, std::vector<double>> groups;
  std::map<std::string, std::size_t> requests;
  for (const JobObservation& o : loop.jobs) {
    if (!o.ok) continue;
    const sv::JobSpec& job = stream[o.index % stream.size()];
    std::string kind = "validation";
    if (job.kind == sv::JobKind::kCampaign) {
      kind = job.scenarios.front().optimizer.kind == sc::OptimizerKind::kMosa
                 ? "mosa"
                 : "nsga2 x" + std::to_string(job.scenarios.size());
    }
    groups[kind].push_back(o.latency_ms);
    requests[kind] += o.requests;
  }
  for (const auto& [kind, latency_ms] : groups) {
    std::printf("  %-12s %4zu jobs, latency p50 %.3f ms, p95 %.3f ms, "
                "%.1f HTTP requests per job\n",
                kind.c_str(), latency_ms.size(),
                percentile(latency_ms, 0.50).value,
                percentile(latency_ms, 0.95).value,
                static_cast<double>(requests[kind]) /
                    static_cast<double>(latency_ms.size()));
  }
}

std::vector<double> collect(const Loop& loop,
                            double JobObservation::*field) {
  std::vector<double> out;
  for (const JobObservation& o : loop.jobs) {
    if (o.ok && o.*field >= 0.0) out.push_back(o.*field);
  }
  return out;
}

}  // namespace

Result run_serve_workload(const RunConfig& config) {
  const std::vector<sv::JobSpec> stream = serve_jobs(config.seed, config.tiny);
  Result result;
  std::printf("serve_mixed: %zu closed-loop clients, job stream of %zu\n",
              client_count(), stream.size());

  if (!config.trace) {
    // The CPU time of a daemon that only started and ran the warm-up job
    // (the earlier set-up daemons) is taken off the last daemon's, which
    // also served the loop.
    std::vector<double> setup;
    std::vector<double> setup_cpu_s;
    Daemon daemon;
    for (std::size_t k = 0; k < kSetupDaemons; ++k) {
      if (daemon.process) {
        setup_cpu_s.push_back(daemon.process->stop(30.0).cpu_s);
      }
      const double t0 = now_s();
      daemon = start_daemon(config,
                            config.work_dir + "/daemon-" + std::to_string(k));
      warm_up(daemon.port);
      setup.push_back(now_s() - t0);
    }
    const Loop loop =
        closed_loop(daemon.port, stream, config.seconds, nullptr, 0);
    const ChildUsage usage = daemon.process->stop(30.0);
    const double loop_cpu_s = usage.cpu_s - median(setup_cpu_s);

    const auto refs =
        reference_summaries(stream, loop, config.work_dir + "/reference");
    const std::vector<std::size_t> evaluations =
        check_jobs(stream, loop, refs, result);
    const std::vector<double> latency =
        collect(loop, &JobObservation::latency_ms);
    const auto [p50, p95] = windowed_p50_p95(loop);
    std::printf("jobs %zu, %zu latency samples, about %.0f per three-second "
                "window\n",
                loop.jobs.size(), latency.size(),
                static_cast<double>(latency.size()) * 3.0 / loop.wall_s);
    print_latency_by_kind(loop, stream);
    result.add("setup_s", interquartile_mean(setup), "s");
    result.add("wall_s", loop.wall_s, "s");
    result.add("evals_per_s",
               static_cast<double>(std::accumulate(evaluations.begin(),
                                                   evaluations.end(),
                                                   std::size_t{0})) /
                   loop.wall_s,
               "1/s");
    result.add("job_latency_p50_ms", p50, "ms");
    result.add("job_latency_p95_ms", p95, "ms");
    result.add("jobs_per_s",
               static_cast<double>(latency.size()) / loop.wall_s, "1/s");
    result.add("cpu_ms_per_job",
               loop_cpu_s * 1e3 /
                   static_cast<double>(std::max<std::size_t>(
                       loop.jobs.size(), 1)),
               "ms");
    result.add("peak_rss_mb", usage.peak_rss_mb, "MiB");
    return result;
  }

  // Traced run: half of the clients record spans.
  Tracer tracer(true);
  Daemon daemon = start_daemon(config, config.work_dir + "/daemon");
  warm_up(daemon.port);
  const std::size_t traced_clients = std::max<std::size_t>(
      1, client_count() / 2);
  const Loop loop = closed_loop(daemon.port, stream, config.seconds, &tracer,
                                traced_clients);
  const std::vector<SpanRecord> loop_spans = tracer.spans();
  daemon.process->stop(30.0);

  double calibrate_s = 0.0;
  {
    const Span span(&tracer, "dsp.calibrate", 0, 0, false);
    const double t0 = now_s();
    wsnex::dsp::default_prd_curves();
    calibrate_s = now_s() - t0;
  }

  // Layer probes on a prefix of what the daemon ran: the first distinct
  // campaign scenarios and the first validation jobs, in stream order,
  // run in-process as the daemon runs them (threads=1, progress on).
  constexpr std::size_t kProbeScenarios = 12;
  constexpr std::size_t kProbeValidations = 6;
  std::vector<sc::ScenarioSpec> probe_specs;
  std::vector<const sv::JobSpec*> probe_validations;
  for (std::size_t i = 0; i < loop.jobs.size(); ++i) {
    const sv::JobSpec& job = stream[i % stream.size()];
    if (job.kind == sv::JobKind::kValidation) {
      if (probe_validations.size() < kProbeValidations) {
        probe_validations.push_back(&job);
      }
      continue;
    }
    for (const sc::ScenarioSpec& spec : job.scenarios) {
      const bool seen = std::any_of(
          probe_specs.begin(), probe_specs.end(),
          [&](const sc::ScenarioSpec& s) { return s.name == spec.name; });
      if (!seen && probe_specs.size() < kProbeScenarios) {
        probe_specs.push_back(spec);
      }
    }
  }
  sc::CampaignOptions daemon_options;  // as the scheduler fills them
  daemon_options.threads = 1;
  const LayerProbe probe =
      probe_layers(probe_specs, daemon_options, config.work_dir + "/aux",
                   tracer);
  double validate_s = 0.0;
  double simulated_s = 0.0;
  for (const sv::JobSpec* job : probe_validations) {
    wsnex::validate::ValidationOptions vopts;
    vopts.plan.replicates = job->validation.replicates;
    vopts.plan.duration_s = job->validation.duration_s;
    vopts.plan.base_seed = job->validation.base_seed;
    vopts.plan.jobs = 1;
    vopts.tolerance_percent = job->validation.tolerance_percent;
    for (const sc::ScenarioSpec& spec : job->scenarios) {
      const Span span(&tracer, "validate.run_validation", 0, 0, false);
      const double t0 = now_s();
      wsnex::validate::run_validation(spec, vopts);
      validate_s += now_s() - t0;
      simulated_s += static_cast<double>(job->validation.replicates) *
                     job->validation.duration_s;
    }
  }

  const auto refs =
      reference_summaries(stream, loop, config.work_dir + "/reference");
  check_jobs(stream, loop, refs, result);
  write_spans(tracer.spans(), config.work_dir + "/spans.jsonl");

  const Ledger ledger = build_ledger(loop_spans, 1, loop.traced_wall_s);
  const std::string what = "the " + std::to_string(traced_clients) +
                           " traced clients' lanes, summed";
  print_ledger(ledger, 1.0, what.c_str());
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (const JobObservation& o : loop.jobs) {
    if (o.ok) (o.traced ? traced_ms : untraced_ms).push_back(o.latency_ms);
  }
  const double traced_mean = mean(traced_ms);
  const double untraced_mean = mean(untraced_ms);
  std::printf("tracing overhead: mean job latency traced %.3f ms (%zu jobs) "
              "- untraced %.3f ms (%zu jobs) = %.3f ms\n",
              traced_mean, traced_ms.size(), untraced_mean,
              untraced_ms.size(), traced_mean - untraced_mean);

  add_layer_metrics(result, probe, calibrate_s);
  result.add("scenario.execute_s", sum(probe.execute_on_s), "s");
  result.add("scenario.record_complete_s", probe.record_complete_s, "s");
  result.add("scenario.store_init_s", probe.store_init_s, "s");
  result.add("scenario.unaccounted_s", ledger.unaccounted_s, "s");
  result.add("validate.run_s", validate_s, "s");
  result.add("sim.sim_s_per_host_s",
             validate_s > 0.0 ? simulated_s / validate_s : 0.0, "s/s");

  std::uint64_t dropped = 0;
  std::size_t fallbacks = 0;
  std::size_t refused = 0;
  std::size_t requests = 0;
  for (const JobObservation& o : loop.jobs) {
    dropped += o.dropped;
    fallbacks += o.fallback ? 1 : 0;
    refused += o.refused ? 1 : 0;
    requests += o.requests;
  }
  result.add("serve.submit_ms",
             median(collect(loop, &JobObservation::submit_ms)), "ms");
  result.add("serve.start_wait_ms",
             median(collect(loop, &JobObservation::start_wait_ms)), "ms");
  result.add("serve.run_ms", median(collect(loop, &JobObservation::run_ms)),
             "ms");
  result.add("serve.events_dropped", static_cast<double>(dropped), "count");
  result.add("serve.status_fallbacks", static_cast<double>(fallbacks),
             "count");
  result.add("serve.refused", static_cast<double>(refused), "count");
  result.add("serve.http_requests_per_job",
             static_cast<double>(requests) /
                 static_cast<double>(std::max<std::size_t>(
                     loop.jobs.size(), 1)),
             "count");
  result.add("trace.overhead_ratio",
             untraced_mean > 0.0 ? traced_mean / untraced_mean - 1.0 : 0.0,
             "ratio");
  return result;
}

}  // namespace perfbench
