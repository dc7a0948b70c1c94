// Campaign-service throughput: end-to-end jobs/s and submit-to-complete
// latency through the real HTTP front end (loopback socket, JSON bodies,
// scheduler, result store), over a concurrent-clients axis, cold vs warm
// shared evaluation cache. Plain main(), no google-benchmark dependency.
//
//   ./bench/bench_serve_throughput [--json[=PATH]] [--quick]
//
// Each phase boots a fresh scheduler+server pair on an ephemeral port
// with a fresh data dir; "cold" additionally clears the process-wide
// dse::SharedEvalCache, "warm" inherits the previous phase's entries —
// the daemon's steady state, where identical design evaluations are
// served from memory.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dse/eval_cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;

using wsnex::bench::now_s;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnex;
  bench::Args args;
  if (!bench::parse_args(argc, argv, args)) return 2;
  const bool quick = args.quick;

  const std::vector<std::size_t> client_axis =
      quick ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 16};
  const std::size_t jobs_per_client = quick ? 2 : 4;
  const fs::path root =
      fs::temp_directory_path() /
      ("wsnex_bench_serve_" + std::to_string(::getpid()));

  util::Table table({"clients", "cache", "jobs", "wall [s]", "jobs/s",
                     "p50 [ms]", "p99 [ms]"});
  util::Json out = util::Json::object();
  out.set("bench", "serve_throughput");
  out.set("unit", "seconds of wall clock (wall_s), jobs per second, "
                  "submit-to-complete latency in ms");
  out.set("method",
          std::string("one fresh 2-slot scheduler + loopback HTTP server per "
                      "(clients, cache) row; each client submits its quick "
                      "hospital_ward_2 campaign jobs one at a time and polls "
                      "every 5 ms until complete; cold clears the shared "
                      "evaluation cache first, warm inherits it; timed once; ") +
              (quick ? "--quick" : "full") + " sizes");
  out.set("provenance", bench::provenance());
  out.set("quick", quick);
  out.set("jobs_per_client", jobs_per_client);
  util::Json rows = util::Json::array();

  bool ok = true;
  std::size_t phase_seq = 0;
  for (const std::size_t clients : client_axis) {
    for (const char* cache : {"cold", "warm"}) {
      if (std::strcmp(cache, "cold") == 0) {
        dse::SharedEvalCache::instance().clear();
      }
      serve::SchedulerOptions sopts;
      sopts.data_dir = (root / std::to_string(++phase_seq)).string();
      sopts.slots = 2;
      sopts.max_queued_jobs = clients * jobs_per_client + 1;
      serve::JobScheduler scheduler(sopts);
      serve::HttpServer server(scheduler, serve::ServerOptions{});
      server.start();
      scheduler.start();
      const std::uint16_t port = server.port();

      std::mutex mutex;
      std::vector<double> latencies;
      bool failed = false;
      const double start = now_s();
      std::vector<std::thread> pack;
      for (std::size_t c = 0; c < clients; ++c) {
        pack.emplace_back([&, c] {
          const serve::Client client(port);
          for (std::size_t j = 0; j < jobs_per_client; ++j) {
            util::Json job = util::Json::object();
            job.set("kind", "campaign");
            job.set("quick", true);
            util::Json scenarios = util::Json::array();
            scenarios.push_back(util::Json("hospital_ward_2"));
            job.set("scenarios", std::move(scenarios));
            const double submit = now_s();
            try {
              const std::string id =
                  client.submit(job).at("id").as_string();
              const util::Json done = client.wait(id, /*poll_ms=*/5);
              const double latency = now_s() - submit;
              std::lock_guard<std::mutex> lk(mutex);
              latencies.push_back(latency);
              if (done.at("state").as_string() != "complete") failed = true;
            } catch (const std::exception& e) {
              std::fprintf(stderr, "client %zu job %zu: %s\n", c, j,
                           e.what());
              std::lock_guard<std::mutex> lk(mutex);
              failed = true;
            }
          }
        });
      }
      for (std::thread& t : pack) t.join();
      const double wall = now_s() - start;
      server.stop();
      scheduler.drain();

      const std::size_t jobs = clients * jobs_per_client;
      const double jobs_per_s = wall > 0.0 ? jobs / wall : 0.0;
      const double p50_ms = percentile(latencies, 0.50) * 1e3;
      const double p99_ms = percentile(latencies, 0.99) * 1e3;
      ok = ok && !failed && latencies.size() == jobs;

      table.add_row({std::to_string(clients), cache, std::to_string(jobs),
                     util::Table::num(wall, 3), util::Table::num(jobs_per_s, 2),
                     util::Table::num(p50_ms, 1), util::Table::num(p99_ms, 1)});
      util::Json row = util::Json::object();
      row.set("clients", clients);
      row.set("cache", cache);
      row.set("jobs", jobs);
      row.set("wall_s", wall);
      row.set("jobs_per_s", jobs_per_s);
      row.set("p50_ms", p50_ms);
      row.set("p99_ms", p99_ms);
      row.set("passed", !failed);
      rows.push_back(std::move(row));
    }
  }
  out.set("runs", std::move(rows));

  std::error_code ec;
  fs::remove_all(root, ec);

  std::printf("=== Campaign service throughput (quick campaign jobs over "
              "HTTP, %zu job(s)/client) ===\n\n%s\n",
              jobs_per_client, table.render().c_str());
  if (args.json && !bench::emit_json(out, args.json_path)) return 2;
  if (!ok) {
    std::fprintf(stderr, "bench_serve_throughput: at least one job failed\n");
    return 1;
  }
  return 0;
}
