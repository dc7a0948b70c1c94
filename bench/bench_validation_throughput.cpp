// Monte Carlo validation throughput: replicated packet simulations per
// second, serial vs the ThreadPool jobs axis, over a representative
// preset mix (ideal TDMA, Gilbert-Elliott burst channel, CSMA
// contention). Plain main(), no google-benchmark dependency.
//
//   ./bench/bench_validation_throughput [--json[=PATH]] [--quick]
//
// The process-wide PRD calibration is forced before the first timed row,
// so no row is charged the calibration cold start.
//
// The jobs axis never changes a report (counter-derived replicate seeds,
// index-ordered aggregation) — this driver additionally asserts that by
// comparing serialized reports across jobs counts, so the bench doubles
// as a determinism check at bench scale.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dsp/prd_calibration.hpp"
#include "scenario/registry.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "validate/validation.hpp"

namespace {

using wsnex::bench::now_s;

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnex;
  bench::Args args;
  if (!bench::parse_args(argc, argv, args)) return 2;
  const bool quick = args.quick;

  const std::size_t replicates = quick ? 8 : 32;
  const double duration_s = quick ? 30.0 : 120.0;
  const std::vector<std::string> presets = {"hospital_ward_6",
                                            "bursty_channel_6",
                                            "contended_csma_6"};
  const std::vector<std::size_t> jobs_axis = {1, 2, 4};

  util::Table table({"preset", "jobs", "replicates", "wall [s]",
                     "replicates/s", "verdict"});
  util::Json out = util::Json::object();
  out.set("bench", "validation_throughput");
  out.set("unit", "seconds of wall clock (wall_s), replicates per second");
  out.set("method",
          std::string("one run_validation() call per (preset, jobs) row, "
                      "timed once; PRD calibration forced untimed before "
                      "the first row; ") +
              (quick ? "--quick" : "full") + " sizes");
  out.set("provenance", bench::provenance());
  out.set("replicates", replicates);
  out.set("duration_s", duration_s);
  (void)dsp::default_prd_curves();  // warm-up: calibration is set-up
  util::Json rows = util::Json::array();
  for (const std::string& name : presets) {
    const scenario::ScenarioSpec spec = scenario::preset(name);
    std::string reference_dump;
    for (const std::size_t jobs : jobs_axis) {
      validate::ValidationOptions options;
      options.plan.replicates = replicates;
      options.plan.duration_s = duration_s;
      options.plan.jobs = jobs;
      const double start = now_s();
      const validate::ValidationReport report =
          validate::run_validation(spec, options);
      const double wall = now_s() - start;
      const std::string dump = report.to_json().dump(2);
      if (jobs == jobs_axis.front()) {
        reference_dump = dump;
      } else if (dump != reference_dump) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s report differs at jobs=%zu\n",
                     name.c_str(), jobs);
        return 1;
      }
      const double rate = static_cast<double>(replicates) / wall;
      table.add_row({name, std::to_string(jobs), std::to_string(replicates),
                     util::Table::num(wall, 3), util::Table::num(rate, 1),
                     report.passed ? "pass" : "FAIL"});
      util::Json row = util::Json::object();
      row.set("preset", name);
      row.set("jobs", jobs);
      row.set("wall_s", wall);
      row.set("replicates_per_s", rate);
      row.set("passed", report.passed);
      rows.push_back(std::move(row));
    }
  }
  out.set("runs", std::move(rows));

  std::printf("=== Monte Carlo validation throughput (%zu replicates x "
              "%.0f s sim) ===\n\n%s\n",
              replicates, duration_s, table.render().c_str());
  if (args.json && !bench::emit_json(out, args.json_path)) return 2;
  return 0;
}
