// Full design-space exploration with CSV export.
//
// Runs NSGA-II over the case-study space using the three-metric analytical
// model, then writes the Pareto front (all three objectives plus the
// decoded configuration) and its three 2-D projections to CSV — the data
// behind the three panels of Fig. 5.
//
//   ./examples/pareto_explorer [output_prefix=pareto]
#include <cstdio>
#include <string>

#include "dse/optimizers.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsnex;
  using namespace wsnex::dse;
  const std::string prefix = argc > 1 ? argv[1] : "pareto";

  const auto evaluator = model::NetworkModelEvaluator::make_default();
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto objective = make_full_model_objective(evaluator);

  Nsga2Options opt;
  opt.population = 96;
  opt.generations = 100;
  opt.seed = 42;
  std::printf("running NSGA-II (%zu x %zu) over %.3g configurations...\n",
              opt.population, opt.generations, space.cardinality());
  const DseResult result = run_nsga2(space, objective, opt);
  std::printf("%zu evaluations in %.2f s (%.0f evals/s), front size %zu\n",
              result.evaluations, result.wallclock_s,
              static_cast<double>(result.evaluations) /
                  std::max(result.wallclock_s, 1e-9),
              result.archive.size());

  // Objectives are written with util::format_double_shortest, which
  // parses back to the identical double.
  const auto num = [](double v) { return util::format_double_shortest(v); };
  const std::string front_path = prefix + "_front.csv";
  std::string front;
  util::append_csv_row(front, {"energy_mj_per_s", "prd_percent", "delay_s",
                               "payload", "bco", "sfo", "configuration"});
  for (const auto& e : result.archive.entries()) {
    const auto design = space.decode(e.genome);
    util::append_csv_row(front, {num(e.objectives[0]), num(e.objectives[1]),
                                 num(e.objectives[2]),
                                 std::to_string(design.mac.payload_bytes),
                                 std::to_string(design.mac.bco),
                                 std::to_string(design.mac.sfo),
                                 space.describe(e.genome)});
  }
  util::write_file_atomic(front_path, front);
  std::printf("wrote %s (%zu rows)\n", front_path.c_str(),
              result.archive.size());

  // The three Fig. 5 panels as separate files for direct plotting.
  const struct {
    const char* suffix;
    int x;
    int y;
    const char* xh;
    const char* yh;
  } panels[3] = {
      {"_energy_delay.csv", 0, 2, "energy_mj_per_s", "delay_s"},
      {"_energy_prd.csv", 0, 1, "energy_mj_per_s", "prd_percent"},
      {"_prd_delay.csv", 1, 2, "prd_percent", "delay_s"},
  };
  for (const auto& p : panels) {
    std::string csv;
    util::append_csv_row(csv, {p.xh, p.yh});
    for (const auto& e : result.archive.entries()) {
      util::append_csv_row(
          csv, {num(e.objectives[static_cast<std::size_t>(p.x)]),
                num(e.objectives[static_cast<std::size_t>(p.y)])});
    }
    util::write_file_atomic(prefix + p.suffix, csv);
    std::printf("wrote %s%s\n", prefix.c_str(), p.suffix);
  }
  return 0;
}
