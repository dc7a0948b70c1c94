// Seeded generator of the benchmark's inputs. The program only ever sees
// what comes out of here: scenario specs (campaign workloads) and job
// submit bodies (serve_mixed). The same seed gives a byte-identical corpus
// (corpus_json), and every generated spec passes ScenarioSpec::validate.
//
// Work per corpus is fixed by construction so runs with different seeds
// measure the same amount of work: each slot's ward size and optimizer
// budget are fixed, and the seed draws only the remaining dimensions —
// the DWT/CS mix, channel model and its rates, GTS vs CSMA, the
// constraint ceilings, the grid set, the optimizer seed — from fixed
// multisets or ranges.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/scenario_spec.hpp"
#include "serve/job.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

/// splitmix64: the benchmark's own generator, independent of the
/// program's PRNGs so a change to those never changes the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);
  std::size_t below(std::size_t n);
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_ = 0;
};

std::vector<wsnex::scenario::ScenarioSpec> nsga2_corpus(std::uint64_t seed,
                                                        bool tiny);
std::vector<wsnex::scenario::ScenarioSpec> mosa_corpus(std::uint64_t seed,
                                                       bool tiny);
/// The serve_mixed job stream; clients take jobs from it in order.
std::vector<wsnex::serve::JobSpec> serve_jobs(std::uint64_t seed, bool tiny);

/// The whole generated input of a workload as JSON (specs or job bodies).
wsnex::util::Json corpus_json(Workload workload, std::uint64_t seed,
                              bool tiny);

}  // namespace perfbench
