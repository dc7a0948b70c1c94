#include "dse/optimizers.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace wsnex::dse {
namespace {

/// A small, fully enumerable slice of the case-study space so heuristic
/// fronts can be compared against exhaustive ground truth.
DesignSpaceConfig tiny_space_config() {
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(2);
  cfg.cr_grid = {0.17, 0.26, 0.38};
  cfg.mcu_freq_khz_grid = {1000, 8000};
  cfg.payload_grid = {64};
  cfg.bco_grid = {5, 6};
  cfg.sfo_gap_grid = {0};
  return cfg;  // 3^2 * 2^2 * 1 * 2 * 1 = 72 designs
}

const model::NetworkModelEvaluator& shared_evaluator() {
  static const model::NetworkModelEvaluator evaluator =
      model::NetworkModelEvaluator::make_default();
  return evaluator;
}

TEST(Exhaustive, EnumeratesEntireSpace) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  const DseResult r = run_exhaustive(space, fn);
  EXPECT_EQ(r.evaluations, static_cast<std::size_t>(space.cardinality()));
  EXPECT_GT(r.archive.size(), 0u);
  EXPECT_GT(r.infeasible_count, 0u);  // DWT at 1 MHz appears in the space
}

TEST(Exhaustive, RefusesHugeSpaces) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const auto fn = make_full_model_objective(shared_evaluator());
  EXPECT_THROW(run_exhaustive(space, fn), std::invalid_argument);
}

TEST(Nsga2, FindsTrueFrontOnTinySpace) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  const DseResult truth = run_exhaustive(space, fn);

  Nsga2Options opt;
  opt.population = 32;
  opt.generations = 30;
  const DseResult heuristic = run_nsga2(space, fn, opt);

  // Every heuristic front point must be truly non-dominated.
  for (const ArchiveEntry& e : heuristic.archive.entries()) {
    EXPECT_TRUE(truth.archive.covered(e.objectives));
    for (const ArchiveEntry& t : truth.archive.entries()) {
      ASSERT_FALSE(dominates(t.objectives, e.objectives) &&
                   !(t.objectives == e.objectives))
          << "heuristic point dominated by ground truth";
    }
  }
  // And it should recover most of the true front on a 72-point space.
  std::vector<Objectives> heuristic_front;
  for (const auto& e : heuristic.archive.entries()) {
    heuristic_front.push_back(e.objectives);
  }
  std::vector<Objectives> true_front;
  for (const auto& e : truth.archive.entries()) {
    true_front.push_back(e.objectives);
  }
  EXPECT_GT(coverage_fraction(heuristic_front, true_front), 0.9);
}

TEST(Nsga2, DeterministicPerSeed) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  Nsga2Options opt;
  opt.population = 16;
  opt.generations = 10;
  const DseResult a = run_nsga2(space, fn, opt);
  const DseResult b = run_nsga2(space, fn, opt);
  ASSERT_EQ(a.archive.size(), b.archive.size());
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// Both optimizers call the sink once per generation (iteration), in
// order from 0, flag only the last call as final, and hand over an archive
// whose revision moves exactly when its member set may have.
TEST(Optimizers, ProgressSinkSeesEveryGenerationAndFlagsTheLast) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  struct Call {
    std::size_t generation;
    bool final;
    std::uint64_t revision;
  };
  std::vector<Call> calls;
  const ProgressSink sink = [&](const ProgressSnapshot& snap) {
    ASSERT_NE(snap.archive, nullptr);
    calls.push_back({snap.generation, snap.final, snap.archive->revision()});
  };
  const auto check = [&](std::size_t last, const DseResult& result) {
    ASSERT_EQ(calls.size(), last + 1);
    for (std::size_t g = 0; g <= last; ++g) {
      EXPECT_EQ(calls[g].generation, g);
      EXPECT_EQ(calls[g].final, g == last) << g;
      if (g > 0) {
        EXPECT_GE(calls[g].revision, calls[g - 1].revision);
      }
    }
    EXPECT_EQ(calls.back().revision, result.archive.revision());
    EXPECT_GT(result.archive.revision(), 0u);
    calls.clear();
  };

  Nsga2Options nsga2;
  nsga2.population = 16;
  nsga2.generations = 10;
  nsga2.progress = sink;
  check(10, run_nsga2(space, fn, nsga2));

  MosaOptions mosa;
  mosa.iterations = 50;
  mosa.progress = sink;
  check(50, run_mosa(space, fn, mosa));
}

TEST(Nsga2, RejectsDegeneratePopulation) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  Nsga2Options opt;
  opt.population = 2;
  EXPECT_THROW(run_nsga2(space, fn, opt), std::invalid_argument);
}

TEST(Mosa, ProducesFeasibleFront) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  MosaOptions opt;
  opt.iterations = 800;
  const DseResult r = run_mosa(space, fn, opt);
  EXPECT_GT(r.archive.size(), 0u);
  // iterations plus however many restarts it took to find a feasible seed.
  EXPECT_GE(r.evaluations, 801u);
  EXPECT_LE(r.evaluations, 801u + 512u);
  // Archive members mutually non-dominated (archive invariant).
  for (const auto& a : r.archive.entries()) {
    for (const auto& b : r.archive.entries()) {
      if (&a == &b) continue;
      ASSERT_FALSE(dominates(a.objectives, b.objectives));
    }
  }
}

TEST(Mosa, ComparableQualityToNsga2) {
  // Section 5.2: GA and SA show "no relevant difference in terms of
  // quality of the solutions". Check both reach >70% of the true front on
  // the tiny space.
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  const DseResult truth = run_exhaustive(space, fn);
  std::vector<Objectives> true_front;
  for (const auto& e : truth.archive.entries()) {
    true_front.push_back(e.objectives);
  }

  MosaOptions mosa_opt;
  mosa_opt.iterations = 1500;
  const DseResult mosa = run_mosa(space, fn, mosa_opt);
  std::vector<Objectives> mosa_front;
  for (const auto& e : mosa.archive.entries()) {
    mosa_front.push_back(e.objectives);
  }
  EXPECT_GT(coverage_fraction(mosa_front, true_front), 0.7);
}

TEST(RandomSearch, FindsSomethingAndCountsEvaluations) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  RandomSearchOptions opt;
  opt.samples = 200;
  const DseResult r = run_random_search(space, fn, opt);
  EXPECT_EQ(r.evaluations, 200u);
  EXPECT_GT(r.archive.size(), 0u);
}

TEST(Optimizers, BaselineObjectiveHasTwoDimensions) {
  const DesignSpace space(tiny_space_config());
  const model::BaselineEnergyDelayModel baseline(shared_evaluator());
  const auto fn = make_baseline_objective(baseline);
  RandomSearchOptions opt;
  opt.samples = 50;
  const DseResult r = run_random_search(space, fn, opt);
  ASSERT_GT(r.archive.size(), 0u);
  for (const auto& e : r.archive.entries()) {
    ASSERT_EQ(e.objectives.size(), 2u);
  }
}

TEST(Optimizers, CountingObjectiveCounts) {
  const DesignSpace space(tiny_space_config());
  const CountingObjective counting(
      make_full_model_objective(shared_evaluator()));
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    (void)counting(space.decode(space.random_genome(rng)));
  }
  EXPECT_EQ(counting.count(), 10u);
}

}  // namespace
}  // namespace wsnex::dse
