#include "dse/optimizers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
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

/// Records every call that reaches the wrapped objective, in call order:
/// how many evaluations the optimizers' genome memo saved, and a
/// reference for what it must not lose.
class RecordingObjective final : public BatchObjectiveFunction {
 public:
  explicit RecordingObjective(const BatchObjectiveFunction& inner)
      : inner_(inner) {}

  std::size_t arity() const override { return inner_.arity(); }
  std::size_t worker_slots() const override { return 1; }
  std::size_t evaluate(const Genome& genome, std::span<double> out,
                       std::size_t worker) const override {
    const std::size_t n = inner_.evaluate(genome, out, worker);
    calls.push_back({genome, Objectives(out.begin(), out.begin() + n)});
    return n;
  }

  /// Genome and objective vector of each call (empty = infeasible).
  mutable std::vector<ArchiveEntry> calls;

 private:
  const BatchObjectiveFunction& inner_;
};

/// A run through RecordingObjective against the same run without it: the
/// same budget counters and archive, and an archive equal to offering
/// every recorded call, in order, to a fresh one (a memo hit skips only
/// inserts that would change nothing).
void expect_exact_replay(const DseResult& recorded, const DseResult& plain,
                         const RecordingObjective& objective) {
  EXPECT_EQ(recorded.evaluations, plain.evaluations);
  EXPECT_EQ(recorded.infeasible_count, plain.infeasible_count);
  EXPECT_TRUE(same_entries(recorded.archive, plain.archive));
  EXPECT_GT(recorded.archive.size(), 0u);

  ParetoArchive replayed;
  std::size_t infeasible_calls = 0;
  for (const ArchiveEntry& call : objective.calls) {
    if (call.objectives.empty()) {
      ++infeasible_calls;
    } else {
      replayed.insert(call.genome, call.objectives);
    }
  }
  EXPECT_TRUE(same_entries(replayed, recorded.archive));
  EXPECT_LE(infeasible_calls, recorded.infeasible_count);
  EXPECT_LE(objective.calls.size(), recorded.evaluations);
}

TEST(GenomeMemo, KeepsBudgetsAndArchivesWithFewerObjectiveCalls) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space);
  const auto scalar = make_full_model_objective(shared_evaluator());

  Nsga2Options nsga2;
  nsga2.population = 32;
  nsga2.generations = 40;
  nsga2.seed = 5;
  const RecordingObjective nsga2_calls(*memo);
  const DseResult a = run_nsga2(space, nsga2_calls, nsga2);
  EXPECT_EQ(a.evaluations, 32u * 41u);
  expect_exact_replay(a, run_nsga2(space, *memo, nsga2), nsga2_calls);
  EXPECT_TRUE(same_entries(a.archive, run_nsga2(space, scalar, nsga2).archive));
  EXPECT_LT(nsga2_calls.calls.size(), a.evaluations);

  MosaOptions mosa;
  mosa.iterations = 3000;
  mosa.seed = 5;
  const RecordingObjective mosa_calls(*memo);
  const DseResult b = run_mosa(space, mosa_calls, mosa);
  EXPECT_GE(b.evaluations, 3001u);
  EXPECT_LE(b.evaluations, 3001u + 512u);
  expect_exact_replay(b, run_mosa(space, *memo, mosa), mosa_calls);
  EXPECT_TRUE(same_entries(b.archive, run_mosa(space, scalar, mosa).archive));
  EXPECT_LT(mosa_calls.calls.size(), b.evaluations);
}

/// FNV-1a-64 over an archive's entries in genome order: the genes, then
/// the bit patterns of the objectives.
std::uint64_t archive_digest(const ParetoArchive& archive) {
  std::vector<ArchiveEntry> entries = archive.entries();
  std::sort(entries.begin(), entries.end(),
            [](const ArchiveEntry& a, const ArchiveEntry& b) {
              return a.genome < b.genome;
            });
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const ArchiveEntry& entry : entries) {
    for (const std::uint16_t gene : entry.genome) mix(gene);
    for (const double value : entry.objectives) {
      mix(std::bit_cast<std::uint64_t>(value));
    }
  }
  return hash;
}

// The outcomes of one NSGA-II and one MOSA run on the case-study space,
// pinned from the engine before it had a genome memo. A memo serving a
// wrong row (two genomes sharing a key, say) steers the search elsewhere
// and changes them.
TEST(GenomeMemo, RunsMatchOutcomesPinnedBeforeTheMemo) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space);

  Nsga2Options nsga2;
  nsga2.population = 32;
  nsga2.generations = 40;
  nsga2.seed = 5;
  const DseResult a = run_nsga2(space, *memo, nsga2);
  EXPECT_EQ(a.infeasible_count, 215u);
  EXPECT_EQ(a.archive.size(), 99u);
  EXPECT_EQ(archive_digest(a.archive), 1054666558203768845ull);

  MosaOptions mosa;
  mosa.iterations = 3000;
  mosa.seed = 5;
  const DseResult b = run_mosa(space, *memo, mosa);
  EXPECT_EQ(b.evaluations, 3010u);
  EXPECT_EQ(b.infeasible_count, 592u);
  EXPECT_EQ(b.archive.size(), 70u);
  EXPECT_EQ(archive_digest(b.archive), 12711680221393374107ull);
}

// 7 nodes with 64-point CR and clock grids: 4096^7 * 90 designs, more
// than 64-bit genome codes can number. The runs go without the memo, so
// every evaluation reaches the objective.
TEST(GenomeMemo, SpaceBeyondSixtyFourBitCodesRunsWithoutIt) {
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(7);
  cfg.cr_grid.clear();
  cfg.mcu_freq_khz_grid.clear();
  for (int i = 0; i < 64; ++i) {
    cfg.cr_grid.push_back(0.17 + 0.21 * i / 63.0);
    cfg.mcu_freq_khz_grid.push_back(1000.0 + 7000.0 * i / 63.0);
  }
  const DesignSpace space(cfg);
  ASSERT_GT(space.cardinality(), 18446744073709551615.0);
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space);

  Nsga2Options nsga2;
  nsga2.population = 16;
  nsga2.generations = 12;
  const RecordingObjective nsga2_calls(*memo);
  const DseResult a = run_nsga2(space, nsga2_calls, nsga2);
  EXPECT_EQ(a.evaluations, 16u * 13u);
  EXPECT_EQ(nsga2_calls.calls.size(), a.evaluations);
  expect_exact_replay(a, run_nsga2(space, *memo, nsga2), nsga2_calls);

  MosaOptions mosa;
  mosa.iterations = 400;
  const RecordingObjective mosa_calls(*memo);
  const DseResult b = run_mosa(space, mosa_calls, mosa);
  EXPECT_EQ(mosa_calls.calls.size(), b.evaluations);
  expect_exact_replay(b, run_mosa(space, *memo, mosa), mosa_calls);
}

}  // namespace
}  // namespace wsnex::dse
