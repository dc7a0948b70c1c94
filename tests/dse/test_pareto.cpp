#include "dse/pareto.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/random.hpp"

namespace wsnex::dse {
namespace {

TEST(Dominance, TruthTable) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {2.0, 2.0}));   // weakly better + one strict
  EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}));  // incomparable
  EXPECT_FALSE(dominates({2.0, 2.0}, {2.0, 2.0}));  // equal: no domination
  EXPECT_FALSE(dominates({3.0, 3.0}, {2.0, 2.0}));
}

TEST(Dominance, IsAntisymmetricAndTransitiveOnSamples) {
  util::Rng rng(1);
  std::vector<Objectives> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  for (const auto& a : pts) {
    for (const auto& b : pts) {
      EXPECT_FALSE(dominates(a, b) && dominates(b, a));
      for (const auto& c : pts) {
        if (dominates(a, b) && dominates(b, c)) {
          EXPECT_TRUE(dominates(a, c));
        }
      }
    }
  }
}

TEST(Fronts, KnownLayering) {
  const std::vector<Objectives> pts{
      {1.0, 4.0},  // front 0
      {2.0, 2.0},  // front 0
      {4.0, 1.0},  // front 0
      {2.0, 5.0},  // dominated by (1,4) -> front 1
      {5.0, 5.0},  // dominated by everything -> front 2
  };
  const auto fronts = non_dominated_fronts(pts);
  EXPECT_EQ(fronts[0], 0u);
  EXPECT_EQ(fronts[1], 0u);
  EXPECT_EQ(fronts[2], 0u);
  EXPECT_EQ(fronts[3], 1u);
  EXPECT_EQ(fronts[4], 2u);
}

TEST(Fronts, AllEqualPointsShareFrontZero) {
  const std::vector<Objectives> pts(5, Objectives{1.0, 1.0});
  for (std::size_t f : non_dominated_fronts(pts)) EXPECT_EQ(f, 0u);
}

TEST(Fronts, EmptyObjectiveVectorsShareFrontZero) {
  // Zero-arity points are all mutually equal; they must land in front 0
  // (and the sort must not read past the empty rows).
  const std::vector<Objectives> pts(3, Objectives{});
  const auto fronts = non_dominated_fronts(pts);
  ASSERT_EQ(fronts.size(), 3u);
  for (std::size_t f : fronts) EXPECT_EQ(f, 0u);
}

TEST(Crowding, BoundaryPointsInfinite) {
  const std::vector<Objectives> front{{1.0, 4.0}, {2.0, 2.0}, {4.0, 1.0}};
  const auto crowd = crowding_distances(front);
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[2]));
  EXPECT_TRUE(std::isfinite(crowd[1]));
  EXPECT_GT(crowd[1], 0.0);
}

TEST(Crowding, DenserPointsScoreLower) {
  const std::vector<Objectives> front{
      {0.0, 10.0}, {1.0, 8.9}, {1.2, 8.8}, {5.0, 5.0}, {10.0, 0.0}};
  const auto crowd = crowding_distances(front);
  // Points 1 and 2 sit close together; point 3 is isolated.
  EXPECT_LT(crowd[1], crowd[3]);
  EXPECT_LT(crowd[2], crowd[3]);
}

TEST(Archive, KeepsOnlyNonDominated) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.insert({}, {2.0, 2.0}));
  EXPECT_FALSE(archive.insert({}, {3.0, 3.0}));  // dominated
  EXPECT_TRUE(archive.insert({}, {1.0, 3.0}));   // incomparable
  EXPECT_TRUE(archive.insert({}, {0.5, 0.5}));   // dominates everything
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.revision(), 3u);  // one per accepted insert
  EXPECT_TRUE(archive.covered({0.6, 0.6}));
  EXPECT_FALSE(archive.covered({0.4, 0.6}));
}

TEST(Archive, RejectsDuplicates) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.insert({}, {1.0, 2.0}));
  EXPECT_FALSE(archive.insert({}, {1.0, 2.0}));
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.revision(), 1u);  // a rejection leaves it unchanged
}

TEST(Archive, InvariantUnderRandomInsertions) {
  ParetoArchive archive;
  util::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    archive.insert({}, {rng.uniform(0, 1), rng.uniform(0, 1),
                        rng.uniform(0, 1)});
  }
  // Property: members are mutually non-dominated.
  const auto& entries = archive.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (i == j) continue;
      ASSERT_FALSE(dominates(entries[i].objectives, entries[j].objectives));
    }
  }
  EXPECT_GT(archive.size(), 5u);
}

// The optimizers skip the insert for a genome they have already
// evaluated. That is exact only if offering any earlier vector again
// (accepted, evicted or rejected then) is rejected and changes nothing.
// Coordinates come from a 5-value grid, so ties, duplicates and
// evictions are all common.
TEST(Archive, RepeatInsertOfAnyEarlierVectorIsANoOp) {
  util::Rng rng(17);
  for (const std::size_t m : {std::size_t{2}, std::size_t{3}}) {
    std::size_t evictions = 0;
    for (int trial = 0; trial < 25; ++trial) {
      SCOPED_TRACE("m=" + std::to_string(m) + " trial " +
                   std::to_string(trial));
      ParetoArchive archive;
      std::vector<Objectives> offered;
      for (std::uint16_t step = 0; step < 120; ++step) {
        Objectives p(m);
        for (double& v : p) v = static_cast<double>(rng.index(5));
        const std::size_t size_before = archive.size();
        if (archive.insert(Genome{step}, std::span<const double>(p)) &&
            archive.size() <= size_before) {
          ++evictions;
        }
        offered.push_back(p);

        const Objectives& again = offered[rng.index(offered.size())];
        const std::vector<ArchiveEntry> entries = archive.entries();
        const std::vector<double> flat = archive.objectives_flat();
        const std::uint64_t revision = archive.revision();
        // Both overloads, and a genome the archive has never seen: the
        // objective vector alone decides.
        const bool accepted =
            step % 2 == 0
                ? archive.insert(Genome{999}, again)
                : archive.insert(Genome{999}, std::span<const double>(again));
        ASSERT_FALSE(accepted);
        ASSERT_EQ(archive.revision(), revision);
        ASSERT_EQ(archive.objectives_flat(), flat);
        ASSERT_EQ(archive.size(), entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
          ASSERT_EQ(archive.entries()[i].genome, entries[i].genome);
          ASSERT_EQ(archive.entries()[i].objectives, entries[i].objectives);
        }
      }
    }
    EXPECT_GT(evictions, 0u);  // the evicted-then-reoffered case ran
  }
}

TEST(Coverage, FullAndEmpty) {
  const std::vector<Objectives> ref{{1.0, 1.0}, {2.0, 0.5}};
  EXPECT_DOUBLE_EQ(coverage_fraction(ref, ref), 1.0);  // equal counts
  EXPECT_DOUBLE_EQ(coverage_fraction({}, ref), 0.0);
  EXPECT_DOUBLE_EQ(coverage_fraction(ref, {}), 0.0);
}

TEST(Coverage, PartialCoverage) {
  const std::vector<Objectives> ref{{1.0, 1.0}, {5.0, 0.2}};
  const std::vector<Objectives> cand{{0.5, 0.9}};  // covers only (1,1)
  EXPECT_DOUBLE_EQ(coverage_fraction(cand, ref), 0.5);
}

TEST(Hypervolume, KnownTwoD) {
  // Single point (1,1) with reference (3,3): box 2x2.
  EXPECT_NEAR(hypervolume({{1.0, 1.0}}, {3.0, 3.0}), 4.0, 1e-12);
  // Staircase {(1,2),(2,1)} ref (3,3): 2*1 + 1*... = area 3.
  EXPECT_NEAR(hypervolume({{1.0, 2.0}, {2.0, 1.0}}, {3.0, 3.0}), 3.0, 1e-12);
}

TEST(Hypervolume, PointsOutsideReferenceIgnored) {
  EXPECT_NEAR(hypervolume({{4.0, 4.0}}, {3.0, 3.0}), 0.0, 1e-12);
  // A point past the reference in x dominates nothing inside the box.
  EXPECT_NEAR(hypervolume({{1.0, 1.0}, {4.0, 0.0}}, {3.0, 3.0}), 4.0, 1e-12);
}

TEST(Hypervolume, KnownThreeD) {
  // Single point (1,1,1), reference (2,2,2): unit cube.
  EXPECT_NEAR(hypervolume({{1.0, 1.0, 1.0}}, {2.0, 2.0, 2.0}), 1.0, 1e-12);
  // Two disjointly-dominating points.
  const double hv =
      hypervolume({{0.0, 1.0, 1.0}, {1.0, 0.0, 1.0}}, {2.0, 2.0, 2.0});
  // Each dominates a 2x1x1... region; union = 2*1*1 + 2*1*1 - 1*1*1 = 3.
  EXPECT_NEAR(hv, 3.0, 1e-12);
}

TEST(Hypervolume, MonotoneUnderAddingPoints) {
  util::Rng rng(11);
  std::vector<Objectives> front;
  const Objectives ref{1.0, 1.0, 1.0};
  double previous = 0.0;
  for (int i = 0; i < 30; ++i) {
    front.push_back({rng.uniform(0, 1), rng.uniform(0, 1),
                     rng.uniform(0, 1)});
    const double hv = hypervolume(front, ref);
    ASSERT_GE(hv, previous - 1e-12);
    previous = hv;
  }
}

// Monte Carlo cross-check: sample the reference box uniformly and count the
// fraction of samples dominated by the front. With 200k samples the standard
// error of the estimate is ~1e-3 of the box volume, so a 1% tolerance is a
// strong check that the exact sweep-line routine integrates the right region.
TEST(Hypervolume, MatchesBruteForceMonteCarloIn3D) {
  util::Rng rng(42);
  std::vector<Objectives> front;
  for (int i = 0; i < 40; ++i) {
    front.push_back(
        {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const Objectives ref{1.0, 1.0, 1.0};
  const double exact = hypervolume(front, ref);

  util::Rng sampler(43);
  const int kSamples = 200000;
  int dominated = 0;
  for (int s = 0; s < kSamples; ++s) {
    const Objectives probe{sampler.uniform(0, 1), sampler.uniform(0, 1),
                           sampler.uniform(0, 1)};
    for (const Objectives& point : front) {
      if (point[0] <= probe[0] && point[1] <= probe[1] &&
          point[2] <= probe[2]) {
        ++dominated;
        break;
      }
    }
  }
  const double estimate = static_cast<double>(dominated) / kSamples;
  EXPECT_NEAR(exact, estimate, 0.01);
  EXPECT_GT(exact, 0.5);  // a 40-point front dominates most of the unit box
}

TEST(Hypervolume, MonteCarloWithNonUnitReferenceBox) {
  util::Rng rng(7);
  std::vector<Objectives> front;
  for (int i = 0; i < 12; ++i) {
    front.push_back({rng.uniform(0, 4), rng.uniform(0, 50),
                     rng.uniform(0, 0.5)});
  }
  const Objectives ref{4.0, 50.0, 0.5};
  const double box = 4.0 * 50.0 * 0.5;
  const double exact = hypervolume(front, ref);

  util::Rng sampler(8);
  const int kSamples = 200000;
  int dominated = 0;
  for (int s = 0; s < kSamples; ++s) {
    const Objectives probe{sampler.uniform(0, 4), sampler.uniform(0, 50),
                           sampler.uniform(0, 0.5)};
    for (const Objectives& point : front) {
      if (point[0] <= probe[0] && point[1] <= probe[1] &&
          point[2] <= probe[2]) {
        ++dominated;
        break;
      }
    }
  }
  const double estimate = box * dominated / kSamples;
  EXPECT_NEAR(exact, estimate, 0.01 * box);
}

TEST(Hypervolume, DuplicatesAndDominatedRowsContributeNothingExtra) {
  const std::vector<Objectives> base{{0.2, 0.8, 0.5}, {0.6, 0.3, 0.4}};
  const Objectives ref{1.0, 1.0, 1.0};
  const double clean = hypervolume(base, ref);
  std::vector<Objectives> noisy = base;
  noisy.push_back(base[0]);            // exact duplicate
  noisy.push_back({0.7, 0.9, 0.9});    // dominated by both
  noisy.push_back({2.0, 0.1, 0.1});    // beyond reference in x
  EXPECT_NEAR(hypervolume(noisy, ref), clean, 1e-12);
}

TEST(Hypervolume, FlatRoutineMatchesVectorOverloadOnStridedRows) {
  util::Rng rng(13);
  std::vector<Objectives> front;
  // Strided storage with a junk fourth column, as the archive mirror would
  // never produce but the flat API permits.
  std::vector<double> flat;
  const std::size_t stride = 4;
  for (int i = 0; i < 25; ++i) {
    Objectives point{rng.uniform(0, 1), rng.uniform(0, 1),
                     rng.uniform(0, 1)};
    flat.insert(flat.end(), point.begin(), point.end());
    flat.push_back(-99.0);
    front.push_back(std::move(point));
  }
  const double ref[3] = {1.0, 1.0, 1.0};
  Hypervolume3Scratch scratch;
  const double via_flat =
      hypervolume3_flat(flat.data(), front.size(), stride, ref, scratch);
  EXPECT_NEAR(via_flat, hypervolume(front, {1.0, 1.0, 1.0}), 1e-12);
  // Scratch reuse across calls must not change the answer.
  EXPECT_NEAR(
      hypervolume3_flat(flat.data(), front.size(), stride, ref, scratch),
      via_flat, 1e-15);
}

TEST(Hypervolume, ArchiveOverloadUsesFlatMirror) {
  ParetoArchive archive;
  util::Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    archive.insert({}, {rng.uniform(0, 1), rng.uniform(0, 1),
                        rng.uniform(0, 1)});
  }
  std::vector<Objectives> front;
  for (const auto& entry : archive.entries()) {
    front.push_back(entry.objectives);
  }
  const Objectives ref{1.0, 1.0, 1.0};
  EXPECT_NEAR(hypervolume(archive, ref), hypervolume(front, ref), 1e-12);
  EXPECT_DOUBLE_EQ(hypervolume(ParetoArchive{}, ref), 0.0);
}

TEST(Hypervolume, RejectsUnsupportedDimensions) {
  EXPECT_THROW(hypervolume({{1.0}}, {2.0}), std::invalid_argument);
  EXPECT_THROW(hypervolume({{1, 1, 1, 1}}, {2, 2, 2, 2}),
               std::invalid_argument);
  EXPECT_THROW(hypervolume({{1.0, 1.0, 1.0}}, {2.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsnex::dse
