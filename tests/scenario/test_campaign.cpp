// Campaign runner + result store integration: end-to-end runs over real
// presets (quick budgets), persistence layout, checkpoint/resume with
// bit-identical archives, and store/manifest corruption handling.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/pareto.hpp"
#include "scenario/registry.hpp"
#include "util/events.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace wsnex::scenario {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CampaignTest : public ::testing::Test {
 protected:
  // Unique per test case, so concurrently running ctest shards never
  // share a campaign directory.
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_campaign_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void TearDown() override { fs::remove_all(root_); }

  std::string dir(const std::string& leaf) const {
    return (root_ / leaf).string();
  }

  static std::vector<ScenarioSpec> small_campaign() {
    return {preset("hospital_ward_2"), preset("hospital_ward_3"),
            preset("all_cs_6")};
  }

  static CampaignOptions options(const std::string& out_dir) {
    CampaignOptions o;
    o.out_dir = out_dir;
    o.quick = true;
    return o;
  }
};

TEST_F(CampaignTest, RunProducesStoreLayoutAndReport) {
  const auto specs = small_campaign();
  std::vector<std::string> seen;
  const CampaignReport report =
      run_campaign(specs, options(dir("a")),
                   [&](const CampaignOutcome& o) { seen.push_back(o.name); });

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.executed, 3u);
  EXPECT_EQ(report.skipped, 0u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "hospital_ward_2");

  ResultStore store(dir("a"));
  ASSERT_TRUE(ResultStore::exists(store.root()));
  const CampaignManifest manifest = store.load_manifest();
  EXPECT_TRUE(manifest.quick);
  ASSERT_EQ(manifest.scenarios.size(), 3u);
  for (const auto& status : manifest.scenarios) {
    EXPECT_TRUE(status.complete);
    EXPECT_GT(status.evaluations, 0u);
    EXPECT_GT(status.front_size, 0u);
    EXPECT_TRUE(fs::exists(store.pareto_csv_path(status.name)));
    EXPECT_TRUE(fs::exists(store.feasible_csv_path(status.name)));
    EXPECT_TRUE(fs::exists(store.summary_path(status.name)));
    EXPECT_TRUE(fs::exists(store.spec_path(status.name)));
    // The frozen spec reloads to exactly the preset.
    EXPECT_EQ(store.load_spec(status.name), preset(status.name));
    // The archive CSV has header + front_size rows.
    const std::string csv = read_file(store.pareto_csv_path(status.name));
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              status.front_size + 1);
  }
}

// Manifests written before the reductions became unconditionally scalar
// carry "simd_reassociation". Sets it in an existing store's manifest.
void set_legacy_manifest_field(const std::string& root, bool value) {
  const std::string path = ResultStore(root).manifest_path();
  util::Json manifest = util::Json::parse(read_file(path));
  manifest.set("simd_reassociation", value);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << manifest.dump(2);
}

TEST_F(CampaignTest, AbortAfterCheckpointsAndResumeIsBitIdentical) {
  const auto specs = small_campaign();

  // Uninterrupted reference run.
  run_campaign(specs, options(dir("full")));

  // Interrupted run: stop (as if killed) after the first scenario...
  CampaignOptions interrupted = options(dir("int"));
  interrupted.abort_after = 1;
  const CampaignReport first = run_campaign(specs, interrupted);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.executed, 1u);
  {
    const CampaignManifest manifest = ResultStore(dir("int")).load_manifest();
    EXPECT_TRUE(manifest.scenarios[0].complete);
    EXPECT_FALSE(manifest.scenarios[1].complete);
    EXPECT_FALSE(manifest.scenarios[2].complete);
  }
  // Stores written by older builds carry "simd_reassociation": false;
  // they resume like current ones.
  set_legacy_manifest_field(dir("int"), false);

  // ... then resume from the store alone (no original specs needed).
  const CampaignReport resumed = resume_campaign(dir("int"));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.skipped, 1u);
  EXPECT_EQ(resumed.executed, 2u);

  // Archives must match the uninterrupted run byte for byte.
  ResultStore full(dir("full")), resumed_store(dir("int"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(full.pareto_csv_path(spec.name)),
              read_file(resumed_store.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(full.feasible_csv_path(spec.name)),
              read_file(resumed_store.feasible_csv_path(spec.name)))
        << spec.name;
  }
  // The resume rewrote the manifest in the current format.
  EXPECT_EQ(util::Json::parse(read_file(resumed_store.manifest_path()))
                .find("simd_reassociation"),
            nullptr);
}

TEST_F(CampaignTest, RerunOnCompleteCampaignSkipsEverything) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("a")));
  const CampaignReport again = run_campaign(specs, options(dir("a")));
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.skipped, 3u);

  // Also with optimizer knobs the chosen kind ignores: the frozen spec
  // must reload == the original, so the rerun is still a clean skip.
  ScenarioSpec cross = preset("hospital_ward_2");
  cross.name = "cross_kind_knobs";
  cross.optimizer.iterations = 999;  // ignored by NSGA-II, but persisted
  run_campaign({cross}, options(dir("b")));
  const CampaignReport cross_again = run_campaign({cross}, options(dir("b")));
  EXPECT_EQ(cross_again.skipped, 1u);
}

TEST_F(CampaignTest, FrozenThreadsFieldParsesButChangesNothing) {
  // Specs frozen by older versions carry optimizer.threads; they must still
  // run, checkpoint and resume, with archives byte-identical to threads 0.
  auto wide = small_campaign();
  for (ScenarioSpec& spec : wide) spec.optimizer.threads = 8;
  CampaignOptions interrupted = options(dir("t8"));
  interrupted.abort_after = 1;
  EXPECT_FALSE(run_campaign(wide, interrupted).complete);
  const CampaignReport resumed = resume_campaign(dir("t8"));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.skipped, 1u);
  EXPECT_EQ(resumed.executed, 2u);

  auto plain = small_campaign();
  for (ScenarioSpec& spec : plain) spec.optimizer.threads = 0;
  run_campaign(plain, options(dir("t0")));

  ResultStore a(dir("t8")), b(dir("t0"));
  for (const auto& spec : wide) {
    EXPECT_EQ(a.load_spec(spec.name).optimizer.threads, 8u) << spec.name;
    EXPECT_EQ(read_file(a.pareto_csv_path(spec.name)),
              read_file(b.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(a.feasible_csv_path(spec.name)),
              read_file(b.feasible_csv_path(spec.name)))
        << spec.name;
  }
}

TEST_F(CampaignTest, SerialResumeReportsMixedOutcomesInSpecOrder) {
  // Complete scenarios 0 and 2 by hand, leaving 1 and 3 pending, so the
  // resume interleaves skipped and executed scenarios.
  auto specs = small_campaign();
  specs.push_back(preset("hospital_ward_4"));
  {
    ResultStore store(dir("a"));
    store.initialize(specs, /*quick=*/true);
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
      store.record_complete(
          execute_scenario(specs[i], options(dir("a")), store, nullptr,
                           nullptr));
    }
  }
  std::vector<std::string> seen;
  std::vector<bool> seen_skipped;
  const CampaignReport report =
      resume_campaign(dir("a"), {}, [&](const CampaignOutcome& o) {
        seen.push_back(o.name);
        seen_skipped.push_back(o.skipped);
      });
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(report.executed, 2u);
  const std::vector<bool> expect_skipped{true, false, true, false};
  ASSERT_EQ(seen.size(), specs.size());
  ASSERT_EQ(report.outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(seen[i], specs[i].name) << "callback order";
    EXPECT_EQ(seen_skipped[i], expect_skipped[i]) << specs[i].name;
    EXPECT_EQ(report.outcomes[i].name, specs[i].name) << "outcome order";
    EXPECT_EQ(report.outcomes[i].skipped, expect_skipped[i]) << specs[i].name;
  }
}

TEST_F(CampaignTest, SerialFailureStopsLaterScenariosAndPropagates) {
  const auto specs = small_campaign();
  std::vector<std::string> hooked;
  std::vector<std::string> reported;
  CampaignOptions o = options(dir("a"));
  o.post_scenario = [&](const ScenarioSpec& spec, const ScenarioRun&,
                        ResultStore&, util::ThreadPool*) {
    hooked.push_back(spec.name);
    if (spec.name == specs[1].name) throw std::runtime_error("hook failed");
  };
  EXPECT_THROW(run_campaign(specs, o, [&](const CampaignOutcome& outcome) {
                 reported.push_back(outcome.name);
               }),
               std::runtime_error);
  // The failure stopped the campaign: the third scenario never started.
  EXPECT_EQ(hooked, (std::vector<std::string>{specs[0].name, specs[1].name}));
  EXPECT_EQ(reported, std::vector<std::string>{specs[0].name});
  ResultStore store(dir("a"));
  const CampaignManifest manifest = store.load_manifest();
  EXPECT_TRUE(manifest.scenarios[0].complete);
  EXPECT_FALSE(manifest.scenarios[1].complete);
  EXPECT_FALSE(manifest.scenarios[2].complete);
  EXPECT_FALSE(fs::exists(store.pareto_csv_path(specs[2].name)));
}

TEST_F(CampaignTest, MismatchedReuseOfStoreIsRejected) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("a")));

  // Different scenario list.
  const auto other = std::vector<ScenarioSpec>{preset("hospital_ward_6")};
  EXPECT_THROW(run_campaign(other, options(dir("a"))), ScenarioError);

  // Same list, different options (quick mismatch).
  CampaignOptions full_budget;
  full_budget.out_dir = dir("a");
  full_budget.quick = false;
  EXPECT_THROW(run_campaign(specs, full_budget), ScenarioError);

  // Same names, edited spec contents.
  auto edited = specs;
  edited[0].constraints.max_delay_s = 0.5;
  EXPECT_THROW(run_campaign(edited, options(dir("a"))), ScenarioError);
}

TEST_F(CampaignTest, LegacyReassociatedManifestIsRejected) {
  const auto specs = std::vector<ScenarioSpec>{preset("hospital_ward_2")};
  run_campaign(specs, options(dir("a")));
  set_legacy_manifest_field(dir("a"), true);

  const auto expect_rejected = [&](const auto& body) {
    try {
      body();
      ADD_FAILURE() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(dir("a")), std::string::npos)
          << e.what();
    }
  };
  expect_rejected([&] { run_campaign(specs, options(dir("a"))); });
  expect_rejected([&] { resume_campaign(dir("a")); });
}

TEST_F(CampaignTest, RejectsEmptyAndDuplicateCampaigns) {
  EXPECT_THROW(run_campaign({}, options(dir("a"))), ScenarioError);
  const auto dup = std::vector<ScenarioSpec>{preset("hospital_ward_2"),
                                             preset("hospital_ward_2")};
  EXPECT_THROW(run_campaign(dup, options(dir("a"))), ScenarioError);
  EXPECT_THROW(resume_campaign(dir("nothing_here")), ScenarioError);
}

TEST_F(CampaignTest, FeasibleCsvIsSortedByEnergyAndRespectsConstraints) {
  const auto spec = preset("hospital_ward_2");
  run_campaign({spec}, options(dir("a")));
  const std::string csv =
      read_file(ResultStore(dir("a")).feasible_csv_path(spec.name));
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  double previous_energy = 0.0;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string energy, prd, delay;
    ASSERT_TRUE(std::getline(fields, energy, ','));
    ASSERT_TRUE(std::getline(fields, prd, ','));
    ASSERT_TRUE(std::getline(fields, delay, ','));
    EXPECT_GE(std::stod(energy), previous_energy);
    previous_energy = std::stod(energy);
    EXPECT_LE(std::stod(prd), spec.constraints.max_prd_percent);
    EXPECT_LE(std::stod(delay), spec.constraints.max_delay_s);
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(CampaignTest, RunScenarioMatchesDirectEngineInvocation) {
  // The campaign layer must add nothing to the numbers: running a spec
  // through run_scenario equals calling the optimizer directly with the
  // memoized objective.
  const ScenarioSpec spec = quick_variant(preset("hospital_ward_2"));
  const ScenarioRun run = run_scenario(spec);

  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const dse::DesignSpace space(spec.design_space_config());
  const auto objective =
      dse::make_memoized_full_model_objective(evaluator, space, 1);
  dse::Nsga2Options o;
  o.population = spec.optimizer.population;
  o.generations = spec.optimizer.generations;
  o.crossover_rate = spec.optimizer.crossover_rate;
  o.seed = spec.optimizer.seed;
  const dse::DseResult direct = dse::run_nsga2(space, *objective, o);

  EXPECT_EQ(run.result.evaluations, direct.evaluations);
  EXPECT_EQ(run.result.infeasible_count, direct.infeasible_count);
  EXPECT_TRUE(dse::same_entries(run.result.archive, direct.archive));
}

TEST_F(CampaignTest, SharedCacheMatchesFreshCacheAcrossAllPresets) {
  // The tentpole guarantee: lifting the app-layer table and MAC models
  // into the process-wide cache must not move a single bit, for any of
  // the shipped presets (they cover the ward-size, app-mix, channel,
  // battery and optimizer axes).
  dse::SharedEvalCache cache;
  for (const ScenarioSpec& spec : all_presets()) {
    const ScenarioRun shared =
        run_scenario(spec, /*quick=*/true, {}, nullptr, &cache);
    const ScenarioRun fresh = run_scenario(spec, /*quick=*/true);
    EXPECT_EQ(shared.result.evaluations, fresh.result.evaluations)
        << spec.name;
    EXPECT_EQ(shared.result.infeasible_count, fresh.result.infeasible_count)
        << spec.name;
    EXPECT_TRUE(dse::same_entries(shared.result.archive, fresh.result.archive))
        << spec.name;
  }
  // The presets genuinely share: far fewer tables than scenarios.
  const auto stats = cache.stats();
  EXPECT_GT(stats.app_table_hits, 0u);
  EXPECT_GT(stats.mac_model_hits, stats.mac_model_misses);
}

TEST_F(CampaignTest, ParallelJobsProduceByteIdenticalStores) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("j1")));

  CampaignOptions parallel = options(dir("j2"));
  parallel.jobs = 2;
  const CampaignReport report = run_campaign(specs, parallel);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.executed, specs.size());
  ASSERT_EQ(report.outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].name, specs[i].name) << "outcome order";
  }

  ResultStore a(dir("j1")), b(dir("j2"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(a.pareto_csv_path(spec.name)),
              read_file(b.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(a.feasible_csv_path(spec.name)),
              read_file(b.feasible_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(a.spec_path(spec.name)),
              read_file(b.spec_path(spec.name)))
        << spec.name;
  }
}

TEST_F(CampaignTest, ParallelAbortAfterKeepsSerialCheckpointSemantics) {
  const auto specs = small_campaign();
  CampaignOptions interrupted = options(dir("pint"));
  interrupted.jobs = 2;
  interrupted.abort_after = 1;
  const CampaignReport first = run_campaign(specs, interrupted);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.executed, 1u);
  {
    const CampaignManifest manifest = ResultStore(dir("pint")).load_manifest();
    EXPECT_TRUE(manifest.scenarios[0].complete);
    EXPECT_FALSE(manifest.scenarios[1].complete);
    EXPECT_FALSE(manifest.scenarios[2].complete);
  }
  // Resume in parallel too; archives must match a clean serial run.
  ResumeOverrides overrides;
  overrides.jobs = 2;
  const CampaignReport resumed = resume_campaign(dir("pint"), overrides);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.skipped, 1u);
  EXPECT_EQ(resumed.executed, 2u);

  run_campaign(specs, options(dir("pfull")));
  ResultStore full(dir("pfull")), store(dir("pint"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(full.pareto_csv_path(spec.name)),
              read_file(store.pareto_csv_path(spec.name)))
        << spec.name;
  }
}

TEST_F(CampaignTest, WarmCacheDirReproducesColdResultsByteForByte) {
  const auto specs = small_campaign();
  const std::string cache_dir = dir("prdcache");

  // "Cold": whatever calibration state this process has, plus a campaign
  // writing the warm cache. (set_default_prd_cache_dir may be a no-op if
  // another test already calibrated — results are identical either way;
  // here we exercise the campaign-level plumbing end to end.)
  CampaignOptions cold = options(dir("cold"));
  cold.cache_dir = cache_dir;
  run_campaign(specs, cold);

  // Warm rerun into a fresh store with the same cache dir.
  CampaignOptions warm = options(dir("warm"));
  warm.cache_dir = cache_dir;
  run_campaign(specs, warm);

  ResultStore a(dir("cold")), b(dir("warm"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(a.pareto_csv_path(spec.name)),
              read_file(b.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(a.feasible_csv_path(spec.name)),
              read_file(b.feasible_csv_path(spec.name)))
        << spec.name;
  }
}

TEST_F(CampaignTest, CorruptManifestFailsWithClearError) {
  run_campaign({preset("hospital_ward_2")}, options(dir("a")));
  {
    std::ofstream out(ResultStore(dir("a")).manifest_path(),
                      std::ios::binary | std::ios::trunc);
    out << "{ not json";
  }
  EXPECT_THROW(resume_campaign(dir("a")), ScenarioError);
}

TEST_F(CampaignTest, ProgressJsonlSchemaAndMonotoneHypervolume) {
  run_campaign({preset("hospital_ward_2")}, options(dir("a")));
  ResultStore store(dir("a"));
  const fs::path path = store.progress_jsonl_path("hospital_ward_2");
  ASSERT_TRUE(fs::exists(path));
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::int64_t last_generation = -1;
  std::int64_t last_evaluations = 0;
  double last_hv = -1.0;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const util::Json record = util::Json::parse(line);
    EXPECT_EQ(record.at("scenario").as_string(), "hospital_ward_2");
    // Strictly increasing generations, starting at generation 0.
    const std::int64_t generation = record.at("generation").as_int64();
    if (records == 0) {
      EXPECT_EQ(generation, 0);
    }
    EXPECT_GT(generation, last_generation);
    last_generation = generation;
    const std::int64_t evaluations = record.at("evaluations").as_int64();
    EXPECT_GT(evaluations, last_evaluations);
    last_evaluations = evaluations;
    EXPECT_GE(record.at("infeasible").as_int64(), 0);
    EXPECT_GT(record.at("archive_size").as_int64(), 0);
    EXPECT_GE(record.at("feasible").as_int64(), 0);
    const util::Json& best = record.at("best");
    EXPECT_TRUE(best.find("e_net_mj_per_s") != nullptr);
    EXPECT_TRUE(best.find("prd_net_percent") != nullptr);
    EXPECT_TRUE(best.find("d_net_s") != nullptr);
    // The archive only grows toward the front: HV never decreases.
    const double hv = record.at("hypervolume").as_double();
    EXPECT_GE(hv, last_hv - 1e-12);
    last_hv = hv;
    EXPECT_GE(record.at("elapsed_s").as_double(), 0.0);
    EXPECT_GT(record.at("evals_per_s").as_double(), 0.0);
    ++records;
  }
  EXPECT_GT(records, 1u);
  // ... and ending at the final one.
  EXPECT_EQ(last_generation,
            static_cast<std::int64_t>(
                quick_variant(preset("hospital_ward_2")).optimizer.generations));
  EXPECT_GT(last_hv, 0.0);
}

// progress.jsonl records only snapshots that carry news. Against a
// reference sink that scores every generation, the records must keep the
// first and final generations, every hypervolume change point with its
// exact value, a record at least every 64 generations, and therefore the
// generation at which the run first reaches 50/90/99 % of its final
// hypervolume.
TEST_F(CampaignTest, ProgressRecordsKeepTheHypervolumeTrajectory) {
  constexpr std::size_t kMaxRecordGap = 64;
  const std::pair<const char*, bool> cases[] = {
      {"relaxed_quality_mosa_6", false},  // default budget, 4001 snapshots
      {"hospital_ward_2", true}};         // quick NSGA-II
  for (const auto& [name, quick] : cases) {
    SCOPED_TRACE(name);
    const ScenarioSpec spec = preset(name);
    const dse::Objectives reference_point = hv_reference_point(spec);
    dse::Hypervolume3Scratch scratch;
    std::vector<double> reference;  // hypervolume by generation
    run_scenario(spec, quick, {}, nullptr, nullptr,
                 [&](const dse::ProgressSnapshot& snap) {
                   EXPECT_EQ(snap.generation, reference.size());
                   reference.push_back(dse::hypervolume3_flat(
                       snap.archive->objectives_flat().data(),
                       snap.archive_size, 3, reference_point.data(),
                       scratch));
                 });
    ASSERT_GT(reference.size(), 1u);

    CampaignOptions o = options(dir(name));
    o.quick = quick;
    run_campaign({spec}, o);
    std::ifstream in(ResultStore(dir(name)).progress_jsonl_path(name),
                     std::ios::binary);
    std::vector<std::size_t> generations;
    std::vector<double> recorded;
    std::string line;
    while (std::getline(in, line)) {
      const util::Json record = util::Json::parse(line);
      generations.push_back(
          static_cast<std::size_t>(record.at("generation").as_int64()));
      recorded.push_back(record.at("hypervolume").as_double());
    }
    ASSERT_FALSE(generations.empty());
    EXPECT_EQ(generations.front(), 0u);
    EXPECT_EQ(generations.back(), reference.size() - 1);
    if (spec.optimizer.kind == OptimizerKind::kMosa) {
      // Most MOSA iterations leave the archive as it was.
      EXPECT_LT(generations.size(), reference.size() / 4) << "not decimated";
    }

    for (std::size_t i = 0; i < generations.size(); ++i) {
      ASSERT_LT(generations[i], reference.size());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(recorded[i]),
                std::bit_cast<std::uint64_t>(reference[generations[i]]))
          << "generation " << generations[i];
      if (i > 0) {
        EXPECT_GT(generations[i], generations[i - 1]);
        EXPECT_LE(generations[i] - generations[i - 1], kMaxRecordGap);
      }
    }
    for (std::size_t g = 1; g < reference.size(); ++g) {
      if (reference[g] != reference[g - 1]) {
        EXPECT_TRUE(std::binary_search(generations.begin(), generations.end(),
                                       g))
            << "hypervolume change at generation " << g << " not recorded";
      }
    }

    const double final_hv = reference.back();
    ASSERT_GT(final_hv, 0.0);
    for (const double frac : {0.50, 0.90, 0.99}) {
      const auto first_reaching = [&](const std::vector<double>& hv) {
        return static_cast<std::size_t>(
            std::find_if(hv.begin(), hv.end(),
                         [&](double v) { return v >= frac * final_hv; }) -
            hv.begin());
      };
      const std::size_t want = first_reaching(reference);
      const std::size_t got = first_reaching(recorded);
      ASSERT_LT(got, generations.size()) << frac;
      EXPECT_EQ(generations[got], want) << frac;
    }
  }
}

TEST_F(CampaignTest, ProgressTelemetryNeverPerturbsArchives) {
  const auto specs = small_campaign();
  CampaignOptions with = options(dir("with"));
  with.progress = true;
  CampaignOptions without = options(dir("without"));
  without.progress = false;
  run_campaign(specs, with);
  run_campaign(specs, without);
  ResultStore store_with(dir("with")), store_without(dir("without"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(store_with.pareto_csv_path(spec.name)),
              read_file(store_without.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(store_with.feasible_csv_path(spec.name)),
              read_file(store_without.feasible_csv_path(spec.name)))
        << spec.name;
    EXPECT_TRUE(fs::exists(store_with.progress_jsonl_path(spec.name)));
    EXPECT_FALSE(fs::exists(store_without.progress_jsonl_path(spec.name)));
  }
}

TEST_F(CampaignTest, EventRingCapturesLifecycleAndGenerations) {
  util::events::EventRing ring(1024);
  CampaignOptions o = options(dir("a"));
  o.events = &ring;
  o.event_job_id = "job-42";
  run_campaign({preset("hospital_ward_2"), preset("hospital_ward_3")}, o);

  std::vector<util::events::Event> events;
  std::uint64_t dropped = 1;
  ring.read_since(0, events, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_FALSE(events.empty());

  std::uint64_t last_seq = 0;
  std::size_t started = 0, finished = 0, generations = 0;
  for (const auto& event : events) {
    EXPECT_GT(event.seq, last_seq);  // strictly monotone
    last_seq = event.seq;
    EXPECT_STREQ(event.job, "job-42");
    switch (event.kind) {
      case util::events::Kind::kScenarioStarted: ++started; break;
      case util::events::Kind::kScenarioFinished: ++finished; break;
      case util::events::Kind::kGeneration:
        ++generations;
        EXPECT_GT(event.evaluations, 0u);
        EXPECT_GT(event.archive_size, 0u);
        break;
      default: break;
    }
  }
  EXPECT_EQ(started, 2u);
  EXPECT_EQ(finished, 2u);
  // Quick NSGA-II runs 8 generations after the initial population — at
  // least that many generation events per scenario.
  EXPECT_GE(generations, 2u * 8u);
  // Each scenario's stream is ordered: started < all generations < finished.
  const auto find_kind = [&](util::events::Kind kind, const char* scenario) {
    for (const auto& event : events) {
      if (event.kind == kind &&
          std::string(event.scenario) == scenario) {
        return event.seq;
      }
    }
    return std::uint64_t{0};
  };
  for (const char* name : {"hospital_ward_2", "hospital_ward_3"}) {
    const std::uint64_t begin =
        find_kind(util::events::Kind::kScenarioStarted, name);
    const std::uint64_t end =
        find_kind(util::events::Kind::kScenarioFinished, name);
    ASSERT_GT(begin, 0u) << name;
    ASSERT_GT(end, begin) << name;
    for (const auto& event : events) {
      if (event.kind == util::events::Kind::kGeneration &&
          std::string(event.scenario) == name) {
        EXPECT_GT(event.seq, begin);
        EXPECT_LT(event.seq, end);
      }
    }
  }
}

// One default-budget MOSA scenario calls its progress sink 4001 times; the
// generation events it publishes must leave a 1024-slot job ring room for
// the scenario's lifecycle events.
TEST_F(CampaignTest, LifecycleEventsSurviveADefaultBudgetMosaScenario) {
  util::events::EventRing ring(1024);
  CampaignOptions o = options(dir("a"));
  o.quick = false;
  o.events = &ring;
  run_campaign({preset("relaxed_quality_mosa_6")}, o);

  std::vector<util::events::Event> events;
  std::uint64_t dropped = 1;
  ring.read_since(0, events, &dropped);
  EXPECT_EQ(dropped, 0u);
  std::size_t started = 0, finished = 0, generations = 0;
  for (const auto& event : events) {
    switch (event.kind) {
      case util::events::Kind::kScenarioStarted: ++started; break;
      case util::events::Kind::kScenarioFinished: ++finished; break;
      case util::events::Kind::kGeneration: ++generations; break;
      default: break;
    }
  }
  EXPECT_EQ(started, 1u);
  EXPECT_EQ(finished, 1u);
  EXPECT_GT(generations, 1u);
}

// Trace spans must nest correctly even when two scenarios run concurrently:
// every evaluate/lifetime/persist span lies inside a scenario span on the
// *same thread*, and both scenario spans appear.
TEST_F(CampaignTest, TraceSpansNestUnderParallelJobs) {
  const fs::path trace_path = root_ / "campaign.trace.json";
  fs::create_directories(root_);
  ASSERT_TRUE(util::trace::start(trace_path.string()));
  CampaignOptions o = options(dir("a"));
  o.jobs = 2;
  run_campaign({preset("hospital_ward_2"), preset("hospital_ward_3")}, o);
  ASSERT_TRUE(util::trace::stop());

  const util::Json trace = util::Json::parse(read_file(trace_path));
  const auto& spans = trace.at("traceEvents").as_array();
  struct Rec {
    std::string name;
    std::int64_t tid = 0;
    double ts = 0.0, dur = 0.0;
  };
  std::vector<Rec> scenario_spans, phase_spans;
  for (const util::Json& span : spans) {
    Rec rec;
    rec.name = span.at("name").as_string();
    rec.tid = span.at("tid").as_int64();
    rec.ts = span.at("ts").as_double();
    rec.dur = span.at("dur").as_double();
    if (rec.name.rfind("scenario:", 0) == 0) {
      scenario_spans.push_back(rec);
    } else if (rec.name == "evaluate" || rec.name == "lifetime" ||
               rec.name == "persist") {
      phase_spans.push_back(rec);
    }
  }
  ASSERT_EQ(scenario_spans.size(), 2u);
  ASSERT_FALSE(phase_spans.empty());
  for (const Rec& phase : phase_spans) {
    bool nested = false;
    for (const Rec& parent : scenario_spans) {
      if (phase.tid == parent.tid && phase.ts >= parent.ts &&
          phase.ts + phase.dur <= parent.ts + parent.dur + 1.0) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << phase.name << " span not nested in any scenario "
                        << "span on its thread";
  }
}

}  // namespace
}  // namespace wsnex::scenario
