#include "corpus.hpp"

#include <string>

namespace perfbench {

namespace sc = wsnex::scenario;
namespace sv = wsnex::serve;
using wsnex::util::Json;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

namespace {

enum class Channel { kIdeal, kLossy, kBursty };

/// Grid sets scenarios draw from. Few on purpose: scenarios with equal
/// grids share SharedEvalCache app-layer tables and MAC models.
void apply_grid(sc::ScenarioSpec& spec, std::size_t grid) {
  switch (grid % 3) {
    case 0:
      break;  // the Section 4.1 case-study grids (ScenarioSpec defaults)
    case 1:
      spec.cr_grid = {0.17, 0.20, 0.23, 0.26, 0.29, 0.32};
      spec.mcu_freq_khz_grid = {2000, 4000, 8000};
      spec.payload_grid = {48, 64, 80, 96, 114};
      spec.bco_grid = {5, 6, 7, 8};
      spec.sfo_gap_grid = {0, 1, 2};
      break;
    default:
      spec.cr_grid = {0.20, 0.26, 0.32, 0.38};
      spec.mcu_freq_khz_grid = {1000, 2000, 4000, 8000};
      spec.payload_grid = {32, 64, 96, 114};
      spec.bco_grid = {4, 5, 6, 7};
      spec.sfo_gap_grid = {0, 1};
      break;
  }
}

struct Slot {
  std::size_t nodes = 6;
  std::size_t grid = 0;
  Channel channel = Channel::kIdeal;
  sc::ChannelAccess access = sc::ChannelAccess::kTdma;
};

sc::ScenarioSpec make_spec(Rng& rng, const std::string& name,
                           const Slot& slot) {
  sc::ScenarioSpec spec;
  spec.name = name;
  spec.description = "perfbench generated scenario";
  spec.node_count = slot.nodes;
  switch (rng.below(4)) {
    case 0:
      break;  // the paper's default mix: first half DWT, rest CS
    case 1:
      spec.apps.assign(slot.nodes, wsnex::model::AppKind::kDwt);
      break;
    case 2:
      spec.apps.assign(slot.nodes, wsnex::model::AppKind::kCs);
      break;
    default:
      for (std::size_t i = 0; i < slot.nodes; ++i) {
        spec.apps.push_back(rng.below(2) == 0 ? wsnex::model::AppKind::kDwt
                                              : wsnex::model::AppKind::kCs);
      }
      break;
  }
  apply_grid(spec, slot.grid);
  switch (slot.channel) {
    case Channel::kIdeal:
      break;
    case Channel::kLossy:
      spec.channel.frame_error_rate = rng.uniform(0.01, 0.08);
      break;
    case Channel::kBursty:
      spec.channel.burst.burst_fer = rng.uniform(0.3, 0.6);
      spec.channel.burst.mean_burst_frames = rng.uniform(4.0, 12.0);
      spec.channel.burst.bad_fraction = rng.uniform(0.05, 0.15);
      break;
  }
  spec.access = slot.access;
  spec.constraints.max_prd_percent = rng.uniform(35.0, 60.0);
  spec.constraints.max_delay_s = rng.uniform(0.5, 2.0);
  spec.optimizer.seed = 1 + rng.below(1000000000);
  return spec;
}

/// Fixed multiset of channel models and access modes, shuffled by the
/// seed: every corpus has the same counts of each.
std::vector<Slot> make_slots(Rng& rng, std::size_t count, std::size_t lossy,
                             std::size_t bursty, std::size_t csma) {
  std::vector<Channel> channels(count, Channel::kIdeal);
  for (std::size_t i = 0; i < lossy + bursty && i < count; ++i) {
    channels[i] = i < lossy ? Channel::kLossy : Channel::kBursty;
  }
  std::vector<sc::ChannelAccess> access(count, sc::ChannelAccess::kTdma);
  for (std::size_t i = 0; i < csma && i < count; ++i) {
    access[i] = sc::ChannelAccess::kCsma;
  }
  rng.shuffle(channels);
  rng.shuffle(access);
  std::vector<Slot> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    slots[i].nodes = 2 + i % 6;
    slots[i].grid = i % 3;
    slots[i].channel = channels[i];
    slots[i].access = access[i];
  }
  return slots;
}

std::string indexed(const char* prefix, std::size_t i) {
  return std::string(prefix) + (i < 10 ? "0" : "") + std::to_string(i);
}

}  // namespace

std::vector<sc::ScenarioSpec> nsga2_corpus(std::uint64_t seed, bool tiny) {
  // Four budget tiers, largest first so the longest scenarios start first
  // on the --jobs pool.
  struct Budget {
    std::size_t population;
    std::size_t generations;
  };
  const Budget tiers[] = {{256, 400}, {192, 300}, {128, 200}, {64, 100}};
  const std::size_t count = tiny ? 6 : 16;
  Rng rng(seed ^ 0x6E736761325F3031ULL);
  const std::vector<Slot> slots =
      make_slots(rng, count, count / 4, count / 4, count / 4);
  std::vector<sc::ScenarioSpec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    sc::ScenarioSpec spec = make_spec(rng, indexed("nsga2_", i), slots[i]);
    const Budget budget = tiny ? Budget{16, 8} : tiers[i * 4 / count];
    spec.optimizer.kind = sc::OptimizerKind::kNsga2;
    spec.optimizer.population = budget.population;
    spec.optimizer.generations = budget.generations;
    spec.validate();
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<sc::ScenarioSpec> mosa_corpus(std::uint64_t seed, bool tiny) {
  // Many scenarios at the default budget (4000 iterations) rather than a
  // few long ones: a MOSA run's cost follows its archive size, which the
  // seed moves, and the sum over 24 scenarios varies less between seeds.
  const std::size_t count = tiny ? 3 : 24;
  Rng rng(seed ^ 0x6D6F73615F303031ULL);
  const std::vector<Slot> slots =
      make_slots(rng, count, count / 4, count / 4, count / 4);
  std::vector<sc::ScenarioSpec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    sc::ScenarioSpec spec = make_spec(rng, indexed("mosa_", i), slots[i]);
    spec.optimizer.kind = sc::OptimizerKind::kMosa;
    if (tiny) spec.optimizer.iterations = 256;
    spec.validate();
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<sv::JobSpec> serve_jobs(std::uint64_t seed, bool tiny) {
  Rng rng(seed ^ 0x73657276655F3031ULL);

  // Scenario pools the jobs draw from: small NSGA-II campaigns, MOSA at
  // its normal (default) budget, and TDMA wards for Monte Carlo
  // validation (ideal TDMA links, where the analytical model is documented
  // to hold within the 10 % tolerance; on lossy links the near-zero drop
  // rate fails the MAPE test).
  struct Budget {
    std::size_t population;
    std::size_t generations;
  };
  // Few generations: every generation is one event the watching client
  // is woken for, and each wake-up is a new HTTP connection.
  const Budget tiers[] = {{256, 3}, {384, 3}, {512, 3}, {512, 4}};
  const std::size_t nsga2_count = 24;
  std::vector<sc::ScenarioSpec> nsga2_pool;
  for (const Slot& slot : make_slots(rng, nsga2_count, 6, 6, 6)) {
    sc::ScenarioSpec spec =
        make_spec(rng, indexed("svc_", nsga2_pool.size()), slot);
    const Budget budget =
        tiny ? Budget{16, 8} : tiers[nsga2_pool.size() % 4];
    spec.optimizer.population = budget.population;
    spec.optimizer.generations = budget.generations;
    spec.validate();
    nsga2_pool.push_back(std::move(spec));
  }
  // MOSA wards all have six patients, so the MOSA jobs (the p95 of the
  // stream) cost about the same and their latencies form one group.
  std::vector<sc::ScenarioSpec> mosa_pool;
  for (Slot slot : make_slots(rng, 4, 1, 1, 1)) {
    slot.nodes = 6;
    sc::ScenarioSpec spec =
        make_spec(rng, indexed("svc_mosa_", mosa_pool.size()), slot);
    spec.optimizer.kind = sc::OptimizerKind::kMosa;
    if (tiny) spec.optimizer.iterations = 256;
    spec.validate();
    mosa_pool.push_back(std::move(spec));
  }
  std::vector<sc::ScenarioSpec> validation_pool;
  for (const Slot& slot : make_slots(rng, 8, 0, 0, 0)) {
    sc::ScenarioSpec spec =
        make_spec(rng, indexed("svc_val_", validation_pool.size()), slot);
    spec.validate();
    validation_pool.push_back(std::move(spec));
  }

  // One cycle of ten jobs: six campaign jobs (one of 1 NSGA-II scenario,
  // three of 2, two of 3), three validation jobs, one MOSA job. The cycle
  // fixes the mix; the seed picks what is in each job. Latency rises with
  // the scenario count, and this split puts the median job inside the
  // 2-scenario group rather than on the edge between two groups, where
  // the p50 would jump between them from run to run.
  const char pattern[] = "CCVCCVCMCV";
  const std::size_t sizes[] = {2, 3, 1, 2, 3, 2};
  const std::size_t count = tiny ? 20 : 4000;
  std::vector<sv::JobSpec> jobs;
  std::size_t campaign_jobs = 0;
  std::size_t mosa_jobs = 0;
  std::size_t validation_jobs = 0;
  for (std::size_t i = 0; i < count; ++i) {
    sv::JobSpec job;
    switch (pattern[i % 10]) {
      case 'C': {
        const std::size_t n = sizes[campaign_jobs++ % 6];
        std::vector<std::size_t> picks;
        while (picks.size() < n) {
          const std::size_t pick = rng.below(nsga2_pool.size());
          bool seen = false;
          for (std::size_t p : picks) seen = seen || p == pick;
          if (!seen) picks.push_back(pick);
        }
        for (std::size_t p : picks) job.scenarios.push_back(nsga2_pool[p]);
        break;
      }
      // MOSA and validation jobs take their pools in turn: the MOSA jobs
      // hold the p95, which would otherwise move with the seed's picks.
      case 'M':
        job.scenarios.push_back(mosa_pool[mosa_jobs++ % mosa_pool.size()]);
        break;
      default: {
        job.kind = sv::JobKind::kValidation;
        job.scenarios.push_back(
            validation_pool[validation_jobs++ % validation_pool.size()]);
        // At least 60 simulated seconds: shorter replays bias goodput low
        // by their start-up transient and fail the 10 % tolerance.
        job.validation.replicates = tiny ? 2 : 4 + 2 * rng.below(3);
        job.validation.duration_s = 60.0 + 30.0 * rng.below(3);
        job.validation.base_seed = 1 + rng.below(1000000000);
        break;
      }
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Json corpus_json(Workload workload, std::uint64_t seed, bool tiny) {
  Json out = Json::array();
  if (workload == Workload::kServeMixed) {
    for (const sv::JobSpec& job : serve_jobs(seed, tiny)) {
      out.push_back(job.to_json());
    }
    return out;
  }
  const auto specs = workload == Workload::kCampaignNsga2
                         ? nsga2_corpus(seed, tiny)
                         : mosa_corpus(seed, tiny);
  for (const sc::ScenarioSpec& spec : specs) out.push_back(spec.to_json());
  return out;
}

}  // namespace perfbench
