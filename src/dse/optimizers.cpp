#include "dse/optimizers.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace wsnex::dse {
namespace {

class Stopwatch {
 public:
  double elapsed_s() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Population member. Objectives live inline (no per-individual heap
/// vector): obj_count == 0 marks infeasibility, mirroring the former
/// empty-vector convention.
struct Individual {
  Genome genome;
  std::array<double, kMaxObjectives> obj{};
  std::uint8_t obj_count = 0;
  std::size_t front = 0;
  double crowding = 0.0;

  bool feasible() const { return obj_count != 0; }
};

/// What environmental selection sorts: the fields better() reads plus the
/// member's index in the pool. A fraction of an Individual's size, and no
/// genome buffer to move.
struct SelectionKey {
  std::size_t front;
  double crowding;
  std::uint32_t index;
  bool is_feasible;

  bool feasible() const { return is_feasible; }
};

/// NSGA-II comparison: feasibility first, then front rank, then crowding.
/// One definition for Individuals (tournaments) and SelectionKeys
/// (environmental selection), so both see the same outcomes.
template <typename Ranked>
bool better(const Ranked& a, const Ranked& b) {
  if (a.feasible() != b.feasible()) return a.feasible();
  if (!a.feasible()) return false;
  if (a.front != b.front) return a.front < b.front;
  return a.crowding > b.crowding;
}

/// Flat-buffer replacement of the former rank_population(): identical
/// front ranks and crowding distances (same comparator and evaluation
/// order as crowding_distances()), with all working memory reused across
/// generations.
class PopulationRanker {
 public:
  void rank(std::vector<Individual>& pop) {
    feasible_idx_.clear();
    flat_.clear();
    std::size_t m = 0;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      if (pop[i].feasible()) {
        feasible_idx_.push_back(i);
        m = pop[i].obj_count;
        flat_.insert(flat_.end(), pop[i].obj.begin(),
                     pop[i].obj.begin() + pop[i].obj_count);
      } else {
        pop[i].front = std::numeric_limits<std::size_t>::max();
        pop[i].crowding = 0.0;
      }
    }
    const std::size_t n = feasible_idx_.size();
    if (n == 0) return;
    detail::non_dominated_fronts_flat(flat_.data(), n, m, front_scratch_,
                                      fronts_);
    // Bucket the members by front (a counting sort that keeps ascending
    // k inside each front, the order crowding_distances() sees).
    std::size_t max_front = 0;
    for (const std::size_t f : fronts_) max_front = std::max(max_front, f);
    front_start_.assign(max_front + 2, 0);
    for (const std::size_t f : fronts_) ++front_start_[f + 1];
    for (std::size_t f = 0; f <= max_front; ++f) {
      front_start_[f + 1] += front_start_[f];
    }
    fill_.assign(front_start_.begin(), front_start_.end() - 1);
    by_front_.resize(n);
    for (std::size_t k = 0; k < n; ++k) by_front_[fill_[fronts_[k]]++] = k;

    for (std::size_t rank = 0; rank <= max_front; ++rank) {
      const std::size_t* members = by_front_.data() + front_start_[rank];
      const std::size_t size = front_start_[rank + 1] - front_start_[rank];
      member_vals_.clear();
      for (std::size_t j = 0; j < size; ++j) {
        const double* row = flat_.data() + members[j] * m;
        member_vals_.insert(member_vals_.end(), row, row + m);
      }
      // member_vals_ holds the front's rows contiguously; the shared
      // crowding core gives the same permutations and distances as
      // crowding_distances() on the same values.
      detail::crowding_distances_flat(member_vals_.data(), size, m, order_,
                                      crowd_);
      for (std::size_t j = 0; j < size; ++j) {
        Individual& ind = pop[feasible_idx_[members[j]]];
        ind.front = rank;
        ind.crowding = crowd_[j];
      }
    }
  }

 private:
  std::vector<std::size_t> feasible_idx_;
  std::vector<double> flat_;
  std::vector<std::size_t> fronts_;
  detail::FrontScratch front_scratch_;
  std::vector<std::size_t> front_start_;
  std::vector<std::size_t> fill_;
  std::vector<std::size_t> by_front_;
  std::vector<double> member_vals_;
  std::vector<detail::CrowdingKey> order_;
  std::vector<double> crowd_;
};

/// Bounded memo of one optimizer run's evaluations: genome -> objective
/// row and count. A genome is keyed by its exact mixed-radix code over
/// the space's domain sizes (plus one, so 0 marks an empty slot), so a
/// key match is a genome match. A space whose cardinality does not fit in
/// 64 bits gets no memo. The table is set-associative, kSets x kWays
/// slots (about 66 KiB at arity 3), and a full set overwrites its ways
/// round-robin: an evicted genome is simply evaluated again.
class GenomeMemo {
 public:
  GenomeMemo(const DesignSpace& space, std::size_t stride) : stride_(stride) {
    std::uint64_t cardinality = 1;
    place_.resize(space.genome_length());
    for (std::size_t g = 0; g < place_.size(); ++g) {
      place_[g] = cardinality;
      const std::uint64_t size = space.domain_size(g);
      if (cardinality > std::numeric_limits<std::uint64_t>::max() / size) {
        place_.clear();  // codes would not be unique: no memo
        return;
      }
      cardinality *= size;
    }
    keys_.assign(kSets * kWays, 0);
    counts_.assign(kSets * kWays, 0);
    rows_.assign(kSets * kWays * stride_, 0.0);
    victim_.assign(kSets, 0);
  }

  bool enabled() const { return !place_.empty(); }

  std::uint64_t key(const Genome& genome) const {
    std::uint64_t code = 1;
    for (std::size_t g = 0; g < place_.size(); ++g) {
      code += genome[g] * place_[g];
    }
    return code;
  }

  /// Copies the remembered row of `key` into `row` and its length into
  /// `count`; false when the genome is not in the table.
  bool recall(std::uint64_t key, double* row, std::uint8_t& count) const {
    const std::size_t base = set_of(key) * kWays;
    for (std::size_t slot = base; slot < base + kWays; ++slot) {
      if (keys_[slot] != key) continue;
      count = counts_[slot];
      std::copy_n(rows_.data() + slot * stride_, count, row);
      return true;
    }
    return false;
  }

  void remember(std::uint64_t key, const double* row, std::uint8_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      if (std::isnan(row[k])) return;  // see ParetoArchive: needs no NaN
    }
    const std::size_t set = set_of(key);
    const std::size_t slot = set * kWays + victim_[set];
    victim_[set] = static_cast<std::uint8_t>((victim_[set] + 1) % kWays);
    keys_[slot] = key;
    counts_[slot] = count;
    std::copy_n(row, count, rows_.data() + slot * stride_);
  }

 private:
  static constexpr std::size_t kSetBits = 9;
  static constexpr std::size_t kSets = std::size_t{1} << kSetBits;
  static constexpr std::size_t kWays = 4;

  static std::size_t set_of(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    (64 - kSetBits));
  }

  std::size_t stride_;
  std::vector<std::uint64_t> place_;  ///< place value of each gene
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> counts_;
  std::vector<double> rows_;
  std::vector<std::uint8_t> victim_;  ///< next way to overwrite, per set
};

/// Shared batch-evaluation state: the flat value/count buffers, the
/// run's genome memo, and the bookkeeping that turns raw rows into
/// archive entries and counters in index order. Every evaluated batch
/// must be booked, row by row in index order, before the next evaluate():
/// a memo hit relies on its genome's first evaluation having been booked.
class BatchRunner {
 public:
  BatchRunner(const DesignSpace& space, const BatchObjectiveFunction& fn)
      : fn_(&fn), stride_(checked_arity(fn)), memo_(space, stride_) {}

  /// Evaluates all genomes; results land in row order in row()/count().
  /// A genome already in the memo is copied from there instead of being
  /// evaluated (the objective is a pure function of the genome).
  void evaluate(std::span<const Genome> genomes) {
    values_.resize(genomes.size() * stride_);
    counts_.resize(genomes.size());
    hits_.resize(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      double* row = values_.data() + i * stride_;
      const std::uint64_t key = memo_.enabled() ? memo_.key(genomes[i]) : 0;
      hits_[i] = memo_.enabled() && memo_.recall(key, row, counts_[i]);
      if (hits_[i]) continue;
      counts_[i] = static_cast<std::uint8_t>(
          fn_->evaluate(genomes[i], std::span<double>(row, stride_), 0));
      if (memo_.enabled()) memo_.remember(key, row, counts_[i]);
    }
  }

  const double* row(std::size_t i) const {
    return values_.data() + i * stride_;
  }
  std::size_t count(std::size_t i) const { return counts_[i]; }

  /// Books row i into the result: bumps the evaluation counter and either
  /// offers the point to the archive or bumps the infeasible counter. A
  /// memo hit repeats a point this run has already offered, which the
  /// archive would reject without changing (see ParetoArchive), so the
  /// insert is skipped.
  bool book(std::size_t i, const Genome& genome, DseResult& result) const {
    ++result.evaluations;
    if (counts_[i] == 0) {
      ++result.infeasible_count;
      return false;
    }
    if (!hits_[i]) {
      result.archive.insert(genome,
                            std::span<const double>(row(i), counts_[i]));
    }
    return true;
  }

 private:
  static std::size_t checked_arity(const BatchObjectiveFunction& fn) {
    const std::size_t arity = fn.arity();
    if (arity == 0 || arity > kMaxObjectives) {
      // Individuals hold objectives inline; an out-of-contract arity
      // must fail loudly, not overrun those arrays.
      throw std::invalid_argument(
          "BatchObjectiveFunction::arity() must be in 1.." +
          std::to_string(kMaxObjectives));
    }
    return arity;
  }

  const BatchObjectiveFunction* fn_;
  std::size_t stride_;
  GenomeMemo memo_;
  std::vector<double> values_;
  std::vector<std::uint8_t> counts_;
  std::vector<std::uint8_t> hits_;
};

/// Fires the progress sink with a read-only snapshot of the run. Called
/// outside all PRNG draws and archive mutations, and only reads `result`,
/// so attaching a sink never perturbs the run.
void notify_progress(const ProgressSink& sink, std::size_t generation,
                     std::size_t last_generation, const DseResult& result,
                     const Stopwatch& watch) {
  if (!sink) return;
  ProgressSnapshot snap;
  snap.generation = generation;
  snap.final = generation == last_generation;
  snap.evaluations = result.evaluations;
  snap.infeasible = result.infeasible_count;
  snap.archive_size = result.archive.size();
  snap.objective_count = result.archive.arity();
  snap.elapsed_s = watch.elapsed_s();
  snap.evals_per_s = snap.elapsed_s > 1e-9
                         ? static_cast<double>(result.evaluations) /
                               snap.elapsed_s
                         : 0.0;
  snap.archive = &result.archive;
  sink(snap);
}

DseResult run_nsga2_batch(const DesignSpace& space,
                          const BatchObjectiveFunction& fn,
                          const Nsga2Options& options) {
  if (options.population < 4) {
    throw std::invalid_argument("run_nsga2: population must be >= 4");
  }
  const Stopwatch watch;
  util::Rng rng(options.seed);
  DseResult result;
  BatchRunner runner(space, fn);
  PopulationRanker ranker;

  // The whole generation is drawn before any evaluation. Objective calls
  // consume no PRNG state, so pulling them out of the draw loop leaves
  // the random stream — and therefore the run — bit-identical to the
  // former draw-evaluate interleaving while handing the objective one
  // batch per generation.
  //
  // Genome buffers circulate instead of being reallocated: absorbing a
  // child swaps its buffer into the pool, and selection swaps the
  // discarded members' buffers back into `pending` for the next
  // generation's children.
  std::vector<Genome> pending(options.population);
  std::vector<Individual> population;  // parents, then parents + offspring
  population.reserve(2 * options.population);
  std::vector<Individual> survivors;
  survivors.reserve(options.population);
  std::vector<SelectionKey> keys;
  keys.reserve(2 * options.population);

  const auto absorb_pending = [&]() {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      runner.book(i, pending[i], result);
      Individual& ind = population.emplace_back();
      const std::size_t count = runner.count(i);
      ind.obj_count = static_cast<std::uint8_t>(count);
      std::copy_n(runner.row(i), count, ind.obj.begin());
      ind.genome.swap(pending[i]);
    }
  };

  for (Genome& genome : pending) genome = space.random_genome(rng);
  runner.evaluate(pending);
  absorb_pending();
  ranker.rank(population);
  notify_progress(options.progress, 0, options.generations, result, watch);

  auto tournament = [&]() -> const Individual& {
    const Individual& a = population[rng.index(population.size())];
    const Individual& b = population[rng.index(population.size())];
    return better(a, b) ? a : b;
  };

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    for (Genome& child : pending) {
      if (rng.bernoulli(options.crossover_rate)) {
        // Parent draw order is pinned explicitly: the historical
        // crossover(tournament(), tournament(), rng) call left it to the
        // (unspecified) argument evaluation order, which gcc resolves
        // right-to-left — the second tournament winner is parent `a`.
        const Individual& parent_b = tournament();
        const Individual& parent_a = tournament();
        space.crossover_into(parent_a.genome, parent_b.genome, rng, child);
      } else {
        child = tournament().genome;
      }
      space.mutate(child, rng, options.mutation_rate);
    }
    runner.evaluate(pending);
    // Environmental selection over parents + offspring. std::sort over
    // the keys makes the same comparisons, in the same order, as the
    // former sort over whole Individuals, so the survivors and their
    // order (ties included) are unchanged.
    absorb_pending();
    ranker.rank(population);
    keys.clear();
    for (std::size_t i = 0; i < population.size(); ++i) {
      const Individual& ind = population[i];
      keys.push_back({ind.front, ind.crowding, static_cast<std::uint32_t>(i),
                      ind.feasible()});
    }
    std::sort(keys.begin(), keys.end(),
              [](const SelectionKey& a, const SelectionKey& b) {
                return better(a, b);
              });
    survivors.clear();
    for (std::size_t k = 0; k < options.population; ++k) {
      survivors.push_back(std::move(population[keys[k].index]));
    }
    for (std::size_t k = options.population; k < keys.size(); ++k) {
      pending[k - options.population].swap(population[keys[k].index].genome);
    }
    std::move(survivors.begin(), survivors.end(), population.begin());
    population.resize(options.population);
    notify_progress(options.progress, gen + 1, options.generations, result,
                    watch);
  }
  result.wallclock_s = watch.elapsed_s();
  return result;
}

DseResult run_mosa_batch(const DesignSpace& space,
                         const BatchObjectiveFunction& fn,
                         const MosaOptions& options) {
  const Stopwatch watch;
  util::Rng rng(options.seed);
  DseResult result;
  BatchRunner runner(space, fn);

  const auto evaluate_one = [&](const Genome& genome) -> bool {
    runner.evaluate(std::span<const Genome>(&genome, 1));
    return runner.book(0, genome, result);
  };

  // Start from a feasible point (bounded retries).
  Genome current = space.random_genome(rng);
  bool have_current = evaluate_one(current);
  for (int tries = 0; !have_current && tries < 512; ++tries) {
    current = space.random_genome(rng);
    have_current = evaluate_one(current);
  }
  if (!have_current) {
    result.wallclock_s = watch.elapsed_s();
    return result;  // space appears infeasible everywhere sampled
  }
  const std::size_t m = runner.count(0);
  std::array<double, kMaxObjectives> current_obj{};
  std::copy_n(runner.row(0), m, current_obj.begin());

  Genome neighbour;
  double temperature = options.initial_temperature;
  notify_progress(options.progress, 0, options.iterations, result, watch);
  for (std::size_t it = 0; it < options.iterations; ++it) {
    neighbour = current;
    space.mutate(neighbour, rng, options.mutation_rate);
    const bool feasible = evaluate_one(neighbour);
    temperature *= options.cooling;
    // An infeasible neighbour is rejected without an acceptance draw.
    if (feasible) {
      const double* neighbour_obj = runner.row(0);
      bool accept = true;  // not dominated by the current point
      if (detail::dominates_row(current_obj.data(), neighbour_obj, m)) {
        // Dominated: accept with probability exp(-relative worsening / T).
        double worsening = 0.0;
        for (std::size_t k = 0; k < m; ++k) {
          const double denom = std::abs(current_obj[k]) + 1e-12;
          worsening += (neighbour_obj[k] - current_obj[k]) / denom;
        }
        accept = rng.uniform01() <
                 std::exp(-worsening / std::max(temperature, 1e-9));
      }
      if (accept) {
        current.swap(neighbour);
        std::copy_n(neighbour_obj, m, current_obj.begin());
      }
    }
    notify_progress(options.progress, it + 1, options.iterations, result,
                    watch);
  }
  result.wallclock_s = watch.elapsed_s();
  return result;
}

}  // namespace

DseResult run_nsga2(const DesignSpace& space, const ObjectiveFunction& fn,
                    const Nsga2Options& options) {
  return run_nsga2_batch(space, *make_batch_adapter(space, fn), options);
}

DseResult run_nsga2(const DesignSpace& space,
                    const BatchObjectiveFunction& fn,
                    const Nsga2Options& options) {
  return run_nsga2_batch(space, fn, options);
}

DseResult run_mosa(const DesignSpace& space, const ObjectiveFunction& fn,
                   const MosaOptions& options) {
  return run_mosa_batch(space, *make_batch_adapter(space, fn), options);
}

DseResult run_mosa(const DesignSpace& space, const BatchObjectiveFunction& fn,
                   const MosaOptions& options) {
  return run_mosa_batch(space, fn, options);
}

DseResult run_random_search(const DesignSpace& space,
                            const ObjectiveFunction& fn,
                            const RandomSearchOptions& options) {
  const Stopwatch watch;
  util::Rng rng(options.seed);
  DseResult result;
  for (std::size_t i = 0; i < options.samples; ++i) {
    const Genome genome = space.random_genome(rng);
    const auto obj = fn(space.decode(genome));
    ++result.evaluations;
    if (obj) {
      result.archive.insert(genome, *obj);
    } else {
      ++result.infeasible_count;
    }
  }
  result.wallclock_s = watch.elapsed_s();
  return result;
}

DseResult run_exhaustive(const DesignSpace& space, const ObjectiveFunction& fn,
                         const ExhaustiveOptions& options) {
  if (space.cardinality() > options.max_cardinality) {
    throw std::invalid_argument(
        "run_exhaustive: design space too large to enumerate");
  }
  const Stopwatch watch;
  DseResult result;
  Genome genome(space.genome_length(), 0);
  for (;;) {
    const auto obj = fn(space.decode(genome));
    ++result.evaluations;
    if (obj) {
      result.archive.insert(genome, *obj);
    } else {
      ++result.infeasible_count;
    }
    // Odometer increment over the mixed-radix genome.
    std::size_t g = 0;
    for (; g < genome.size(); ++g) {
      if (genome[g] + 1u < space.domain_size(g)) {
        ++genome[g];
        break;
      }
      genome[g] = 0;
    }
    if (g == genome.size()) break;
  }
  result.wallclock_s = watch.elapsed_s();
  return result;
}

}  // namespace wsnex::dse
