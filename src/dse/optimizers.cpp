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

/// NSGA-II comparison: feasibility first, then front rank, then crowding.
bool better(const Individual& a, const Individual& b) {
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
    detail::non_dominated_fronts_flat(flat_.data(), n, m, front_scratch_,
                                      fronts_);
    std::size_t max_front = 0;
    for (const std::size_t f : fronts_) max_front = std::max(max_front, f);
    for (std::size_t rank = 0; rank <= max_front && n > 0; ++rank) {
      members_.clear();
      member_vals_.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (fronts_[k] == rank) {
          members_.push_back(k);
          member_vals_.insert(member_vals_.end(),
                              flat_.begin() + static_cast<std::ptrdiff_t>(
                                  k * m),
                              flat_.begin() + static_cast<std::ptrdiff_t>(
                                  (k + 1) * m));
        }
      }
      // member_vals_ holds the front's rows contiguously; the shared
      // crowding core gives the same permutations and distances as
      // crowding_distances() on the same values.
      detail::crowding_distances_flat(member_vals_.data(), members_.size(),
                                      m, order_, crowd_);
      for (std::size_t k = 0; k < members_.size(); ++k) {
        Individual& ind = pop[feasible_idx_[members_[k]]];
        ind.front = rank;
        ind.crowding = crowd_[k];
      }
    }
  }

 private:
  std::vector<std::size_t> feasible_idx_;
  std::vector<double> flat_;
  std::vector<std::size_t> fronts_;
  detail::FrontScratch front_scratch_;
  std::vector<std::size_t> members_;
  std::vector<double> member_vals_;
  std::vector<std::size_t> order_;
  std::vector<double> crowd_;
};

/// Shared batch-evaluation state: the flat value/count buffers and the
/// bookkeeping that turns raw rows into archive entries and counters in
/// index order.
class BatchRunner {
 public:
  explicit BatchRunner(const BatchObjectiveFunction& fn)
      : fn_(&fn), stride_(fn.arity()) {
    if (stride_ == 0 || stride_ > kMaxObjectives) {
      // Individuals hold objectives inline; an out-of-contract arity
      // must fail loudly, not overrun those arrays.
      throw std::invalid_argument(
          "BatchObjectiveFunction::arity() must be in 1.." +
          std::to_string(kMaxObjectives));
    }
  }

  /// Evaluates all genomes; results land in row order in row()/count().
  void evaluate(std::span<const Genome> genomes) {
    values_.resize(genomes.size() * stride_);
    counts_.resize(genomes.size());
    evaluate_genome_batch(*fn_, genomes, values_, counts_);
  }

  const double* row(std::size_t i) const {
    return values_.data() + i * stride_;
  }
  std::size_t count(std::size_t i) const { return counts_[i]; }

  /// Books row i into the result exactly like the former per-call lambda:
  /// bumps the evaluation counter and either archives the point or bumps
  /// the infeasible counter.
  bool book(std::size_t i, const Genome& genome, DseResult& result) const {
    ++result.evaluations;
    if (counts_[i] == 0) {
      ++result.infeasible_count;
      return false;
    }
    result.archive.insert(genome,
                          std::span<const double>(row(i), counts_[i]));
    return true;
  }

 private:
  const BatchObjectiveFunction* fn_;
  std::size_t stride_;
  std::vector<double> values_;
  std::vector<std::uint8_t> counts_;
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
  BatchRunner runner(fn);
  PopulationRanker ranker;

  // The whole generation is drawn before any evaluation. Objective calls
  // consume no PRNG state, so pulling them out of the draw loop leaves
  // the random stream — and therefore the run — bit-identical to the
  // former draw-evaluate interleaving while handing the objective one
  // batch per generation.
  std::vector<Genome> pending(options.population);
  std::vector<Individual> population;
  population.reserve(2 * options.population);

  const auto absorb_pending = [&](std::vector<Individual>& into) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Individual ind;
      const std::size_t count = runner.count(i);
      runner.book(i, pending[i], result);
      ind.obj_count = static_cast<std::uint8_t>(count);
      std::copy_n(runner.row(i), count, ind.obj.begin());
      ind.genome = std::move(pending[i]);
      into.push_back(std::move(ind));
    }
  };

  for (Genome& genome : pending) genome = space.random_genome(rng);
  runner.evaluate(pending);
  absorb_pending(population);
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
    // Environmental selection over parents + offspring.
    absorb_pending(population);
    ranker.rank(population);
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return better(a, b);
              });
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
  BatchRunner runner(fn);

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
