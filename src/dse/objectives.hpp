// Objective adapters: design -> objective vector.
//
// Two evaluation surfaces coexist:
//  * the scalar ObjectiveFunction (design -> optional objective vector),
//    the original one-design-at-a-time API, and
//  * BatchObjectiveFunction, the DSE hot-path API: genome-indexed and
//    allocation-free after warm-up. run_nsga2/run_mosa evaluate each
//    batch on the calling thread, through a per-run genome memo.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "dse/design_space.hpp"
#include "model/baseline.hpp"

namespace wsnex::dse {

class SharedEvalCache;  // eval_cache.hpp — optional cross-scenario cache

using Objectives = std::vector<double>;

/// Evaluation callback: returns the (minimization) objective vector for a
/// design, or nullopt when the design is infeasible. The batch engine
/// behind run_nsga2/run_mosa stores objectives inline, so vectors are
/// limited to kMaxObjectives components (the paper uses 3); longer ones
/// raise std::length_error on first evaluation. Handed to run_nsga2 or
/// run_mosa it must be a pure function of the design, like
/// BatchObjectiveFunction::evaluate: those runs call it at most once per
/// distinct design they remember.
using ObjectiveFunction =
    std::function<std::optional<Objectives>(const model::NetworkDesign&)>;

/// The paper's three-metric objective: (E_net [mJ/s], PRD_net [%],
/// D_net [s]) from the full multi-layer model.
ObjectiveFunction make_full_model_objective(
    const model::NetworkModelEvaluator& evaluator);

/// The state-of-the-art two-metric baseline [26]: (energy, delay) only.
ObjectiveFunction make_baseline_objective(
    const model::BaselineEnergyDelayModel& baseline);

/// Upper bound on objective-vector length supported by the batch path —
/// sized so optimizer individuals carry objectives inline (the paper's
/// full model has 3, the energy/delay baseline 2).
inline constexpr std::size_t kMaxObjectives = 4;

/// Batched, genome-indexed objective. The library's implementations own
/// one scratch slot and the optimizers always pass worker 0; calls sharing
/// a slot must not run concurrently.
class BatchObjectiveFunction {
 public:
  virtual ~BatchObjectiveFunction() = default;

  /// Maximum objective values written per design — the stride callers use
  /// for batch value buffers. Never exceeds kMaxObjectives.
  virtual std::size_t arity() const = 0;

  /// Unused by the library; kept for source compatibility.
  virtual std::size_t worker_slots() const = 0;

  /// Evaluates the design encoded by `genome`. Writes the objective
  /// vector into `out` (whose size must be >= arity()) and returns its
  /// length, or returns 0 for an infeasible design (`out` is then
  /// unspecified).
  ///
  /// Must be a pure function of the genome: the same genome always gives
  /// the same length and bit-identical values. run_nsga2 and run_mosa keep
  /// a bounded per-run memo of evaluated genomes and serve repeats from it
  /// without calling evaluate() again (DseResult::evaluations still counts
  /// every design), so a side effect per call is not observed per design.
  virtual std::size_t evaluate(const Genome& genome, std::span<double> out,
                               std::size_t worker) const = 0;
};

/// Memoized full-model batch objective — the DSE fast path.
///
/// Construction precomputes (a) the application-layer stage (phi_out, PRD,
/// resource usage) for every (codec, CR, f_uC) grid point of `space` via
/// model::AppLayerTable, and (b) one Ieee802154MacModel per (payload, BCO,
/// SFO-gap) combination. evaluate() then runs only the design-dependent
/// remainder (slot assignment, radio energy, delay bounds, Eq. 8 metrics)
/// through NetworkModelEvaluator::evaluate_with_app_stage, with zero
/// steady-state allocations.
///
/// Invariants: results are bit-identical to
/// make_full_model_objective(evaluator) applied to space.decode(genome) —
/// the memo only caches inputs, every arithmetic operation happens in the
/// same model-layer functions. Both `evaluator` and `space` must outlive
/// the returned object, and the space's grids must not change.
///
/// With `cache` set, the app-layer table and the MAC models are fetched
/// from (or published to) that SharedEvalCache instead of being built
/// privately, so scenarios with overlapping grids compute each entry once
/// per process. Cached artifacts are immutable and key-matched on the
/// full configuration, so results stay bit-identical; the cache must
/// outlive the returned object.
///
/// `worker_slots` is ignored; kept for source compatibility.
std::unique_ptr<BatchObjectiveFunction> make_memoized_full_model_objective(
    const model::NetworkModelEvaluator& evaluator, const DesignSpace& space,
    std::size_t worker_slots = 1, SharedEvalCache* cache = nullptr);

/// Adapts a scalar ObjectiveFunction to the batch interface by decoding
/// each genome and forwarding.
std::unique_ptr<BatchObjectiveFunction> make_batch_adapter(
    const DesignSpace& space, const ObjectiveFunction& fn);

/// Counts evaluations (shared by the DSE throughput accounting).
/// Thread-safe: the counter is atomic, so one instance may be shared by
/// runs on different threads (the wrapped fn must then be thread-safe
/// too).
class CountingObjective {
 public:
  explicit CountingObjective(ObjectiveFunction fn) : fn_(std::move(fn)) {}

  std::optional<Objectives> operator()(const model::NetworkDesign& d) const {
    count_.fetch_add(1, std::memory_order_relaxed);
    return fn_(d);
  }
  std::size_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  ObjectiveFunction fn_;
  mutable std::atomic<std::size_t> count_ = 0;
};

}  // namespace wsnex::dse
