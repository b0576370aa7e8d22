#ifndef RAQO_CORE_RESOURCE_PLANNER_H_
#define RAQO_CORE_RESOURCE_PLANNER_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "common/result.h"
#include "common/thread_pool.h"
#include "resource/cluster_conditions.h"
#include "resource/resource_config.h"

namespace raqo::core {

/// Scalar cost of running the sub-plan under a resource configuration.
/// Implementations typically wrap a learned OperatorCostModel; returning
/// +infinity marks an infeasible configuration.
using ResourceCostFn = std::function<double(const resource::ResourceConfig&)>;

/// NaN objective values (e.g. from degenerate cardinality estimates)
/// would break the searches' comparisons; every search treats them as
/// infeasible (+infinity).
inline double SanitizeCost(double cost) {
  return std::isnan(cost) ? std::numeric_limits<double>::infinity() : cost;
}

/// Sound lower bound of the cost over *every* grid cell in the inclusive
/// box [lo, hi]: for all cells r in the box, bound(lo, hi) <= cost(r).
/// Returning -infinity says "no bound available for this box" and simply
/// disables pruning there — soundness over tightness, always.
using ResourceBoxBoundFn = std::function<double(
    const resource::ResourceConfig& lo, const resource::ResourceConfig& hi)>;

/// Optional acceleration hints for a resource search. Both members are
/// pure accelerators: any planner honoring them must return bit-identical
/// results with or without them (the incremental-search property tests
/// hold every combination to that).
struct ResourceSearchHints {
  /// Enables dominance pruning (branch-and-bound over grid blocks).
  /// Empty function => no pruning.
  ResourceBoxBoundFn box_lower_bound;
  /// The previous search's optimum under similar data characteristics
  /// (the switch-point observation: the winning cell moves rarely).
  /// Seeding the incumbent with it lets tight bounds prune almost the
  /// whole grid when no switch point was crossed. Snapped onto the
  /// current grid before use, so a stale or off-grid value is safe.
  std::optional<resource::ResourceConfig> warm_start;
};

/// Outcome of planning resources for one sub-plan.
struct ResourcePlanResult {
  resource::ResourceConfig config;
  /// Objective value at `config` (+infinity if nothing feasible).
  double cost = 0.0;
  /// Calls the search made to the cost function — the paper's
  /// "#Resource-Iterations" overhead metric (Figure 13). A cell whose
  /// cost the search already holds is neither re-costed nor counted.
  int64_t configs_explored = 0;
  /// Grid cells skipped by dominance pruning (0 for exhaustive scans).
  int64_t cells_pruned = 0;
  /// Lower-bound oracle invocations (each costs ~4 model evaluations).
  int64_t bound_probes = 0;
  /// True when the winning cell is the warm-start cell — no switch point
  /// was crossed since the previous search.
  bool warm_start_won = false;
};

/// Picks the resource configuration for one sub-plan (one join operator),
/// given the current cluster conditions. The paper plans resources
/// per-operator because joins sit at shuffle boundaries and can be
/// provisioned independently (Section VI-B).
class ResourcePlanner {
 public:
  virtual ~ResourcePlanner() = default;

  /// Searches the cluster's discrete resource grid. Fails with
  /// FailedPrecondition when no configuration in the grid is feasible.
  virtual Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const = 0;

  /// PlanResources with acceleration hints. The default ignores the
  /// hints — only searches that can exploit them while preserving their
  /// exactness contract override this (the hill climbers are already
  /// heuristic and gain nothing sound from a bound).
  virtual Result<ResourcePlanResult> PlanResourcesWithHints(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster,
      const ResourceSearchHints& hints) const {
    (void)hints;
    return PlanResources(cost, cluster);
  }

  virtual const char* name() const = 0;
};

/// Exhaustive search over every configuration in the grid
/// (Section VI-B.1). Optimal but expensive: cost is rp * rc evaluations.
class BruteForceResourcePlanner : public ResourcePlanner {
 public:
  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;
  const char* name() const override { return "brute-force"; }
};

/// Algorithm 1 of the paper: hill climbing from the smallest resource
/// configuration. In each round the climber tries one step forward and
/// one step backward along every resource dimension (backtracking after
/// each probe), keeps the best improving move per dimension, and stops at
/// a local optimum. Greedy, so typically ~4x fewer cost evaluations than
/// brute force on the paper's grids.
///
/// The cost function is assumed pure. Two cells recur from round to
/// round: a round starts on the previous round's last accepted probe,
/// and the backward probe along the last move lands on the previous
/// round's start. The climber remembers both with their costs and reuses
/// a cost only when the probed configuration is bit-equal to the
/// remembered one, so results are those of the literal algorithm while
/// `configs_explored` counts the cost calls actually made (docs/PERF.md,
/// "Non-repeating hill climb").
class HillClimbResourcePlanner : public ResourcePlanner {
 public:
  /// `start`: override of the climb's starting point; defaults to the
  /// cluster minimum ("users want to minimize the resources used").
  HillClimbResourcePlanner() = default;
  explicit HillClimbResourcePlanner(resource::ResourceConfig start)
      : start_(start), has_start_(true) {}

  /// Instantiates Climb with the type-erased ResourceCostFn.
  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;
  const char* name() const override { return "hill-climb"; }

  /// The climb itself, over any callable `double(const ResourceConfig&)`.
  /// Callers that own a concrete objective (RaqoCostEvaluator) call it
  /// directly, so each probe is inlined instead of going through a
  /// std::function.
  template <typename CostFn>
  Result<ResourcePlanResult> Climb(
      const CostFn& cost, const resource::ClusterConditions& cluster) const;

 private:
  resource::ResourceConfig start_;
  bool has_start_ = false;
};

/// Brute force with the rp x rc grid partitioned across a thread pool:
/// each worker scans a contiguous band of container-size rows and keeps
/// its local optimum; bands are merged in row-major order, so the result
/// (config, cost, and tie-breaking) is bit-identical to
/// BruteForceResourcePlanner while the wall clock shrinks with the
/// worker count. The supplied cost function is invoked concurrently and
/// must therefore be thread-safe (the learned-model objectives are: they
/// only read immutable model weights).
///
/// Grids below `min_parallel_cells` (and any grid when the pool is
/// absent or has a single worker) are scanned sequentially on the
/// calling thread with the very same enumeration arithmetic, so the
/// cold small-grid path can never be slower than
/// BruteForceResourcePlanner — fan-out/join dispatch only happens where
/// there is enough work to amortize it. The result is bit-identical
/// either way.
class ParallelBruteForceResourcePlanner : public ResourcePlanner {
 public:
  /// Grids smaller than this many cells are scanned sequentially. The
  /// paper-default 10x100 grid sits far below it on purpose: at ~1000
  /// cheap model evaluations, fan-out costs more than it buys.
  static constexpr int64_t kDefaultMinParallelCells = 2048;

  /// Owns a private pool of `num_threads` workers. Prefer the borrowing
  /// constructor wherever a pool already exists — per-planner pools
  /// multiply into N x M threads when planners are themselves pooled.
  explicit ParallelBruteForceResourcePlanner(int num_threads);

  /// Borrows `pool` (must outlive the planner; nullptr degrades to the
  /// sequential scan). Do not call PlanResources from tasks already
  /// running on that pool.
  explicit ParallelBruteForceResourcePlanner(ThreadPool* pool);

  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;
  const char* name() const override { return "parallel-brute-force"; }

  /// Adjusts the sequential-fallback threshold (cells). 0 forces the
  /// parallel path for every grid (tests use this to exercise it).
  void set_min_parallel_cells(int64_t cells) { min_parallel_cells_ = cells; }
  int64_t min_parallel_cells() const { return min_parallel_cells_; }

 private:
  ThreadPool* pool_;
  std::unique_ptr<ThreadPool> owned_pool_;
  int64_t min_parallel_cells_ = kDefaultMinParallelCells;
};

/// The switch-point-aware incremental grid search: exhaustive-equivalent
/// (bit-identical winner, cost, and tie-break to
/// BruteForceResourcePlanner) but typically evaluating a small fraction
/// of the grid. Three mechanisms compose:
///
///   1. *Warm start / join-plan reuse*: the previous search's optimum is
///      re-costed first and seeds the incumbent. The paper's Fig. 4/9
///      observation — optima move only at sparse switch points — makes
///      this seed almost always the final winner, so the rest of the
///      sweep is pure verification.
///   2. *Dominance pruning*: the grid is swept in row-major rank order
///      as rows, then blocks of `block_cells` cells; each is skipped
///      when a sound lower bound (hints.box_lower_bound, built from the
///      validated-monotone cost model) shows it cannot beat — or
///      cannot earlier-rank-tie — the incumbent.
///   3. On grids of at least `min_parallel_cells` with a pool attached,
///      rows fan out over ParallelFor; bands prune against their local
///      incumbent plus a shared atomic best-cost (strict rule only —
///      stale reads prune less, never wrong), and band results merge by
///      (cost, rank) exactly like the parallel brute force.
///
/// The tie-break is load-bearing: the cost model clamps predictions at a
/// floor, so large equal-cost plateaus are common and "first cell in
/// row-major order wins" is part of the exhaustive search's observable
/// behavior. A block is therefore pruned only when its bound *strictly*
/// exceeds the incumbent, or ties it while the whole block ranks after
/// the incumbent's cell. Soundness argument: docs/PERF.md.
///
/// Without hints this degrades to the plain exhaustive scan (still
/// bit-identical). The cost function must be thread-safe when a pool is
/// attached.
class SwitchAwareGridResourcePlanner : public ResourcePlanner {
 public:
  /// Cells per pruning block within a row. Small enough that one
  /// surviving block costs little to scan, large enough that bound
  /// probes (~4 model evaluations each) amortize.
  static constexpr int64_t kDefaultBlockCells = 16;

  /// `pool` may be nullptr (sequential always); borrowed, must outlive
  /// the planner.
  explicit SwitchAwareGridResourcePlanner(ThreadPool* pool = nullptr)
      : pool_(pool) {}

  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;

  Result<ResourcePlanResult> PlanResourcesWithHints(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster,
      const ResourceSearchHints& hints) const override;

  const char* name() const override { return "switch-aware-grid"; }

  /// Grids below this many cells are swept on the calling thread even
  /// when a pool is attached (same default as the parallel brute force).
  void set_min_parallel_cells(int64_t cells) { min_parallel_cells_ = cells; }
  void set_block_cells(int64_t cells) {
    block_cells_ = cells < 1 ? 1 : cells;
  }

 private:
  ThreadPool* pool_;
  int64_t min_parallel_cells_ =
      ParallelBruteForceResourcePlanner::kDefaultMinParallelCells;
  int64_t block_cells_ = kDefaultBlockCells;
};

template <typename CostFn>
Result<ResourcePlanResult> HillClimbResourcePlanner::Climb(
    const CostFn& cost, const resource::ClusterConditions& cluster) const {
  // A cell whose cost is known, matched bit for bit: `(x + d) - d` need
  // not equal `x` on non-integer steps, and a near miss simply
  // re-evaluates.
  struct KnownCell {
    resource::ResourceConfig config;
    double cost = 0.0;
    bool valid = false;

    bool Holds(const resource::ResourceConfig& c) const {
      if (!valid) return false;
      for (size_t dim = 0; dim < resource::kNumResourceDims; ++dim) {
        if (std::bit_cast<uint64_t>(c.dim(dim)) !=
            std::bit_cast<uint64_t>(config.dim(dim))) {
          return false;
        }
      }
      return true;
    }
  };
  KnownCell accepted;    // last accepted probe; its cost is best_cost
  KnownCell prev_start;  // start of the previous round
  int64_t explored = 0;
  auto evaluate = [&](const resource::ResourceConfig& c) {
    if (accepted.Holds(c)) return accepted.cost;
    if (prev_start.Holds(c)) return prev_start.cost;
    ++explored;
    return SanitizeCost(cost(c));
  };

  // Algorithm 1, lines 1-3: step sizes come from the cluster's discrete
  // grid; candidate steps are one backward and one forward; the climb
  // starts from the smallest resources unless overridden.
  const resource::ResourceConfig& step = cluster.step();
  static constexpr double kCandidates[] = {-1.0, 1.0};
  resource::ResourceConfig curr =
      has_start_ ? cluster.SnapToGrid(start_) : cluster.min();

  // Lines 4-21: climb until no candidate step improves the cost.
  while (true) {
    const resource::ResourceConfig round_start = curr;
    const double curr_cost = evaluate(curr);
    double best_cost = curr_cost;
    KnownCell best_probe;
    for (size_t dim = 0; dim < resource::kNumResourceDims; ++dim) {
      int best_candidate = -1;
      for (int j = 0; j < 2; ++j) {
        const double delta = step.dim(dim) * kCandidates[j];
        const double moved = curr.dim(dim) + delta;
        if (moved > cluster.max().dim(dim) + 1e-9 ||
            moved < cluster.min().dim(dim) - 1e-9) {
          continue;
        }
        curr.set_dim(dim, moved);            // apply
        const double temp = evaluate(curr);  // probe
        if (temp < best_cost) {
          best_cost = temp;
          best_candidate = j;
          best_probe = {curr, temp, true};
        }
        curr.set_dim(dim, moved - delta);    // backtrack
      }
      if (best_candidate != -1) {
        curr.set_dim(dim, curr.dim(dim) +
                              step.dim(dim) * kCandidates[best_candidate]);
      }
    }
    if (best_cost >= curr_cost) {
      // Lines 20-21: no better neighbor exists.
      if (curr_cost == std::numeric_limits<double>::infinity()) {
        return Status::FailedPrecondition(
            "hill climb start (and its neighborhood) is infeasible; "
            "restrict the cluster conditions to the feasible region first");
      }
      ResourcePlanResult result;
      result.config = curr;
      result.cost = curr_cost;
      result.configs_explored = explored;
      return result;
    }
    accepted = best_probe;
    prev_start = {round_start, curr_cost, true};
  }
}

/// An extension beyond the paper's Algorithm 1 for very large resource
/// grids (Figure 15(b) scales to 100K containers): per dimension the step
/// doubles while probes in the same direction keep improving and resets
/// to the grid step after a miss, so an optimum D grid cells away is
/// reached in O(log D) evaluations instead of O(D). Every visited
/// configuration stays on the allocation grid (steps are multiples of
/// the grid step), and the result is still a local optimum with respect
/// to single grid steps.
class AcceleratedHillClimbResourcePlanner : public ResourcePlanner {
 public:
  AcceleratedHillClimbResourcePlanner() = default;
  explicit AcceleratedHillClimbResourcePlanner(
      resource::ResourceConfig start)
      : start_(start), has_start_(true) {}

  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;
  const char* name() const override { return "accelerated-hill-climb"; }

 private:
  resource::ResourceConfig start_;
  bool has_start_ = false;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_RESOURCE_PLANNER_H_
