#include "core/resource_planner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <vector>

namespace raqo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<ResourcePlanResult> BruteForceResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  ResourcePlanResult best;
  best.cost = kInf;
  int64_t explored = 0;
  cluster.ForEachConfig([&](const resource::ResourceConfig& config) {
    ++explored;
    const double c = SanitizeCost(cost(config));
    if (c < best.cost) {
      best.cost = c;
      best.config = config;
    }
    return true;
  });
  best.configs_explored = explored;
  if (best.cost == kInf) {
    return Status::FailedPrecondition(
        "no feasible resource configuration in the cluster grid");
  }
  return best;
}

ParallelBruteForceResourcePlanner::ParallelBruteForceResourcePlanner(
    int num_threads)
    : owned_pool_(std::make_unique<ThreadPool>(num_threads)) {
  pool_ = owned_pool_.get();
}

ParallelBruteForceResourcePlanner::ParallelBruteForceResourcePlanner(
    ThreadPool* pool)
    : pool_(pool) {}

namespace {

/// Per-band reduction state of the parallel scan.
struct BandBest {
  resource::ResourceConfig config;
  double cost = kInf;
  int64_t explored = 0;
  /// Row-major rank of the winning cell, for the deterministic
  /// earliest-wins tie-break the sequential scan applies implicitly.
  int64_t rank = 0;
};

/// Scans container-size rows [row_begin, row_end) of the grid with the
/// exact enumeration arithmetic of the sequential brute force, so costs
/// (and their floating-point quirks) match cell for cell no matter how
/// the rows are banded — or whether they are banded at all.
BandBest ScanBand(const ResourceCostFn& cost,
                  const resource::ClusterConditions& cluster,
                  int64_t row_begin, int64_t row_end, int64_t nc_points) {
  const resource::ResourceConfig& min = cluster.min();
  const resource::ResourceConfig& step = cluster.step();
  BandBest local;
  for (int64_t i = row_begin; i < row_end; ++i) {
    const double cs = min.dim(resource::kContainerSizeGb) +
                      static_cast<double>(i) *
                          step.dim(resource::kContainerSizeGb);
    for (int64_t j = 0; j < nc_points; ++j) {
      const double nc = min.dim(resource::kNumContainers) +
                        static_cast<double>(j) *
                            step.dim(resource::kNumContainers);
      const resource::ResourceConfig config(cs, nc);
      ++local.explored;
      const double c = SanitizeCost(cost(config));
      if (c < local.cost) {
        local.cost = c;
        local.config = config;
        local.rank = i * nc_points + j;
      }
    }
  }
  return local;
}

}  // namespace

Result<ResourcePlanResult> ParallelBruteForceResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  const int64_t cs_points =
      cluster.GridPoints(resource::kContainerSizeGb);
  const int64_t nc_points = cluster.GridPoints(resource::kNumContainers);

  // Small grids drown in fan-out/join dispatch: scan them inline on the
  // calling thread instead (TotalGridSize saturates, so absurd grids
  // always take the parallel path). Bit-identical by construction —
  // one band covering every row is the sequential scan.
  if (pool_ == nullptr || pool_->size() <= 1 ||
      cluster.TotalGridSize() < min_parallel_cells_) {
    const BandBest all = ScanBand(cost, cluster, 0, cs_points, nc_points);
    if (all.cost == kInf) {
      return Status::FailedPrecondition(
          "no feasible resource configuration in the cluster grid");
    }
    ResourcePlanResult best;
    best.cost = all.cost;
    best.config = all.config;
    best.configs_explored = all.explored;
    return best;
  }

  // One band of container-size rows per chunk; ParallelFor sizes the
  // chunks to the pool.
  std::mutex merge_mu;
  std::vector<BandBest> bands;
  std::atomic<int64_t> explored_total{0};
  pool_->ParallelFor(cs_points, [&](int64_t row_begin, int64_t row_end) {
    BandBest local = ScanBand(cost, cluster, row_begin, row_end, nc_points);
    explored_total.fetch_add(local.explored, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(merge_mu);
    bands.push_back(local);
  });

  ResourcePlanResult best;
  best.cost = kInf;
  int64_t best_rank = 0;
  for (const BandBest& band : bands) {
    if (band.cost < best.cost ||
        (band.cost == best.cost && band.cost < kInf &&
         band.rank < best_rank)) {
      best.cost = band.cost;
      best.config = band.config;
      best_rank = band.rank;
    }
  }
  best.configs_explored = explored_total.load(std::memory_order_relaxed);
  if (best.cost == kInf) {
    return Status::FailedPrecondition(
        "no feasible resource configuration in the cluster grid");
  }
  return best;
}

namespace {

/// Running best of the switch-aware sweep: the cheapest cell seen so
/// far, with the earliest row-major rank among equal-cost cells. The
/// rank-aware update matters because the warm start is evaluated out of
/// rank order: a later-swept cell of equal cost but earlier rank must
/// still displace it, or plateau ties would resolve differently than in
/// the exhaustive scan.
struct Incumbent {
  resource::ResourceConfig config;
  double cost = kInf;
  int64_t rank = std::numeric_limits<int64_t>::max();

  void Offer(const resource::ResourceConfig& c, double cell_cost,
             int64_t cell_rank) {
    if (cell_cost < cost ||
        (cell_cost == cost && cell_cost < kInf && cell_rank < rank)) {
      config = c;
      cost = cell_cost;
      rank = cell_rank;
    }
  }
};

/// The prune rule. A block may be skipped iff its lower bound strictly
/// exceeds the incumbent's cost, or matches it while every cell of the
/// block ranks after the incumbent's cell (`block_first_rank` is the
/// smallest rank in the block). Either way no block cell can beat the
/// final winner or tie it at an earlier rank, so the sweep's outcome is
/// bit-identical to the exhaustive scan (proof in docs/PERF.md).
bool Prunable(double lower_bound, const Incumbent& inc,
              int64_t block_first_rank) {
  return lower_bound > inc.cost ||
         (lower_bound >= inc.cost && block_first_rank > inc.rank);
}

/// Geometry of one grid sweep, shared by the sequential and banded
/// paths so cell arithmetic is identical everywhere.
struct GridGeometry {
  double cs_min, cs_step, nc_min, nc_step;
  int64_t cs_points, nc_points;

  explicit GridGeometry(const resource::ClusterConditions& cluster)
      : cs_min(cluster.min().dim(resource::kContainerSizeGb)),
        cs_step(cluster.step().dim(resource::kContainerSizeGb)),
        nc_min(cluster.min().dim(resource::kNumContainers)),
        nc_step(cluster.step().dim(resource::kNumContainers)),
        cs_points(cluster.GridPoints(resource::kContainerSizeGb)),
        nc_points(cluster.GridPoints(resource::kNumContainers)) {}

  double CsAt(int64_t i) const {
    return cs_min + static_cast<double>(i) * cs_step;
  }
  double NcAt(int64_t j) const {
    return nc_min + static_cast<double>(j) * nc_step;
  }
  resource::ResourceConfig CellAt(int64_t i, int64_t j) const {
    return resource::ResourceConfig(CsAt(i), NcAt(j));
  }
  int64_t RankOf(int64_t i, int64_t j) const { return i * nc_points + j; }
};

/// Per-band sweep state and counters.
struct SweepStats {
  int64_t explored = 0;
  int64_t pruned = 0;
  int64_t bound_probes = 0;
};

/// Sweeps rows [row_begin, row_end) in rank order with two-level
/// branch-and-bound (row box first, then blocks of `block_cells`),
/// updating `inc` and `stats`. `shared_best`, when non-null, is a
/// monotonically decreasing cross-band upper bound on the global
/// optimum; it strengthens only the *strict* prune rule (the rank rule
/// needs the incumbent's rank, which other bands cannot supply).
void SweepRows(const ResourceCostFn& cost, const GridGeometry& g,
               const ResourceBoxBoundFn& bound, int64_t block_cells,
               int64_t row_begin, int64_t row_end, Incumbent* inc,
               SweepStats* stats, std::atomic<double>* shared_best) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const double cs = g.CsAt(i);
    // Strict prune threshold: anything > this cannot win. Stale reads
    // of shared_best are safe — the value only decreases, so a stale
    // (higher) value merely prunes less.
    const double global_cost =
        shared_best != nullptr
            ? std::min(inc->cost,
                       shared_best->load(std::memory_order_relaxed))
            : inc->cost;
    if (bound && (global_cost < kInf || inc->rank < g.RankOf(i, 0))) {
      ++stats->bound_probes;
      const double row_lb =
          bound(resource::ResourceConfig(cs, g.NcAt(0)),
                resource::ResourceConfig(cs, g.NcAt(g.nc_points - 1)));
      if (row_lb > global_cost ||
          Prunable(row_lb, *inc, g.RankOf(i, 0))) {
        stats->pruned += g.nc_points;
        continue;
      }
    }
    for (int64_t j0 = 0; j0 < g.nc_points; j0 += block_cells) {
      const int64_t j1 = std::min(j0 + block_cells, g.nc_points);
      // Block-level probe, skipped when the row is a single block (the
      // row probe above already covered it).
      if (bound && (j0 > 0 || j1 < g.nc_points)) {
        const double block_global =
            shared_best != nullptr
                ? std::min(inc->cost,
                           shared_best->load(std::memory_order_relaxed))
                : inc->cost;
        if (block_global < kInf || inc->rank < g.RankOf(i, j0)) {
          ++stats->bound_probes;
          const double block_lb =
              bound(resource::ResourceConfig(cs, g.NcAt(j0)),
                    resource::ResourceConfig(cs, g.NcAt(j1 - 1)));
          if (block_lb > block_global ||
              Prunable(block_lb, *inc, g.RankOf(i, j0))) {
            stats->pruned += j1 - j0;
            continue;
          }
        }
      }
      for (int64_t j = j0; j < j1; ++j) {
        const resource::ResourceConfig config = g.CellAt(i, j);
        ++stats->explored;
        const double c = SanitizeCost(cost(config));
        inc->Offer(config, c, g.RankOf(i, j));
      }
    }
    if (shared_best != nullptr && inc->cost < kInf) {
      // Publish improvements: lower shared_best to the band's best.
      double seen = shared_best->load(std::memory_order_relaxed);
      while (inc->cost < seen &&
             !shared_best->compare_exchange_weak(
                 seen, inc->cost, std::memory_order_relaxed)) {
      }
    }
  }
}

}  // namespace

Result<ResourcePlanResult> SwitchAwareGridResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  return PlanResourcesWithHints(cost, cluster, ResourceSearchHints{});
}

Result<ResourcePlanResult>
SwitchAwareGridResourcePlanner::PlanResourcesWithHints(
    const ResourceCostFn& cost, const resource::ClusterConditions& cluster,
    const ResourceSearchHints& hints) const {
  const GridGeometry g(cluster);
  Incumbent inc;
  SweepStats stats;

  // Warm start: snap the previous optimum onto *this* grid by index
  // (BHJ feasibility can shift the grid origin between searches, so the
  // raw config may sit off-grid) and evaluate it at its true rank. The
  // cell is evaluated again when its block survives pruning — the
  // double evaluation is the price of keeping `explored` an honest
  // count of cost-function calls.
  int64_t warm_rank = -1;
  if (hints.warm_start.has_value()) {
    const int64_t i = static_cast<int64_t>(std::llround(
        (hints.warm_start->dim(resource::kContainerSizeGb) - g.cs_min) /
        g.cs_step));
    const int64_t j = static_cast<int64_t>(std::llround(
        (hints.warm_start->dim(resource::kNumContainers) - g.nc_min) /
        g.nc_step));
    if (i >= 0 && i < g.cs_points && j >= 0 && j < g.nc_points) {
      const resource::ResourceConfig config = g.CellAt(i, j);
      ++stats.explored;
      const double c = SanitizeCost(cost(config));
      warm_rank = g.RankOf(i, j);
      inc.Offer(config, c, warm_rank);
    }
  }

  const bool parallel = pool_ != nullptr && pool_->size() > 1 &&
                        cluster.TotalGridSize() >= min_parallel_cells_;
  if (!parallel) {
    SweepRows(cost, g, hints.box_lower_bound, block_cells_, 0, g.cs_points,
              &inc, &stats, nullptr);
  } else {
    // Banded sweep: each ParallelFor chunk keeps a local incumbent (the
    // rank rule is only valid against cells of earlier rank *within the
    // band*, which a local incumbent guarantees) and shares evaluated
    // costs through `shared_best` for cross-band strict pruning. Bands
    // merge by (cost, rank), identical to the parallel brute force, so
    // the banding — and the work-stealing chunk claim underneath — never
    // shows in the result.
    std::atomic<double> shared_best{inc.cost};
    std::mutex merge_mu;
    std::vector<BandBest> bands;
    std::atomic<int64_t> explored_total{stats.explored};
    std::atomic<int64_t> pruned_total{0};
    std::atomic<int64_t> probes_total{0};
    const ResourceBoxBoundFn& bound = hints.box_lower_bound;
    const int64_t block_cells = block_cells_;
    pool_->ParallelFor(g.cs_points, [&](int64_t row_begin, int64_t row_end) {
      Incumbent local;
      SweepStats local_stats;
      SweepRows(cost, g, bound, block_cells, row_begin, row_end, &local,
                &local_stats, &shared_best);
      explored_total.fetch_add(local_stats.explored,
                               std::memory_order_relaxed);
      pruned_total.fetch_add(local_stats.pruned, std::memory_order_relaxed);
      probes_total.fetch_add(local_stats.bound_probes,
                             std::memory_order_relaxed);
      if (local.cost < kInf) {
        BandBest band;
        band.config = local.config;
        band.cost = local.cost;
        band.rank = local.rank;
        std::lock_guard<std::mutex> lock(merge_mu);
        bands.push_back(band);
      }
    });
    for (const BandBest& band : bands) {
      inc.Offer(band.config, band.cost, band.rank);
    }
    stats.explored = explored_total.load(std::memory_order_relaxed);
    stats.pruned = pruned_total.load(std::memory_order_relaxed);
    stats.bound_probes = probes_total.load(std::memory_order_relaxed);
  }

  if (inc.cost == kInf) {
    return Status::FailedPrecondition(
        "no feasible resource configuration in the cluster grid");
  }
  ResourcePlanResult best;
  best.config = inc.config;
  best.cost = inc.cost;
  best.configs_explored = stats.explored;
  best.cells_pruned = stats.pruned;
  best.bound_probes = stats.bound_probes;
  best.warm_start_won = warm_rank >= 0 && inc.rank == warm_rank;
  return best;
}

Result<ResourcePlanResult> HillClimbResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  return Climb(cost, cluster);
}

Result<ResourcePlanResult> AcceleratedHillClimbResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  resource::ResourceConfig curr =
      has_start_ ? cluster.SnapToGrid(start_) : cluster.min();
  int64_t explored = 0;
  double curr_cost = SanitizeCost(cost(curr));
  ++explored;

  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t dim = 0; dim < resource::kNumResourceDims; ++dim) {
      for (double direction : {1.0, -1.0}) {
        // Doubling line search along this direction: keep moving while
        // the cost improves, doubling the stride; stop at the first miss
        // or at the cluster boundary.
        double stride = cluster.step().dim(dim);
        while (true) {
          const double moved = curr.dim(dim) + direction * stride;
          if (moved > cluster.max().dim(dim) + 1e-9 ||
              moved < cluster.min().dim(dim) - 1e-9) {
            break;
          }
          resource::ResourceConfig candidate = curr;
          candidate.set_dim(dim, moved);
          const double c = SanitizeCost(cost(candidate));
          ++explored;
          if (c < curr_cost) {
            curr = candidate;
            curr_cost = c;
            improved = true;
            stride *= 2.0;
          } else {
            break;
          }
        }
      }
    }
  }

  if (curr_cost == kInf) {
    return Status::FailedPrecondition(
        "accelerated hill climb start is infeasible; restrict the cluster "
        "conditions to the feasible region first");
  }
  ResourcePlanResult result;
  result.config = curr;
  result.cost = curr_cost;
  result.configs_explored = explored;
  return result;
}

}  // namespace raqo::core
