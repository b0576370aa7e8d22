#ifndef RAQO_CORE_RAQO_COST_EVALUATOR_H_
#define RAQO_CORE_RAQO_COST_EVALUATOR_H_

#include <array>
#include <memory>
#include <optional>

#include "core/plan_cache.h"
#include "core/resource_planner.h"
#include "cost/cost_model.h"
#include "cost/model_bounds.h"
#include "optimizer/cost_evaluator.h"
#include "resource/cluster_conditions.h"
#include "resource/pricing.h"

namespace raqo::core {

/// Resource-search strategies of cost-based RAQO (Section VI-B), plus
/// the accelerated-stride extension for very large clusters and a
/// pool-backed brute force that splits the grid across worker threads.
enum class ResourceSearch {
  kBruteForce,
  kHillClimb,
  kAcceleratedHillClimb,
  kParallelBruteForce,
  /// The switch-point-aware incremental grid search: bit-identical to
  /// kBruteForce but warm-started from the previous search's optimum
  /// and dominance-pruned through sound cost-model lower bounds
  /// (SwitchAwareGridResourcePlanner, docs/PERF.md). Models whose
  /// feature set fails monotonicity validation fall back to the plain
  /// exhaustive sweep and bump planner.resource.monotonicity_rejected.
  kSwitchAwareGrid,
};

/// Configuration of the RAQO cost evaluator.
struct RaqoEvaluatorOptions {
  ResourceSearch search = ResourceSearch::kHillClimb;
  /// Worker threads of the kParallelBruteForce search (ignored by the
  /// other strategies). Only consulted when no `search_pool` is
  /// injected: it sizes the evaluator-owned fallback pool.
  int parallel_search_threads = 4;

  /// Externally owned pool the kParallelBruteForce search runs on (must
  /// outlive the evaluator). The concurrent runner and the planning
  /// server inject one pool shared by all their planners; without it,
  /// every evaluator would spawn a private pool — N planner workers
  /// times M search threads — and pay pool construction per planner.
  /// nullptr falls back to an evaluator-owned pool of
  /// `parallel_search_threads` workers.
  ThreadPool* search_pool = nullptr;

  /// Grids smaller than this many cells are scanned sequentially by the
  /// kParallelBruteForce search (see
  /// ParallelBruteForceResourcePlanner::kDefaultMinParallelCells); the
  /// result is bit-identical either way. 0 forces the parallel path.
  int64_t min_parallel_grid_cells =
      ParallelBruteForceResourcePlanner::kDefaultMinParallelCells;

  /// Write-behind batching of inserts into a *shared* exact-mode cache:
  /// computed plans are staged privately and flushed to the shared
  /// cache in batches of this many entries (and at the end of every
  /// query), so shard locks are taken per batch instead of per insert.
  /// Lookups consult the private staging cache first — repeated
  /// data characteristics within a query (the common case under
  /// Selinger's DP) stop touching shared locks entirely. Exact-mode
  /// entries always reproduce what recomputation would return, so
  /// results stay bit-identical to write-through; only hit/miss
  /// *counters* of the shared cache shift. 0 disables batching
  /// (write-through); similarity lookup modes always write through.
  size_t shared_insert_batch = 32;

  /// Resource-plan caching (off by default, matching the paper's setup
  /// of clearing the cache before each query unless stated otherwise).
  bool use_cache = false;
  CacheLookupMode cache_mode = CacheLookupMode::kNearestNeighbor;
  /// The "data delta threshold" of Figure 14, in GB of smaller-input
  /// size.
  double cache_threshold_gb = 0.01;
  CacheIndexKind cache_index = CacheIndexKind::kSortedArray;
  /// Lock stripes of the evaluator-owned cache; 0 builds the
  /// single-threaded layout. Shared caches (ShareCache) bring their own
  /// sharding.
  size_t cache_shards = 0;

  /// Cells per dominance-pruning block of the kSwitchAwareGrid search
  /// (ignored by the other strategies).
  int64_t switch_block_cells =
      SwitchAwareGridResourcePlanner::kDefaultBlockCells;

  /// Objective weight for resource planning: 1.0 plans resources for pure
  /// execution time, 0.0 for pure monetary cost.
  double time_weight = 1.0;

  /// Broadcast-join feasibility bound: the build side must satisfy
  /// ss <= factor * container size. The resource search is restricted to
  /// the feasible sub-grid (the climb then starts from the smallest
  /// *feasible* configuration).
  double bhj_capacity_factor = 1.14;
};

/// The heart of cost-based RAQO (Section VI-C): a PlanCostEvaluator whose
/// getPlanCost "first performs the resource planning (or lookup in the
/// cache) and then returns the sub-plan cost". Plugging this evaluator
/// into the Selinger or FastRandomized planner turns either into a joint
/// query-and-resource optimizer; as the query planner considers candidate
/// sub-plans, the resource planner considers the resource space for each.
class RaqoCostEvaluator : public optimizer::PlanCostEvaluator {
 public:
  RaqoCostEvaluator(cost::JoinCostModels models,
                    resource::ClusterConditions cluster,
                    resource::PricingModel pricing = resource::PricingModel(),
                    RaqoEvaluatorOptions options = RaqoEvaluatorOptions());

  /// Adaptive RAQO hook: replace the cluster conditions (e.g. after the
  /// resource manager reports a load change). Cached plans computed for
  /// the old conditions are dropped.
  void UpdateClusterConditions(resource::ClusterConditions cluster);

  const resource::ClusterConditions& cluster() const { return cluster_; }

  /// Cache maintenance/statistics (zeroed stats when caching is off).
  void ClearCache();
  CacheStats cache_stats() const;
  /// Zeroes the counters atomically and returns the pre-reset snapshot
  /// (see ResourcePlanCache::ResetStats); zeroes when caching is off.
  CacheStats ResetCacheStats();
  size_t cache_size() const;
  /// Per-shard stats of the active cache; empty when caching is off or
  /// the cache is unsharded.
  std::vector<ShardStats> cache_shard_stats() const;

  /// Points this evaluator at a cache owned jointly with other planner
  /// threads (the concurrent planning service: N planners, one cache).
  /// The cache must be thread-safe (built with shards > 0) when more
  /// than one planner shares it. Passing nullptr reverts to the
  /// evaluator-owned cache configured by the options. Pending batched
  /// inserts are flushed to the previously shared cache first.
  void ShareCache(std::shared_ptr<ResourcePlanCache> cache);

  /// Pushes any write-behind staged inserts to the shared cache (one
  /// batched InsertBatch per call). RaqoPlanner calls this at the end
  /// of every query so cross-worker reuse is at most one query stale;
  /// the destructor and ShareCache flush too, so no computed plan is
  /// ever lost. No-op without a shared cache or with batching off.
  void FlushSharedCacheInserts();

  /// True when the active cache is shared with other planners; per-query
  /// cache statistics are then workload-global, not per-planner, and the
  /// planner refrains from clearing or resetting it between queries.
  bool cache_is_shared() const { return shared_cache_ != nullptr; }

  const RaqoEvaluatorOptions& options() const { return options_; }

  /// Marks a query boundary: drops the per-model warm-start memory of
  /// the switch-aware search so every query plans from a cold incumbent.
  /// Warm starts never change results — this only keeps the per-query
  /// `configs_explored` stats independent of which queries a worker
  /// planned before (the concurrent runner steals queries dynamically).
  void BeginQuery();

  /// True when the switch-aware search prunes with a validated bound
  /// oracle for the given join implementation (false for the other
  /// strategies and for monotonicity-rejected models).
  bool has_bound_oracle(plan::JoinImpl impl) const {
    return oracles_[impl == plan::JoinImpl::kSortMergeJoin ? 0 : 1]
        .has_value();
  }

  /// Flushes any pending write-behind inserts to the shared cache.
  ~RaqoCostEvaluator() override;

 protected:
  Result<optimizer::OperatorCost> CostJoinImpl(
      const optimizer::JoinContext& context) override;

 private:
  /// The cache planning goes through: the shared cache when one is
  /// attached, the owned one otherwise (may be null when caching is off).
  ResourcePlanCache* active_cache() const {
    return shared_cache_ != nullptr ? shared_cache_.get() : cache_.get();
  }

  /// True when inserts into the shared cache are write-behind batched:
  /// requires a shared cache in exact lookup mode (the only mode whose
  /// hits provably reproduce recomputation) and a non-zero batch size.
  bool batching_shared_inserts() const {
    return shared_cache_ != nullptr &&
           shared_cache_->mode() == CacheLookupMode::kExact &&
           options_.shared_insert_batch > 0;
  }

  cost::JoinCostModels models_;
  resource::ClusterConditions cluster_;
  resource::PricingModel pricing_;
  RaqoEvaluatorOptions options_;
  /// Trace-span name of the resource search this evaluator runs:
  /// "planner.resource.grid" for the exhaustive strategies,
  /// "planner.resource.hillclimb" for the climbing ones.
  const char* resource_span_name_ = "planner.resource.grid";
  std::unique_ptr<ResourcePlanner> planner_;
  /// planner_ itself when the search is kHillClimb, else null.
  const HillClimbResourcePlanner* hill_climb_ = nullptr;
  std::unique_ptr<ResourcePlanCache> cache_;
  std::shared_ptr<ResourcePlanCache> shared_cache_;
  /// Write-behind state, live only while batching_shared_inserts():
  /// `staging_` is a private unsharded exact-mode cache consulted before
  /// the shared one (and fed by both computed plans and shared hits, so
  /// repeated lookups stay lock-free); `pending_inserts_` holds the
  /// computed plans not yet flushed to the shared cache, in insertion
  /// order. Exact-mode entries equal what recomputation would produce,
  /// so staging entries can never go stale — only cluster-condition
  /// changes invalidate them, and those clear everything.
  std::unique_ptr<ResourcePlanCache> staging_;
  std::vector<CacheEntryRecord> pending_inserts_;
  /// Switch-aware search state, unused by the other strategies. Indexed
  /// by join implementation (0 = SMJ, 1 = BHJ): a validated lower-bound
  /// oracle per model (nullopt after monotonicity rejection => that
  /// model's searches run exhaustively) and the previous search's
  /// optimum as the next warm start (cleared by BeginQuery and cluster
  /// updates).
  std::array<std::optional<cost::ResourceBoundOracle>, 2> oracles_;
  std::array<std::optional<resource::ResourceConfig>, 2> last_best_;
  bool switch_aware_ = false;
  /// Searches whose wall time feeds `planner.resource.wall_us`: one in
  /// kSearchWallSampleEvery, counted per evaluator.
  static constexpr uint32_t kSearchWallSampleEvery = 16;
  uint32_t wall_sample_tick_ = 0;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_RAQO_COST_EVALUATOR_H_
