#include "core/raqo_cost_evaluator.h"

#include <cmath>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace raqo::core {

RaqoCostEvaluator::RaqoCostEvaluator(cost::JoinCostModels models,
                                     resource::ClusterConditions cluster,
                                     resource::PricingModel pricing,
                                     RaqoEvaluatorOptions options)
    : models_(std::move(models)),
      cluster_(cluster),
      pricing_(pricing),
      options_(options) {
  switch (options_.search) {
    case ResourceSearch::kBruteForce:
      planner_ = std::make_unique<BruteForceResourcePlanner>();
      resource_span_name_ = "planner.resource.grid";
      break;
    case ResourceSearch::kHillClimb: {
      auto hill_climb = std::make_unique<HillClimbResourcePlanner>();
      hill_climb_ = hill_climb.get();
      planner_ = std::move(hill_climb);
      resource_span_name_ = "planner.resource.hillclimb";
      break;
    }
    case ResourceSearch::kAcceleratedHillClimb:
      planner_ = std::make_unique<AcceleratedHillClimbResourcePlanner>();
      resource_span_name_ = "planner.resource.hillclimb";
      break;
    case ResourceSearch::kParallelBruteForce: {
      // Borrow the injected pool when there is one: evaluators pooled by
      // the runner or the server must all share one search pool, or N
      // planner workers times M search threads pile up.
      auto parallel =
          options_.search_pool != nullptr
              ? std::make_unique<ParallelBruteForceResourcePlanner>(
                    options_.search_pool)
              : std::make_unique<ParallelBruteForceResourcePlanner>(
                    options_.parallel_search_threads);
      parallel->set_min_parallel_cells(options_.min_parallel_grid_cells);
      planner_ = std::move(parallel);
      resource_span_name_ = "planner.resource.grid";
      break;
    }
    case ResourceSearch::kSwitchAwareGrid: {
      // Borrows the injected pool only: the paper-default grid sits far
      // below the parallel threshold, so the common case is sequential
      // anyway, and pruning makes big grids cheap before parallelism
      // would (inject a pool + lower min_parallel_grid_cells to fan out).
      auto switch_aware = std::make_unique<SwitchAwareGridResourcePlanner>(
          options_.search_pool);
      switch_aware->set_min_parallel_cells(options_.min_parallel_grid_cells);
      switch_aware->set_block_cells(options_.switch_block_cells);
      planner_ = std::move(switch_aware);
      resource_span_name_ = "planner.resource.grid";
      switch_aware_ = true;
      // Validate the monotonicity declaration of each model once, at
      // load: a rejected model plans exhaustively (no bound oracle) and
      // the rejection is counted, never silently pruned unsoundly.
      const plan::JoinImpl impls[2] = {plan::JoinImpl::kSortMergeJoin,
                                       plan::JoinImpl::kBroadcastHashJoin};
      for (int i = 0; i < 2; ++i) {
        Result<cost::ResourceBoundOracle> oracle =
            cost::ResourceBoundOracle::Create(models_.ForImpl(impls[i]));
        if (oracle.ok()) {
          oracles_[i] = *std::move(oracle);
        } else if (obs::MetricsOn()) {
          static obs::Counter* rejected = obs::DefaultMetrics().GetCounter(
              "planner.resource.monotonicity_rejected");
          rejected->Add(1);
        }
      }
      break;
    }
  }
  if (options_.use_cache) {
    cache_ = std::make_unique<ResourcePlanCache>(
        options_.cache_mode, options_.cache_threshold_gb,
        options_.cache_index, options_.cache_shards);
  }
}

void RaqoCostEvaluator::UpdateClusterConditions(
    resource::ClusterConditions cluster) {
  cluster_ = cluster;
  // Warm starts are snapped onto the current grid by index, so a stale
  // one is *safe* — but a fresh grid means the old optimum carries no
  // switch-point signal. Start cold like the caches do.
  last_best_[0].reset();
  last_best_[1].reset();
  ClearCache();
}

void RaqoCostEvaluator::BeginQuery() {
  last_best_[0].reset();
  last_best_[1].reset();
}

RaqoCostEvaluator::~RaqoCostEvaluator() { FlushSharedCacheInserts(); }

void RaqoCostEvaluator::ClearCache() {
  // Cluster-condition changes invalidate every plan, staged or not: drop
  // the write-behind buffer instead of flushing stale entries onward.
  pending_inserts_.clear();
  staging_.reset();
  if (ResourcePlanCache* cache = active_cache()) cache->Clear();
}

CacheStats RaqoCostEvaluator::cache_stats() const {
  const ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? cache->stats() : CacheStats{};
}

CacheStats RaqoCostEvaluator::ResetCacheStats() {
  ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? cache->ResetStats() : CacheStats{};
}

size_t RaqoCostEvaluator::cache_size() const {
  const ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? cache->size() : 0;
}

std::vector<ShardStats> RaqoCostEvaluator::cache_shard_stats() const {
  const ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? cache->shard_stats()
                          : std::vector<ShardStats>{};
}

void RaqoCostEvaluator::ShareCache(std::shared_ptr<ResourcePlanCache> cache) {
  // Plans staged against the outgoing cache belong to it; the staging
  // memo is dropped too, since it may mirror entries the new cache never
  // saw (exact-mode entries would still be *correct*, but a fresh memo
  // keeps cache attribution simple).
  FlushSharedCacheInserts();
  staging_.reset();
  shared_cache_ = std::move(cache);
}

void RaqoCostEvaluator::FlushSharedCacheInserts() {
  if (pending_inserts_.empty()) return;
  if (shared_cache_ != nullptr) {
    shared_cache_->InsertBatch(pending_inserts_);
  }
  pending_inserts_.clear();
}

Result<optimizer::OperatorCost> RaqoCostEvaluator::CostJoinImpl(
    const optimizer::JoinContext& context) {
  const double ss_gb = context.smaller_gb();
  const cost::OperatorCostModel& model = models_.ForImpl(context.impl);

  // Restrict the search to the feasible sub-grid. For a broadcast join
  // the container must hold the build side, so the smallest feasible
  // container size may exceed the cluster minimum.
  resource::ClusterConditions search_cluster = cluster_;
  if (context.impl == plan::JoinImpl::kBroadcastHashJoin) {
    const double min_cs = ss_gb / options_.bhj_capacity_factor;
    if (min_cs > cluster_.max().container_size_gb() + 1e-9) {
      // Fixed text: Selinger drops rejected candidates, and formatting
      // the sizes cost more than the whole rejection.
      return Status::ResourceExhausted(
          "BHJ build side fits no container in the cluster grid");
    }
    if (min_cs > cluster_.min().container_size_gb()) {
      // Snap the minimum container size up onto the grid.
      const double step = cluster_.step().container_size_gb();
      const double base = cluster_.min().container_size_gb();
      const double snapped =
          base + std::ceil((min_cs - base) / step - 1e-9) * step;
      resource::ResourceConfig new_min = cluster_.min();
      new_min.set_container_size_gb(
          std::min(snapped, cluster_.max().container_size_gb()));
      RAQO_ASSIGN_OR_RETURN(
          search_cluster,
          resource::ClusterConditions::Create(new_min, cluster_.max(),
                                              cluster_.step()));
    }
  }

  const double ls_gb = context.larger_gb();
  // Bound once per join: every cell the search visits, the cache-hit
  // re-cost and the final re-cost share this join's data-only prefix.
  const cost::JoinCostKernel kernel = model.Bind(ss_gb, ls_gb);
  auto seconds_at = [&kernel](const resource::ResourceConfig& config) {
    return kernel.Seconds(config.container_size_gb(),
                          config.num_containers());
  };
  auto objective = [&](const resource::ResourceConfig& config) {
    const double seconds = seconds_at(config);
    const double dollars = pricing_.Cost(config, seconds);
    return cost::CostVector{seconds, dollars}.Weighted(options_.time_weight);
  };

  // Cache lookup first (Section VI-C), keyed by the data characteristic.
  // Under write-behind batching the private staging memo is consulted
  // before the shared cache: exact-mode hits provably equal
  // recomputation, so the answer is the same either way and repeated
  // characteristics (the common case under Selinger's DP) never touch
  // the shared cache's stripe locks.
  ResourcePlanCache* cache = active_cache();
  const bool write_behind = batching_shared_inserts();
  if (write_behind && staging_ == nullptr) {
    staging_ = std::make_unique<ResourcePlanCache>(
        CacheLookupMode::kExact, /*threshold_gb=*/0.0, options_.cache_index,
        /*shards=*/0);
  }
  if (cache != nullptr) {
    std::optional<CachedResourcePlan> hit;
    if (write_behind) {
      hit = staging_->Lookup(model.name(), ss_gb, ls_gb);
      if (!hit) {
        hit = cache->Lookup(model.name(), ss_gb, ls_gb);
        // Memoize shared hits privately so repeats stay lock-free.
        if (hit) staging_->Insert(model.name(), *hit);
      }
    } else {
      hit = cache->Lookup(model.name(), ss_gb, ls_gb);
    }
    if (hit) {
      // Weighted-average hits can produce off-grid configurations; snap
      // back onto the allocatable grid.
      const resource::ResourceConfig config =
          cluster_.SnapToGrid(hit->config);
      const double seconds = seconds_at(config);
      optimizer::OperatorCost out;
      out.cost.seconds = seconds;
      out.cost.dollars = pricing_.Cost(config, seconds);
      out.resources = config;
      return out;
    }
  }

  // Acceleration hints for the switch-aware search. Both are pure
  // accelerators (bit-identical results with or without); the objective
  // lower bound composes the model-seconds bound with the pricing model
  // evaluated at the box's low corner, which under-approximates the
  // weighted objective whenever time_weight lies in [0, 1] and the
  // price rate is non-negative — outside that envelope the bound is
  // simply not offered and the sweep runs exhaustively.
  const size_t model_idx =
      context.impl == plan::JoinImpl::kSortMergeJoin ? 0 : 1;
  ResourceSearchHints hints;
  if (switch_aware_) {
    hints.warm_start = last_best_[model_idx];
    const double tw = options_.time_weight;
    if (oracles_[model_idx].has_value() && tw >= 0.0 && tw <= 1.0 &&
        pricing_.dollars_per_gb_hour() >= 0.0) {
      const cost::ResourceBoundOracle* oracle = &*oracles_[model_idx];
      hints.box_lower_bound = [this, oracle, tw, ss_gb, ls_gb](
                                  const resource::ResourceConfig& lo,
                                  const resource::ResourceConfig& hi) {
        cost::JoinFeatures data;
        data.smaller_gb = ss_gb;
        data.larger_gb = ls_gb;
        const double sec_lb = oracle->SecondsLowerBound(data, lo, hi);
        // Same floating-point expression shape as the objective, fed
        // with componentwise lower bounds: every op in the chain is
        // monotone under round-to-nearest, so bound <= objective holds
        // at the bit level, not just in real arithmetic.
        const double dollars_lb = pricing_.Cost(lo, sec_lb);
        return cost::CostVector{sec_lb, dollars_lb}.Weighted(tw);
      };
    }
  }
  auto run_search = [&] {
    // The default climb runs on the concrete objective: every probe is
    // inlined instead of going through ResourceCostFn.
    if (hill_climb_ != nullptr) {
      return hill_climb_->Climb(objective, search_cluster);
    }
    return switch_aware_ ? planner_->PlanResourcesWithHints(
                               objective, search_cluster, hints)
                         : planner_->PlanResources(objective, search_cluster);
  };

  Result<ResourcePlanResult> planned = [&] {
    const bool metrics_on = obs::MetricsOn();
    const bool tracing_on = obs::TracingOn();
    if (!metrics_on && !tracing_on) {
      return run_search();
    }
    // The wall-time histogram samples one search in
    // kSearchWallSampleEvery: its two clock reads and the record cost
    // about as much as 2% of a whole hill-climb search. Traced searches
    // carry their duration in the span.
    std::optional<Stopwatch> timer;
    if (metrics_on && wall_sample_tick_++ % kSearchWallSampleEvery == 0) {
      timer.emplace();
    }
    obs::Span span;
    if (tracing_on) {
      span = obs::DefaultTracer().StartSpan(resource_span_name_);
    }
    Result<ResourcePlanResult> result = run_search();
    if (span.recording()) {
      span.SetAttr("strategy", planner_->name());
      span.SetAttr("model", model.name());
      span.SetAttr("smaller_gb", ss_gb);
      span.SetAttr("larger_gb", ls_gb);
      if (result.ok()) {
        span.SetAttr("configs_explored",
                     static_cast<int64_t>(result->configs_explored));
        if (result->cells_pruned > 0) {
          span.SetAttr("cells_pruned", result->cells_pruned);
        }
      } else {
        span.SetAttr("error", result.status().message());
      }
    }
    if (metrics_on) {
      static obs::Counter* searches =
          obs::DefaultMetrics().GetCounter("planner.resource.searches");
      static obs::Counter* explored = obs::DefaultMetrics().GetCounter(
          "planner.resource.configs_explored");
      static obs::Histogram* latency =
          obs::DefaultMetrics().GetHistogram("planner.resource.wall_us");
      searches->Add(1);
      if (result.ok()) explored->Add(result->configs_explored);
      if (timer.has_value()) latency->Record(timer->ElapsedMicros());
      if (result.ok() && switch_aware_) {
        static obs::Counter* pruned = obs::DefaultMetrics().GetCounter(
            "planner.resource.cells_pruned");
        static obs::Counter* replanned = obs::DefaultMetrics().GetCounter(
            "planner.resource.cells_replanned");
        static obs::Counter* reused = obs::DefaultMetrics().GetCounter(
            "planner.resource.plans_reused");
        pruned->Add(result->cells_pruned);
        // Cells evaluated beyond the warm-start re-cost — the true
        // incremental work of this search.
        const int64_t beyond_warm =
            result->configs_explored - (hints.warm_start.has_value() ? 1 : 0);
        replanned->Add(beyond_warm > 0 ? beyond_warm : 0);
        if (result->warm_start_won) reused->Add(1);
      }
    }
    return result;
  }();
  if (!planned.ok()) return planned.status();
  AddResourceConfigsExplored(planned->configs_explored);
  if (switch_aware_) last_best_[model_idx] = planned->config;

  if (cache != nullptr) {
    CachedResourcePlan entry;
    entry.key_gb = ss_gb;
    entry.config = planned->config;
    entry.cost = planned->cost;
    entry.larger_gb = ls_gb;
    if (write_behind) {
      // Stage privately and defer the shared insert: the shard locks are
      // then taken once per `shared_insert_batch` plans, not per plan.
      staging_->Insert(model.name(), entry);
      pending_inserts_.push_back(CacheEntryRecord{model.name(), entry});
      if (pending_inserts_.size() >= options_.shared_insert_batch) {
        FlushSharedCacheInserts();
      }
    } else {
      cache->Insert(model.name(), entry);
    }
  }

  const double seconds = seconds_at(planned->config);
  optimizer::OperatorCost out;
  out.cost.seconds = seconds;
  out.cost.dollars = pricing_.Cost(planned->config, seconds);
  out.resources = planned->config;
  return out;
}

}  // namespace raqo::core
