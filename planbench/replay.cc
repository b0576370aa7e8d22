// The layer replay of the traced run (README.md, "Per-layer metrics"):
// the workload's requests, in the one-connection order, driven through
// each layer's public functions in-process, one layer boundary per pass.
// Every pass starts from the same state (fresh caches, warm-up applied),
// so each sees the cache behaviour the served requests saw.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "common/arena.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/plan_cache.h"
#include "core/raqo_cost_evaluator.h"
#include "core/raqo_planner.h"
#include "core/resource_planner.h"
#include "optimizer/selinger.h"
#include "persist/cache_persist.h"
#include "planbench.h"
#include "query/sql_parser.h"
#include "resource/cluster_conditions.h"
#include "server/protocol.h"

namespace planbench {

namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Benchmark-side PlanCostEvaluator decorator: times and records every
/// CostJoin the enumeration asks of the wrapped evaluator.
class TimingEvaluator : public optimizer::PlanCostEvaluator {
 public:
  struct Call {
    optimizer::JoinContext context;
    std::optional<resource::ResourceConfig> resources;
    double weighted_cost = 0.0;
    /// Evaluator options of the request the join belongs to.
    const core::RaqoEvaluatorOptions* options = nullptr;
  };

  TimingEvaluator(optimizer::PlanCostEvaluator* inner,
                  const core::RaqoEvaluatorOptions* options,
                  std::vector<Call>* calls)
      : inner_(inner), options_(options), calls_(calls) {}

  double cost_join_us() const { return cost_join_us_; }

 protected:
  Result<optimizer::OperatorCost> CostJoinImpl(
      const optimizer::JoinContext& context) override {
    const Clock::time_point start = Clock::now();
    Result<optimizer::OperatorCost> cost = inner_->CostJoin(context);
    cost_join_us_ += UsSince(start);
    Call call{context, std::nullopt, 0.0, options_};
    if (cost.ok()) {
      call.resources = cost->resources;
      call.weighted_cost = cost->cost.Weighted(options_->time_weight);
    }
    calls_->push_back(call);
    return cost;
  }

 private:
  optimizer::PlanCostEvaluator* inner_;
  const core::RaqoEvaluatorOptions* options_;
  std::vector<Call>* calls_;
  double cost_join_us_ = 0.0;
};

/// A request resolved for direct planner calls.
struct Resolved {
  catalog::Catalog filtered;
  const catalog::Catalog* catalog = nullptr;
  std::vector<catalog::TableId> tables;
  core::RaqoPlannerOptions options;
};

std::unique_ptr<Resolved> Resolve(const Workload& workload,
                                  const catalog::Catalog& catalog,
                                  const server::PlanRequest& request) {
  auto r = std::make_unique<Resolved>();
  Status s = ResolveQuery(catalog, request, &r->filtered, &r->catalog,
                          &r->tables);
  RAQO_CHECK(s.ok()) << s.ToString();
  r->options = ResolveOptions(workload.ServiceOptions(), request);
  return r;
}

std::shared_ptr<core::ResourcePlanCache> SharedCacheLike(
    const server::PlanningServiceOptions& service) {
  return std::make_shared<core::ResourcePlanCache>(
      service.planner.evaluator.cache_mode,
      service.planner.evaluator.cache_threshold_gb,
      service.planner.evaluator.cache_index, service.cache_shards);
}

/// Plans `request` through a fresh RaqoPlanner attached to `cache` (as
/// PlanningService::Handle does); returns build and plan times in us.
std::pair<double, double> PlanDirect(
    const Workload& workload, const catalog::Catalog& catalog,
    const cost::JoinCostModels& models,
    const std::shared_ptr<core::ResourcePlanCache>& cache,
    const server::PlanRequest& request) {
  std::unique_ptr<Resolved> r = Resolve(workload, catalog, request);
  Clock::time_point start = Clock::now();
  core::RaqoPlanner planner(r->catalog, models,
                            resource::ClusterConditions::PaperDefault(),
                            resource::PricingModel(), r->options);
  if (r->options.evaluator.use_cache) planner.evaluator().ShareCache(cache);
  const double build_us = UsSince(start);
  start = Clock::now();
  Result<core::JointPlan> plan = planner.Plan(r->tables);
  const double plan_us = UsSince(start);
  RAQO_CHECK(plan.ok()) << plan.status().ToString();
  return {build_us, plan_us};
}

/// The SQL a request's query parses from; table-list requests are
/// rendered as their FROM clause.
std::string SqlOf(const server::PlanRequest& request) {
  if (!request.sql.empty()) return request.sql;
  std::string sql = "select * from ";
  for (size_t i = 0; i < request.tables.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += request.tables[i];
  }
  return sql;
}

double Mean(double sum, size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// The resource search an evaluator with `search` runs. Searches that
/// accept acceleration hints are run without them, which by their
/// contract returns the same configuration.
std::unique_ptr<core::ResourcePlanner> MakeSearch(core::ResourceSearch search) {
  switch (search) {
    case core::ResourceSearch::kHillClimb:
      return std::make_unique<core::HillClimbResourcePlanner>();
    case core::ResourceSearch::kAcceleratedHillClimb:
      return std::make_unique<core::AcceleratedHillClimbResourcePlanner>();
    case core::ResourceSearch::kSwitchAwareGrid:
      return std::make_unique<core::SwitchAwareGridResourcePlanner>();
    case core::ResourceSearch::kBruteForce:
    case core::ResourceSearch::kParallelBruteForce:
      break;
  }
  return std::make_unique<core::BruteForceResourcePlanner>();
}

/// The grid a join's resource search covers: for a broadcast join, the
/// containers that can hold the build side (as RaqoCostEvaluator
/// restricts it).
resource::ClusterConditions SearchGrid(const resource::ClusterConditions& c,
                                       const optimizer::JoinContext& context,
                                       double bhj_capacity_factor) {
  if (context.impl != plan::JoinImpl::kBroadcastHashJoin) return c;
  const double min_cs = context.smaller_gb() / bhj_capacity_factor;
  if (min_cs <= c.min().container_size_gb()) return c;
  const double step = c.step().container_size_gb();
  const double base = c.min().container_size_gb();
  resource::ResourceConfig new_min = c.min();
  new_min.set_container_size_gb(
      std::min(base + std::ceil((min_cs - base) / step - 1e-9) * step,
               c.max().container_size_gb()));
  return *resource::ClusterConditions::Create(new_min, c.max(), c.step());
}

/// Executions of the codec work timed per replayed request; the fastest
/// counts, so that a preemption during one does not.
constexpr int kCodecRepeats = 3;

/// The codec work a served request does outside the server's request
/// span, in us: encoding the request frame, encoding the response frame,
/// and decoding it on the client.
double OutsideCodecUs(const server::PlanRequest& request,
                      const server::PlanResponse& response) {
  const Clock::time_point start = Clock::now();
  const std::string request_frame =
      server::EncodeFrame(server::SerializePlanRequest(request));
  const std::string response_frame =
      server::EncodeFrame(server::SerializePlanResponse(response));
  std::string_view payload;
  size_t frame_size = 0;
  RAQO_CHECK(server::TryDecodeFrame(response_frame, 64u << 20, &payload,
                                    &frame_size) ==
             server::FrameDecode::kComplete);
  Result<server::PlanResponse> decoded = server::ParsePlanResponse(payload);
  const double us = UsSince(start);
  RAQO_CHECK(decoded.ok()) << decoded.status().ToString();
  return us;
}

}  // namespace

LayerMetrics ReplayLayers(const Workload& workload,
                          const catalog::Catalog& catalog,
                          const cost::JoinCostModels& models,
                          const std::vector<uint64_t>& warmup,
                          const std::vector<uint64_t>& sequence,
                          const std::string& scratch_dir,
                          std::unordered_map<uint64_t, double>* codec_us) {
  LayerMetrics m;
  const server::PlanningServiceOptions service_options =
      workload.ServiceOptions();
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();
  const size_t n = sequence.size();

  // Service and protocol: encode, decode, Handle, encode, decode.
  {
    server::PlanningService service(&catalog, models, cluster,
                                    resource::PricingModel(),
                                    service_options);
    for (uint64_t key : warmup) (void)service.Handle(workload.Make(key));
    double codec_sum = 0.0, handle_sum = 0.0;
    double request_bytes = 0.0, response_bytes = 0.0;
    for (size_t i = 0; i < n; ++i) {
      server::PlanRequest request = workload.Make(sequence[i]);
      request.id = StrPrintf("r%zu", i);
      const std::string request_frame =
          server::EncodeFrame(server::SerializePlanRequest(request));
      Clock::time_point start = Clock::now();
      std::string_view payload;
      size_t frame_size = 0;
      RAQO_CHECK(server::TryDecodeFrame(request_frame, 1 << 20, &payload,
                                        &frame_size) ==
                 server::FrameDecode::kComplete);
      Result<server::PlanRequest> parsed = server::ParsePlanRequest(payload);
      const double decode = UsSince(start);
      RAQO_CHECK(parsed.ok()) << parsed.status().ToString();

      start = Clock::now();
      server::PlanResponse response = service.Handle(*parsed);
      handle_sum += UsSince(start);

      const std::string response_frame =
          server::EncodeFrame(server::SerializePlanResponse(response));
      double outside = INFINITY;
      for (int rep = 0; rep < kCodecRepeats; ++rep) {
        outside = std::min(outside, OutsideCodecUs(request, response));
      }
      codec_sum += outside + decode;
      request_bytes += static_cast<double>(request_frame.size());
      response_bytes += static_cast<double>(response_frame.size());
      auto [it, inserted] = codec_us->emplace(sequence[i], outside);
      if (!inserted) it->second = std::min(it->second, outside);
    }
    m["codec.us_per_req"] = Mean(codec_sum, n);
    m["codec.request_bytes"] = Mean(request_bytes, n);
    m["codec.response_bytes"] = Mean(response_bytes, n);
    m["service.handle_us"] = Mean(handle_sum, n);
  }

  // Query parsing, RaqoPlanner construction and Plan.
  {
    std::shared_ptr<core::ResourcePlanCache> cache =
        SharedCacheLike(service_options);
    for (uint64_t key : warmup) {
      (void)PlanDirect(workload, catalog, models, cache, workload.Make(key));
    }
    double parse_sum = 0.0, build_sum = 0.0, plan_sum = 0.0;
    for (uint64_t key : sequence) {
      const server::PlanRequest request = workload.Make(key);
      const std::string sql = SqlOf(request);
      const Clock::time_point start = Clock::now();
      Result<query::ParsedQuery> parsed = query::ParseJoinQuery(catalog, sql);
      RAQO_CHECK(parsed.ok()) << parsed.status().ToString();
      if (!parsed->filters.empty()) {
        Result<catalog::Catalog> filtered =
            query::ApplyFilters(catalog, *parsed);
        RAQO_CHECK(filtered.ok()) << filtered.status().ToString();
      }
      parse_sum += UsSince(start);
      const auto [build_us, plan_us] =
          PlanDirect(workload, catalog, models, cache, request);
      build_sum += build_us;
      plan_sum += plan_us;
    }
    m["query.parse_us"] = Mean(parse_sum, n);
    m["planner.build_us"] = Mean(build_sum, n);
    m["planner.plan_us"] = Mean(plan_sum, n);
  }

  // Join enumeration with every CostJoin timed and recorded.
  std::vector<std::unique_ptr<Resolved>> resolved;  // owns calls' options
  std::vector<TimingEvaluator::Call> calls;
  {
    std::shared_ptr<core::ResourcePlanCache> cache =
        SharedCacheLike(service_options);
    for (uint64_t key : warmup) {
      (void)PlanDirect(workload, catalog, models, cache, workload.Make(key));
    }
    Arena arena;
    double self_sum = 0.0;
    for (uint64_t key : sequence) {
      resolved.push_back(Resolve(workload, catalog, workload.Make(key)));
      const std::unique_ptr<Resolved>& r = resolved.back();
      core::RaqoCostEvaluator evaluator(models, cluster,
                                        resource::PricingModel(),
                                        r->options.evaluator);
      if (r->options.evaluator.use_cache) evaluator.ShareCache(cache);
      evaluator.BeginQuery();
      TimingEvaluator timing(&evaluator, &r->options.evaluator, &calls);
      optimizer::SelingerOptions selinger = r->options.selinger;
      arena.Reset();
      selinger.arena = &arena;
      const Clock::time_point start = Clock::now();
      Result<optimizer::PlannedQuery> planned =
          optimizer::SelingerPlanner(selinger).Plan(*r->catalog, r->tables,
                                                    timing);
      self_sum += UsSince(start) - timing.cost_join_us();
      RAQO_CHECK(planned.ok()) << planned.status().ToString();
      evaluator.FlushSharedCacheInserts();
    }
    m["dp.self_us_per_req"] = Mean(self_sum, n);
    m["cost.cost_joins"] = static_cast<double>(calls.size());
  }

  // Cost-model evaluation at grid corners and centre of every recorded
  // join (at most 4096 joins, evenly spaced).
  {
    const resource::ResourceConfig lo = cluster.min(), hi = cluster.max();
    const std::vector<resource::ResourceConfig> configs = {
        lo,
        hi,
        resource::ResourceConfig(lo.container_size_gb(), hi.num_containers()),
        resource::ResourceConfig(hi.container_size_gb(), lo.num_containers()),
        cluster.SnapToGrid(resource::ResourceConfig(
            0.5 * (lo.container_size_gb() + hi.container_size_gb()),
            0.5 * (lo.num_containers() + hi.num_containers()))),
    };
    std::vector<std::pair<const cost::OperatorCostModel*, cost::JoinFeatures>>
        evals;
    const size_t stride = std::max<size_t>(1, calls.size() / 4096);
    for (size_t i = 0; i < calls.size(); i += stride) {
      const optimizer::JoinContext& c = calls[i].context;
      for (const resource::ResourceConfig& config : configs) {
        cost::JoinFeatures f;
        f.smaller_gb = c.smaller_gb();
        f.larger_gb = c.larger_gb();
        f.container_size_gb = config.container_size_gb();
        f.num_containers = config.num_containers();
        evals.emplace_back(&models.ForImpl(c.impl), f);
      }
    }
    double sink = 0.0;
    int64_t count = 0;
    const Clock::time_point start = Clock::now();
    do {
      for (const auto& [model, features] : evals) {
        sink += model->PredictSeconds(features);
      }
      count += static_cast<int64_t>(evals.size());
    } while (!evals.empty() && UsSince(start) < 20'000.0);
    m["cost.eval_ns"] =
        count > 0 ? 1000.0 * UsSince(start) / static_cast<double>(count)
                  : 0.0;
    RAQO_CHECK(sink >= 0.0);
  }

  // Resource search: every recorded join (at most 4096, evenly spaced)
  // searched afresh through PlanResourcesWithHints with the evaluator's
  // objective. For requests planned without the cache the replay must
  // find the configuration the plan used; with the cache, the plan used
  // whatever the cache held (which the oracle check judges).
  {
    double search_sum = 0.0;
    size_t searches = 0;
    const size_t stride = std::max<size_t>(1, calls.size() / 4096);
    for (size_t i = 0; i < calls.size(); i += stride) {
      const TimingEvaluator::Call& call = calls[i];
      if (!call.resources.has_value()) continue;
      const core::RaqoEvaluatorOptions& options = *call.options;
      const cost::OperatorCostModel& model =
          models.ForImpl(call.context.impl);
      const double ss = call.context.smaller_gb();
      const double ls = call.context.larger_gb();
      const resource::PricingModel pricing;
      auto objective = [&](const resource::ResourceConfig& config) {
        cost::JoinFeatures f;
        f.smaller_gb = ss;
        f.larger_gb = ls;
        f.container_size_gb = config.container_size_gb();
        f.num_containers = config.num_containers();
        const double seconds = model.PredictSeconds(f);
        return cost::CostVector{seconds, pricing.Cost(config, seconds)}
            .Weighted(options.time_weight);
      };
      const std::unique_ptr<core::ResourcePlanner> search =
          MakeSearch(options.search);
      const resource::ClusterConditions grid =
          SearchGrid(cluster, call.context, options.bhj_capacity_factor);
      const Clock::time_point start = Clock::now();
      Result<core::ResourcePlanResult> result =
          search->PlanResourcesWithHints(objective, grid, {});
      search_sum += UsSince(start);
      ++searches;
      if (!options.use_cache &&
          (!result.ok() || !(result->config == *call.resources))) {
        ++m["check.search_mismatches"];
      }
    }
    m["search.us_per_search"] = Mean(search_sum, searches);
  }

  // Resource-plan cache: every recorded join looked up, misses inserted.
  std::vector<core::CacheEntryRecord> entries;
  {
    core::ResourcePlanCache cache(core::CacheLookupMode::kExact,
                                  service_options.planner.evaluator
                                      .cache_threshold_gb,
                                  service_options.planner.evaluator
                                      .cache_index,
                                  service_options.cache_shards);
    double lookup_sum = 0.0;
    for (const TimingEvaluator::Call& call : calls) {
      const std::string& model = models.ForImpl(call.context.impl).name();
      const double ss = call.context.smaller_gb();
      const double ls = call.context.larger_gb();
      const Clock::time_point start = Clock::now();
      const bool hit = cache.Lookup(model, ss, ls).has_value();
      lookup_sum += UsSince(start);
      if (!hit && call.resources.has_value()) {
        core::CachedResourcePlan plan;
        plan.key_gb = ss;
        plan.config = *call.resources;
        plan.cost = call.weighted_cost;
        plan.larger_gb = ls;
        cache.Insert(model, plan);
        entries.push_back(core::CacheEntryRecord{model, plan});
      }
    }
    m["cache.lookup_us"] = Mean(lookup_sum, calls.size());
  }

  // Persistence: the cache's inserts journaled through OnInsert, then
  // the journal recovered into a fresh cache.
  {
    const server::ServerOptions server_options;
    persist::PersistOptions options;
    options.dir = scratch_dir;
    options.fsync_policy = server_options.persist_fsync;
    options.group_commit_bytes = kGroupCommitBytes;
    options.compact_threshold_bytes =
        server_options.persist_compact_threshold_bytes;
    std::filesystem::remove_all(scratch_dir);
    core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0,
                                  core::CacheIndexKind::kSortedArray,
                                  service_options.cache_shards);
    Result<std::unique_ptr<persist::CachePersistence>> persistence =
        persist::CachePersistence::Open(options, &cache);
    RAQO_CHECK(persistence.ok()) << persistence.status().ToString();
    // Detach: OnInsert is driven (and timed) directly below, while the
    // cache still grows so compaction snapshots see its real size.
    cache.SetEventListener(nullptr);
    double insert_sum = 0.0, bytes_sum = 0.0;
    size_t bytes_samples = 0;
    for (const core::CacheEntryRecord& entry : entries) {
      cache.Insert(entry.model, entry.plan);
      const int64_t bytes_before = (*persistence)->journal_bytes();
      const int64_t compactions_before = (*persistence)->compactions();
      const Clock::time_point start = Clock::now();
      (*persistence)->OnInsert(entry.model, entry.plan);
      insert_sum += UsSince(start);
      if ((*persistence)->compactions() == compactions_before) {
        bytes_sum +=
            static_cast<double>((*persistence)->journal_bytes() - bytes_before);
        ++bytes_samples;
      }
    }
    RAQO_CHECK((*persistence)->Close().ok());
    persistence->reset();
    m["persist.on_insert_us"] = Mean(insert_sum, entries.size());
    m["persist.bytes_per_entry"] = Mean(bytes_sum, bytes_samples);

    core::ResourcePlanCache recovered(core::CacheLookupMode::kExact, 0.0,
                                      core::CacheIndexKind::kSortedArray,
                                      service_options.cache_shards);
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<persist::CachePersistence>> reopened =
        persist::CachePersistence::Open(options, &recovered);
    m["persist.recovery_ms"] = UsSince(start) / 1000.0;
    RAQO_CHECK(reopened.ok()) << reopened.status().ToString();
    m["persist.recovered_entries"] =
        static_cast<double>(recovered.entry_count());
    (void)(*reopened)->Close();
    reopened->reset();
    std::filesystem::remove_all(scratch_dir);
  }
  return m;
}

}  // namespace planbench
