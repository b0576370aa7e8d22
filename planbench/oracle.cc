// Correctness oracle: fresh direct RaqoPlanner calls with the request's
// options and no shared cache, plus the exhaustive re-planning check for
// exact-search requests (README.md, "Checks").

#include <atomic>
#include <cstring>
#include <functional>
#include <thread>

#include "common/logging.h"
#include "core/raqo_planner.h"
#include "planbench.h"
#include "query/sql_parser.h"
#include "resource/cluster_conditions.h"

namespace planbench {

namespace {

void AppendBits(std::string* out, double v) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  out->append(bytes, sizeof(double));
}

}  // namespace

uint64_t Digest(const Answer& answer) {
  std::string canonical = answer.plan;
  canonical.push_back('\0');
  AppendBits(&canonical, answer.cost.seconds);
  AppendBits(&canonical, answer.cost.dollars);
  for (const resource::ResourceConfig& r : answer.join_resources) {
    AppendBits(&canonical, r.container_size_gb());
    AppendBits(&canonical, r.num_containers());
  }
  // 0 marks "no answer" in the closed loop's records.
  const uint64_t h = std::hash<std::string>{}(canonical);
  return h == 0 ? 1 : h;
}

Answer AnswerOf(const server::PlanResponse& response) {
  return Answer{response.plan, response.cost, response.join_resources};
}

core::RaqoPlannerOptions ResolveOptions(
    const server::PlanningServiceOptions& service,
    const server::PlanRequest& request) {
  core::RaqoPlannerOptions options = service.planner;
  if (request.search == "grid") {
    options.evaluator.search = core::ResourceSearch::kBruteForce;
  } else {
    RAQO_CHECK(request.search.empty()) << "unsupported search knob";
  }
  if (request.has_use_cache) options.evaluator.use_cache = request.use_cache;
  if (request.has_time_weight) {
    options.evaluator.time_weight = request.time_weight;
  }
  return options;
}

Status ResolveQuery(const catalog::Catalog& catalog,
                    const server::PlanRequest& request,
                    catalog::Catalog* filtered,
                    const catalog::Catalog** planning_catalog,
                    std::vector<catalog::TableId>* tables) {
  *planning_catalog = &catalog;
  tables->clear();
  if (!request.sql.empty()) {
    RAQO_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                          query::ParseJoinQuery(catalog, request.sql));
    *tables = parsed.tables;
    if (!parsed.filters.empty()) {
      RAQO_ASSIGN_OR_RETURN(*filtered, query::ApplyFilters(catalog, parsed));
      *planning_catalog = filtered;
    }
    return Status::OK();
  }
  for (const std::string& name : request.tables) {
    RAQO_ASSIGN_OR_RETURN(catalog::TableId id, catalog.FindTable(name));
    tables->push_back(id);
  }
  return Status::OK();
}

namespace {

Expected DirectCall(const catalog::Catalog& catalog,
                    const cost::JoinCostModels& models,
                    const server::PlanningServiceOptions& service,
                    const server::PlanRequest& request) {
  Expected expected;
  catalog::Catalog filtered;
  const catalog::Catalog* planning_catalog = nullptr;
  std::vector<catalog::TableId> tables;
  if (!ResolveQuery(catalog, request, &filtered, &planning_catalog, &tables)
           .ok()) {
    expected.ok = false;
    return expected;
  }
  core::RaqoPlannerOptions options = ResolveOptions(service, request);
  options.evaluator.use_cache = false;
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();
  core::RaqoPlanner planner(planning_catalog, models, cluster,
                            resource::PricingModel(), options);
  Result<core::JointPlan> plan = planner.Plan(tables);
  if (!plan.ok()) {
    expected.ok = false;
    return expected;
  }
  expected.answer.plan = plan->plan->ToString(planning_catalog);
  expected.answer.cost = plan->cost;
  plan->plan->VisitJoins([&](const plan::PlanNode& join) {
    expected.answer.join_resources.push_back(
        join.resources().value_or(resource::ResourceConfig()));
  });
  expected.digest = Digest(expected.answer);

  if (options.evaluator.search == core::ResourceSearch::kBruteForce) {
    // Joint optimality: re-planning the chosen plan's resources under the
    // exhaustive search can find nothing cheaper.
    core::RaqoPlanner replanner(planning_catalog, models, cluster,
                                resource::PricingModel(), options);
    Result<core::JointPlan> replanned =
        replanner.PlanResourcesForPlan(*plan->plan);
    const double w = options.evaluator.time_weight;
    expected.optimal = replanned.ok() && !(replanned->cost.Weighted(w) <
                                           plan->cost.Weighted(w));
  }
  return expected;
}

}  // namespace

void ComputeOracles(const Workload& workload, const catalog::Catalog& catalog,
                    const cost::JoinCostModels& models,
                    const std::vector<uint64_t>& keys, int threads,
                    std::unordered_map<uint64_t, Expected>* oracles) {
  std::vector<uint64_t> todo;
  for (uint64_t key : keys) {
    if (oracles->count(key) == 0) {
      todo.push_back(key);
      (*oracles)[key] = Expected();  // reserve the slot; filled below
    }
  }
  const server::PlanningServiceOptions service = workload.ServiceOptions();
  std::vector<Expected> results(todo.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < todo.size();
         i = next.fetch_add(1)) {
      results[i] = DirectCall(catalog, models, service, workload.Make(todo[i]));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  for (size_t i = 0; i < todo.size(); ++i) {
    (*oracles)[todo[i]] = std::move(results[i]);
  }
}

}  // namespace planbench
