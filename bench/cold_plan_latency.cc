// Cold plan latency: exhaustive vs switch-point-aware resource search.
//
// The joint optimizer's cold cost (no resource-plan cache) is dominated
// by the per-candidate grid search: Selinger asks the evaluator to cost
// hundreds of candidate joins, and the exhaustive search answers each
// with rp x rc model evaluations over the paper-default 10x100 grid.
// The switch-aware search answers the same question bit-identically by
// re-costing the previous candidate's optimum first (the paper's
// switch-point observation: the winner rarely moves between candidates)
// and dominance-pruning the rest of the grid with sound cost-model
// lower bounds (docs/PERF.md).
//
// This bench plans the TPC-H evaluation queries plus a random-schema
// workload with both searches, asserts the plans are identical, and
// reports per-query latency percentiles, the evaluation-count ratio,
// and the wall-clock speedup. The default search, the paper's hill
// climb (heuristic, so its plans may differ), is reported beside them.
// With --smoke it is a CI gate: the two exact searches' plans must be
// identical and the switch-aware search must be >= 2x faster cold.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/raqo_planner.h"
#include "core/workload_runner.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

// The smoke gate: cold planning with the switch-aware search must be at
// least this much faster than the exhaustive brute force on the
// paper-default grid, with bit-identical plans.
constexpr double kSpeedupFloor = 2.0;

// Repetitions per workload; latencies accumulate across repeats so the
// percentiles are not single-sample noise.
constexpr int kRepeats = 5;

core::RaqoPlannerOptions ColdOptions(core::ResourceSearch search) {
  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  options.evaluator.use_cache = false;
  options.evaluator.search = search;
  return options;
}

struct SearchRun {
  double total_wall_ms = 0.0;
  int64_t configs_explored = 0;
  std::vector<double> query_wall_ms;
  // Reports of the final repeat, for the plan-identity check.
  core::WorkloadReport last_report;
};

bool SamePlans(const core::WorkloadReport& a, const core::WorkloadReport& b) {
  if (a.queries.size() != b.queries.size()) return false;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].plan != b.queries[i].plan) return false;
    if (a.queries[i].cost.seconds != b.queries[i].cost.seconds) return false;
    if (a.queries[i].cost.dollars != b.queries[i].cost.dollars) return false;
    if (a.queries[i].join_resources != b.queries[i].join_resources) {
      return false;
    }
  }
  return true;
}

SearchRun RunWorkload(const catalog::Catalog& cat,
                      const cost::JoinCostModels& models,
                      const resource::ClusterConditions& cluster,
                      const std::vector<core::WorkloadQuery>& workload,
                      core::ResourceSearch search) {
  SearchRun run;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    core::RaqoPlanner planner(&cat, models, cluster,
                              resource::PricingModel(), ColdOptions(search));
    core::WorkloadRunner runner(&planner);
    Result<core::WorkloadReport> report = runner.Run(workload);
    RAQO_CHECK(report.ok()) << report.status().ToString();
    run.total_wall_ms += report->wall_clock_ms;
    for (const core::QueryRunReport& query : report->queries) {
      run.query_wall_ms.push_back(query.wall_ms);
      if (repeat == 0) run.configs_explored += query.resource_configs_explored;
    }
    run.last_report = *std::move(report);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raqo;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const cost::JoinCostModels models =
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();

  // Suite 1: the paper's TPC-H evaluation queries at scale factor 100.
  catalog::Catalog tpch = catalog::BuildTpchCatalog(100.0);
  std::vector<core::WorkloadQuery> tpch_workload;
  for (catalog::TpchQuery q :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    core::WorkloadQuery query;
    query.label = catalog::TpchQueryName(q);
    query.tables = *catalog::TpchQueryTables(tpch, q);
    tpch_workload.push_back(std::move(query));
  }

  // Suite 2: random 30-table schema, 32 queries of 4..9 relations.
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 30;
  catalog::Catalog random_cat = *catalog::BuildRandomCatalog(schema);
  Rng rng(7);
  std::vector<core::WorkloadQuery> random_workload;
  for (int i = 0; i < 32; ++i) {
    core::WorkloadQuery query;
    query.label = StrPrintf("r%d", i);
    query.tables = *catalog::RandomQueryTables(
        random_cat, static_cast<int>(rng.UniformInt(4, 9)),
        static_cast<uint64_t>(500 + i));
    random_workload.push_back(std::move(query));
  }

  bench::Section(
      "Cold plan latency: exhaustive vs switch-aware resource search, "
      "and the default hill climb (no cache, paper-default 10x100 grid)");

  struct Suite {
    const char* name;
    const catalog::Catalog* cat;
    const std::vector<core::WorkloadQuery>* workload;
  };
  const Suite suites[] = {{"tpch", &tpch, &tpch_workload},
                          {"random", &random_cat, &random_workload}};

  bench::Table table({"suite", "search", "wall (ms)", "p50/p95/p99 (ms)",
                      "evals/query", "speedup", "plans identical"});
  std::string json_suites;
  double worst_speedup = 1e300;
  bool all_identical = true;

  for (const Suite& suite : suites) {
    const SearchRun brute =
        RunWorkload(*suite.cat, models, cluster, *suite.workload,
                    core::ResourceSearch::kBruteForce);
    const SearchRun incremental =
        RunWorkload(*suite.cat, models, cluster, *suite.workload,
                    core::ResourceSearch::kSwitchAwareGrid);
    const SearchRun climb =
        RunWorkload(*suite.cat, models, cluster, *suite.workload,
                    core::ResourceSearch::kHillClimb);

    const bool identical =
        SamePlans(brute.last_report, incremental.last_report);
    all_identical = all_identical && identical;
    const double speedup = incremental.total_wall_ms > 0.0
                               ? brute.total_wall_ms / incremental.total_wall_ms
                               : 1.0;
    worst_speedup = std::min(worst_speedup, speedup);

    const bench::LatencyStats brute_lat =
        bench::SummarizeLatencies(brute.query_wall_ms);
    const bench::LatencyStats inc_lat =
        bench::SummarizeLatencies(incremental.query_wall_ms);
    const bench::LatencyStats climb_lat =
        bench::SummarizeLatencies(climb.query_wall_ms);
    const double queries = static_cast<double>(suite.workload->size());
    table.AddRow({suite.name, "brute-force",
                  bench::Num(brute.total_wall_ms, "%.1f"),
                  StrPrintf("%.2f/%.2f/%.2f", brute_lat.p50, brute_lat.p95,
                            brute_lat.p99),
                  bench::Num(static_cast<double>(brute.configs_explored) /
                                 queries,
                             "%.0f"),
                  bench::Num(1.0, "%.2fx"), "-"});
    table.AddRow({suite.name, "switch-aware-grid",
                  bench::Num(incremental.total_wall_ms, "%.1f"),
                  StrPrintf("%.2f/%.2f/%.2f", inc_lat.p50, inc_lat.p95,
                            inc_lat.p99),
                  bench::Num(
                      static_cast<double>(incremental.configs_explored) /
                          queries,
                      "%.0f"),
                  bench::Num(speedup, "%.2fx"), identical ? "yes" : "NO"});
    table.AddRow({suite.name, "hill-climb (default)",
                  bench::Num(climb.total_wall_ms, "%.1f"),
                  StrPrintf("%.2f/%.2f/%.2f", climb_lat.p50, climb_lat.p95,
                            climb_lat.p99),
                  bench::Num(static_cast<double>(climb.configs_explored) /
                                 queries,
                             "%.0f"),
                  bench::Num(climb.total_wall_ms > 0.0
                                 ? brute.total_wall_ms / climb.total_wall_ms
                                 : 1.0,
                             "%.2fx"),
                  "-"});

    if (!json_suites.empty()) json_suites += ", ";
    json_suites += StrPrintf(
        "{\"suite\": \"%s\", \"queries\": %zu, \"repeats\": %d, "
        "\"brute_force\": {\"wall_ms\": %s, %s, \"configs_explored\": %lld}, "
        "\"switch_aware\": {\"wall_ms\": %s, %s, \"configs_explored\": %lld}, "
        "\"hill_climb\": {\"wall_ms\": %s, %s, \"configs_explored\": %lld}, "
        "\"speedup\": %s, \"plans_identical\": %s}",
        suite.name, suite.workload->size(), kRepeats,
        JsonNumber(brute.total_wall_ms).c_str(),
        bench::LatencyJsonFields(brute_lat, "ms").c_str(),
        (long long)brute.configs_explored,
        JsonNumber(incremental.total_wall_ms).c_str(),
        bench::LatencyJsonFields(inc_lat, "ms").c_str(),
        (long long)incremental.configs_explored,
        JsonNumber(climb.total_wall_ms).c_str(),
        bench::LatencyJsonFields(climb_lat, "ms").c_str(),
        (long long)climb.configs_explored,
        JsonNumber(speedup).c_str(), identical ? "true" : "false");
  }
  table.Print();

  const std::string json = StrPrintf(
      "{\"bench\": \"cold_plan_latency\", \"speedup_floor\": %s, "
      "\"worst_speedup\": %s, \"plans_identical\": %s, \"suites\": [%s]}\n",
      JsonNumber(kSpeedupFloor).c_str(), JsonNumber(worst_speedup).c_str(),
      all_identical ? "true" : "false", json_suites.c_str());
  if (Status written = WriteTextFile("BENCH_cold_plan.json", json);
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_cold_plan.json\n");

  if (smoke) {
    bool ok = true;
    if (!all_identical) {
      std::fprintf(stderr,
                   "SMOKE FAIL: switch-aware search returned different "
                   "plans — the exhaustive-equivalence contract broke\n");
      ok = false;
    }
    if (worst_speedup < kSpeedupFloor) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cold speedup %.2fx is below the %.2fx "
                   "floor — pruning or warm-start regressed\n",
                   worst_speedup, kSpeedupFloor);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("smoke: cold-latency gates passed (worst %.2fx, plans "
                "identical)\n",
                worst_speedup);
  }
  return 0;
}
