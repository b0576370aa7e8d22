// The join-cost kernel is only allowed to be fast: bound once per join,
// it must return the very bits of the linear model's left-to-right dot
// product over the expanded features, and every resource search driven
// through it must make the same decisions as one driven by that plain
// dot product.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/raqo_cost_evaluator.h"
#include "core/resource_planner.h"
#include "cost/cost_model.h"
#include "cost/cost_vector.h"
#include "cost/features.h"
#include "cost/join_cost_kernel.h"
#include "cost/model_bounds.h"
#include "optimizer/cost_evaluator.h"
#include "resource/cluster_conditions.h"
#include "resource/pricing.h"
#include "sim/profile_runner.h"

namespace raqo::cost {
namespace {

const JoinCostModels& HiveModels() {
  static const JoinCostModels* models = new JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The reference: the expanded features dotted with the weights in
// order, starting from the intercept, clamped at the floor.
double ReferenceSeconds(const OperatorCostModel& model,
                        const JoinFeatures& f) {
  const std::vector<double> x = ExpandFeatures(f, model.feature_set());
  const LinearModel& linear = model.model();
  double sum = linear.has_intercept ? linear.weights.back() : 0.0;
  for (size_t i = 0; i < x.size(); ++i) sum += linear.weights[i] * x[i];
  return std::max(sum, OperatorCostModel::kMinSeconds);
}

OperatorCostModel RandomModel(Rng& rng, FeatureSet set, bool intercept) {
  LinearModel linear;
  linear.has_intercept = intercept;
  const size_t n = NumFeatures(set) + (intercept ? 1 : 0);
  for (size_t i = 0; i < n; ++i) {
    // Mixed signs over several magnitudes: sums land on both sides of
    // the floor and cancel catastrophically now and then.
    linear.weights.push_back(rng.Uniform(-1.0, 1.0) *
                             std::pow(10.0, rng.UniformInt(-4, 3)));
  }
  return OperatorCostModel("random", std::move(linear), set);
}

std::vector<OperatorCostModel> ModelsFor(FeatureSet set, Rng& rng) {
  std::vector<OperatorCostModel> models;
  for (int i = 0; i < 16; ++i) models.push_back(RandomModel(rng, set, i % 2));
  // All-negative weights: every prediction is clamped.
  LinearModel negative;
  negative.weights.assign(NumFeatures(set), -1.0);
  models.emplace_back("negative", std::move(negative), set);
  if (set == FeatureSet::kPaper) {
    models.push_back(PaperHiveSmjModel());
    models.push_back(PaperHiveBhjModel());
  }
  if (HiveModels().smj.feature_set() == set) {
    models.push_back(HiveModels().smj);
    models.push_back(HiveModels().bhj);
  }
  return models;
}

std::vector<JoinFeatures> Inputs(Rng& rng) {
  std::vector<JoinFeatures> inputs;
  for (int i = 0; i < 4000; ++i) {
    JoinFeatures f;
    f.smaller_gb = rng.Uniform(0.0, 500.0);
    f.larger_gb = f.smaller_gb + rng.Uniform(0.0, 5000.0);
    f.container_size_gb = rng.Uniform(0.5, 64.0);
    f.num_containers = static_cast<double>(rng.UniformInt(1, 1000));
    inputs.push_back(f);
  }
  // Edges: empty inputs, and resources at, below and above the 1e-9
  // division guards of the extended set.
  const double data[] = {0.0, 1e-12, 0.25, 7.0};
  const double resources[] = {0.0, 5e-10, 1e-9, 2e-9, 1.0, 1e6};
  for (double ss : data) {
    for (double cs : resources) {
      for (double nc : resources) {
        inputs.push_back(JoinFeatures{ss, ss * 3.0, cs, nc});
      }
    }
  }
  return inputs;
}

class JoinCostKernelTest : public ::testing::TestWithParam<FeatureSet> {};

INSTANTIATE_TEST_SUITE_P(FeatureSets, JoinCostKernelTest,
                         ::testing::Values(FeatureSet::kPaper,
                                           FeatureSet::kExtended,
                                           FeatureSet::kPeakedProbe));

TEST_P(JoinCostKernelTest, BitIdenticalToReferenceDotProduct) {
  Rng rng(1234 + static_cast<uint64_t>(GetParam()));
  const std::vector<JoinFeatures> inputs = Inputs(rng);
  int64_t floored = 0;
  for (const OperatorCostModel& model : ModelsFor(GetParam(), rng)) {
    for (const JoinFeatures& f : inputs) {
      const double expected = ReferenceSeconds(model, f);
      const JoinCostKernel kernel = model.Bind(f.smaller_gb, f.larger_gb);
      ASSERT_EQ(Bits(expected),
                Bits(kernel.Seconds(f.container_size_gb, f.num_containers)))
          << model.name() << " ss=" << f.smaller_gb << " ls=" << f.larger_gb
          << " cs=" << f.container_size_gb << " nc=" << f.num_containers;
      ASSERT_EQ(Bits(expected), Bits(model.PredictSeconds(f)));
      if (expected == OperatorCostModel::kMinSeconds) ++floored;
    }
  }
  // The clamp was exercised, not just the linear part.
  EXPECT_GT(floored, 0);
}

TEST_P(JoinCostKernelTest, DataTermsLeadAndIgnoreResources) {
  // The kernel folds the leading kDataTerms features into its bind-time
  // prefix; that is exact only if they are resource-constant.
  const FeatureSet set = GetParam();
  const size_t data_terms = WithFeatureFormulas(
      set, [](auto formulas) { return decltype(formulas)::kDataTerms; });
  const std::vector<FeatureResourceTrend>& trends =
      FeatureResourceTrends(set);
  ASSERT_LE(data_terms, trends.size());
  for (size_t i = 0; i < data_terms; ++i) {
    EXPECT_EQ(trends[i].container_size, FeatureTrend::kConstant) << i;
    EXPECT_EQ(trends[i].num_containers, FeatureTrend::kConstant) << i;
  }
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const JoinFeatures a{rng.Uniform(0, 100), rng.Uniform(0, 1000),
                         rng.Uniform(0, 64), rng.Uniform(0, 1000)};
    JoinFeatures b = a;
    b.container_size_gb = rng.Uniform(0, 64);
    b.num_containers = rng.Uniform(0, 1000);
    const std::vector<double> xa = ExpandFeatures(a, set);
    const std::vector<double> xb = ExpandFeatures(b, set);
    for (size_t i = 0; i < data_terms; ++i) {
      EXPECT_EQ(Bits(xa[i]), Bits(xb[i])) << i;
    }
  }
}

// ---------------------------------------------------------------------
// Every search, driven once through the kernel and once through the
// reference dot product, must make identical decisions.

struct SearchCase {
  const char* name;
  std::unique_ptr<core::ResourcePlanner> planner;
  bool hinted;
};

std::vector<SearchCase> AllSearches() {
  std::vector<SearchCase> searches;
  searches.push_back(
      {"hill-climb", std::make_unique<core::HillClimbResourcePlanner>(),
       false});
  searches.push_back(
      {"accelerated-hill-climb",
       std::make_unique<core::AcceleratedHillClimbResourcePlanner>(), false});
  searches.push_back(
      {"brute-force", std::make_unique<core::BruteForceResourcePlanner>(),
       false});
  searches.push_back(
      {"switch-aware-grid",
       std::make_unique<core::SwitchAwareGridResourcePlanner>(), true});
  return searches;
}

TEST(JoinCostKernelSearchTest, SearchesDecideIdentically) {
  const resource::PricingModel pricing;
  // The paper grid and a grid whose steps are not integers: the hill
  // climbers accumulate their configurations step by step instead of
  // indexing them, so off-integer grid values reach the model too.
  const resource::ClusterConditions grids[] = {
      resource::ClusterConditions::PaperDefault(),
      *resource::ClusterConditions::Create(
          resource::ResourceConfig(0.75, 1.5),
          resource::ResourceConfig(0.75 + 0.35 * 25, 1.5 + 2.5 * 40),
          resource::ResourceConfig(0.35, 2.5)),
  };
  const OperatorCostModel* models[] = {&HiveModels().smj,
                                       &HiveModels().bhj};
  const ResourceBoundOracle oracles[] = {
      *ResourceBoundOracle::Create(HiveModels().smj),
      *ResourceBoundOracle::Create(HiveModels().bhj)};
  const double time_weights[] = {1.0, 0.0, 0.5};
  std::vector<SearchCase> searches = AllSearches();

  Rng rng(2024);
  int64_t compared = 0;
  for (int pair = 0; pair < 240; ++pair) {
    const double ss = std::exp(rng.Uniform(std::log(0.01), std::log(400.0)));
    const double ls = ss * std::exp(rng.Uniform(0.0, std::log(200.0)));
    const size_t m = static_cast<size_t>(pair % 2);
    const OperatorCostModel& model = *models[m];
    const double tw = time_weights[pair % 3];
    const JoinCostKernel kernel = model.Bind(ss, ls);

    const core::ResourceCostFn with_kernel =
        [&](const resource::ResourceConfig& r) {
          const double s = kernel.Seconds(r.container_size_gb(),
                                          r.num_containers());
          return CostVector{s, pricing.Cost(r, s)}.Weighted(tw);
        };
    const core::ResourceCostFn with_reference =
        [&](const resource::ResourceConfig& r) {
          const double s = ReferenceSeconds(
              model,
              JoinFeatures{ss, ls, r.container_size_gb(), r.num_containers()});
          return CostVector{s, pricing.Cost(r, s)}.Weighted(tw);
        };
    core::ResourceSearchHints hints;
    hints.box_lower_bound = [&](const resource::ResourceConfig& lo,
                                const resource::ResourceConfig& hi) {
      const double sec_lb =
          oracles[m].SecondsLowerBound(JoinFeatures{ss, ls, 0.0, 0.0}, lo, hi);
      return CostVector{sec_lb, pricing.Cost(lo, sec_lb)}.Weighted(tw);
    };

    for (const resource::ClusterConditions& grid : grids) {
      // Warm-start the switch-aware search from a seeded cell.
      hints.warm_start = grid.SnapToGrid(resource::ResourceConfig(
          rng.Uniform(0.0, 12.0), rng.Uniform(0.0, 120.0)));
      for (SearchCase& search : searches) {
        const std::string what = std::string(search.name) + " pair " +
                                 std::to_string(pair) + " ss=" +
                                 std::to_string(ss);
        const Result<core::ResourcePlanResult> a =
            search.hinted ? search.planner->PlanResourcesWithHints(
                                with_kernel, grid, hints)
                          : search.planner->PlanResources(with_kernel, grid);
        const Result<core::ResourcePlanResult> b =
            search.hinted ? search.planner->PlanResourcesWithHints(
                                with_reference, grid, hints)
                          : search.planner->PlanResources(with_reference,
                                                          grid);
        ASSERT_EQ(a.ok(), b.ok()) << what;
        if (!a.ok()) continue;
        EXPECT_TRUE(a->config == b->config)
            << what << ": " << a->config.ToString() << " vs "
            << b->config.ToString();
        EXPECT_EQ(Bits(a->cost), Bits(b->cost)) << what;
        EXPECT_EQ(a->configs_explored, b->configs_explored) << what;
        EXPECT_EQ(a->cells_pruned, b->cells_pruned) << what;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 240 * 2 * 4);
}

// ---------------------------------------------------------------------
// The hill climber skips cost calls for cells it has already costed.
// The reference is Algorithm 1 written out literally: every round
// re-evaluates its start and every probe.

struct LiteralClimb {
  resource::ResourceConfig config;
  double cost = 0.0;
  int64_t explored = 0;
};

template <typename CostFn>
LiteralClimb LiteralAlgorithmOne(const CostFn& cost,
                                 const resource::ClusterConditions& cluster,
                                 resource::ResourceConfig curr) {
  const double kSteps[] = {-1.0, 1.0};
  LiteralClimb out;
  while (true) {
    const double curr_cost = core::SanitizeCost(cost(curr));
    ++out.explored;
    double best_cost = curr_cost;
    for (size_t dim = 0; dim < resource::kNumResourceDims; ++dim) {
      int best = -1;
      for (int j = 0; j < 2; ++j) {
        const double delta = cluster.step().dim(dim) * kSteps[j];
        const double moved = curr.dim(dim) + delta;
        if (moved > cluster.max().dim(dim) + 1e-9 ||
            moved < cluster.min().dim(dim) - 1e-9) {
          continue;
        }
        curr.set_dim(dim, moved);
        const double temp = core::SanitizeCost(cost(curr));
        ++out.explored;
        curr.set_dim(dim, moved - delta);
        if (temp < best_cost) {
          best_cost = temp;
          best = j;
        }
      }
      if (best != -1) {
        curr.set_dim(dim,
                     curr.dim(dim) + cluster.step().dim(dim) * kSteps[best]);
      }
    }
    if (best_cost >= curr_cost) {
      out.config = curr;
      out.cost = curr_cost;
      return out;
    }
  }
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

// A pure, seeded cost surface. A bowl around (c0, n0), optionally
// quantised into plateaus, salted with NaN or infinite cells, or
// replaced by a rugged hash landscape full of ties. Cells are keyed by
// their exact bits, so a configuration reached by `(x + d) - d` instead
// of `x` may cost something else, exactly as with a real model.
struct Surface {
  int kind = 0;
  uint64_t seed = 0;
  double c0 = 0.0, n0 = 0.0, a = 1.0, b = 1.0, q = 1.0;

  double operator()(const resource::ResourceConfig& r) const {
    const double cs = r.container_size_gb();
    const double nc = r.num_containers();
    const double bowl =
        a * (cs - c0) * (cs - c0) + b * (nc - n0) * (nc - n0) + 1.0;
    const uint64_t h = Mix(seed ^ Mix(Bits(cs)) ^ (Bits(nc) * 31));
    switch (kind) {
      case 0:
        return bowl;
      case 1:
        return std::floor(bowl / q) * q;
      case 2:
        return h % 7 == 0 ? std::nan("") : bowl;
      case 3:
        return h % 5 == 0 ? HUGE_VAL : bowl;
      case 4:
        return static_cast<double>(h % 16);
      case 5:
        return HUGE_VAL;
      default:
        return bowl + static_cast<double>(h % 3) * q;
    }
  }
};

TEST(HillClimbReuseTest, MatchesLiteralAlgorithmOne) {
  using resource::ResourceConfig;
  const resource::ClusterConditions grids[] = {
      resource::ClusterConditions::PaperDefault(),
      *resource::ClusterConditions::Create(ResourceConfig(0.75, 1.5),
                                           ResourceConfig(0.75 + 0.35 * 25,
                                                          1.5 + 2.5 * 40),
                                           ResourceConfig(0.35, 2.5)),
      // One-point dimensions: no probe exists along them.
      *resource::ClusterConditions::Create(ResourceConfig(4.0, 1.0),
                                           ResourceConfig(4.0, 60.0),
                                           ResourceConfig(1.0, 1.0)),
      *resource::ClusterConditions::Create(ResourceConfig(0.5, 7.5),
                                           ResourceConfig(0.5 + 0.35 * 30,
                                                          7.5),
                                           ResourceConfig(0.35, 2.5)),
      *resource::ClusterConditions::Create(ResourceConfig(2.0, 3.0),
                                           ResourceConfig(2.0, 3.0),
                                           ResourceConfig(1.0, 1.0)),
  };
  Rng rng(1313);
  int64_t reference_evals = 0;
  int64_t climber_evals = 0;
  int feasible = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const resource::ClusterConditions& grid = grids[trial % 5];
    Surface surface;
    surface.kind = static_cast<int>(rng.UniformInt(0, 6));
    surface.seed = rng.NextUint64();
    surface.c0 = rng.Uniform(grid.min().container_size_gb() - 1.0,
                             grid.max().container_size_gb() + 1.0);
    surface.n0 = rng.Uniform(grid.min().num_containers() - 5.0,
                             grid.max().num_containers() + 5.0);
    surface.a = rng.Uniform(0.01, 10.0);
    surface.b = rng.Uniform(0.0001, 1.0);
    surface.q = rng.Uniform(0.5, 20.0);
    const bool override_start = rng.Bernoulli(0.5);
    const ResourceConfig start = grid.SnapToGrid(ResourceConfig(
        rng.Uniform(0.0, 12.0), rng.Uniform(0.0, 120.0)));
    const core::HillClimbResourcePlanner climber =
        override_start ? core::HillClimbResourcePlanner(start)
                       : core::HillClimbResourcePlanner();
    const std::string what = "trial " + std::to_string(trial) + " kind " +
                             std::to_string(surface.kind);

    const LiteralClimb want = LiteralAlgorithmOne(
        surface, grid, override_start ? start : grid.min());
    // Through the virtual, type-erased entry point and through the
    // template on the concrete callable: one implementation, same bits.
    const Result<core::ResourcePlanResult> erased =
        climber.PlanResources(surface, grid);
    const Result<core::ResourcePlanResult> inlined =
        climber.Climb(surface, grid);
    const bool infeasible = want.cost == HUGE_VAL;
    ASSERT_EQ(erased.ok(), !infeasible) << what;
    ASSERT_EQ(inlined.ok(), !infeasible) << what;
    if (infeasible) {
      EXPECT_TRUE(erased.status().IsFailedPrecondition()) << what;
      continue;
    }
    ++feasible;
    for (const core::ResourcePlanResult* got : {&*erased, &*inlined}) {
      EXPECT_EQ(Bits(got->config.container_size_gb()),
                Bits(want.config.container_size_gb()))
          << what;
      EXPECT_EQ(Bits(got->config.num_containers()),
                Bits(want.config.num_containers()))
          << what;
      EXPECT_EQ(Bits(got->cost), Bits(want.cost)) << what;
      EXPECT_LE(got->configs_explored, want.explored) << what;
    }
    EXPECT_EQ(erased->configs_explored, inlined->configs_explored) << what;
    reference_evals += want.explored;
    climber_evals += erased->configs_explored;
  }
  EXPECT_GT(feasible, 1500);
  // Long climbs reuse about two of every five evaluations.
  EXPECT_LT(climber_evals, reference_evals * 3 / 4);
}

TEST(HillClimbReuseTest, CountsOnlyCostCalls) {
  // configs_explored is the number of times the objective actually ran.
  int64_t calls = 0;
  auto counted = [&calls](const resource::ResourceConfig& r) {
    ++calls;
    const double dcs = r.container_size_gb() - 7.0;
    const double dnc = r.num_containers() - 55.0;
    return dcs * dcs + 0.01 * dnc * dnc;
  };
  const core::HillClimbResourcePlanner climber;
  const resource::ClusterConditions grid =
      resource::ClusterConditions::PaperDefault();
  const Result<core::ResourcePlanResult> got =
      climber.PlanResources(counted, grid);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->config == resource::ResourceConfig(7, 55));
  EXPECT_EQ(got->configs_explored, calls);
  const LiteralClimb literal = LiteralAlgorithmOne(counted, grid, grid.min());
  EXPECT_LT(got->configs_explored * 10, literal.explored * 7);
}

// The evaluator runs the climb on its own inlined objective (kernel,
// pricing, weighting). It must decide exactly like the public planner
// driven by a plain PredictSeconds objective over the same sub-grid.
TEST(HillClimbReuseTest, EvaluatorMatchesPlannerOnPredictSeconds) {
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();
  const resource::PricingModel pricing;
  constexpr double kBhjFactor = 1.14;
  constexpr double kGb = 1024.0 * 1024.0 * 1024.0;
  const plan::JoinImpl impls[] = {plan::JoinImpl::kSortMergeJoin,
                                  plan::JoinImpl::kBroadcastHashJoin};
  int64_t compared = 0;
  int64_t rejected = 0;
  for (const double tw : {0.0, 1.0}) {
    core::RaqoEvaluatorOptions options;
    options.search = core::ResourceSearch::kHillClimb;
    options.time_weight = tw;
    options.bhj_capacity_factor = kBhjFactor;
    core::RaqoCostEvaluator evaluator(HiveModels(), cluster, pricing,
                                      options);
    Rng rng(4242);
    for (int pair = 0; pair < 240; ++pair) {
      const double ss =
          std::exp(rng.Uniform(std::log(0.01), std::log(40.0)));
      const double ls = ss * std::exp(rng.Uniform(0.0, std::log(200.0)));
      for (const plan::JoinImpl impl : impls) {
        const OperatorCostModel& model = HiveModels().ForImpl(impl);
        optimizer::JoinContext context;
        context.impl = impl;
        context.left_bytes = ls * kGb;
        context.right_bytes = ss * kGb;
        const std::string what = "tw " + std::to_string(tw) + " pair " +
                                 std::to_string(pair) + " " + model.name();

        // The feasible sub-grid of a broadcast join, restated: the
        // container must hold the build side.
        resource::ClusterConditions grid = cluster;
        const double min_cs = ss / kBhjFactor;
        const bool fits =
            impl != plan::JoinImpl::kBroadcastHashJoin ||
            min_cs <= cluster.max().container_size_gb() + 1e-9;
        if (impl == plan::JoinImpl::kBroadcastHashJoin && fits &&
            min_cs > cluster.min().container_size_gb()) {
          const double base = cluster.min().container_size_gb();
          const double step = cluster.step().container_size_gb();
          resource::ResourceConfig new_min = cluster.min();
          new_min.set_container_size_gb(std::min(
              base + std::ceil((min_cs - base) / step - 1e-9) * step,
              cluster.max().container_size_gb()));
          grid = *resource::ClusterConditions::Create(new_min, cluster.max(),
                                                      cluster.step());
        }

        const int64_t before = evaluator.resource_configs_explored();
        const Result<optimizer::OperatorCost> got =
            evaluator.CostJoin(context);
        if (!fits) {
          ASSERT_FALSE(got.ok()) << what;
          EXPECT_TRUE(got.status().IsResourceExhausted()) << what;
          ++rejected;
          continue;
        }
        const auto plain = [&](const resource::ResourceConfig& r) {
          const double s = model.PredictSeconds(
              JoinFeatures{ss, ls, r.container_size_gb(), r.num_containers()});
          return CostVector{s, pricing.Cost(r, s)}.Weighted(tw);
        };
        const Result<core::ResourcePlanResult> want =
            core::HillClimbResourcePlanner().PlanResources(plain, grid);
        ASSERT_EQ(got.ok(), want.ok()) << what;
        if (!got.ok()) continue;
        ASSERT_TRUE(got->resources.has_value()) << what;
        EXPECT_TRUE(*got->resources == want->config)
            << what << ": " << got->resources->ToString() << " vs "
            << want->config.ToString();
        const double seconds = model.PredictSeconds(
            JoinFeatures{ss, ls, want->config.container_size_gb(),
                         want->config.num_containers()});
        EXPECT_EQ(Bits(got->cost.seconds), Bits(seconds)) << what;
        EXPECT_EQ(Bits(got->cost.dollars),
                  Bits(pricing.Cost(want->config, seconds)))
            << what;
        EXPECT_EQ(Bits(got->cost.Weighted(tw)), Bits(want->cost)) << what;
        EXPECT_EQ(evaluator.resource_configs_explored() - before,
                  want->configs_explored)
            << what;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 800);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace raqo::cost
