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
#include "core/resource_planner.h"
#include "cost/cost_model.h"
#include "cost/cost_vector.h"
#include "cost/features.h"
#include "cost/join_cost_kernel.h"
#include "cost/model_bounds.h"
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

}  // namespace
}  // namespace raqo::cost
