#ifndef RAQO_COST_COST_MODEL_H_
#define RAQO_COST_COST_MODEL_H_

#include <string>
#include <vector>

#include "common/regression.h"
#include "common/result.h"
#include "cost/features.h"
#include "cost/join_cost_kernel.h"
#include "plan/plan_node.h"

namespace raqo::cost {

/// A training observation for the cost model: raw features plus the
/// measured (or simulated) runtime.
struct ProfileSample {
  JoinFeatures features;
  double seconds = 0.0;
};

/// Learned cost of one physical operator implementation as a function of
/// data and resources: f(d, r) -> C (Section VI-A). Wraps a linear model
/// over an expanded feature vector and clamps predictions to a small
/// positive floor, since a regression fitted on a finite profile grid can
/// extrapolate below zero.
///
/// Evaluation goes through one definition: Bind() fixes a join's data
/// sizes and returns the inline JoinCostKernel, which costs a resource
/// configuration with the same floating-point operations, in the same
/// order, as the linear model's left-to-right dot product.
/// PredictSeconds() is Bind() followed by one Seconds() call, so a
/// resource search that binds once per join and a caller that predicts
/// cell by cell get the same bits (docs/PERF.md, "Join-cost kernel").
class OperatorCostModel {
 public:
  /// `name` identifies the model (also used as the resource-plan cache
  /// discriminator). `model.weights` must match the feature set's arity
  /// (+1 when it carries an intercept).
  OperatorCostModel(std::string name, LinearModel model,
                    FeatureSet feature_set);

  /// Fits a model from profile samples via OLS over the expanded
  /// features (extended set by default; pass FeatureSet::kPaper to fit
  /// the paper's exact model form).
  static Result<OperatorCostModel> Train(
      std::string name, const std::vector<ProfileSample>& samples,
      FeatureSet feature_set = FeatureSet::kExtended);

  const std::string& name() const { return name_; }
  const LinearModel& model() const { return model_; }
  FeatureSet feature_set() const { return feature_set_; }

  /// The model bound to one join's input sizes; bind once per resource
  /// search and call Seconds(cs, nc) per grid cell.
  JoinCostKernel Bind(double smaller_gb, double larger_gb) const {
    return JoinCostKernel(feature_set_, model_, smaller_gb, larger_gb);
  }

  /// Predicted runtime in seconds, clamped to >= kMinSeconds.
  double PredictSeconds(const JoinFeatures& features) const {
    return Bind(features.smaller_gb, features.larger_gb)
        .Seconds(features.container_size_gb, features.num_containers);
  }

  /// Prediction floor.
  static constexpr double kMinSeconds = JoinCostKernel::kMinSeconds;

 private:
  std::string name_;
  LinearModel model_;
  FeatureSet feature_set_;
};

/// The pair of join-operator cost models RAQO plans with.
struct JoinCostModels {
  OperatorCostModel smj;
  OperatorCostModel bhj;

  const OperatorCostModel& ForImpl(plan::JoinImpl impl) const {
    return impl == plan::JoinImpl::kSortMergeJoin ? smj : bhj;
  }
};

/// The SMJ coefficients the paper published from its regression analysis
/// over Hive profile runs (Section VI-A):
///   [1.62643613e+01, 9.68774888e-01, 1.33866542e-02, 1.60639851e-01,
///    -7.82618920e-03, -3.91309460e-01, 1.10387975e-01]
/// SMJ has positive coefficients for container size and negative for the
/// number of containers.
OperatorCostModel PaperHiveSmjModel();

/// The BHJ coefficients the paper published (opposite signs: BHJ improves
/// with container size rather than parallelism):
///   [1.00739509e+04, -6.72184592e+02, -1.37392901e+01, -1.64871481e+02,
///    2.44721676e-02, 1.22360838e+00, -1.37319484e+02]
OperatorCostModel PaperHiveBhjModel();

/// Both paper-published models bundled.
JoinCostModels PaperHiveModels();

}  // namespace raqo::cost

#endif  // RAQO_COST_COST_MODEL_H_
