#include "cost/cost_model.h"

#include <utility>

#include "common/logging.h"

namespace raqo::cost {

OperatorCostModel::OperatorCostModel(std::string name, LinearModel model,
                                     FeatureSet feature_set)
    : name_(std::move(name)),
      model_(std::move(model)),
      feature_set_(feature_set) {
  const size_t expected =
      NumFeatures(feature_set_) + (model_.has_intercept ? 1 : 0);
  RAQO_CHECK(model_.weights.size() == expected)
      << "cost model " << name_ << " has " << model_.weights.size()
      << " weights, expected " << expected;
}

Result<OperatorCostModel> OperatorCostModel::Train(
    std::string name, const std::vector<ProfileSample>& samples,
    FeatureSet feature_set) {
  if (samples.empty()) {
    return Status::InvalidArgument("cannot train a cost model on no samples");
  }
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(samples.size());
  y.reserve(samples.size());
  for (const ProfileSample& s : samples) {
    x.push_back(ExpandFeatures(s.features, feature_set));
    y.push_back(s.seconds);
  }
  OlsOptions options;
  options.fit_intercept = true;
  options.ridge_lambda = 1e-6;
  RAQO_ASSIGN_OR_RETURN(LinearModel model, FitOls(x, y, options));
  return OperatorCostModel(std::move(name), std::move(model), feature_set);
}

OperatorCostModel PaperHiveSmjModel() {
  LinearModel model;
  model.weights = {1.62643613e+01,  9.68774888e-01, 1.33866542e-02,
                   1.60639851e-01,  -7.82618920e-03, -3.91309460e-01,
                   1.10387975e-01};
  model.has_intercept = false;
  return OperatorCostModel("smj-paper-hive", std::move(model),
                           FeatureSet::kPaper);
}

OperatorCostModel PaperHiveBhjModel() {
  LinearModel model;
  model.weights = {1.00739509e+04,  -6.72184592e+02, -1.37392901e+01,
                   -1.64871481e+02, 2.44721676e-02,  1.22360838e+00,
                   -1.37319484e+02};
  model.has_intercept = false;
  return OperatorCostModel("bhj-paper-hive", std::move(model),
                           FeatureSet::kPaper);
}

JoinCostModels PaperHiveModels() {
  return JoinCostModels{PaperHiveSmjModel(), PaperHiveBhjModel()};
}

}  // namespace raqo::cost
