#include "optimizer/fixed_resource_evaluator.h"

#include "cost/features.h"

namespace raqo::optimizer {

FixedResourceEvaluator::FixedResourceEvaluator(
    cost::JoinCostModels models, resource::ResourceConfig config,
    resource::PricingModel pricing, double bhj_capacity_factor)
    : models_(std::move(models)),
      config_(config),
      pricing_(pricing),
      bhj_capacity_factor_(bhj_capacity_factor) {}

Result<OperatorCost> FixedResourceEvaluator::CostJoinImpl(
    const JoinContext& context) {
  const double ss_gb = context.smaller_gb();
  if (context.impl == plan::JoinImpl::kBroadcastHashJoin &&
      ss_gb > config_.container_size_gb() * bhj_capacity_factor_) {
    return Status::ResourceExhausted(
        "BHJ build side does not fit the fixed container size");
  }
  cost::JoinFeatures features;
  features.smaller_gb = ss_gb;
  features.larger_gb = context.larger_gb();
  features.container_size_gb = config_.container_size_gb();
  features.num_containers = config_.num_containers();

  const double seconds =
      models_.ForImpl(context.impl).PredictSeconds(features);
  OperatorCost out;
  out.cost.seconds = seconds;
  out.cost.dollars = pricing_.Cost(config_, seconds);
  out.resources = config_;
  AddResourceConfigsExplored(1);
  return out;
}

}  // namespace raqo::optimizer
