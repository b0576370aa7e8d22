#ifndef RAQO_COST_JOIN_COST_KERNEL_H_
#define RAQO_COST_JOIN_COST_KERNEL_H_

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/regression.h"
#include "cost/features.h"

namespace raqo::cost {

/// A learned join-cost model bound to one join's input sizes: the
/// innermost loop of resource planning. A resource search evaluates the
/// model at hundreds of grid cells whose data sizes never change, so the
/// kernel is bound once per search (OperatorCostModel::Bind) and then
/// costs one cell with `Seconds(cs, nc)`, entirely inline.
///
/// Bit-identity with the linear model: the prediction is the
/// left-to-right sum `intercept (or 0.0) + w0*x0 + w1*x1 + ...` over the
/// features of FeatureFormulas, clamped at kMinSeconds. The set's
/// leading `kDataTerms` features depend on the data sizes only, so the
/// first partial sums of that very chain are computed once, at bind
/// time, and `Seconds` continues the chain from there — the same
/// floating-point operations in the same order, hence the same bits
/// (docs/PERF.md, "Join-cost kernel").
class JoinCostKernel {
 public:
  /// Prediction floor: a regression fitted on a finite profile grid can
  /// extrapolate below zero.
  static constexpr double kMinSeconds = 1e-3;

  /// `model.weights` holds NumFeatures(set) feature weights in
  /// ExpandFeatures order, followed by the intercept when
  /// `model.has_intercept` (OperatorCostModel checks this at
  /// construction).
  JoinCostKernel(FeatureSet set, const LinearModel& model, double smaller_gb,
                 double larger_gb)
      : set_(set), ss_(smaller_gb), ls_(larger_gb) {
    WithFeatureFormulas(set_, [&](auto formulas) {
      BindAs<decltype(formulas)>(model);
    });
  }

  /// Predicted runtime in seconds of the bound join on `num_containers`
  /// containers of `container_size_gb` GB each, clamped to >=
  /// kMinSeconds.
  double Seconds(double container_size_gb, double num_containers) const {
    return WithFeatureFormulas(set_, [&](auto formulas) {
      return SecondsAs<decltype(formulas)>(container_size_gb,
                                           num_containers);
    });
  }

 private:
  template <typename F>
  void BindAs(const LinearModel& model) {
    static_assert(F::kCount <= kMaxFeatures);
    std::copy_n(model.weights.begin(), F::kCount, weights_.begin());
    std::fill(weights_.begin() + F::kCount, weights_.end(), 0.0);
    // The resource arguments are placeholders: the data terms ignore them.
    double x[F::kCount];
    F::Expand(ss_, ls_, 1.0, 1.0, x);
    double sum = model.has_intercept ? model.weights.back() : 0.0;
    for (size_t i = 0; i < F::kDataTerms; ++i) sum += weights_[i] * x[i];
    prefix_ = sum;
  }

  template <typename F>
  double SecondsAs(double cs, double nc) const {
    double x[F::kCount];
    F::Expand(ss_, ls_, cs, nc, x);
    double sum = prefix_;
#pragma GCC unroll 16
    for (size_t i = F::kDataTerms; i < F::kCount; ++i) {
      sum += weights_[i] * x[i];
    }
    return std::max(sum, kMinSeconds);
  }

  FeatureSet set_;
  double ss_;
  double ls_;
  /// intercept (or 0.0) + the data terms, summed in feature order.
  double prefix_ = 0.0;
  /// Feature weights in feature order, zero past the set's kCount.
  /// Filled per set in BindAs: a value-initialised array would be
  /// zeroed whole on every bind, which doubled PredictSeconds' cost.
  std::array<double, kMaxFeatures> weights_;
};

}  // namespace raqo::cost

#endif  // RAQO_COST_JOIN_COST_KERNEL_H_
