#include "cost/model_bounds.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace raqo::cost {

namespace {

/// Per-feature corner minima over the box [cs_lo, cs_hi] x [nc_lo,
/// nc_hi]: phi is componentwise monotone, so each w_i * phi_i attains
/// its box minimum at one of the 4 corners. Expanded inline through the
/// set's FeatureFormulas `F`, like the join-cost kernel.
template <typename F>
double CornerMinimaBound(const LinearModel& model, const JoinFeatures& data,
                         double cs_lo, double cs_hi, double nc_lo,
                         double nc_hi) {
  double corners[4][F::kCount];
  const double ss = data.smaller_gb;
  const double ls = data.larger_gb;
  F::Expand(ss, ls, cs_lo, nc_lo, corners[0]);
  F::Expand(ss, ls, cs_lo, nc_hi, corners[1]);
  F::Expand(ss, ls, cs_hi, nc_lo, corners[2]);
  F::Expand(ss, ls, cs_hi, nc_hi, corners[3]);

  double sum = model.has_intercept ? model.weights.back() : 0.0;
  for (size_t i = 0; i < F::kCount; ++i) {
    const double w = model.weights[i];
    double term = w * corners[0][i];
    for (int c = 1; c < 4; ++c) term = std::min(term, w * corners[c][i]);
    sum += term;
  }
  return std::max(sum, OperatorCostModel::kMinSeconds);
}

}  // namespace

Result<ResourceBoundOracle> ResourceBoundOracle::Create(
    const OperatorCostModel& model) {
  const FeatureSet set = model.feature_set();
  if (!FeatureSetResourceMonotone(set)) {
    return Status::FailedPrecondition(StrPrintf(
        "cost model '%s' uses a feature set that is not per-dimension "
        "monotone in the resource dimensions; interval corner bounds "
        "would be unsound",
        model.name().c_str()));
  }
  for (double w : model.model().weights) {
    if (!std::isfinite(w)) {
      return Status::FailedPrecondition(StrPrintf(
          "cost model '%s' has a non-finite weight; bounds undefined",
          model.name().c_str()));
    }
  }
  ResourceBoundOracle oracle(model.model(), set);

  // Defense in depth against a mis-declared trend table: the bound must
  // under-approximate direct predictions at interior cells of sampled
  // boxes spanning several data scales. This probe cannot *prove*
  // monotonicity (only the analytical declaration does), but it catches
  // a registry entry that is simply wrong before any query prunes on it.
  static constexpr double kDataGb[] = {0.0, 0.4, 7.7, 250.0};
  static constexpr double kCsEdges[] = {1.0, 4.0, 10.0};
  static constexpr double kNcEdges[] = {1.0, 33.0, 100.0};
  for (double ss : kDataGb) {
    for (double ls : kDataGb) {
      if (ls < ss) continue;
      JoinFeatures data;
      data.smaller_gb = ss;
      data.larger_gb = ls;
      for (size_t a = 0; a + 1 < 3; ++a) {
        for (size_t b = 0; b + 1 < 3; ++b) {
          const resource::ResourceConfig lo(kCsEdges[a], kNcEdges[b]);
          const resource::ResourceConfig hi(kCsEdges[a + 1],
                                            kNcEdges[b + 1]);
          const double bound = oracle.SecondsLowerBound(data, lo, hi);
          for (double fcs = 0.0; fcs <= 1.0; fcs += 0.5) {
            for (double fnc = 0.0; fnc <= 1.0; fnc += 0.5) {
              JoinFeatures probe = data;
              probe.container_size_gb =
                  kCsEdges[a] + fcs * (kCsEdges[a + 1] - kCsEdges[a]);
              probe.num_containers =
                  kNcEdges[b] + fnc * (kNcEdges[b + 1] - kNcEdges[b]);
              if (model.PredictSeconds(probe) < bound) {
                return Status::FailedPrecondition(StrPrintf(
                    "cost model '%s' violated its own lower bound at "
                    "cs=%.2f nc=%.2f (ss=%.2f ls=%.2f); the declared "
                    "monotonicity metadata is wrong",
                    model.name().c_str(), probe.container_size_gb,
                    probe.num_containers, ss, ls));
              }
            }
          }
        }
      }
    }
  }
  return oracle;
}

double ResourceBoundOracle::SecondsLowerBound(
    const JoinFeatures& data, const resource::ResourceConfig& lo,
    const resource::ResourceConfig& hi) const {
  const double cs_lo = lo.container_size_gb();
  const double cs_hi = hi.container_size_gb();
  const double nc_lo = lo.num_containers();
  const double nc_hi = hi.num_containers();
  return WithFeatureFormulas(feature_set_, [&](auto formulas) {
    return CornerMinimaBound<decltype(formulas)>(model_, data, cs_lo, cs_hi,
                                                 nc_lo, nc_hi);
  });
}

}  // namespace raqo::cost
