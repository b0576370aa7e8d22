#include "cost/features.h"

namespace raqo::cost {

size_t NumFeatures(FeatureSet set) {
  return WithFeatureFormulas(set, [](auto formulas) {
    return decltype(formulas)::kCount;
  });
}

std::vector<double> ExpandFeatures(const JoinFeatures& f, FeatureSet set) {
  return WithFeatureFormulas(set, [&f](auto formulas) {
    std::vector<double> out(decltype(formulas)::kCount);
    decltype(formulas)::Expand(f.smaller_gb, f.larger_gb,
                               f.container_size_gb, f.num_containers,
                               out.data());
    return out;
  });
}

const std::vector<std::string>& FeatureNames(FeatureSet set) {
  static const std::vector<std::string>* paper =
      new std::vector<std::string>{"ss", "ss^2", "cs",   "cs^2",
                                   "nc", "nc^2", "cs*nc"};
  static const std::vector<std::string>* extended =
      new std::vector<std::string>{"ss",    "ls", "ss/nc", "ls/nc",
                                   "ss*nc", "nc", "cs",    "ss/cs",
                                   "ls/cs", "1/cs"};
  static const std::vector<std::string>* peaked =
      new std::vector<std::string>{"ss", "cs*(14-cs)", "nc"};
  switch (set) {
    case FeatureSet::kPaper:
      return *paper;
    case FeatureSet::kExtended:
      return *extended;
    case FeatureSet::kPeakedProbe:
      return *peaked;
  }
  return *paper;
}

const std::vector<FeatureResourceTrend>& FeatureResourceTrends(
    FeatureSet set) {
  using T = FeatureTrend;
  // Trends hold for ss, ls >= 0 and cs, nc > 0, the domain of every
  // valid cluster grid. Division features use max(x, 1e-9) guards in
  // FeatureFormulas; max of a monotone function is monotone, so the
  // guards do not change any trend.
  static const std::vector<FeatureResourceTrend>* paper =
      new std::vector<FeatureResourceTrend>{
          {T::kConstant, T::kConstant},      // ss
          {T::kConstant, T::kConstant},      // ss^2
          {T::kIncreasing, T::kConstant},    // cs
          {T::kIncreasing, T::kConstant},    // cs^2
          {T::kConstant, T::kIncreasing},    // nc
          {T::kConstant, T::kIncreasing},    // nc^2
          {T::kIncreasing, T::kIncreasing},  // cs*nc
      };
  static const std::vector<FeatureResourceTrend>* extended =
      new std::vector<FeatureResourceTrend>{
          {T::kConstant, T::kConstant},     // ss
          {T::kConstant, T::kConstant},     // ls
          {T::kConstant, T::kDecreasing},   // ss/nc
          {T::kConstant, T::kDecreasing},   // ls/nc
          {T::kConstant, T::kIncreasing},   // ss*nc
          {T::kConstant, T::kIncreasing},   // nc
          {T::kIncreasing, T::kConstant},   // cs
          {T::kDecreasing, T::kConstant},   // ss/cs
          {T::kDecreasing, T::kConstant},   // ls/cs
          {T::kDecreasing, T::kConstant},   // 1/cs
      };
  static const std::vector<FeatureResourceTrend>* peaked =
      new std::vector<FeatureResourceTrend>{
          {T::kConstant, T::kConstant},     // ss
          {T::kNonMonotone, T::kConstant},  // cs*(14-cs)
          {T::kConstant, T::kIncreasing},   // nc
      };
  switch (set) {
    case FeatureSet::kPaper:
      return *paper;
    case FeatureSet::kExtended:
      return *extended;
    case FeatureSet::kPeakedProbe:
      return *peaked;
  }
  return *paper;
}

bool FeatureSetResourceMonotone(FeatureSet set) {
  for (const FeatureResourceTrend& trend : FeatureResourceTrends(set)) {
    if (trend.container_size == FeatureTrend::kNonMonotone ||
        trend.num_containers == FeatureTrend::kNonMonotone) {
      return false;
    }
  }
  return true;
}

}  // namespace raqo::cost
