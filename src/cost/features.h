#ifndef RAQO_COST_FEATURES_H_
#define RAQO_COST_FEATURES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace raqo::cost {

/// The raw inputs of the cost model (Section VI-A): data characteristics
/// of the join (its two input sizes) and the resource configuration.
struct JoinFeatures {
  /// Smaller input size in GB (`ss`, the paper's data characteristic).
  double smaller_gb = 0.0;
  /// Larger input size in GB. Used only by the extended feature set; the
  /// paper's published model is blind to it.
  double larger_gb = 0.0;
  /// Container size in GB (`cs`).
  double container_size_gb = 0.0;
  /// Number of concurrent containers (`nc`).
  double num_containers = 0.0;
};

/// Which feature expansion a model is trained/evaluated with.
enum class FeatureSet {
  /// The paper's exact feature vector: [ss, ss^2, cs, cs^2, nc, nc^2,
  /// cs*nc]. Required for interpreting the published coefficient
  /// vectors.
  kPaper,
  /// An extended set that also captures the larger input and the
  /// hyperbolic scaling of parallel operators:
  /// [ss, ls, ss/nc, ls/nc, ss*nc, nc, cs, ss/cs, ls/cs, 1/cs].
  /// The paper lists cost-model tuning ("adding more features") as
  /// future work; this is that extension, and it is the default for
  /// models trained against the execution simulator.
  kExtended,
  /// A deliberately resource-NON-monotone set: [ss, cs*(14-cs), nc].
  /// The middle feature peaks at cs = 7, inside the paper-default grid,
  /// so no corner bound over a container-size interval is sound for it.
  /// Models over this set predict fine; the switch-aware grid search's
  /// monotonicity validation must *reject* them and fall back to the
  /// exhaustive scan — this set exists to keep that rejection path
  /// honest (tests/incremental_search_test.cc).
  kPeakedProbe,
};

/// Number of expanded features for each set.
inline constexpr size_t kNumPaperFeatures = 7;
inline constexpr size_t kNumExtendedFeatures = 10;
inline constexpr size_t kNumPeakedProbeFeatures = 3;
/// Largest feature count of any set (sizes the join-cost kernel's
/// weight array).
inline constexpr size_t kMaxFeatures = std::max(
    {kNumPaperFeatures, kNumExtendedFeatures, kNumPeakedProbeFeatures});
size_t NumFeatures(FeatureSet set);

/// The feature formulas of each set — their only definition. Training
/// (ExpandFeatures), the bound oracle (cost/model_bounds.h) and the
/// join-cost kernel (cost/join_cost_kernel.h) all expand through
/// `Expand`, which writes the set's `kCount` features for (ss, ls, cs,
/// nc) into `out` in ExpandFeatures order. The first `kDataTerms`
/// features depend on the data sizes only; the kernel folds them into
/// a per-join prefix, which is why they must lead the vector.
template <FeatureSet S>
struct FeatureFormulas;

template <>
struct FeatureFormulas<FeatureSet::kPaper> {
  static constexpr size_t kCount = kNumPaperFeatures;
  static constexpr size_t kDataTerms = 2;  // ss, ss^2
  static void Expand(double ss, double /*ls*/, double cs, double nc,
                     double* out) {
    out[0] = ss;
    out[1] = ss * ss;
    out[2] = cs;
    out[3] = cs * cs;
    out[4] = nc;
    out[5] = nc * nc;
    out[6] = cs * nc;
  }
};

template <>
struct FeatureFormulas<FeatureSet::kExtended> {
  static constexpr size_t kCount = kNumExtendedFeatures;
  static constexpr size_t kDataTerms = 2;  // ss, ls
  static void Expand(double ss, double ls, double cs, double nc,
                     double* out) {
    const double safe_nc = std::max(nc, 1e-9);
    const double safe_cs = std::max(cs, 1e-9);
    out[0] = ss;
    out[1] = ls;
    out[2] = ss / safe_nc;
    out[3] = ls / safe_nc;
    out[4] = ss * nc;
    out[5] = nc;
    out[6] = cs;
    out[7] = ss / safe_cs;
    out[8] = ls / safe_cs;
    out[9] = 1.0 / safe_cs;
  }
};

template <>
struct FeatureFormulas<FeatureSet::kPeakedProbe> {
  static constexpr size_t kCount = kNumPeakedProbeFeatures;
  static constexpr size_t kDataTerms = 1;  // ss
  static void Expand(double ss, double /*ls*/, double cs, double nc,
                     double* out) {
    out[0] = ss;
    out[1] = cs * (14.0 - cs);  // peaks at cs = 7, inside the paper grid
    out[2] = nc;
  }
};

/// Calls `fn(FeatureFormulas<S>{})` for the run-time `set` and returns
/// its result: the one place a FeatureSet value selects its formulas. A
/// value outside the enum evaluates as kExtended.
template <typename Fn>
decltype(auto) WithFeatureFormulas(FeatureSet set, Fn&& fn) {
  switch (set) {
    case FeatureSet::kPaper:
      return fn(FeatureFormulas<FeatureSet::kPaper>{});
    case FeatureSet::kExtended:
      break;
    case FeatureSet::kPeakedProbe:
      return fn(FeatureFormulas<FeatureSet::kPeakedProbe>{});
  }
  return fn(FeatureFormulas<FeatureSet::kExtended>{});
}

/// Expands the raw inputs into the chosen feature vector (the training
/// path; planning expands inline through FeatureFormulas).
std::vector<double> ExpandFeatures(const JoinFeatures& f, FeatureSet set);

/// Names of the expanded features, aligned with ExpandFeatures output.
const std::vector<std::string>& FeatureNames(FeatureSet set);

/// Monotone trend of one expanded feature along one resource dimension,
/// valid for any fixed data characteristics ss, ls >= 0 and positive
/// resource values (the domain every ClusterConditions grid lives in).
/// kIncreasing/kDecreasing are weak (non-strict) trends.
enum class FeatureTrend : uint8_t {
  kConstant,
  kIncreasing,
  kDecreasing,
  kNonMonotone,
};

/// Trend of one feature along each of the two resource dimensions.
struct FeatureResourceTrend {
  FeatureTrend container_size = FeatureTrend::kConstant;
  FeatureTrend num_containers = FeatureTrend::kConstant;
};

/// Per-feature resource monotonicity metadata, aligned with
/// ExpandFeatures output. Declared analytically per feature set (the
/// sets are a closed enum, so each expression is audited by hand here
/// rather than probed); the bound oracle re-validates numerically at
/// model load as defense in depth.
const std::vector<FeatureResourceTrend>& FeatureResourceTrends(
    FeatureSet set);

/// True when every feature of `set` is per-dimension monotone in the
/// resource dimensions — the property that makes interval corner bounds
/// sound (docs/PERF.md): a componentwise-monotone function attains its
/// extremes over a box at the box corners.
bool FeatureSetResourceMonotone(FeatureSet set);

}  // namespace raqo::cost

#endif  // RAQO_COST_FEATURES_H_
