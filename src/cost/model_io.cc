#include "cost/model_io.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/strings.h"

namespace raqo::cost {

namespace {

constexpr const char* kHeader = "raqo-cost-model v1";

/// Exact double round-trip via hexadecimal floating point.
std::string HexDouble(double v) { return StrPrintf("%a", v); }

Result<double> ParseHexDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == s.c_str()) {
    return Status::InvalidArgument("malformed number: " + s);
  }
  return v;
}

}  // namespace

std::string SerializeModel(const OperatorCostModel& model) {
  std::string out = std::string(kHeader) + "\n";
  out += "name " + model.name() + "\n";
  const char* set_name = "paper";
  if (model.feature_set() == FeatureSet::kExtended) set_name = "extended";
  if (model.feature_set() == FeatureSet::kPeakedProbe) {
    set_name = "peaked-probe";
  }
  out += std::string("feature-set ") + set_name + "\n";
  out += StrPrintf("intercept %d\n", model.model().has_intercept ? 1 : 0);
  out += StrPrintf("weights %zu", model.model().weights.size());
  for (double w : model.model().weights) {
    out += ' ';
    out += HexDouble(w);
  }
  out += "\n";
  return out;
}

Result<OperatorCostModel> DeserializeModel(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("missing cost-model header");
  }
  std::string name;
  FeatureSet feature_set = FeatureSet::kPaper;
  LinearModel model;
  bool have_name = false;
  bool have_set = false;
  bool have_intercept = false;
  bool have_weights = false;

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "name") {
      fields >> std::ws;
      std::getline(fields, name);
      have_name = !name.empty();
    } else if (key == "feature-set") {
      std::string value;
      fields >> value;
      if (value == "paper") {
        feature_set = FeatureSet::kPaper;
      } else if (value == "extended") {
        feature_set = FeatureSet::kExtended;
      } else if (value == "peaked-probe") {
        feature_set = FeatureSet::kPeakedProbe;
      } else {
        return Status::InvalidArgument("unknown feature set: " + value);
      }
      have_set = true;
    } else if (key == "intercept") {
      int v = -1;
      fields >> v;
      if (v != 0 && v != 1) {
        return Status::InvalidArgument("intercept must be 0 or 1");
      }
      model.has_intercept = (v == 1);
      have_intercept = true;
    } else if (key == "weights") {
      size_t count = 0;
      fields >> count;
      model.weights.clear();
      for (size_t i = 0; i < count; ++i) {
        std::string token;
        if (!(fields >> token)) {
          return Status::InvalidArgument("truncated weight list");
        }
        RAQO_ASSIGN_OR_RETURN(double w, ParseHexDouble(token));
        model.weights.push_back(w);
      }
      have_weights = true;
    } else {
      return Status::InvalidArgument("unknown field: " + key);
    }
  }
  if (!have_name || !have_set || !have_intercept || !have_weights) {
    return Status::InvalidArgument("incomplete cost-model serialization");
  }
  const size_t expected =
      NumFeatures(feature_set) + (model.has_intercept ? 1 : 0);
  if (model.weights.size() != expected) {
    return Status::InvalidArgument(StrPrintf(
        "weight count %zu does not match feature set (expected %zu)",
        model.weights.size(), expected));
  }
  return OperatorCostModel(std::move(name), std::move(model), feature_set);
}

std::string SerializeModels(const JoinCostModels& models) {
  return SerializeModel(models.smj) + "---\n" + SerializeModel(models.bhj);
}

Result<JoinCostModels> DeserializeModels(const std::string& text) {
  const size_t sep = text.find("---\n");
  if (sep == std::string::npos) {
    return Status::InvalidArgument("missing model-pair separator");
  }
  RAQO_ASSIGN_OR_RETURN(OperatorCostModel smj,
                        DeserializeModel(text.substr(0, sep)));
  RAQO_ASSIGN_OR_RETURN(OperatorCostModel bhj,
                        DeserializeModel(text.substr(sep + 4)));
  return JoinCostModels{std::move(smj), std::move(bhj)};
}

}  // namespace raqo::cost
