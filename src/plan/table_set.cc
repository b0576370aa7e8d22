#include "plan/table_set.h"

#include "common/strings.h"

namespace raqo::plan {

std::vector<catalog::TableId> TableSet::ToVector() const {
  std::vector<catalog::TableId> out;
  out.reserve(static_cast<size_t>(Count()));
  for (int id = 0; id < kMaxTables; ++id) {
    if (Contains(static_cast<catalog::TableId>(id))) {
      out.push_back(static_cast<catalog::TableId>(id));
    }
  }
  return out;
}

std::string TableSet::ToString() const {
  std::vector<std::string> parts;
  for (catalog::TableId id : ToVector()) {
    parts.push_back(std::to_string(id));
  }
  std::string out = "{";
  out += JoinStrings(parts, ", ");
  out += "}";
  return out;
}

}  // namespace raqo::plan
