#include "plan/plan_dot.h"

#include <functional>

#include "common/strings.h"

namespace raqo::plan {

std::string PlanToDot(const PlanNode& plan,
                      const catalog::Catalog* catalog) {
  std::string out = "digraph plan {\n  node [shape=box, fontname=\"Helvetica\"];\n";
  int counter = 0;
  std::function<int(const PlanNode&)> emit =
      [&](const PlanNode& node) -> int {
    const int id = counter++;
    if (node.is_scan()) {
      const std::string name =
          catalog != nullptr ? catalog->table(node.table()).name
                             : StrPrintf("t%d", node.table());
      out += StrPrintf("  n%d [label=\"%s\", style=rounded];\n", id,
                       name.c_str());
      return id;
    }
    std::string label = JoinImplName(node.impl());
    if (node.resources().has_value()) {
      label += StrPrintf("\\n%.3g GB x %.4g",
                         node.resources()->container_size_gb(),
                         node.resources()->num_containers());
    }
    out += StrPrintf("  n%d [label=\"%s\"];\n", id, label.c_str());
    const int left = emit(*node.left());
    const int right = emit(*node.right());
    out += StrPrintf("  n%d -> n%d;\n  n%d -> n%d;\n", id, left, id, right);
    return id;
  };
  emit(plan);
  out += "}\n";
  return out;
}

}  // namespace raqo::plan
