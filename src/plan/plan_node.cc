#include "plan/plan_node.h"

#include "common/logging.h"
#include "common/strings.h"

namespace raqo::plan {

const char* JoinImplName(JoinImpl impl) {
  switch (impl) {
    case JoinImpl::kSortMergeJoin:
      return "SMJ";
    case JoinImpl::kBroadcastHashJoin:
      return "BHJ";
  }
  return "?";
}

std::unique_ptr<PlanNode> PlanNode::MakeScan(catalog::TableId table) {
  RAQO_CHECK(table >= 0) << "scan over invalid table id";
  auto node = std::unique_ptr<PlanNode>(new PlanNode());
  node->kind_ = NodeKind::kScan;
  node->table_ = table;
  node->tables_ = TableSet::Of(table);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::MakeJoin(JoinImpl impl,
                                             std::unique_ptr<PlanNode> left,
                                             std::unique_ptr<PlanNode> right) {
  RAQO_CHECK(left != nullptr && right != nullptr)
      << "join children must be non-null";
  RAQO_CHECK(!left->tables_.Intersects(right->tables_))
      << "join children must cover disjoint tables";
  auto node = std::unique_ptr<PlanNode>(new PlanNode());
  node->kind_ = NodeKind::kJoin;
  node->impl_ = impl;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->RecomputeTables();
  return node;
}

catalog::TableId PlanNode::table() const {
  RAQO_CHECK(is_scan()) << "table() on a join node";
  return table_;
}

JoinImpl PlanNode::impl() const {
  RAQO_CHECK(is_join()) << "impl() on a scan node";
  return impl_;
}

void PlanNode::set_impl(JoinImpl impl) {
  RAQO_CHECK(is_join()) << "set_impl() on a scan node";
  impl_ = impl;
}

const PlanNode* PlanNode::left() const {
  RAQO_CHECK(is_join()) << "left() on a scan node";
  return left_.get();
}

const PlanNode* PlanNode::right() const {
  RAQO_CHECK(is_join()) << "right() on a scan node";
  return right_.get();
}

PlanNode* PlanNode::mutable_left() {
  RAQO_CHECK(is_join()) << "mutable_left() on a scan node";
  return left_.get();
}

PlanNode* PlanNode::mutable_right() {
  RAQO_CHECK(is_join()) << "mutable_right() on a scan node";
  return right_.get();
}

void PlanNode::ReplaceLeft(std::unique_ptr<PlanNode> child) {
  RAQO_CHECK(is_join() && child != nullptr);
  left_ = std::move(child);
  RecomputeTables();
}

void PlanNode::ReplaceRight(std::unique_ptr<PlanNode> child) {
  RAQO_CHECK(is_join() && child != nullptr);
  right_ = std::move(child);
  RecomputeTables();
}

std::unique_ptr<PlanNode> PlanNode::TakeLeft() {
  RAQO_CHECK(is_join());
  return std::move(left_);
}

std::unique_ptr<PlanNode> PlanNode::TakeRight() {
  RAQO_CHECK(is_join());
  return std::move(right_);
}

void PlanNode::RecomputeTables() {
  if (is_scan()) {
    tables_ = TableSet::Of(table_);
    return;
  }
  tables_ = TableSet();
  if (left_ != nullptr) tables_ = tables_.Union(left_->tables_);
  if (right_ != nullptr) tables_ = tables_.Union(right_->tables_);
}

int PlanNode::NumJoins() const {
  if (is_scan()) return 0;
  return 1 + left_->NumJoins() + right_->NumJoins();
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  if (is_scan()) {
    auto copy = MakeScan(table_);
    copy->resources_ = resources_;
    return copy;
  }
  auto copy = MakeJoin(impl_, left_->Clone(), right_->Clone());
  copy->resources_ = resources_;
  return copy;
}

void PlanNode::VisitJoins(const std::function<void(PlanNode&)>& fn) {
  if (is_scan()) return;
  left_->VisitJoins(fn);
  right_->VisitJoins(fn);
  fn(*this);
}

void PlanNode::VisitJoins(const std::function<void(const PlanNode&)>& fn)
    const {
  if (is_scan()) return;
  // Call through const references so overload resolution unambiguously
  // picks this const overload for the children.
  const PlanNode& left = *left_;
  const PlanNode& right = *right_;
  left.VisitJoins(fn);
  right.VisitJoins(fn);
  fn(*this);
}

std::vector<catalog::TableId> PlanNode::LeafOrder() const {
  std::vector<catalog::TableId> out;
  if (is_scan()) {
    out.push_back(table_);
    return out;
  }
  for (catalog::TableId t : left_->LeafOrder()) out.push_back(t);
  for (catalog::TableId t : right_->LeafOrder()) out.push_back(t);
  return out;
}

bool PlanNode::StructurallyEquals(const PlanNode& other) const {
  if (kind_ != other.kind_) return false;
  if (is_scan()) return table_ == other.table_;
  return impl_ == other.impl_ && left_->StructurallyEquals(*other.left_) &&
         right_->StructurallyEquals(*other.right_);
}

std::string PlanNode::ToString(const catalog::Catalog* catalog) const {
  if (is_scan()) {
    if (catalog != nullptr) return catalog->table(table_).name;
    return StrPrintf("t%d", table_);
  }
  std::string out = JoinImplName(impl_);
  out += "(";
  out += left_->ToString(catalog);
  out += ", ";
  out += right_->ToString(catalog);
  out += ")";
  if (resources_.has_value()) {
    out += resources_->ToString();
  }
  return out;
}

}  // namespace raqo::plan
