#include "xdm/sequence.h"

#include <algorithm>

namespace lll::xdm {

bool Sequence::AllNodes() const {
  for (const Item& it : items_) {
    if (!it.is_node()) return false;
  }
  return true;
}

bool Sequence::SortDocumentOrderAndDedup(size_t* compare_count) {
  if (ordered_deduped_ || items_.size() <= 1) {
    ordered_deduped_ = true;
    return false;
  }
  source_.reset();
  std::stable_sort(items_.begin(), items_.end(),
                   [compare_count](const Item& a, const Item& b) {
                     if (compare_count != nullptr) ++*compare_count;
                     return xml::CompareDocumentOrder(a.node(), b.node()) < 0;
                   });
  items_.erase(std::unique(items_.begin(), items_.end(),
                           [](const Item& a, const Item& b) {
                             return a.node() == b.node();
                           }),
               items_.end());
  ordered_deduped_ = true;
  return true;
}

Sequence Sequence::Atomized() const {
  Sequence out;
  for (const Item& it : items_) out.Append(it.Atomized());
  return out;
}

std::string Sequence::DebugString() const {
  std::string out = "(";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    if (items_[i].is_node()) {
      out += "<";
      out += items_[i].node()->name().empty() ? "#node" : items_[i].node()->name();
      out += ">";
    } else {
      out += items_[i].StringForm();
    }
  }
  out += ")";
  return out;
}

Result<bool> EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  const Item& first = seq.at(0);
  if (first.is_node()) return true;
  if (seq.size() > 1) {
    return Status::TypeError(
        "effective boolean value of a multi-item non-node sequence "
        "(err:FORG0006)");
  }
  switch (first.kind()) {
    case ItemKind::kBoolean:
      return first.boolean_value();
    case ItemKind::kString:
    case ItemKind::kUntyped:
      return !first.string_value().empty();
    case ItemKind::kInteger:
      return first.integer_value() != 0;
    case ItemKind::kDouble:
      return first.double_value() != 0.0 &&
             !(first.double_value() != first.double_value());  // NaN -> false
    case ItemKind::kNode:
      return true;  // unreachable
    case ItemKind::kMap:
      return Status::TypeError(
          "effective boolean value of a map (err:FORG0006)");
  }
  return Status::Internal("unhandled item kind in EffectiveBooleanValue");
}

Result<Item> RequireSingleton(const Sequence& seq, const char* what) {
  if (seq.size() != 1) {
    return Status::CardinalityError(std::string(what) + ": expected exactly one item, got " +
                                    std::to_string(seq.size()));
  }
  return seq.at(0);
}

Result<Sequence> RequireAtMostOne(const Sequence& seq, const char* what) {
  if (seq.size() > 1) {
    return Status::CardinalityError(std::string(what) +
                                    ": expected at most one item, got " +
                                    std::to_string(seq.size()));
  }
  return seq;
}

}  // namespace lll::xdm
