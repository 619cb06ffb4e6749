#include "awb/model.h"

namespace lll::awb {

namespace {

const std::string* LookupProperty(
    const std::vector<std::pair<std::string, std::string>>& props,
    std::string_view name) {
  for (const auto& [key, value] : props) {
    if (key == name) return &value;
  }
  return nullptr;
}

void StoreProperty(std::vector<std::pair<std::string, std::string>>* props,
                   std::string_view name, std::string_view value) {
  for (auto& [key, existing] : *props) {
    if (key == name) {
      existing = std::string(value);
      return;
    }
  }
  props->emplace_back(std::string(name), std::string(value));
}

}  // namespace

const char* ModelWarningKindName(ModelWarning::Kind kind) {
  switch (kind) {
    case ModelWarning::Kind::kUnknownNodeType:
      return "unknown-node-type";
    case ModelWarning::Kind::kUnknownRelation:
      return "unknown-relation";
    case ModelWarning::Kind::kEndpointViolation:
      return "endpoint-violation";
    case ModelWarning::Kind::kCardinality:
      return "cardinality";
    case ModelWarning::Kind::kMissingRecommended:
      return "missing-recommended";
    case ModelWarning::Kind::kAdHocProperty:
      return "ad-hoc-property";
    case ModelWarning::Kind::kBadPropertyValue:
      return "bad-property-value";
    case ModelWarning::Kind::kDanglingEndpoint:
      return "dangling-endpoint";
  }
  return "unknown";
}

const std::string* ModelNode::Property(std::string_view name) const {
  return LookupProperty(properties_, name);
}

void ModelNode::SetProperty(std::string_view name, std::string_view value) {
  StoreProperty(&properties_, name, value);
}

const std::string* RelationObject::Property(std::string_view name) const {
  return LookupProperty(properties_, name);
}

void RelationObject::SetProperty(std::string_view name,
                                 std::string_view value) {
  StoreProperty(&properties_, name, value);
}

ModelNode* Model::CreateNode(std::string_view type, std::string_view label) {
  std::string id = "N" + std::to_string(next_node_id_++);
  nodes_.push_back(ModelNode(id, std::string(type)));
  ModelNode* node = &nodes_.back();
  node->ordinal_ = nodes_.size() - 1;
  node_index_[id] = node;
  if (!label.empty()) {
    node->SetProperty(metamodel_->LabelProperty(type), label);
  }
  return node;
}

Result<ModelNode*> Model::CreateNodeWithId(std::string_view id,
                                           std::string_view type) {
  if (id.empty()) return Status::Invalid("node id must not be empty");
  if (node_index_.count(id) != 0) {
    return Status::Invalid("duplicate node id '" + std::string(id) + "'");
  }
  nodes_.push_back(ModelNode(std::string(id), std::string(type)));
  ModelNode* node = &nodes_.back();
  node->ordinal_ = nodes_.size() - 1;
  node_index_[node->id()] = node;
  return node;
}

Result<RelationObject*> Model::Connect(std::string_view relation,
                                       const ModelNode* source,
                                       const ModelNode* target) {
  if (source == nullptr || target == nullptr) {
    return Status::Invalid("Connect requires both endpoints");
  }
  return ConnectIds(relation, source->id(), target->id());
}

Result<RelationObject*> Model::ConnectIds(std::string_view relation,
                                          std::string_view source_id,
                                          std::string_view target_id,
                                          std::string_view id) {
  if (relation.empty()) return Status::Invalid("relation name required");
  std::string rid = id.empty() ? "R" + std::to_string(next_relation_id_++)
                               : std::string(id);
  relations_.push_back(RelationObject(rid, std::string(relation),
                                      std::string(source_id),
                                      std::string(target_id)));
  size_t index = relations_.size() - 1;
  outgoing_[std::string(source_id)].push_back(index);
  incoming_[std::string(target_id)].push_back(index);
  return &relations_.back();
}

ModelNode* Model::FindNode(std::string_view id) {
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : it->second;
}

const ModelNode* Model::FindNode(std::string_view id) const {
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : it->second;
}

std::vector<const ModelNode*> Model::nodes() const {
  std::vector<const ModelNode*> out;
  out.reserve(nodes_.size());
  for (const ModelNode& n : nodes_) out.push_back(&n);
  return out;
}

std::vector<const RelationObject*> Model::relations() const {
  std::vector<const RelationObject*> out;
  out.reserve(relations_.size());
  for (const RelationObject& r : relations_) out.push_back(&r);
  return out;
}

std::vector<const ModelNode*> Model::NodesOfType(std::string_view type,
                                                 bool include_subtypes) const {
  std::vector<const ModelNode*> out;
  for (const ModelNode& n : nodes_) {
    bool match = include_subtypes ? metamodel_->IsNodeSubtype(n.type(), type)
                                  : n.type() == type;
    if (match) out.push_back(&n);
  }
  return out;
}

std::vector<const RelationObject*> Model::Outgoing(
    const ModelNode* node, std::string_view relation) const {
  std::vector<const RelationObject*> out;
  auto it = outgoing_.find(node->id());
  if (it == outgoing_.end()) return out;
  for (size_t index : it->second) {
    const RelationObject& r = relations_[index];
    if (relation.empty() ||
        metamodel_->IsRelationSubtype(r.relation(), relation)) {
      out.push_back(&r);
    }
  }
  return out;
}

std::vector<const RelationObject*> Model::Incoming(
    const ModelNode* node, std::string_view relation) const {
  std::vector<const RelationObject*> out;
  auto it = incoming_.find(node->id());
  if (it == incoming_.end()) return out;
  for (size_t index : it->second) {
    const RelationObject& r = relations_[index];
    if (relation.empty() ||
        metamodel_->IsRelationSubtype(r.relation(), relation)) {
      out.push_back(&r);
    }
  }
  return out;
}

std::string Model::Label(const ModelNode* node) const {
  const std::string* label =
      node->Property(metamodel_->LabelProperty(node->type()));
  return label != nullptr ? *label : node->id();
}

std::vector<ModelWarning> Model::Validate() const {
  std::vector<ModelWarning> warnings;

  // Node-level checks.
  std::map<std::string, size_t> type_counts;
  for (const ModelNode& node : nodes_) {
    const NodeTypeDecl* decl = metamodel_->FindNodeType(node.type());
    if (decl == nullptr) {
      warnings.push_back({ModelWarning::Kind::kUnknownNodeType, node.id(),
                          "node type '" + node.type() +
                              "' is not in metamodel '" + metamodel_->name() +
                              "'"});
    }
    // Count against the full hierarchy so subtype instances satisfy rules on
    // their supertypes.
    for (const NodeTypeDecl& t : metamodel_->node_types()) {
      if (metamodel_->IsNodeSubtype(node.type(), t.name)) {
        ++type_counts[t.name];
      }
    }
    for (const auto& [name, value] : node.properties()) {
      const PropertyDecl* prop = metamodel_->FindProperty(node.type(), name);
      if (prop == nullptr) {
        warnings.push_back(
            {ModelWarning::Kind::kAdHocProperty, node.id(),
             "property '" + name + "' is not declared for type '" +
                 node.type() + "' (user-added; kept)"});
      } else if (!ValueMatchesType(value, prop->type)) {
        warnings.push_back({ModelWarning::Kind::kBadPropertyValue, node.id(),
                            "property '" + name + "' value \"" + value +
                                "\" is not a valid " +
                                PropertyTypeName(prop->type)});
      }
    }
    if (decl != nullptr) {
      for (const PropertyDecl& prop : metamodel_->AllProperties(node.type())) {
        if (prop.recommended && node.Property(prop.name) == nullptr) {
          warnings.push_back(
              {ModelWarning::Kind::kMissingRecommended, node.id(),
               "'" + node.type() + "' node is missing recommended property '" +
                   prop.name + "'"});
        }
      }
    }
  }

  // Relation-level checks.
  for (const RelationObject& rel : relations_) {
    const RelationTypeDecl* decl = metamodel_->FindRelationType(rel.relation());
    const ModelNode* source = FindNode(rel.source_id());
    const ModelNode* target = FindNode(rel.target_id());
    if (source == nullptr || target == nullptr) {
      warnings.push_back({ModelWarning::Kind::kDanglingEndpoint, rel.id(),
                          "relation '" + rel.relation() +
                              "' references a missing node"});
      continue;
    }
    if (decl == nullptr) {
      warnings.push_back({ModelWarning::Kind::kUnknownRelation, rel.id(),
                          "relation type '" + rel.relation() +
                              "' is not in the metamodel"});
      continue;
    }
    if (!decl->allowed.empty()) {
      bool blessed = false;
      for (const RelationEndpointRule& rule : decl->allowed) {
        if (metamodel_->IsNodeSubtype(source->type(), rule.source_type) &&
            metamodel_->IsNodeSubtype(target->type(), rule.target_type)) {
          blessed = true;
          break;
        }
      }
      if (!blessed) {
        // "Presumably the user thinks that this makes sense" -- warn only.
        warnings.push_back(
            {ModelWarning::Kind::kEndpointViolation, rel.id(),
             "relation '" + rel.relation() + "' connects " + source->type() +
                 " to " + target->type() +
                 ", which the metamodel does not suggest"});
      }
    }
  }

  // Cardinality recommendations.
  for (const CardinalityRule& rule : metamodel_->rules()) {
    size_t count = type_counts.count(rule.node_type) != 0
                       ? type_counts[rule.node_type]
                       : 0;
    if (count < rule.min || count > rule.max) {
      std::string message =
          rule.message.empty()
              ? "expected between " + std::to_string(rule.min) + " and " +
                    (rule.max == SIZE_MAX ? std::string("any number of")
                                          : std::to_string(rule.max)) +
                    " '" + rule.node_type + "' nodes, found " +
                    std::to_string(count)
              : rule.message + " (found " + std::to_string(count) + ")";
      warnings.push_back({ModelWarning::Kind::kCardinality, "", message});
    }
  }
  return warnings;
}

}  // namespace lll::awb
