#ifndef LLL_AWB_MODEL_H_
#define LLL_AWB_MODEL_H_

#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "awb/metamodel.h"
#include "core/result.h"

namespace lll::awb {

// One node of the model multigraph. Properties are stored lexically (the
// metamodel gives them types); users may add properties the metamodel never
// declared ("giving Person nodes a middleName property") -- those are kept
// and flagged ad hoc.
class ModelNode {
 public:
  const std::string& id() const { return id_; }
  const std::string& type() const { return type_; }
  // Creation order within the model -- the canonical "model order" used when
  // query results are collected into a set.
  size_t ordinal() const { return ordinal_; }

  const std::vector<std::pair<std::string, std::string>>& properties() const {
    return properties_;
  }
  // Value of a property, or nullptr.
  const std::string* Property(std::string_view name) const;
  void SetProperty(std::string_view name, std::string_view value);

 private:
  friend class Model;
  ModelNode(std::string id, std::string type)
      : id_(std::move(id)), type_(std::move(type)) {}
  std::string id_;
  std::string type_;
  size_t ordinal_ = 0;
  std::vector<std::pair<std::string, std::string>> properties_;
};

// An edge: a relation object. "Relation objects have properties, like nodes,
// though little AWB software takes advantage of the fact." We support them.
class RelationObject {
 public:
  const std::string& id() const { return id_; }
  const std::string& relation() const { return relation_; }
  const std::string& source_id() const { return source_; }
  const std::string& target_id() const { return target_; }

  const std::vector<std::pair<std::string, std::string>>& properties() const {
    return properties_;
  }
  const std::string* Property(std::string_view name) const;
  void SetProperty(std::string_view name, std::string_view value);

 private:
  friend class Model;
  RelationObject(std::string id, std::string relation, std::string source,
                 std::string target)
      : id_(std::move(id)),
        relation_(std::move(relation)),
        source_(std::move(source)),
        target_(std::move(target)) {}
  std::string id_;
  std::string relation_;
  std::string source_;
  std::string target_;
  std::vector<std::pair<std::string, std::string>> properties_;
};

// A validation finding. Findings are SUGGESTIONS ("a meek warning message in
// a corner of the screen"), never hard failures: the model stays usable.
struct ModelWarning {
  enum class Kind {
    kUnknownNodeType,
    kUnknownRelation,
    kEndpointViolation,   // relation connects types the metamodel didn't bless
    kCardinality,         // e.g. zero or two SystemBeingDesigned nodes
    kMissingRecommended,  // recommended property absent -> Omissions folder
    kAdHocProperty,       // user-added property the metamodel doesn't declare
    kBadPropertyValue,    // lexical value doesn't match the declared type
    kDanglingEndpoint,    // relation references a node id that doesn't exist
  };
  Kind kind;
  std::string subject_id;  // node or relation id ("" for model-wide findings)
  std::string message;
};

const char* ModelWarningKindName(ModelWarning::Kind kind);

// The model: a directed annotated multigraph over a metamodel. The metamodel
// must outlive the model.
class Model {
 public:
  explicit Model(const Metamodel* metamodel) : metamodel_(metamodel) {}
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  const Metamodel& metamodel() const { return *metamodel_; }

  // Creates a node. Unknown types are allowed (warning at validation):
  // user freedom beats metamodel intent throughout AWB.
  ModelNode* CreateNode(std::string_view type, std::string_view label = {});
  // Creates a node with an explicit id (import path). Fails on duplicates.
  Result<ModelNode*> CreateNodeWithId(std::string_view id,
                                      std::string_view type);

  // Connects two nodes. Endpoint types are NOT enforced.
  Result<RelationObject*> Connect(std::string_view relation,
                                  const ModelNode* source,
                                  const ModelNode* target);
  Result<RelationObject*> ConnectIds(std::string_view relation,
                                     std::string_view source_id,
                                     std::string_view target_id,
                                     std::string_view id = {});

  ModelNode* FindNode(std::string_view id);
  const ModelNode* FindNode(std::string_view id) const;

  // All nodes, in creation order.
  std::vector<const ModelNode*> nodes() const;
  std::vector<const RelationObject*> relations() const;
  size_t node_count() const { return nodes_.size(); }
  size_t relation_count() const { return relations_.size(); }

  // Nodes whose type equals `type` or (if include_subtypes) inherits from it.
  std::vector<const ModelNode*> NodesOfType(std::string_view type,
                                            bool include_subtypes = true) const;

  // Outgoing/incoming edges of `node` whose relation is (a subtype of)
  // `relation`; empty relation matches all.
  std::vector<const RelationObject*> Outgoing(
      const ModelNode* node, std::string_view relation = {}) const;
  std::vector<const RelationObject*> Incoming(
      const ModelNode* node, std::string_view relation = {}) const;

  // Human label of a node: its label property, else its id.
  std::string Label(const ModelNode* node) const;

  // Advisory validation per the AWB philosophy.
  std::vector<ModelWarning> Validate() const;

 private:
  const Metamodel* metamodel_;
  std::deque<ModelNode> nodes_;
  std::deque<RelationObject> relations_;
  std::map<std::string, ModelNode*, std::less<>> node_index_;
  // Adjacency: node id -> indices into relations_.
  std::map<std::string, std::vector<size_t>, std::less<>> outgoing_;
  std::map<std::string, std::vector<size_t>, std::less<>> incoming_;
  size_t next_node_id_ = 1;
  size_t next_relation_id_ = 1;
};

}  // namespace lll::awb

#endif  // LLL_AWB_MODEL_H_
