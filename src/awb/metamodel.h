#ifndef LLL_AWB_METAMODEL_H_
#define LLL_AWB_METAMODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"

namespace lll::awb {

// AWB "sees the universe as a directed, annotated multigraph" whose shape is
// described by a metamodel: a single-inheritance hierarchy of node types with
// scalar-typed properties, and a hierarchy of relations with ADVISORY
// source/target constraints. Advisory is the load-bearing word: "the types on
// relations are advisory, not compulsory: the user can make a Person use a
// Program" -- so validation yields warnings, never errors.

enum class PropertyType {
  kString,
  kInteger,
  kBoolean,
  kDouble,
  kHtml,  // "a HTML-valued biography property" -- string payload, marked so
          // exporters know it may contain markup
};

const char* PropertyTypeName(PropertyType type);
Result<PropertyType> ParsePropertyType(std::string_view name);

struct PropertyDecl {
  std::string name;
  PropertyType type = PropertyType::kString;
  // "the documents we produce are supposed to have version information; a
  // document without any version information appears ... in the Omissions
  // folder" -- recommended properties drive omission warnings.
  bool recommended = false;
  std::string default_value;
};

struct NodeTypeDecl {
  std::string name;
  std::string parent;  // empty for the hierarchy root
  std::vector<PropertyDecl> properties;  // declared directly at this type
  // Which property provides the human label of instances ("Tides", "Ada
  // Lovelace"); defaults to "name".
  std::string label_property = "name";
};

struct RelationEndpointRule {
  std::string source_type;
  std::string target_type;
};

struct RelationTypeDecl {
  std::string name;
  std::string parent;  // "favors might be a subtype of likes"
  // "Relations generally have many choices of source and target type" -- the
  // metamodel's *suggestions* for endpoints, checked advisorily.
  std::vector<RelationEndpointRule> allowed;
};

// "every use of AWB to design a system should have a SystemBeingDesigned
// node ... AWB doesn't force the user" -- configurable cardinality
// recommendations surfaced as meek warnings.
struct CardinalityRule {
  std::string node_type;
  size_t min = 0;
  size_t max = SIZE_MAX;
  std::string message;  // the warning text shown to the user
};

// A metamodel: the full pile of declarations. The Add* calls build it; every
// other member only reads it, so a built metamodel may be shared read-only.
class Metamodel {
 public:
  explicit Metamodel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Status AddNodeType(NodeTypeDecl decl);
  Status AddRelationType(RelationTypeDecl decl);
  void AddRule(CardinalityRule rule) { rules_.push_back(std::move(rule)); }

  const NodeTypeDecl* FindNodeType(std::string_view name) const;
  const RelationTypeDecl* FindRelationType(std::string_view name) const;
  const std::vector<NodeTypeDecl>& node_types() const { return node_types_; }
  const std::vector<RelationTypeDecl>& relation_types() const {
    return relation_types_;
  }
  const std::vector<CardinalityRule>& rules() const { return rules_; }

  // True if `sub` equals `super` or inherits from it (node hierarchy).
  bool IsNodeSubtype(std::string_view sub, std::string_view super) const;
  // Same over the relation hierarchy.
  bool IsRelationSubtype(std::string_view sub, std::string_view super) const;

  // All properties of a node type, inherited ones first (root-to-leaf).
  std::vector<PropertyDecl> AllProperties(std::string_view type) const;
  // Finds a property declaration anywhere on the inheritance chain.
  const PropertyDecl* FindProperty(std::string_view type,
                                   std::string_view property) const;
  // The label property for a type (walks up the chain).
  std::string LabelProperty(std::string_view type) const;

  // Structural sanity: every parent exists, no inheritance cycles, endpoint
  // rules reference declared types.
  Status Validate() const;

 private:
  std::string name_;
  std::vector<NodeTypeDecl> node_types_;
  std::vector<RelationTypeDecl> relation_types_;
  std::vector<CardinalityRule> rules_;
  std::map<std::string, size_t, std::less<>> node_index_;
  std::map<std::string, size_t, std::less<>> relation_index_;
};

// Checks a lexical value against a property type ("three" is not kInteger).
bool ValueMatchesType(std::string_view value, PropertyType type);

}  // namespace lll::awb

#endif  // LLL_AWB_METAMODEL_H_
