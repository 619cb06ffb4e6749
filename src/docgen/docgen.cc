#include "docgen/docgen.h"

#include "awbql/query.h"
#include "core/string_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace lll::docgen {

std::string DocGenResult::Serialized(int indent) const {
  if (root == nullptr) return "";
  xml::SerializeOptions opts;
  opts.indent = indent;
  return xml::Serialize(root, opts);
}

Result<std::unique_ptr<xml::Document>> ParseTemplate(
    const std::string& template_xml) {
  xml::ParseOptions opts;
  opts.strip_insignificant_whitespace = true;
  opts.keep_comments = false;
  return xml::Parse(template_xml, opts);
}

namespace {

// Converts a text-form `nodes` attribute ('; '-separated) into newline form.
std::string NodesAttributeToQueryText(const std::string& attr) {
  std::string text;
  for (const std::string& part : Split(attr, ';')) {
    std::string_view trimmed = TrimWhitespace(part);
    if (!trimmed.empty()) {
      text.append(trimmed);
      text.push_back('\n');
    }
  }
  return text;
}

// Builds the <query> XML element for a parsed query.
xml::Node* QueryToXmlElement(xml::Document* doc, const awbql::Query& query) {
  xml::Node* qe = doc->CreateElement("query");
  xml::Node* from = doc->CreateElement("from");
  switch (query.source_kind) {
    case awbql::Query::SourceKind::kAll:
      break;
    case awbql::Query::SourceKind::kType:
      from->SetAttribute("type", query.source_arg);
      break;
    case awbql::Query::SourceKind::kNode:
      from->SetAttribute("node", query.source_arg);
      break;
    case awbql::Query::SourceKind::kFocus:
      from->SetAttribute("focus", "true");
      break;
  }
  (void)qe->AppendChild(from);
  for (const awbql::QueryStep& step : query.steps) {
    using Kind = awbql::QueryStep::Kind;
    xml::Node* se = nullptr;
    switch (step.kind) {
      case Kind::kFollowForward:
      case Kind::kFollowBackward:
        se = doc->CreateElement("follow");
        se->SetAttribute("relation", step.relation);
        se->SetAttribute("direction", step.kind == Kind::kFollowForward
                                          ? "forward"
                                          : "backward");
        if (!step.target_type.empty()) se->SetAttribute("to", step.target_type);
        break;
      case Kind::kFilterType:
        se = doc->CreateElement("filter");
        se->SetAttribute("type", step.target_type);
        break;
      case Kind::kFilterHasProperty:
        se = doc->CreateElement("filter");
        se->SetAttribute("has", step.property);
        break;
      case Kind::kFilterNotHasProperty:
        se = doc->CreateElement("filter");
        se->SetAttribute("missing", step.property);
        break;
      case Kind::kFilterPropertyEquals:
        se = doc->CreateElement("filter");
        se->SetAttribute("prop", step.property);
        se->SetAttribute("value", step.value);
        break;
      case Kind::kSortByLabel:
        se = doc->CreateElement("sort");
        se->SetAttribute("by", "label");
        break;
      case Kind::kSortByProperty:
        se = doc->CreateElement("sort");
        se->SetAttribute("by", step.property);
        break;
      case Kind::kLimit:
        se = doc->CreateElement("limit");
        se->SetAttribute("count", std::to_string(step.limit));
        break;
    }
    (void)qe->AppendChild(se);
  }
  return qe;
}

Status NormalizeElement(xml::Document* doc, xml::Node* element) {
  for (xml::Node* child : element->children()) {
    if (child->is_element()) {
      LLL_RETURN_IF_ERROR(NormalizeElement(doc, child));
    }
  }
  auto nodes_attr = element->AttributeValue("nodes");
  if (!nodes_attr.has_value()) return Status::Ok();
  if (element->name() != "for" && element->name() != "nonempty" &&
      element->name() != "table") {
    return Status::Ok();
  }
  LLL_ASSIGN_OR_RETURN(awbql::Query query,
                       awbql::ParseQuery(NodesAttributeToQueryText(std::string(*nodes_attr))));
  LLL_RETURN_IF_ERROR(
      element->InsertChildAt(0, QueryToXmlElement(doc, query)));
  element->RemoveAttribute("nodes");
  return Status::Ok();
}

// <table rows="Q" cols="Q">: normalize both into <rows-query>/<cols-query>
// wrappers so the XQuery interpreter can tell them apart.
Status NormalizeTableElement(xml::Document* doc, xml::Node* element) {
  for (xml::Node* child : element->children()) {
    if (child->is_element()) {
      LLL_RETURN_IF_ERROR(NormalizeTableElement(doc, child));
    }
  }
  if (element->name() != "table") return Status::Ok();
  for (const char* attr : {"rows", "cols"}) {
    auto value = element->AttributeValue(attr);
    if (!value.has_value()) continue;
    LLL_ASSIGN_OR_RETURN(
        awbql::Query query,
        awbql::ParseQuery(NodesAttributeToQueryText(std::string(*value))));
    xml::Node* wrapper =
        doc->CreateElement(std::string(attr) + "-query");
    (void)wrapper->AppendChild(QueryToXmlElement(doc, query));
    LLL_RETURN_IF_ERROR(element->AppendChild(wrapper));
    element->RemoveAttribute(attr);
  }
  return Status::Ok();
}

}  // namespace

void NormalizeTextNodes(xml::Node* element) {
  // Children snapshot: we mutate the list while walking.
  std::vector<xml::Node*> snapshot(element->children().begin(),
                                   element->children().end());
  xml::Node* previous_text = nullptr;
  for (xml::Node* child : snapshot) {
    if (child->is_text()) {
      if (child->value().empty()) {
        child->Detach();
        continue;
      }
      if (previous_text != nullptr) {
        previous_text->set_value(std::string(previous_text->value()) +
                                 std::string(child->value()));
        child->Detach();
        continue;
      }
      previous_text = child;
      continue;
    }
    previous_text = nullptr;
    if (child->is_element()) NormalizeTextNodes(child);
  }
}

Status NormalizeTemplateQueries(xml::Document* doc) {
  xml::Node* root = doc->DocumentElement();
  if (root == nullptr) return Status::Invalid("template has no root element");
  LLL_RETURN_IF_ERROR(NormalizeElement(doc, root));
  return NormalizeTableElement(doc, root);
}

}  // namespace lll::docgen
