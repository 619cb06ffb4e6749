// Robustness and failure injection: malformed inputs must produce located
// errors, never crashes; resource limits must trip cleanly; deep inputs must
// not smash the stack.

#include <string>

#include "core/rng.h"
#include "docgen/native_engine.h"
#include "docgen/xq_engine.h"
#include "awb/builtin_metamodels.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xquery/engine.h"

namespace lll {
namespace {

TEST(Robustness, EvaluationStepBudget) {
  xq::ExecuteOptions opts;
  opts.eval.max_steps = 1000;
  auto result = xq::Run("count(for $i in 1 to 100000 return $i * 2)", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("budget"), std::string::npos);

  // The same budget is plenty for a small query.
  auto small = xq::Run("1 + 1", opts);
  EXPECT_TRUE(small.ok());
}

TEST(Robustness, RangeGuard) {
  auto result = xq::Run("count(1 to 100000000)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("16M"), std::string::npos);
}

TEST(Robustness, DeepXmlNesting) {
  // 2000 levels of nesting parse and serialize without incident.
  std::string xml;
  for (int i = 0; i < 2000; ++i) xml += "<d>";
  xml += "x";
  for (int i = 0; i < 2000; ++i) xml += "</d>";
  auto doc = xml::Parse(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->DocumentElement()->StringValue(), "x");
}

TEST(Robustness, DeepExpressionNesting) {
  std::string query;
  for (int i = 0; i < 500; ++i) query += "(1 + ";
  query += "0";
  for (int i = 0; i < 500; ++i) query += ")";
  auto result = xq::Run(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SerializedItems(), "500");
}

TEST(Robustness, GarbageQueriesErrorCleanly) {
  // Deterministic pseudo-random garbage: every input must yield a Status,
  // never a crash, and parse errors must carry a location.
  Rng rng(987654);
  const char charset[] =
      " \t\n()[]{}<>/@$.,;:=+-*|\"'abcdefXYZ0123456789_";
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    size_t length = rng.Below(60);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(charset[rng.Below(sizeof(charset) - 1)]);
    }
    auto result = xq::Run(garbage);
    if (!result.ok() &&
        result.status().code() == StatusCode::kParseError) {
      EXPECT_NE(result.status().message().find("line"), std::string::npos)
          << garbage;
    }
  }
}

TEST(Robustness, GarbageXmlErrorsCleanly) {
  Rng rng(13579);
  const char charset[] = " <>=&;/\"'abcXYZ!?-[]";
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage = "<";
    size_t length = rng.Below(50);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(charset[rng.Below(sizeof(charset) - 1)]);
    }
    auto result = xml::Parse(garbage);
    // Either it happens to be well-formed, or it is a located parse error.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError) << garbage;
    }
  }
}

TEST(Robustness, UnterminatedConstructs) {
  for (const char* query : {
           "\"unterminated",
           "(: never closed",
           "<a>",
           "<a attr=\"x>",
           "let $x :=",
           "for $x in",
           "if (1) then 2",
           "1 +",
           "element {",
           "declare function local:f() { 1 }",  // missing ';'
       }) {
    auto result = xq::Run(query);
    EXPECT_FALSE(result.ok()) << query;
  }
}

TEST(Robustness, TemplateCycleSafety) {
  // A placeholder whose content contains its own token: the native engine's
  // fixpoint guard must terminate (the content is spliced verbatim after the
  // guard trips, never looping forever).
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::Model model(&mm);
  auto result = docgen::GenerateNativeFromText(
      "<doc><placeholder name=\"LOOP\">again LOOP-GOES-HERE</placeholder>"
      "<p>LOOP-GOES-HERE</p></doc>",
      model);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Guarded expansion: bounded number of replacements, then stop.
  EXPECT_LE(result->stats.placeholder_replacements, 20u);
}

TEST(Robustness, XQueryEngineTemplateErrorsAreValues) {
  // A template that is pure errors still produces a document.
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::Model model(&mm);
  auto result = docgen::GenerateXQueryFromText(
      "<doc><label/><value-of property=\"x\"/>"
      "<if><then/></if></doc>",
      model);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.errors_embedded, 3u);
}

TEST(Robustness, NativeEngineStopsAtFirstErrorWhenPropagating) {
  awb::Metamodel mm = awb::MakeItArchitectureMetamodel();
  awb::Model model(&mm);
  auto result = docgen::GenerateNativeFromText(
      "<doc><label/><value-of property=\"x\"/></doc>", model);
  ASSERT_FALSE(result.ok());
  // The <label/> failure arrives; the <value-of> is never reached.
  EXPECT_NE(result.status().message().find("label"), std::string::npos);
}

TEST(Robustness, HugeAttributeAndTextValues) {
  std::string big(100000, 'x');
  std::string xml = "<a k=\"" + big + "\">" + big + "</a>";
  auto doc = xml::Parse(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->DocumentElement()->AttributeValue("k")->size(),
            big.size());
  // Round trip.
  auto again = xml::Parse(xml::Serialize((*doc)->DocumentElement()));
  ASSERT_TRUE(again.ok());
}

TEST(Robustness, ManySiblings) {
  std::string xml = "<r>";
  for (int i = 0; i < 20000; ++i) xml += "<c/>";
  xml += "</r>";
  auto doc = xml::Parse(xml);
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto result = xq::Run("count(/r/c)", opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SerializedItems(), "20000");
}

TEST(Robustness, RecursiveUserFunctionsRespectDepthLimit) {
  // Indirect recursion also trips the limit.
  auto result = xq::Run(
      "declare function local:a($n) { local:b($n + 1) }; "
      "declare function local:b($n) { local:a($n + 1) }; "
      "local:a(0)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("recursion"), std::string::npos);
}

TEST(Robustness, RunawayRecursionReportStaysReadable) {
  // Every one of the ~512 unwound calls adds the same context frame; the
  // report collapses the run instead of printing it 512 times.
  auto result = xq::Run(
      "declare function local:f($n) { local:f($n + 1) }; local:f(1)");
  ASSERT_FALSE(result.ok());
  EXPECT_GE(result.status().context().size(), 512u);
  std::string report = result.status().ToString();
  EXPECT_LT(report.size(), 1024u) << report;
  EXPECT_NE(report.find("in call to local:f() (x"), std::string::npos)
      << report;
}

}  // namespace
}  // namespace lll
