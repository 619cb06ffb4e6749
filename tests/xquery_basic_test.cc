// Core expression-language coverage for the XQuery engine: literals,
// sequences, arithmetic, FLWOR, quantifiers, paths, predicates, functions.

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace lll {
namespace {

using testing::Eval;
using testing::EvalError;
using testing::EvalWithContext;

TEST(XQueryBasic, Literals) {
  EXPECT_EQ(Eval("42"), "42");
  EXPECT_EQ(Eval("3.5"), "3.5");
  EXPECT_EQ(Eval("\"hello\""), "hello");
  EXPECT_EQ(Eval("'single'"), "single");
  EXPECT_EQ(Eval("\"say \"\"hi\"\"\""), "say \"hi\"");
  EXPECT_EQ(Eval("()"), "");
}

TEST(XQueryBasic, SequencesFlatten) {
  EXPECT_EQ(Eval("(1,2,3)"), "1 2 3");
  EXPECT_EQ(Eval("(1,(2,3,4),(),(5,((6,7))))"), "1 2 3 4 5 6 7");
  EXPECT_EQ(Eval("count((1,(2,3),()))"), "3");
}

TEST(XQueryBasic, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3"), "7");
  EXPECT_EQ(Eval("(1 + 2) * 3"), "9");
  EXPECT_EQ(Eval("7 idiv 2"), "3");
  EXPECT_EQ(Eval("7 mod 2"), "1");
  EXPECT_EQ(Eval("1 div 2"), "0.5");
  EXPECT_EQ(Eval("-(5)"), "-5");
  EXPECT_EQ(Eval("2 + 2.5"), "4.5");
}

TEST(XQueryBasic, DivisionByZeroIsAnError) {
  EXPECT_NE(EvalError("1 div 0").find("FOAR0001"), std::string::npos);
  EXPECT_NE(EvalError("1 idiv 0").find("FOAR0001"), std::string::npos);
  EXPECT_NE(EvalError("1 mod 0").find("FOAR0001"), std::string::npos);
}

TEST(XQueryBasic, EmptyOperandPropagates) {
  EXPECT_EQ(Eval("() + 1"), "");
  EXPECT_EQ(Eval("1 * ()"), "");
  EXPECT_EQ(Eval("-(())"), "");
}

TEST(XQueryBasic, RangeExpression) {
  EXPECT_EQ(Eval("1 to 5"), "1 2 3 4 5");
  EXPECT_EQ(Eval("5 to 1"), "");
  EXPECT_EQ(Eval("count(1 to 100)"), "100");
  EXPECT_EQ(Eval("(1 to 3, 7 to 8)"), "1 2 3 7 8");
}

TEST(XQueryBasic, IfThenElse) {
  EXPECT_EQ(Eval("if (1 < 2) then \"yes\" else \"no\""), "yes");
  EXPECT_EQ(Eval("if (()) then \"yes\" else \"no\""), "no");
  EXPECT_EQ(Eval("if (\"\") then 1 else 2"), "2");
  EXPECT_EQ(Eval("if (\"x\") then 1 else 2"), "1");
}

TEST(XQueryBasic, BooleanConnectives) {
  EXPECT_EQ(Eval("true() and false()"), "false");
  EXPECT_EQ(Eval("true() or false()"), "true");
  EXPECT_EQ(Eval("not(true())"), "false");
  // Short-circuit: the right side would error if evaluated.
  EXPECT_EQ(Eval("false() and (1 idiv 0 = 1)"), "false");
  EXPECT_EQ(Eval("true() or (1 idiv 0 = 1)"), "true");
}

TEST(XQueryBasic, FlworForAndLet) {
  EXPECT_EQ(Eval("for $x in (1,2,3) return $x * 2"), "2 4 6");
  EXPECT_EQ(Eval("let $x := 5 return $x + 1"), "6");
  EXPECT_EQ(Eval("for $x in (1,2), $y in (10,20) return $x + $y"),
            "11 21 12 22");
  EXPECT_EQ(Eval("for $x at $i in (\"a\",\"b\",\"c\") return $i"), "1 2 3");
}

TEST(XQueryBasic, FlworWhere) {
  EXPECT_EQ(Eval("for $x in 1 to 10 where $x mod 2 = 0 return $x"),
            "2 4 6 8 10");
}

TEST(XQueryBasic, FlworOrderBy) {
  EXPECT_EQ(Eval("for $x in (3,1,2) order by $x return $x"), "1 2 3");
  EXPECT_EQ(Eval("for $x in (3,1,2) order by $x descending return $x"),
            "3 2 1");
  EXPECT_EQ(
      Eval("for $s in (\"pear\",\"apple\",\"fig\") order by $s return $s"),
      "apple fig pear");
  // Secondary key breaks ties.
  EXPECT_EQ(Eval("for $p in ((1,2),(1,1)) return ()"), "");
  EXPECT_EQ(Eval("for $x in (\"bb\",\"a\",\"cc\") "
                 "order by string-length($x), $x return $x"),
            "a bb cc");
}

TEST(XQueryBasic, FlworOrderByEmptyLeast) {
  EXPECT_EQ(Eval("for $x in (2, 1) order by (if ($x = 1) then () else $x) "
                 "return $x"),
            "1 2");
}

TEST(XQueryBasic, Quantifiers) {
  EXPECT_EQ(Eval("some $x in (1,2,3) satisfies $x > 2"), "true");
  EXPECT_EQ(Eval("every $x in (1,2,3) satisfies $x > 2"), "false");
  EXPECT_EQ(Eval("every $x in () satisfies $x > 2"), "true");
  EXPECT_EQ(Eval("some $x in () satisfies $x > 2"), "false");
}

TEST(XQueryBasic, PathsOverDocument) {
  const char* doc = R"(<lib>
    <book year="1983"><title>Tides</title></book>
    <book year="2001"><title>Waves</title></book>
  </lib>)";
  EXPECT_EQ(EvalWithContext("count(/lib/book)", doc), "2");
  EXPECT_EQ(EvalWithContext("string(/lib/book[1]/title)", doc), "Tides");
  EXPECT_EQ(EvalWithContext("string(/lib/book[@year=\"2001\"]/title)", doc),
            "Waves");
  EXPECT_EQ(EvalWithContext("count(//title)", doc), "2");
  EXPECT_EQ(EvalWithContext("string(//book[2]/@year)", doc), "2001");
}

TEST(XQueryBasic, Axes) {
  const char* doc =
      "<a><b><c/><d/></b><b2/></a>";
  EXPECT_EQ(EvalWithContext("name(//c/parent::b)", doc), "b");
  EXPECT_EQ(EvalWithContext("count(//c/ancestor::*)", doc), "2");
  EXPECT_EQ(EvalWithContext("count(//c/ancestor-or-self::*)", doc), "3");
  EXPECT_EQ(EvalWithContext("name(//c/following-sibling::*)", doc), "d");
  EXPECT_EQ(EvalWithContext("name(//d/preceding-sibling::*)", doc), "c");
  EXPECT_EQ(EvalWithContext("count(/a/descendant::*)", doc), "4");
  EXPECT_EQ(EvalWithContext("name(//b/self::b)", doc), "b");
  // parent::book idiom from the paper: parent only if it has that name.
  EXPECT_EQ(EvalWithContext("count(//c/parent::zzz)", doc), "0");
}

TEST(XQueryBasic, PathResultsAreDocOrderedAndDeduped) {
  const char* doc = "<a><b><c/></b><b><c/></b></a>";
  // Both b elements' descendants unioned, duplicates removed.
  EXPECT_EQ(EvalWithContext("count((//b | //b))", doc), "2");
  EXPECT_EQ(EvalWithContext("count((//c, //c))", doc), "4");  // comma keeps dups
  EXPECT_EQ(
      EvalWithContext("string-join(for $n in //b/c return name($n), \",\")",
                      doc),
      "c,c");
}

TEST(XQueryBasic, FilterExpressions) {
  EXPECT_EQ(Eval("(1,2,3)[2]"), "2");
  EXPECT_EQ(Eval("(\"a\",\"b\",\"c\")[position() > 1]"), "b c");
  EXPECT_EQ(Eval("(1 to 10)[. mod 3 = 0]"), "3 6 9");
  EXPECT_EQ(Eval("(1,2,3)[4]"), "");
  EXPECT_EQ(Eval("(1 to 5)[last()]"), "5");
}

TEST(XQueryBasic, PredicatePositionAndLast) {
  const char* doc = "<a><x>1</x><x>2</x><x>3</x></a>";
  EXPECT_EQ(EvalWithContext("string(/a/x[last()])", doc), "3");
  EXPECT_EQ(EvalWithContext("string(/a/x[position() = 2])", doc), "2");
}

TEST(XQueryBasic, UserFunctions) {
  EXPECT_EQ(Eval("declare function local:double($x) { $x * 2 }; "
                 "local:double(21)"),
            "42");
  EXPECT_EQ(Eval("declare function local:fact($n) { "
                 "  if ($n le 1) then 1 else $n * local:fact($n - 1) }; "
                 "local:fact(10)"),
            "3628800");
  // Mutual recursion.
  EXPECT_EQ(Eval("declare function local:odd($n) { "
                 "  if ($n = 0) then false() else local:even($n - 1) }; "
                 "declare function local:even($n) { "
                 "  if ($n = 0) then true() else local:odd($n - 1) }; "
                 "local:even(10)"),
            "true");
}

TEST(XQueryBasic, GlobalVariables) {
  EXPECT_EQ(Eval("declare variable $base := 10; $base + 5"), "15");
  EXPECT_EQ(Eval("declare variable $a := 2; declare variable $b := $a * 3; "
                 "$b"),
            "6");
}

TEST(XQueryBasic, DeepRecursionIsAnErrorNotACrash) {
  std::string err = EvalError(
      "declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)");
  EXPECT_NE(err.find("recursion"), std::string::npos);
}

TEST(XQueryBasic, UnknownFunctionAndVariable) {
  EXPECT_NE(EvalError("no-such-fn(1)").find("unknown function"),
            std::string::npos);
  EXPECT_NE(EvalError("$nope").find("not found"), std::string::npos);
}

TEST(XQueryBasic, UnknownCallFailsOnlyWhenEvaluated) {
  // Calls are resolved once per plan, but an unresolved call is an error
  // only when it runs, and its text names the call as written.
  auto result = xq::Run("1 +\n no-such-fn(2, 3)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.status().message(),
            "unknown function no-such-fn#2 at line 2");
  EXPECT_NE(EvalError("fn:count()").find("unknown function fn:count#0"),
            std::string::npos);
  EXPECT_EQ(Eval("if (false()) then nope() else 1"), "1");
  EXPECT_EQ(Eval("declare function local:f($x) {"
                 " if ($x) then nope($x) else 2 }; local:f(false())"),
            "2");
}

TEST(XQueryBasic, CastAs) {
  EXPECT_EQ(Eval("\"42\" cast as xs:integer"), "42");
  EXPECT_EQ(Eval("3.9 cast as xs:integer"), "3");
  EXPECT_EQ(Eval("42 cast as xs:string"), "42");
  EXPECT_EQ(Eval("\"true\" cast as xs:boolean"), "true");
  EXPECT_EQ(Eval("1 cast as xs:boolean"), "true");
  EXPECT_NE(EvalError("\"x\" cast as xs:integer").find("cannot cast"),
            std::string::npos);
}

TEST(XQueryBasic, InstanceOf) {
  EXPECT_EQ(Eval("42 instance of xs:integer"), "true");
  EXPECT_EQ(Eval("42 instance of xs:string"), "false");
  EXPECT_EQ(Eval("(1,2) instance of xs:integer*"), "true");
  EXPECT_EQ(Eval("(1,2) instance of xs:integer"), "false");
  EXPECT_EQ(Eval("() instance of empty-sequence()"), "true");
  EXPECT_EQ(Eval("<a/> instance of element()"), "true");
  EXPECT_EQ(Eval("<a/> instance of element(a)"), "true");
  EXPECT_EQ(Eval("<a/> instance of element(b)"), "false");
}

TEST(XQueryBasic, XQueryCommentsAreSkipped) {
  EXPECT_EQ(Eval("1 (: plus :) + (: nested (: deeply :) :) 2"), "3");
}

}  // namespace
}  // namespace lll
