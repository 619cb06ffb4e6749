// Tests for the streaming path pipeline: differential agreement with the
// materializing evaluator, early-exit accounting, and the deep-tree
// regression for the iterative descendant collector.

#include <cstddef>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xquery/engine.h"

namespace lll {
namespace {

// A document with enough shape variety to exercise every streamable axis:
// repeated names at several depths, attributes, text, and siblings.
constexpr char kDoc[] =
    "<r id=\"root\">"
    "  <a k=\"1\"><b><c>one</c><d/></b><b w=\"x\"><c>two</c></b></a>"
    "  <a><c>three</c><b><d p=\"q\"/><c>four</c></b></a>"
    "  <d><a><b><c>five</c></b></a><c>six</c></d>"
    "  <b/><a k=\"2\"/>"
    "</r>";

// Runs `query` against `xml` twice -- streaming pipeline on (the default)
// and off -- and expects identical serialized results. Returns the shared
// serialization for further assertions.
std::string EvalBothModes(const std::string& query, const std::string& xml) {
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return "<PARSE ERROR>";
  auto compiled = xq::Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << "\n" << compiled.status().ToString();
  if (!compiled.ok()) return "<COMPILE ERROR>";

  xq::ExecuteOptions streamed_opts;
  streamed_opts.context_node = (*doc)->root();
  xq::ExecuteOptions materializing_opts = streamed_opts;
  materializing_opts.eval.streaming = false;

  auto streamed = xq::Execute(*compiled, streamed_opts);
  auto materialized = xq::Execute(*compiled, materializing_opts);
  EXPECT_EQ(streamed.ok(), materialized.ok()) << query;
  if (!streamed.ok() || !materialized.ok()) return "<ERROR>";
  EXPECT_EQ(streamed->SerializedItems(), materialized->SerializedItems())
      << "streamed and materializing evaluators diverge on: " << query;
  // The materializing arm never pulls through the pipeline.
  EXPECT_EQ(materialized->stats.nodes_pulled, 0u) << query;
  return streamed->SerializedItems();
}

TEST(Streaming, AgreesOnCorePathShapes) {
  const char* queries[] = {
      "//c",
      "//c/text()",
      "/r/a/b/c",
      "//b[1]",
      "//b[2]",
      "(//b)[1]",
      "(//c)[3]",
      "//a[@k]",
      "//a[@k=\"2\"]",
      "//b[c]",
      "//b[c][1]",
      "//*[@w]",
      "/r/a//c",
      "//a/b/following-sibling::b",
      "//d/ancestor::a",          // reverse axis: streamed reverse merge
      "//c/ancestor::b",
      "//c/ancestor-or-self::*",
      "//c/parent::b",
      "//d/parent::*",
      "//b/preceding-sibling::b",
      "//c/preceding-sibling::*",
      "(//d/ancestor::a)[1]",
      "//c/ancestor::a[1]",       // per-context nearest matching ancestor
      "//c/ancestor::*[2]",
      "//d/ancestor-or-self::d",
      "exists(//c/ancestor::d)",
      "count(//c/ancestor::a)",
      "//d/ancestor::a/c",        // reverse then forward again
      "//@p/ancestor::b",         // attribute context: slotted after owner
      "//@k/parent::a",
      "//a/@k/ancestor-or-self::*",
      "//c[last()]",              // last(): streaming disqualified
      "(//c)[last()]",
      "count(//c)",
      "exists(//b/d)",
      "empty(//nosuch)",
      "exists(//nosuch)",
      "//a[b/c]",
      "string(//c[1])",
  };
  for (const char* q : queries) EvalBothModes(q, kDoc);
}

// The property test: a few hundred randomly composed path expressions,
// evaluated in both modes over a randomly grown document. Any divergence
// between the streamed pipeline and the reference evaluator fails with the
// offending query text.
TEST(Streaming, DifferentialRandomPaths) {
  // The generators live in test_util.h so the server differential test can
  // run the exact same 440-query workload through sessions. Reverse axes
  // appear as explicit prefixes; attribute steps as "@k" (the only attribute
  // name the generator emits), so ancestor-from-attribute exercises the
  // "slotted after owner" order keys.
  std::mt19937 rng(20260806);  // fixed seed: failures must reproduce
  std::string xml = testing::RandomPathWorkloadDocument(&rng);
  std::vector<std::string> queries =
      testing::RandomPathWorkloadQueries(&rng, 440);

  int checked = 0;
  for (const std::string& query : queries) {
    EvalBothModes(query, xml);
    ++checked;
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
  EXPECT_GE(checked, 400);
}

TEST(Streaming, EarlyExitSkipsWorkOnFirstMatch) {
  // A wide document: one thousand <x> leaves under one root.
  std::string xml = "<r>";
  for (int i = 0; i < 1000; ++i) {
    xml += "<x n=\"" + std::to_string(i) + "\"/>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  auto first = xq::Compile("(//x)[1]");
  ASSERT_TRUE(first.ok());
  auto r = xq::Execute(*first, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "<x n=\"0\"/>");
  // The pipeline stopped after the first match: nearly the whole candidate
  // space was abandoned unvisited, and only a handful of nodes were pulled.
  EXPECT_GT(r->stats.nodes_skipped_early_exit, 900u);
  EXPECT_LT(r->stats.nodes_pulled, 100u);

  auto probe = xq::Compile("exists(//x)");
  ASSERT_TRUE(probe.ok());
  auto e = xq::Execute(*probe, opts);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->SerializedItems(), "true");
  EXPECT_LT(e->stats.nodes_pulled, 100u);

  // The prefixed spellings take the same limit-1 probe (EvalFunctionCall
  // strips "fn:" before the name check).
  for (const char* q : {"fn:exists(//x)", "fn:empty(//x)"}) {
    auto prefixed = xq::Compile(q);
    ASSERT_TRUE(prefixed.ok()) << q;
    auto p = xq::Execute(*prefixed, opts);
    ASSERT_TRUE(p.ok()) << q;
    EXPECT_EQ(p->SerializedItems(),
              std::string(q).find("empty") != std::string::npos ? "false"
                                                                : "true")
        << q;
    EXPECT_LT(p->stats.nodes_pulled, 100u) << q;
  }

  // With streaming off the same queries visit everything and pull nothing
  // through the (absent) pipeline.
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto m = xq::Execute(*first, materializing);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->SerializedItems(), "<x n=\"0\"/>");
  EXPECT_EQ(m->stats.nodes_pulled, 0u);
  EXPECT_EQ(m->stats.nodes_skipped_early_exit, 0u);
}

TEST(Streaming, PerStepPositionalPredicateStopsPerRun) {
  // //item[1] is per-parent: the first item of EVERY group. Early exit
  // applies within each group's run, not to the whole result.
  const std::string xml =
      "<r><g><item>1</item><item>2</item><item>3</item></g>"
      "<g><item>4</item><item>5</item></g></r>";
  // Adjacent text nodes serialize with no separator: "1" then "4".
  EXPECT_EQ(testing::EvalWithContext("//item[1]/text()", xml), "14");
  EXPECT_EQ(EvalBothModes("//item[1]/text()", xml), "14");
  EXPECT_EQ(EvalBothModes("(//item)[1]/text()", xml), "1");
  EXPECT_EQ(EvalBothModes("//item[2]/text()", xml), "25");
  EXPECT_EQ(EvalBothModes("string((//item)[2])", xml), "2");
}

TEST(Streaming, ReverseAxisMergesRunsWithoutSorting) {
  // 40 groups, each a 5-deep <y> chain holding two <x/> leaves: 80 ancestor
  // runs of depth ~6 feed the k-way merge.
  std::string xml = "<r>";
  for (int g = 0; g < 40; ++g) {
    for (int d = 0; d < 5; ++d) xml += "<y>";
    xml += "<x/><x/>";
    for (int d = 0; d < 5; ++d) xml += "</y>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  // Differential agreement on the merge + dedup itself.
  EvalBothModes("count(//x/ancestor::y)", xml);      // 200 after dedup
  EvalBothModes("//x/ancestor::y[1]", xml);          // nearest per context
  EvalBothModes("(//x/ancestor::y)[1]", xml);        // global first
  EvalBothModes("//x/ancestor-or-self::*[2]", xml);
  EvalBothModes("//x/preceding-sibling::x", xml);

  // Every <x> context contributes one non-empty ancestor run to the merge.
  auto compiled = xq::Compile("count(//x/ancestor::y)");
  ASSERT_TRUE(compiled.ok());
  auto r = xq::Execute(*compiled, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "200");
  EXPECT_EQ(r->stats.reverse_runs_merged, 80u);
  // The merge emits document order directly; no normalizing sort of the
  // 80*5-candidate multiset happens downstream.
  EXPECT_EQ(r->stats.sorts_performed, 0u);

  // The materializing arm never builds runs.
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto m = xq::Execute(*compiled, materializing);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->SerializedItems(), "200");
  EXPECT_EQ(m->stats.reverse_runs_merged, 0u);

  // A per-run [1] predicate keeps only the nearest ancestor and exhausts
  // each run after its first candidate.
  auto nearest = xq::Compile("count(//x/ancestor::y[1])");
  ASSERT_TRUE(nearest.ok());
  auto n = xq::Execute(*nearest, opts);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->SerializedItems(), "40");  // 80 runs, 40 distinct nearest <y>
}

TEST(Streaming, PipelineCountersAreExact) {
  // Exact work counters for forward, reverse and mixed chains over one
  // fixed document. The other tests bound these counters; this one pins
  // them, so a change to the run/merge machinery that alters how many
  // candidates it examines, abandons, merges or sorts shows up here.
  const std::string xml =
      "<r>"
      "<b/><b id=\"b0\"/>"
      "<a id=\"a1\"><b/><b id=\"b1\"/><c/><c/></a>"
      "<y id=\"y1\"><y><x/><z/><x/></y><z/></y>"
      "<a><c/><b/><b/><b/><c id=\"c2\"/></a>"
      "<y><x id=\"x3\"/><y><z/><x/></y></y>"
      "<b/><a><b/><c/></a>"
      "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  struct Golden {
    const char* query;
    size_t pulled;
    size_t skipped;
    size_t reverse_runs;
    size_t sorts;
  };
  const Golden cases[] = {
      {"//x/ancestor::y[1]/z", 70, 4, 4, 0},
      {"//a/preceding-sibling::b[2]", 71, 1, 3, 0},
      {"//b/parent::a/c[1]", 74, 5, 6, 0},
      {"//@id/ancestor::*[1]", 42, 6, 6, 0},
      {"//x/ancestor::y", 74, 0, 4, 0},
      {"//c/following-sibling::*[1]", 61, 3, 0, 0},
      {"//y//x", 86, 0, 0, 0},
      {"(//x)[1]", 31, 6, 0, 0},
      {"exists(//x)", 31, 6, 0, 0},
      {"fn:head(//z)", 32, 5, 0, 0},
      {"(//x/ancestor-or-self::y)[2]", 78, 0, 4, 0},
      {"exists(//z/preceding-sibling::x)", 61, 0, 1, 0},
      {"count(//y[x]/ancestor::*)", 76, 0, 3, 0},
      {"(//z | //x)/ancestor::y[1]", 125, 7, 7, 1},
  };
  for (const Golden& g : cases) {
    EvalBothModes(g.query, xml);
    auto compiled = xq::Compile(g.query);
    ASSERT_TRUE(compiled.ok()) << g.query;
    auto r = xq::Execute(*compiled, opts);
    ASSERT_TRUE(r.ok()) << g.query;
    EXPECT_EQ(r->stats.nodes_pulled, g.pulled) << g.query;
    EXPECT_EQ(r->stats.nodes_skipped_early_exit, g.skipped) << g.query;
    EXPECT_EQ(r->stats.reverse_runs_merged, g.reverse_runs) << g.query;
    EXPECT_EQ(r->stats.sorts_performed, g.sorts) << g.query;
  }
}

TEST(Streaming, TraceInPredicateKeepsEventParity) {
  // fn:trace inside a step predicate disqualifies streaming for that step
  // (trace-parity rule): the streamed plan must fall back so that BOTH the
  // result bytes and the trace event stream are identical to the
  // materializing evaluator -- even under early-exit probes that would
  // otherwise skip predicate evaluations entirely.
  const std::string xml =
      "<r><x n=\"1\"/><x n=\"2\"/><x n=\"3\"/><x n=\"4\"/></r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  const char* queries[] = {
      "exists(//x[trace(@n, \"probe\")])",
      "(//x[trace(@n, \"first\")])[1]",
      "//x[trace(position()) < 3]",  // trace returns its last argument
      "count(//x[trace(@n, \"all\")])",
  };
  for (const char* q : queries) {
    auto compiled = xq::Compile(q);
    ASSERT_TRUE(compiled.ok()) << q;
    xq::ExecuteOptions opts;
    opts.context_node = (*doc)->root();
    xq::ExecuteOptions materializing = opts;
    materializing.eval.streaming = false;
    auto streamed = xq::Execute(*compiled, opts);
    auto reference = xq::Execute(*compiled, materializing);
    ASSERT_TRUE(streamed.ok() && reference.ok()) << q;
    EXPECT_EQ(streamed->SerializedItems(), reference->SerializedItems()) << q;
    EXPECT_EQ(streamed->trace_output, reference->trace_output)
        << "trace event streams diverge on: " << q;
    EXPECT_FALSE(streamed->trace_output.empty()) << q;
  }
}

TEST(Streaming, NestedProbeSkipsAreNotDoubleCounted) {
  // Each [y] probe early-exits after finding <y/> and abandons the sibling
  // <z/>. Those probe abandons must NOT be charged to
  // nodes_skipped_early_exit: the <z/> candidates are pulled (and charged)
  // by the outer walk afterwards. A full drain therefore skips exactly 0.
  std::string xml = "<r>";
  for (int i = 0; i < 10; ++i) xml += "<x><y/><z/></x>";
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();

  auto full = xq::Compile("count(//x[y])");
  ASSERT_TRUE(full.ok());
  auto r = xq::Execute(*full, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SerializedItems(), "10");
  EXPECT_EQ(r->stats.nodes_skipped_early_exit, 0u);

  // Under an outer early exit the charge must be identical whether the
  // nested probe itself early-exited ([y] abandons <z/>) or ran dry ([z]
  // scans past <y/>): only the outer pipeline's unvisited candidates count.
  auto probe_y = xq::Compile("(//x[y])[1]");
  auto probe_z = xq::Compile("(//x[z])[1]");
  ASSERT_TRUE(probe_y.ok() && probe_z.ok());
  auto ry = xq::Execute(*probe_y, opts);
  auto rz = xq::Execute(*probe_z, opts);
  ASSERT_TRUE(ry.ok() && rz.ok());
  EXPECT_EQ(ry->stats.nodes_skipped_early_exit,
            rz->stats.nodes_skipped_early_exit);
  EXPECT_GT(ry->stats.nodes_skipped_early_exit, 10u);  // the other 9 subtrees
}

TEST(Streaming, LimitHintStopsPullingEarly) {
  std::string xml = "<r>";
  for (int i = 0; i < 1000; ++i) {
    xml += "<x n=\"" + std::to_string(i) + "\"/>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;

  struct PushedCase {
    const char* query;
    const char* expected;
  };
  const PushedCase cases[] = {
      {"subsequence(//x, 1, 2)", "<x n=\"0\"/><x n=\"1\"/>"},
      {"subsequence(//x, 2, 2)", "<x n=\"1\"/><x n=\"2\"/>"},
      {"fn:head(//x)", "<x n=\"0\"/>"},
      {"for $v at $p in //x where $p le 2 return $v",
       "<x n=\"0\"/><x n=\"1\"/>"},
      {"let $s := //x return head($s)", "<x n=\"0\"/>"},
  };
  for (const PushedCase& c : cases) {
    auto compiled = xq::Compile(c.query);
    ASSERT_TRUE(compiled.ok()) << c.query;
    auto streamed = xq::Execute(*compiled, opts);
    ASSERT_TRUE(streamed.ok()) << c.query;
    EXPECT_EQ(streamed->SerializedItems(), c.expected) << c.query;
    EXPECT_EQ(streamed->stats.limit_pushdowns, 1u) << c.query;
    // The pipeline stopped pulling after the demanded prefix.
    EXPECT_LT(streamed->stats.nodes_pulled, 100u) << c.query;
    EXPECT_GT(streamed->stats.nodes_skipped_early_exit, 900u) << c.query;
    // streaming=false ignores the hint and stays byte-identical.
    auto reference = xq::Execute(*compiled, materializing);
    ASSERT_TRUE(reference.ok()) << c.query;
    EXPECT_EQ(reference->SerializedItems(), c.expected) << c.query;
    EXPECT_EQ(reference->stats.limit_pushdowns, 0u) << c.query;
  }

  // Non-literal bounds, multiple uses, and intervening clauses are not
  // pushed -- the full scan must still produce correct results.
  const char* unpushed[] = {
      "subsequence(//x, 1, count(//x))",
      "let $s := //x return (head($s), count($s))",
      "for $v at $p in //x let $n := $v where $p le 2 return $n",
  };
  for (const char* q : unpushed) {
    auto compiled = xq::Compile(q);
    ASSERT_TRUE(compiled.ok()) << q;
    auto streamed = xq::Execute(*compiled, opts);
    ASSERT_TRUE(streamed.ok()) << q;
    EXPECT_EQ(streamed->stats.limit_pushdowns, 0u) << q;
    auto reference = xq::Execute(*compiled, materializing);
    ASSERT_TRUE(reference.ok()) << q;
    EXPECT_EQ(streamed->SerializedItems(), reference->SerializedItems()) << q;
  }
}

// --- Stage reuse -------------------------------------------------------------
//
// An evaluation keeps its axis stages on a free stack: a pipeline takes its
// stages on top of those in use and gives them back when its pull ends, so
// a pipeline nested inside another's predicate works on stages of its own.

TEST(Streaming, NestedPipelinesTakeStagesOfTheirOwn) {
  // Each outer candidate's predicate runs an inner pipeline (itself with a
  // nested predicate) while the outer stages are mid-pull; the loop pulls
  // the same shapes again from reused stages.
  const char* queries[] = {
      "//a[b[c][d]]/b/c",
      "//b[c[. = \"two\"] or d[@p]]/ancestor::a[1]/@k",
      "//a[.//b[c]/following-sibling::b]//c[ancestor::b[1][d]]",
      "for $i in 1 to 3 return count(//a[b[c]]//c[ancestor::b[d]])",
      "//c[exists(ancestor::a[b[d[@p]]])]/text()",
      "(//d[a[b[c]]]/c, //a[b/c][1]/b[2])",
  };
  const char* expected[] = {
      "<c>one</c><c>two</c><c>four</c>",
      "k=\"1\"",
      "<c>one</c>",
      "2 2 2",
      "threefour",
      "<c>six</c><b w=\"x\"><c>two</c></b>",
  };
  for (size_t i = 0; i < std::size(queries); ++i) {
    EXPECT_EQ(EvalBothModes(queries[i], kDoc), expected[i]) << queries[i];
  }
}

TEST(Streaming, PipelineAfterAnErrorMidPullStillStreams) {
  const std::string xml =
      "<r><n>1</n><n>2</n><n>x</n><n>4</n><m><n>5</n></m>"
      "<g><n>y</n></g><g><n>6</n><n>7</n></g><g><n>8</n></g></r>";
  // The cast fails on the third candidate, mid-pull: the failing pipeline
  // must hand back exactly its own stages, so the later ones in the same
  // evaluation run on a consistent free stack -- the second item, the
  // outer //r pipeline around a nested failure caught inside its
  // predicate, and the outer /r/g pipeline whose second candidate starts a
  // two-stage nested pipeline after the first candidate's one failed (on
  // stages of its own, not on the g stage whose run is mid-walk).
  const std::string query =
      "(try { count(//n[(. cast as xs:integer) > 0]) } catch { -1 },"
      " count(//n[. = \"4\"]/preceding-sibling::n),"
      " //r[try { exists(n[(. cast as xs:integer) > 3]) } catch { true() }]"
      "/m/n/text(),"
      " /r/g[try { exists(n/text()[(. cast as xs:integer) > 3]) }"
      " catch { false() }]/n/text())";
  // Atomics are space-separated; text nodes follow with no separator.
  EXPECT_EQ(EvalBothModes(query, xml), "-1 35678");

  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  auto compiled = xq::Compile(query);
  ASSERT_TRUE(compiled.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto r = xq::Execute(*compiled, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The later pipelines streamed: nothing fell back to a sort.
  EXPECT_GT(r->stats.nodes_pulled, 0u);
  EXPECT_EQ(r->stats.sorts_performed, 0u);
}

TEST(Streaming, SharedPlanStreamsOnFourThreads) {
  // One bound plan, shared read-only; every thread's evaluator keeps its own
  // stage stack. Run under ThreadSanitizer via the concurrency label.
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  auto compiled = xq::Compile(
      "(count(//a[b[c]]//c[ancestor::b[d]]), //c[exists(ancestor::a[@k])]"
      "/text(), exists(//b[c = \"four\"]/preceding-sibling::c))");
  ASSERT_TRUE(compiled.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto reference = xq::Execute(*compiled, opts);
  ASSERT_TRUE(reference.ok());
  const std::string want = reference->SerializedItems();
  EXPECT_EQ(want, "2onetwotrue");

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        auto r = xq::Execute(*compiled, opts);
        if (!r.ok() || r->SerializedItems() != want) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST(Streaming, DeepTreeDoesNotOverflowTheStack) {
  // A 100k-deep element chain. Built programmatically (the parser is not
  // under test here); both the streamed descendant walk and the
  // materializing CollectDescendants must traverse it iteratively.
  constexpr size_t kDepth = 100000;
  xml::Document doc;
  xml::Node* cursor = doc.root();
  for (size_t i = 0; i < kDepth; ++i) {
    xml::Node* child = doc.CreateElement(i + 1 == kDepth ? "leaf" : "n");
    ASSERT_TRUE(cursor->AppendChild(child).ok());
    cursor = child;
  }

  auto count = xq::Compile("count(//n)");
  ASSERT_TRUE(count.ok());
  xq::ExecuteOptions opts;
  opts.context_node = doc.root();
  auto streamed = xq::Execute(*count, opts);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->SerializedItems(), std::to_string(kDepth - 1));

  xq::ExecuteOptions materializing = opts;
  materializing.eval.streaming = false;
  auto reference = xq::Execute(*count, materializing);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->SerializedItems(), std::to_string(kDepth - 1));

  // Early exit deep in the chain must unwind iteratively too.
  auto probe = xq::Compile("exists(//leaf)");
  ASSERT_TRUE(probe.ok());
  auto e = xq::Execute(*probe, opts);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->SerializedItems(), "true");
}

}  // namespace
}  // namespace lll
