// Tests for the versioned node-set interning cache: unit behavior of
// NodeSetCache itself (guard validation against the document's subtree
// edit-version overlay), end-to-end interning through the evaluator,
// subtree-scoped invalidation under document mutation, foldable-predicate
// interning, and shared-cache concurrency tests (run under ThreadSanitizer
// via the "concurrency" ctest label).

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"

namespace lll {
namespace {

using Guard = xq::CachedNodeSet::Guard;
using GuardKind = xq::CachedNodeSet::GuardKind;

constexpr char kDoc[] =
    "<lib><shelf><book id=\"1\"/><book id=\"2\"/></shelf>"
    "<shelf><book id=\"3\"/></shelf></lib>";

// The anchored-subtree workload shape: singleton chains down to per-model
// subtrees, distinguishable by @id.
constexpr char kLibrary[] =
    "<library><models>"
    "<model id=\"m1\"><parts><part n=\"1\"/><part n=\"2\"/></parts></model>"
    "<model id=\"m2\"><parts><part n=\"3\"/></parts></model>"
    "</models></library>";

TEST(NodeSetCache, HitMissAndStaleOutcomes) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache(8);
  std::string key = xq::NodeSetCache::MakeKey(d->root(), "child::lib/");

  xq::NodeSetCache::Outcome outcome;
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kMiss);
  EXPECT_EQ(cache.misses(), 1u);

  // A whole-tree entry: one subtree guard on the base (root) node.
  std::vector<Guard> guards = {
      xq::NodeSetCache::GuardFor(d->root(), GuardKind::kSubtree)};
  xdm::Sequence nodes(xdm::Item::NodeRef(d->DocumentElement()));
  cache.Put(key, d->doc_id(), guards, /*subtree_scoped=*/false,
            std::move(nodes));

  auto entry = cache.Get(d, key, &outcome);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);
  EXPECT_EQ(entry->nodes.size(), 1u);
  EXPECT_FALSE(entry->subtree_scoped);
  EXPECT_EQ(cache.hits(), 1u);

  // Mutate the document: the entry is still stored, but the root's subtree
  // version moved past the guard stamp, so the lookup reports a (countable)
  // full invalidation.
  ASSERT_TRUE(
      d->DocumentElement()->AppendChild(d->CreateElement("shelf")).ok());
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStale);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.partial_invalidations(), 0u);
}

TEST(NodeSetCache, SubtreeGuardScopesInvalidation) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xml::Node* lib = d->DocumentElement();
  xml::Node* shelf1 = lib->children()[0];
  xml::Node* shelf2 = lib->children()[1];

  // An entry anchored under shelf1: guards say "lib's child list is
  // unchanged, and nothing under shelf1 changed" -- the shape the evaluator
  // records for /lib/shelf[1]-style anchored chains.
  xq::NodeSetCache cache(8);
  std::string key = xq::NodeSetCache::MakeKey(d->root(), "anchored-shelf1");
  std::vector<Guard> guards = {
      xq::NodeSetCache::GuardFor(lib, GuardKind::kLocal),
      xq::NodeSetCache::GuardFor(shelf1, GuardKind::kSubtree)};
  cache.Put(key, d->doc_id(), guards, /*subtree_scoped=*/true,
            xdm::Sequence(xdm::Item::NodeRef(shelf1->children()[0])));

  // An edit in the OTHER shelf's subtree leaves every guard intact.
  xq::NodeSetCache::Outcome outcome;
  ASSERT_TRUE(shelf2->AppendChild(d->CreateElement("book")).ok());
  EXPECT_NE(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);
  EXPECT_EQ(cache.invalidations(), 0u);

  // An edit under shelf1 fails the subtree guard -- and because the entry
  // was subtree-scoped, it counts as a PARTIAL invalidation.
  ASSERT_TRUE(shelf1->AppendChild(d->CreateElement("book")).ok());
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStalePartial);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.partial_invalidations(), 1u);
}

TEST(NodeSetCache, LocalChildrenGuardCatchesSiblingAttributeFlip) {
  auto doc = xml::Parse(kLibrary, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xml::Node* models = d->DocumentElement()->children()[0];
  xml::Node* m2 = models->children()[1];

  // The guard pair the evaluator records when it descends through an
  // attribute-only predicate (model[@id="m1"]): the parent's own child list
  // AND no direct child's local state (its @id) may change.
  xq::NodeSetCache cache(8);
  std::string key = xq::NodeSetCache::MakeKey(d->root(), "model-by-id");
  std::vector<Guard> guards = {
      xq::NodeSetCache::GuardFor(models, GuardKind::kLocal),
      xq::NodeSetCache::GuardFor(models, GuardKind::kLocalChildren)};
  cache.Put(key, d->doc_id(), guards, /*subtree_scoped=*/true,
            xdm::Sequence(xdm::Item::NodeRef(models->children()[0])));

  // Deep edits inside a model do NOT touch models' child-local version.
  xml::Node* m2_parts = m2->children()[0];
  ASSERT_TRUE(m2_parts->AppendChild(d->CreateElement("part")).ok());
  xq::NodeSetCache::Outcome outcome;
  EXPECT_NE(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);

  // Flipping a SIBLING model's @id fails the kLocalChildren guard: the
  // predicate's selection could now be different.
  m2->SetAttribute("id", "m1");
  EXPECT_EQ(cache.Get(d, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStalePartial);
  EXPECT_EQ(cache.partial_invalidations(), 1u);
}

TEST(NodeSetCache, GuardForStampsCurrentVersion) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xml::Node* lib = d->DocumentElement();

  Guard before = xq::NodeSetCache::GuardFor(lib, GuardKind::kSubtree);
  EXPECT_EQ(before.node, lib->index());
  EXPECT_EQ(before.kind, GuardKind::kSubtree);
  EXPECT_EQ(before.version, d->subtree_version_of(lib->index()));

  ASSERT_TRUE(lib->AppendChild(d->CreateElement("shelf")).ok());
  Guard after = xq::NodeSetCache::GuardFor(lib, GuardKind::kSubtree);
  EXPECT_NE(after.version, before.version);
}

TEST(NodeSetCache, ZeroCapacityIsPassthrough) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache(0);
  std::string key = xq::NodeSetCache::MakeKey(d->root(), "x");
  cache.Put(key, d->doc_id(),
            {xq::NodeSetCache::GuardFor(d->root(), GuardKind::kSubtree)},
            false, xdm::Sequence());
  EXPECT_EQ(cache.Get(d, key), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(NodeSetCache, ForeignDocIdReportsStaleNotHit) {
  // An entry stamped with another document's id must never validate, even
  // when the overlay versions happen to agree. This is the guard against
  // allocator address reuse: the key embeds the base node's doc_id + index,
  // so a new Document reusing an id-free key scheme could otherwise serve a
  // dead document's pointers.
  auto doc1 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  auto doc2 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  xml::Document* d1 = doc1->get();
  xml::Document* d2 = doc2->get();
  ASSERT_NE(d1->doc_id(), d2->doc_id());

  xq::NodeSetCache cache(8);
  std::string key = "recycled|child::lib/";
  cache.Put(key, d1->doc_id(),
            {xq::NodeSetCache::GuardFor(d1->root(), GuardKind::kSubtree)},
            false, xdm::Sequence(xdm::Item::NodeRef(d1->DocumentElement())));

  xq::NodeSetCache::Outcome outcome;
  EXPECT_NE(cache.Get(d1, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);
  EXPECT_EQ(cache.Get(d2, key, &outcome), nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kStale);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(NodeSetCache, DistinctBaseNodesInternSeparately) {
  auto doc1 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  auto doc2 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  EXPECT_NE(xq::NodeSetCache::MakeKey((*doc1)->root(), "child::lib/"),
            xq::NodeSetCache::MakeKey((*doc2)->root(), "child::lib/"));
}

TEST(NodeSetCache, RetainDocumentsDropsForeignEntries) {
  auto doc1 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  auto doc2 = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  xml::Document* d1 = doc1->get();
  xml::Document* d2 = doc2->get();

  xq::NodeSetCache cache(8);
  auto put = [&cache](xml::Document* d, const std::string& fp) {
    cache.Put(xq::NodeSetCache::MakeKey(d->root(), fp), d->doc_id(),
              {xq::NodeSetCache::GuardFor(d->root(), GuardKind::kSubtree)},
              false, xdm::Sequence(xdm::Item::NodeRef(d->DocumentElement())));
  };
  put(d1, "a");
  put(d1, "b");
  put(d2, "a");
  ASSERT_EQ(cache.size(), 3u);

  // Keep only d1: the d2 entry (about to lose its arena in the session
  // pattern) is purged; d1's survive and still hit.
  EXPECT_EQ(cache.RetainDocuments({d1->doc_id()}), 1u);
  EXPECT_EQ(cache.size(), 2u);
  xq::NodeSetCache::Outcome outcome;
  EXPECT_NE(
      cache.Get(d1, xq::NodeSetCache::MakeKey(d1->root(), "a"), &outcome),
      nullptr);
  EXPECT_EQ(outcome, xq::NodeSetCache::Outcome::kHit);
  EXPECT_EQ(cache.Get(d2, xq::NodeSetCache::MakeKey(d2->root(), "a")),
            nullptr);
}

// End-to-end: repeated evaluations of the same rooted, predicate-free step
// chain through one shared cache hit on the second run.
TEST(NodeSetCacheIntegration, RepeatedQueriesHit) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  auto query = xq::Compile("//book");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;

  auto r1 = xq::Execute(*query, opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->sequence.size(), 3u);
  EXPECT_GT(r1->stats.nodeset_cache_misses, 0u);
  EXPECT_EQ(r1->stats.nodeset_cache_hits, 0u);

  auto r2 = xq::Execute(*query, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(r2->SerializedItems(), r1->SerializedItems());

  // A different chain over the same document is its own entry.
  auto other = xq::Compile("//shelf");
  ASSERT_TRUE(other.ok());
  auto r3 = xq::Execute(*other, opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_GT(r3->stats.nodeset_cache_misses, 0u);
  EXPECT_EQ(r3->sequence.size(), 2u);
}

TEST(NodeSetCacheIntegration, MutationInvalidatesAndRecomputes) {
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  auto query = xq::Compile("count(//book)");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = d->root();
  opts.eval.nodeset_cache = &cache;

  auto r1 = xq::Execute(*query, opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->SerializedItems(), "3");
  auto warm = xq::Execute(*query, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->stats.nodeset_cache_hits, 0u);

  // Grow the document: the warm entry must NOT be served again.
  xml::Node* shelf = d->DocumentElement()->children().front();
  xml::Node* book = d->CreateElement("book");
  book->SetAttribute("id", "4");
  ASSERT_TRUE(shelf->AppendChild(book).ok());

  auto r2 = xq::Execute(*query, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->SerializedItems(), "4");
  EXPECT_GT(r2->stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(r2->stats.nodeset_cache_hits, 0u);

  // And the recomputed entry is served at the new version.
  auto r3 = xq::Execute(*query, opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->SerializedItems(), "4");
  EXPECT_GT(r3->stats.nodeset_cache_hits, 0u);
}

TEST(NodeSetCacheIntegration, FoldedPredicateChainsIntern) {
  // Step chains with pure, focus-independent predicates now intern: the
  // predicate text folds into the fingerprint. Before predicate folding,
  // model[@id=...] chains bypassed the cache entirely.
  auto doc = xml::Parse(kLibrary, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  auto query = xq::Compile("/library/models/model[@id = \"m1\"]/parts/part");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;

  auto r1 = xq::Execute(*query, opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->sequence.size(), 2u);
  EXPECT_GT(r1->stats.nodeset_cache_misses, 0u);

  auto r2 = xq::Execute(*query, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(r2->SerializedItems(), r1->SerializedItems());

  // A different predicate value is a different fingerprint, not a hit on
  // (or collision with) the m1 entry.
  auto other = xq::Compile("/library/models/model[@id = \"m2\"]/parts/part");
  ASSERT_TRUE(other.ok());
  auto r3 = xq::Execute(*other, opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->sequence.size(), 1u);
  EXPECT_GT(r3->stats.nodeset_cache_misses, 0u);
}

TEST(NodeSetCacheIntegration, EditOutsideAnchoredSubtreeKeepsEntries) {
  // The tentpole behavior: an anchored chain's cached result survives edits
  // to unrelated subtrees, and an edit inside its own anchor invalidates it
  // as a PARTIAL (subtree-scoped) invalidation.
  auto doc = xml::Parse(kLibrary, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xml::Document* d = doc->get();
  xq::NodeSetCache cache;
  auto query = xq::Compile("/library/models/model[@id = \"m1\"]/parts/part");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.context_node = d->root();
  opts.eval.nodeset_cache = &cache;

  auto cold = xq::Execute(*query, opts);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->sequence.size(), 2u);

  // Edit model m2's subtree: m1's cached chain must still be served.
  xml::Node* models = d->DocumentElement()->children()[0];
  xml::Node* m2_parts = models->children()[1]->children()[0];
  ASSERT_TRUE(m2_parts->AppendChild(d->CreateElement("part")).ok());

  auto warm = xq::Execute(*query, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->SerializedItems(), cold->SerializedItems());
  EXPECT_GT(warm->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(warm->stats.nodeset_cache_invalidations, 0u);

  // Edit m1's own subtree: the entry goes stale, and the stats call it a
  // partial (subtree-scoped) invalidation, not a whole-document one.
  xml::Node* m1_parts = models->children()[0]->children()[0];
  ASSERT_TRUE(m1_parts->AppendChild(d->CreateElement("part")).ok());

  auto after = xq::Execute(*query, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->sequence.size(), 3u);
  EXPECT_GT(after->stats.nodeset_cache_invalidations, 0u);
  EXPECT_GT(after->stats.nodeset_cache_partial_invalidations, 0u);
}

TEST(NodeSetCacheIntegration, ConstructedDocumentsAreNotInterned) {
  // Regression: a session-scoped cache outlives each query's construction
  // arena (QueryResult.arena is per-query). Interning a set rooted at an
  // arena document would leave raw pointers into a freed arena behind; a
  // re-run whose identically-built arena lands at the recycled address
  // would then be served garbage. Arena-rooted paths must bypass the cache
  // entirely.
  xq::NodeSetCache cache;
  auto query = xq::Compile("let $d := document { <a><b/></a> } return $d/a");
  ASSERT_TRUE(query.ok());
  xq::ExecuteOptions opts;
  opts.eval.nodeset_cache = &cache;

  for (int run = 0; run < 3; ++run) {
    auto r = xq::Execute(*query, opts);
    ASSERT_TRUE(r.ok()) << run;
    EXPECT_EQ(r->SerializedItems(), "<a><b/></a>") << run;
    EXPECT_EQ(r->stats.nodeset_cache_hits, 0u) << run;
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NodeSetCacheIntegration, LimitedProbesAreNotInterned) {
  // exists() probes pull a 1-item prefix; interning that truncated set
  // would poison later full evaluations. Verify the full query still sees
  // everything after a probe primed (or rather, did not prime) the cache.
  auto doc = xml::Parse(kDoc, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;

  auto probe = xq::Compile("exists(//book)");
  ASSERT_TRUE(probe.ok());
  auto p = xq::Execute(*probe, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->SerializedItems(), "true");

  auto full = xq::Compile("count(//book)");
  ASSERT_TRUE(full.ok());
  auto f = xq::Execute(*full, opts);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->SerializedItems(), "3");
}

// The mutate-between-runs differential: grow a random document, run the
// shared 440-query path workload with a persistent cache, apply a random
// edit, and re-run -- every cached evaluation must agree byte-for-byte with
// a fresh, cache-free one after every edit. 8 seeds.
TEST(NodeSetCacheIntegration, DifferentialMutateBetweenRuns) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(20260807 + seed);
    std::string xml = testing::RandomPathWorkloadDocument(&rng);
    auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
    ASSERT_TRUE(doc.ok()) << "seed " << seed;
    std::vector<std::string> query_texts =
        testing::RandomPathWorkloadQueries(&rng, 40);

    std::vector<xq::CompiledQuery> queries;
    for (const std::string& q : query_texts) {
      auto compiled = xq::Compile(q);
      ASSERT_TRUE(compiled.ok()) << q;
      queries.push_back(std::move(*compiled));
    }

    xq::NodeSetCache cache(64);
    for (int round = 0; round < 4; ++round) {
      std::string edit;
      if (round > 0) edit = testing::ApplyRandomEdit(doc->get(), &rng);
      for (size_t i = 0; i < queries.size(); ++i) {
        xq::ExecuteOptions cached_opts;
        cached_opts.context_node = (*doc)->root();
        cached_opts.eval.nodeset_cache = &cache;
        auto cached = xq::Execute(queries[i], cached_opts);

        xq::ExecuteOptions fresh_opts;
        fresh_opts.context_node = (*doc)->root();
        auto fresh = xq::Execute(queries[i], fresh_opts);

        ASSERT_EQ(cached.ok(), fresh.ok())
            << "seed " << seed << " round " << round << " query "
            << query_texts[i] << " edit: " << edit;
        if (!cached.ok()) continue;
        EXPECT_EQ(cached->SerializedItems(), fresh->SerializedItems())
            << "seed " << seed << " round " << round << " query "
            << query_texts[i] << " edit: " << edit;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Many threads evaluating through ONE shared cache over ONE read-only
// document. Carries the "concurrency" ctest label so the TSan preset
// exercises the Get/Put and counter paths under contention.
TEST(NodeSetCacheConcurrency, SharedCacheParallelEvaluations) {
  std::string xml = "<r>";
  for (int i = 0; i < 50; ++i) {
    xml += "<s><book id=\"" + std::to_string(i) + "\"/></s>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  (*doc)->EnsureOrderIndex();  // pre-build: mutations are off the table now

  xq::NodeSetCache cache(32);
  auto by_books = xq::Compile("count(//book)");
  auto by_shelves = xq::Compile("count(//s)");
  ASSERT_TRUE(by_books.ok() && by_shelves.ok());

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const xq::CompiledQuery& q =
            (i + t) % 2 == 0 ? *by_books : *by_shelves;
        const char* want = (i + t) % 2 == 0 ? "50" : "50";
        xq::ExecuteOptions opts;
        opts.context_node = (*doc)->root();
        opts.eval.nodeset_cache = &cache;
        auto r = xq::Execute(q, opts);
        if (!r.ok() || r->SerializedItems() != want) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  // Everyone after the first computation should have hit.
  EXPECT_GT(cache.hits(), 0u);
}

// Mutate-between-PHASES under threads: parallel readers share one cache
// over one document; between phases (all readers joined), the main thread
// applies a random edit. TSan audits that guard validation against the
// overlay is race-free with concurrent Get/Put, and every phase's results
// stay byte-identical to a fresh evaluation after the edit.
TEST(NodeSetCacheConcurrency, MutateBetweenParallelPhases) {
  std::mt19937 rng(20260807);
  std::string xml = testing::RandomPathWorkloadDocument(&rng);
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());

  const char* query_texts[] = {"count(//a)", "count(//b/c)", "//d[@k]",
                               "count(//*[@k = \"1\"])"};
  std::vector<xq::CompiledQuery> queries;
  for (const char* q : query_texts) {
    auto compiled = xq::Compile(q);
    ASSERT_TRUE(compiled.ok()) << q;
    queries.push_back(std::move(*compiled));
  }

  xq::NodeSetCache cache(32);
  constexpr int kThreads = 4;
  constexpr int kPhases = 6;
  for (int phase = 0; phase < kPhases; ++phase) {
    if (phase > 0) {
      testing::ApplyRandomEdit(doc->get(), &rng);
      // Rebuild the order index before readers come back: lazy index
      // (re)builds are not part of the read-only contract.
      (*doc)->EnsureOrderIndex();
    }
    // Fresh reference results for this phase, computed without the cache.
    std::vector<std::string> want;
    for (auto& q : queries) {
      xq::ExecuteOptions opts;
      opts.context_node = (*doc)->root();
      auto r = xq::Execute(q, opts);
      ASSERT_TRUE(r.ok());
      want.push_back(r->SerializedItems());
    }

    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 10; ++i) {
          size_t qi = static_cast<size_t>(t + i) % queries.size();
          xq::ExecuteOptions opts;
          opts.context_node = (*doc)->root();
          opts.eval.nodeset_cache = &cache;
          auto r = xq::Execute(queries[qi], opts);
          if (!r.ok() || r->SerializedItems() != want[qi]) ++failures[t];
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0) << "phase " << phase << " thread " << t;
    }
  }
}

// --- Attribute-value probes -------------------------------------------------

// One evaluation's observable outcome: the status text on failure, else the
// serialized items plus the identity of every node item (serialization
// alone cannot tell two equal-looking nodes apart).
std::string Outcome(const Result<xq::QueryResult>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  std::string out = r->SerializedItems() + " |";
  for (const xdm::Item& item : r->sequence.items()) {
    out += item.is_node() ? " " + xq::NodePathOf(item.node()) : " atomic";
  }
  return out;
}

// Adds a duplicate k attribute to every 7th element (the Galax-bug path,
// indexed under every value): half repeat a digit, half carry a non-numeric
// value, which numeric keys must fail to cast exactly as the scan does.
void AddDuplicateAttributes(xml::Document* doc) {
  std::vector<xml::Node*> elements = testing::AllElements(doc);
  for (size_t i = 0; i < elements.size(); i += 7) {
    const std::string value = i % 2 == 0 ? "2" : "x";
    ASSERT_TRUE(elements[i]
                    ->ForceAppendDuplicateAttribute(
                        doc->CreateAttribute("k", value))
                    .ok());
  }
}

// The probe differential: every probe-eligible shape, under every kind of
// key binding, evaluated with a persistent cache (probing) and without one
// (the scan oracle) -- byte-identical results, node identities, and error
// texts. String-typed keys must actually probe; numeric and mixed keys must
// not (they keep the scan's casting rules). 6 seeds.
TEST(IndexProbe, DifferentialAgainstCacheOff) {
  const char* shapes[] = {
      "//a[@k = $v]",
      "//*[@k = $v]",
      "/r/a[@k = $v]",
      "/r/b[@k = $v][c]",
      "/r/*[@k = $v][@k]",
      "//c[$v = @k]",
      "let $s := /r/a return $s[@k = $v]",
      "let $s := //b return $s[@k = $v][1]",
      "let $s := //d return $s[$v = @k][last()]",
      "//a[@k = $v][1]",
      "//b[@k = $v][last()]",
      "/r/*/a[@k = $v][1]",
      "/r/*/*[@k = $v][last()]",
      "/r/descendant::a[@k = $v][1]",
      "/descendant::b[@k = $v][2]",
      "count(//a[@k = $v])",
      "exists(//c[@k = $v])",
      "//a[@k = $v]/b",
  };
  struct Binding {
    const char* name;
    bool probes;  // string-typed keys: the probe must fire
  };
  const Binding bindings[] = {
      {"string", true},  {"strings", true}, {"attribute", true},
      {"empty", true},   {"integer", false}, {"double", false},
      {"mixed", false},
  };
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(20261017 + seed);
    auto doc = xml::Parse(testing::RandomPathWorkloadDocument(&rng),
                          {.strip_insignificant_whitespace = true});
    ASSERT_TRUE(doc.ok()) << "seed " << seed;
    AddDuplicateAttributes(doc->get());
    xml::Node* some_k = nullptr;
    for (xml::Node* n : testing::AllElements(doc->get())) {
      if (n->AttributeNode("k") != nullptr) {
        some_k = n->AttributeNode("k");
        break;
      }
    }
    ASSERT_NE(some_k, nullptr) << "seed " << seed;
    xq::NodeSetCache cache(64);
    for (const Binding& binding : bindings) {
      xdm::Sequence v;
      const std::string name = binding.name;
      if (name == "string") v = xdm::Sequence(xdm::Item::String("1"));
      if (name == "strings") {
        v.Append(xdm::Item::String("3"));
        v.Append(xdm::Item::String("2"));
        v.Append(xdm::Item::String("3"));
      }
      if (name == "attribute") v = xdm::Sequence(xdm::Item::NodeRef(some_k));
      if (name == "integer") v = xdm::Sequence(xdm::Item::Integer(1));
      if (name == "double") v = xdm::Sequence(xdm::Item::Double(2.0));
      if (name == "mixed") {
        v.Append(xdm::Item::String("1"));
        v.Append(xdm::Item::Integer(2));
      }
      size_t probes = 0;
      for (const char* shape : shapes) {
        auto query = xq::Compile(shape);
        ASSERT_TRUE(query.ok()) << shape;
        xq::ExecuteOptions opts;
        opts.context_node = (*doc)->root();
        opts.variables["v"] = v;
        auto fresh = xq::Execute(*query, opts);
        opts.eval.nodeset_cache = &cache;
        // Twice: the first run interns cold, the second probes warm.
        for (int round = 0; round < 2; ++round) {
          auto cached = xq::Execute(*query, opts);
          ASSERT_EQ(Outcome(cached), Outcome(fresh))
              << "seed " << seed << " $v " << name << " query " << shape;
          if (cached.ok()) probes += cached->stats.index_probes;
          if (cached.ok() && !binding.probes) {
            EXPECT_EQ(cached->stats.index_probes, 0u)
                << "seed " << seed << " $v " << name << " query " << shape;
          }
        }
      }
      if (binding.probes) {
        EXPECT_GT(probes, 0u) << "seed " << seed << " $v " << name;
      }
    }
  }
}

TEST(IndexProbe, EligibleShapesProbeAndFallbacksDoNot) {
  auto doc = xml::Parse(
      "<r><s><e k=\"1\"/><e k=\"2\"/></s><s><e k=\"1\"/><e k=\"1\"/></s></r>",
      {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  xq::NodeSetCache cache;
  auto run = [&](const std::string& text) {
    auto query = xq::Compile(text);
    EXPECT_TRUE(query.ok()) << text;
    xq::ExecuteOptions opts;
    opts.context_node = (*doc)->root();
    opts.eval.nodeset_cache = &cache;
    auto r = xq::Execute(*query, opts);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return std::make_pair(r->SerializedItems(), r->stats.index_probes);
  };
  EXPECT_EQ(run("count(//e[@k = \"1\"])").second, 0u)
      << "a literal key folds into the intern fingerprint instead";
  EXPECT_EQ(run("let $v := \"1\" return count(//e[@k = $v])"),
            std::make_pair(std::string("3"), size_t{1}));
  // First per parent: two parents hold a match, so [1] keeps one each and
  // the probe must fall back to the per-context scan.
  EXPECT_EQ(run("let $v := \"1\" return count(//e[@k = $v][1])"),
            std::make_pair(std::string("2"), size_t{0}));
  // ... while a non-positional tail runs over the probe's hits.
  EXPECT_EQ(run("let $v := \"1\" return count(//e[@k = $v][@k])"),
            std::make_pair(std::string("3"), size_t{1}));
  // One parent: [last()] over the union is exact.
  EXPECT_EQ(run("let $v := \"2\" return count(/r/s/e[@k = $v][last()])"),
            std::make_pair(std::string("1"), size_t{1}));
  // A variable bound to a fully interned path probes its entry.
  EXPECT_EQ(run("let $all := /r/s/e let $v := \"1\" "
                "return count($all[@k = $v])"),
            std::make_pair(std::string("3"), size_t{1}));
  // ... a variable bound to anything else scans.
  EXPECT_EQ(run("let $all := (/r/s/e, /r/s) let $v := \"1\" "
                "return count($all[@k = $v])"),
            std::make_pair(std::string("3"), size_t{0}));
  // Numeric keys keep the scan's casting rules.
  EXPECT_EQ(run("let $v := 1 return count(//e[@k = $v])"),
            std::make_pair(std::string("3"), size_t{0}));
}

TEST(IndexProbe, ErroringKeyFailsOnlyWhenThereAreCandidates) {
  auto doc = xml::Parse("<r><e k=\"1\"/></r>",
                        {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  for (const char* text :
       {"//e[@k = (1 div 0, $v)[2]]", "//e[@k = exactly-one(($v, $v))]",
        "//nothing[@k = exactly-one(($v, $v))]"}) {
    auto query = xq::Compile(text);
    ASSERT_TRUE(query.ok()) << text;
    xq::ExecuteOptions opts;
    opts.context_node = (*doc)->root();
    opts.variables["v"] = xdm::Sequence(xdm::Item::String("1"));
    auto fresh = xq::Execute(*query, opts);
    xq::NodeSetCache cache;
    opts.eval.nodeset_cache = &cache;
    EXPECT_EQ(Outcome(xq::Execute(*query, opts)), Outcome(fresh)) << text;
  }
}

// The stale-index regression, in place: an edit to a member's @k leaves the
// entry `/r/e` valid (its guards watch r's child list) but must rebuild the
// postings, whose own guards watch the members' attributes.
TEST(IndexProbe, InPlaceAttributeEditRebuildsPostingsNotEntry) {
  auto doc = xml::Parse("<r><e k=\"1\"/><e k=\"2\"/><e k=\"1\"/></r>",
                        {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  auto query = xq::Compile("/r/e[@k = $v]");
  ASSERT_TRUE(query.ok());
  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.variables["v"] = xdm::Sequence(xdm::Item::String("1"));
  auto run = [&](xq::NodeSetCache* c) {
    xq::ExecuteOptions o = opts;
    o.eval.nodeset_cache = c;
    return xq::Execute(*query, o);
  };
  ASSERT_TRUE(run(&cache).ok());
  auto warm = run(&cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->sequence.size(), 2u);
  EXPECT_EQ(warm->stats.index_probes, 1u);

  xml::Node* second = (*doc)->DocumentElement()->children()[1];
  second->SetAttribute("k", "1");

  auto after = run(&cache);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.nodeset_cache_hits, 1u);
  EXPECT_EQ(after->stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(after->stats.index_probes, 1u);
  EXPECT_EQ(Outcome(after), Outcome(run(nullptr)));
  EXPECT_EQ(after->sequence.size(), 3u);
}

// Four readers probe one shared entry whose postings nobody has built yet,
// so the lazy once-only build races under ThreadSanitizer.
TEST(IndexProbeConcurrency, ReadersBuildPostingsLazily) {
  std::string xml = "<r>";
  for (int i = 0; i < 200; ++i) {
    xml += "<e k=\"" + std::to_string(i % 10) + "\" id=\"" +
           std::to_string(i) + "\"/>";
  }
  xml += "</r>";
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(doc.ok());
  (*doc)->EnsureOrderIndex();
  auto warm = xq::Compile("count(/r/e)");
  auto probe = xq::Compile(
      "for $i in 0 to 9 return count(/r/e[@k = string($i)][@id = $id])");
  ASSERT_TRUE(warm.ok() && probe.ok());
  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  opts.eval.nodeset_cache = &cache;
  ASSERT_TRUE(xq::Execute(*warm, opts).ok());  // the entry, no postings yet

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < 5; ++i) {
        const int id = t * 50 + i;
        xq::ExecuteOptions o = opts;
        o.variables["id"] =
            xdm::Sequence(xdm::Item::String(std::to_string(id)));
        auto r = xq::Execute(*probe, o);
        std::string want;
        for (int k = 0; k < 10; ++k) {
          want += std::string(k == 0 ? "" : " ") + (k == id % 10 ? "1" : "0");
        }
        if (!r.ok() || r->SerializedItems() != want ||
            r->stats.index_probes != 10u) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
}  // namespace lll
