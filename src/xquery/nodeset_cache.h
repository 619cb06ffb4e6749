#ifndef LLL_XQUERY_NODESET_CACHE_H_
#define LLL_XQUERY_NODESET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lru_cache.h"
#include "core/metrics.h"
#include "xdm/sequence.h"
#include "xml/node.h"

namespace lll::xq {

// One interned node set: the materialized, normalized (document order, no
// duplicates) result of a step chain from one document node, stamped with
// the identity (doc_id) of the owning document and a set of subtree version
// GUARDS read from the document's edit-version overlay at computation time
// (xml::Document::subtree_version_of and friends; DESIGN.md section 14).
//
// A guard pins one node of the dependency chain the entry was computed
// through: the entry is valid iff EVERY guard's recorded version still
// matches the document. The three guard kinds mirror the overlay --
//
//   kLocal          the node's own child/attribute list and value (and its
//                   attributes' values) are unchanged: guards "the children
//                   of N named x are still these"
//   kLocalChildren  no DIRECT child of the node had a local change: guards
//                   attribute-only predicates over the node's children
//                   ("no sibling's @id flipped")
//   kSubtree        nothing changed anywhere under the node: the coarse
//                   guard for everything deeper analysis cannot scope
//
// so an entry anchored under /library/models/model[@id="m7"] survives edits
// to every other model subtree -- that is the whole point: one edit no
// longer evicts the cache wholesale.
//
// The doc_id stamp guards against identity reuse: the key embeds the base
// node's doc_id + index, and an entry from a dead document must never
// validate against a new one -- doc_ids are process-unique and never reused,
// unlike addresses.
struct CachedNodeSet : xdm::SequenceSource {
  enum class GuardKind : uint8_t { kLocal, kLocalChildren, kSubtree };
  struct Guard {
    uint32_t node = 0;  // node index within the owning document's arena
    GuardKind kind = GuardKind::kSubtree;
    uint64_t version = 0;  // overlay version recorded at computation time
  };

  // The attribute-value postings of one attribute name over `nodes`: value
  // -> ascending positions of the members carrying an attribute of that
  // name with that value (a member with duplicate attributes is listed
  // under every value, once per value). It has guards of its own, because
  // the entry's guards watch only what decides MEMBERSHIP: `awb-model/
  // relation` is guarded by its parent's child list alone and stays valid
  // when a member's @source is replaced. So the postings pin the members'
  // attribute state: kLocalChildren on every distinct parent of the
  // members (kLocal on a parentless member), or one kSubtree guard on the
  // entry's base past the 16-guard cap.
  struct AttributePostings {
    uint32_t name_id = 0;  // xml::NameTable id of the attribute name
    std::vector<Guard> guards;
    std::unordered_map<std::string, std::vector<uint32_t>> positions;
  };

  uint64_t doc_id = 0;
  // Index of the node the step chain hangs off (the key's base).
  uint32_t base = 0;
  std::vector<Guard> guards;
  // True if some guard is anchored strictly below the base node, i.e. the
  // entry's validity is scoped to a subtree rather than the whole tree.
  // Distinguishes partial from full invalidations in the stats.
  bool subtree_scoped = false;
  xdm::Sequence nodes;

  // The postings of attribute `name` over `nodes`, built lazily on first
  // use and rebuilt -- without touching the entry -- when one of its own
  // guards has failed against `doc`, the live document the entry was
  // validated against. Once-only per build and safe from any number of
  // threads sharing this entry.
  std::shared_ptr<const AttributePostings> Postings(
      const xml::Document* doc, const std::string& name) const;

 private:
  mutable std::mutex postings_mu_;
  mutable std::vector<std::shared_ptr<const AttributePostings>> postings_;
};

// A thread-safe interning cache for document-rooted node sets, keyed on
// (document identity, base node, step-chain fingerprint) and invalidated by
// the document's per-node subtree edit-version overlay: a lookup revalidates
// every guard of the entry against the document's current versions, so an
// edit invalidates exactly the entries whose dependency chain it dirtied.
//
// Ownership contract: cached Sequences hold raw xml::Node pointers into the
// documents they were computed from. A NodeSetCache must therefore be scoped
// to the owner of those documents and destroyed (or Clear()ed) no later than
// them -- e.g. a member of awbql::XQueryBackend next to its model/metamodel
// snapshots, or a docgen session spanning generations of one model. It must
// never be a process-wide singleton. (Entries for dead documents are inert
// -- the doc_id in key and stamp can never match a live document -- but
// their Sequences still point into freed arenas, so the cache itself must
// not outlive its documents. RetainDocuments purges such entries.)
//
// Concurrency: Get/Put are safe from any number of threads (the underlying
// LruCache serializes bookkeeping; values are shared immutable handles), and
// guard validation reads the overlay through accessors that never allocate.
// Mutating a document concurrently with evaluations over it is NOT safe --
// the same contract as the tree itself.
//
// Stats: the LruCache's own CacheStats would count a stale hit as a hit, so
// this class keeps its own hit/miss/invalidation counters (relaxed atomics).
// An invalidation is a lookup that found an entry with a failed guard;
// `partial` counts the subset whose entry was subtree-scoped (a finer-than-
// whole-document guard did its job), `invalidations` counts all of them.
class NodeSetCache {
 public:
  enum class Outcome { kHit, kMiss, kStale, kStalePartial };

  // capacity 0 = passthrough (every lookup misses, nothing stored).
  explicit NodeSetCache(size_t capacity = 128) : cache_(capacity) {}

  NodeSetCache(const NodeSetCache&) = delete;
  NodeSetCache& operator=(const NodeSetCache&) = delete;

  // Returns the entry for `key` iff it was computed from this very `doc`
  // (doc_id match) and every guard still matches the document's current
  // overlay versions; nullptr on miss or staleness. `outcome` (optional)
  // distinguishes miss / full stale / subtree-scoped stale.
  std::shared_ptr<const CachedNodeSet> Get(const xml::Document* doc,
                                           const std::string& key,
                                           Outcome* outcome = nullptr);

  // Stores the node set computed from the document identified by `doc_id`,
  // with its guard versions read from the overlay BEFORE computing (so an
  // entry can only ever be stamped too old -- a harmless re-miss -- never
  // too new). Overwrites stale entries. `base` is the index of the node the
  // chain hangs off (default: the document node).
  void Put(const std::string& key, uint64_t doc_id,
           std::vector<CachedNodeSet::Guard> guards, bool subtree_scoped,
           xdm::Sequence nodes, uint32_t base = 0);
  // Stores an entry built by the caller (see MakeEntry).
  void Put(const std::string& key, std::shared_ptr<const CachedNodeSet> entry);

  static std::shared_ptr<CachedNodeSet> MakeEntry(
      uint64_t doc_id, std::vector<CachedNodeSet::Guard> guards,
      bool subtree_scoped, xdm::Sequence nodes, uint32_t base);

  // The key for a step chain hanging off `base`: the owning document's
  // process-unique id plus the base node's index (distinct document nodes in
  // one arena intern separately, and entries from dead documents can never
  // collide with live ones) plus the caller-built chain fingerprint.
  static std::string MakeKey(const xml::Node* base,
                             const std::string& fingerprint);

  // A guard of the given kind over `n`, stamped with the CURRENT overlay
  // version -- the building block callers assemble dependency chains from.
  static CachedNodeSet::Guard GuardFor(const xml::Node* n,
                                       CachedNodeSet::GuardKind kind);

  // Drops every entry whose document is not in `doc_ids`. Cross-generation
  // sessions call this to shed entries for per-generation scratch documents
  // whose arenas are about to die.
  size_t RetainDocuments(const std::vector<uint64_t>& doc_ids);

  // Copies `source`'s entries for `from` into this cache, re-targeted at
  // `to`, a clone of `from`, with `node_map` the source-index -> clone-index
  // table CloneDocument produced (identity on the fast path, a renumbering
  // on the slow path, kNilNode for dropped debris). Keys are re-stamped
  // with the clone's doc_id and re-based through the map, node handles and
  // guard anchors remap through it, and guard versions transfer verbatim:
  // the clone carries the edit-version overlay (remapped through the same
  // table), so entries whose chains a post-clone edit dirtied fail their
  // guards on first lookup (counted partial/full as usual) while untouched
  // chains keep hitting. Entries touching dropped nodes are skipped. This
  // is what lets a warm cache survive the server's copy-on-write publish.
  // Attribute postings are dropped, never carried over: the clone's entries
  // rebuild them lazily against the clone, so no index can outlive the edit
  // that made it wrong. Recency order is preserved. Returns the number of
  // entries migrated.
  size_t MigrateClone(const NodeSetCache& source, const xml::Document& from,
                      const xml::Document& to,
                      const std::vector<uint32_t>& node_map);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  uint64_t partial_invalidations() const {
    return partial_invalidations_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return cache_.capacity(); }
  size_t size() const { return cache_.size(); }
  void Clear() { cache_.Clear(); }

  // Publishes the counters as gauges named "<prefix>.hits" etc. (gauges, not
  // counters: this cache accumulates totals, so each export overwrites the
  // last snapshot instead of double-counting -- same scheme as QueryCache).
  void ExportTo(MetricsRegistry* metrics, const std::string& prefix) const;

 private:
  LruCache<CachedNodeSet> cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> partial_invalidations_{0};
};

}  // namespace lll::xq

#endif  // LLL_XQUERY_NODESET_CACHE_H_
