#include "xquery/nodeset_cache.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

#include "xml/name_table.h"

namespace lll::xq {

namespace {

uint64_t CurrentVersion(const xml::Document* doc,
                        const CachedNodeSet::Guard& g) {
  switch (g.kind) {
    case CachedNodeSet::GuardKind::kLocal:
      return doc->local_version_of(g.node);
    case CachedNodeSet::GuardKind::kLocalChildren:
      return doc->child_local_version_of(g.node);
    case CachedNodeSet::GuardKind::kSubtree:
      return doc->subtree_version_of(g.node);
  }
  return 0;
}

bool GuardsHold(const xml::Document* doc,
                const std::vector<CachedNodeSet::Guard>& guards) {
  for (const CachedNodeSet::Guard& g : guards) {
    if (CurrentVersion(doc, g) != g.version) return false;
  }
  return true;
}

// Same cap as the entry guards (Evaluator::ComputeInternGuards).
constexpr size_t kMaxPostingsGuards = 16;

std::shared_ptr<const CachedNodeSet::AttributePostings> BuildPostings(
    const xml::Document* doc, uint32_t base, const xdm::Sequence& nodes,
    const std::string& name) {
  using GuardKind = CachedNodeSet::GuardKind;
  auto postings = std::make_shared<CachedNodeSet::AttributePostings>();
  postings->name_id = xml::NameTable::Intern(name);
  // Guards first, read before the values (stamped too old, never too new):
  // a member's attribute state is a local change of the member, which its
  // parent's kLocalChildren version sees; a parentless member pins itself.
  std::vector<CachedNodeSet::Guard>& guards = postings->guards;
  for (const xdm::Item& item : nodes.items()) {
    if (!item.is_node()) continue;
    const xml::Node* n = item.node();
    const xml::Node* anchor = n->parent() != nullptr ? n->parent() : n;
    const GuardKind kind = n->parent() != nullptr ? GuardKind::kLocalChildren
                                                  : GuardKind::kLocal;
    bool seen = false;
    for (const CachedNodeSet::Guard& g : guards) {
      seen = seen || (g.node == anchor->index() && g.kind == kind);
    }
    if (seen) continue;
    if (guards.size() == kMaxPostingsGuards) {
      guards.assign(1, NodeSetCache::GuardFor(doc->NodeAt(base),
                                              GuardKind::kSubtree));
      break;
    }
    guards.push_back(NodeSetCache::GuardFor(anchor, kind));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const xdm::Item& item = nodes.at(i);
    if (!item.is_node() || !item.node()->is_element()) continue;
    const uint32_t position = static_cast<uint32_t>(i);
    for (const xml::Node* attr : item.node()->attributes()) {
      if (attr->name_id() != postings->name_id) continue;
      std::vector<uint32_t>& list = postings->positions[std::string(attr->value())];
      if (list.empty() || list.back() != position) list.push_back(position);
    }
  }
  return postings;
}

}  // namespace

std::shared_ptr<const CachedNodeSet::AttributePostings> CachedNodeSet::Postings(
    const xml::Document* doc, const std::string& name) const {
  std::lock_guard<std::mutex> lock(postings_mu_);
  for (std::shared_ptr<const AttributePostings>& p : postings_) {
    if (xml::NameTable::Get(p->name_id) != name) continue;
    if (!GuardsHold(doc, p->guards)) p = BuildPostings(doc, base, nodes, name);
    return p;
  }
  postings_.push_back(BuildPostings(doc, base, nodes, name));
  return postings_.back();
}

std::string NodeSetCache::MakeKey(const xml::Node* base,
                                  const std::string& fingerprint) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 "@%" PRIu32 "|",
                base->document()->doc_id(), base->index());
  return std::string(buf) + fingerprint;
}

CachedNodeSet::Guard NodeSetCache::GuardFor(const xml::Node* n,
                                            CachedNodeSet::GuardKind kind) {
  CachedNodeSet::Guard g;
  g.node = n->index();
  g.kind = kind;
  g.version = CurrentVersion(n->document(), {n->index(), kind, 0});
  return g;
}

std::shared_ptr<const CachedNodeSet> NodeSetCache::Get(
    const xml::Document* doc, const std::string& key, Outcome* outcome) {
  std::shared_ptr<const CachedNodeSet> entry = cache_.Get(key);
  if (entry == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (outcome != nullptr) *outcome = Outcome::kMiss;
    return nullptr;
  }
  bool stale = entry->doc_id != doc->doc_id();
  if (!stale) {
    for (const CachedNodeSet::Guard& g : entry->guards) {
      if (CurrentVersion(doc, g) != g.version) {
        stale = true;
        break;
      }
    }
  }
  if (stale) {
    // A failed guard is an invalidation, not a plain miss: the caller DID
    // intern this chain before, and the edit history is what evicted it.
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    const bool partial = entry->subtree_scoped;
    if (partial) partial_invalidations_.fetch_add(1, std::memory_order_relaxed);
    if (outcome != nullptr) {
      *outcome = partial ? Outcome::kStalePartial : Outcome::kStale;
    }
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (outcome != nullptr) *outcome = Outcome::kHit;
  return entry;
}

std::shared_ptr<CachedNodeSet> NodeSetCache::MakeEntry(
    uint64_t doc_id, std::vector<CachedNodeSet::Guard> guards,
    bool subtree_scoped, xdm::Sequence nodes, uint32_t base) {
  auto entry = std::make_shared<CachedNodeSet>();
  entry->doc_id = doc_id;
  entry->base = base;
  entry->guards = std::move(guards);
  entry->subtree_scoped = subtree_scoped;
  entry->nodes = std::move(nodes);
  return entry;
}

void NodeSetCache::Put(const std::string& key, uint64_t doc_id,
                       std::vector<CachedNodeSet::Guard> guards,
                       bool subtree_scoped, xdm::Sequence nodes,
                       uint32_t base) {
  Put(key, MakeEntry(doc_id, std::move(guards), subtree_scoped,
                     std::move(nodes), base));
}

void NodeSetCache::Put(const std::string& key,
                       std::shared_ptr<const CachedNodeSet> entry) {
  cache_.Put(key, std::move(entry));
}

size_t NodeSetCache::MigrateClone(const NodeSetCache& source,
                                  const xml::Document& from,
                                  const xml::Document& to,
                                  const std::vector<uint32_t>& node_map) {
  const uint32_t clone_nodes = static_cast<uint32_t>(to.node_count());
  // Maps a source node index into the clone; kNilNode if out of range or
  // dropped as debris.
  auto remap = [&node_map, clone_nodes](uint32_t idx) -> uint32_t {
    if (idx >= node_map.size()) return xml::kNilNode;
    const uint32_t mapped = node_map[idx];
    return mapped < clone_nodes ? mapped : xml::kNilNode;
  };
  auto entries = source.cache_.Snapshot();
  size_t migrated = 0;
  // Snapshot() is most- to least-recent; reinsert in reverse so the most
  // recently used entry of the source is also the freshest here.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const std::string& key = it->first;
    const std::shared_ptr<const CachedNodeSet>& entry = it->second;
    if (entry->doc_id != from.doc_id()) continue;
    // Remap the node set through the clone's renumbering. Entries are node
    // sets by construction; anything else -- or an entry touching a node
    // the clone dropped (detached debris) -- is skipped: a skip is just a
    // cold miss on the new snapshot.
    bool mappable = true;
    xdm::Sequence nodes;
    for (const xdm::Item& item : entry->nodes.items()) {
      const uint32_t mapped =
          item.is_node() && item.node()->document() == &from
              ? remap(item.node()->index())
              : xml::kNilNode;
      if (mapped == xml::kNilNode) {
        mappable = false;
        break;
      }
      nodes.Append(xdm::Item::NodeRef(to.NodeAt(mapped)));
    }
    if (!mappable) continue;
    std::vector<CachedNodeSet::Guard> guards = entry->guards;
    for (CachedNodeSet::Guard& g : guards) {
      g.node = remap(g.node);
      if (g.node == xml::kNilNode) {
        mappable = false;
        break;
      }
    }
    if (!mappable) continue;
    if (entry->nodes.ordered_deduped()) nodes.MarkOrderedDeduped();
    // Key layout is "<doc_id>@<base_index>|<fingerprint>" (MakeKey): swap
    // the doc_id prefix and re-base the node index through the map, keep
    // the fingerprint.
    const size_t at = key.find('@');
    const size_t bar = key.find('|', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || bar == std::string::npos) continue;
    uint32_t base = 0;
    {
      const char* first = key.data() + at + 1;
      const char* last = key.data() + bar;
      auto [ptr, ec] = std::from_chars(first, last, base);
      if (ec != std::errc() || ptr != last) continue;
    }
    const uint32_t mapped_base = remap(base);
    if (mapped_base == xml::kNilNode) continue;
    Put(std::to_string(to.doc_id()) + "@" + std::to_string(mapped_base) +
            key.substr(bar),
        to.doc_id(), std::move(guards), entry->subtree_scoped,
        std::move(nodes), mapped_base);
    ++migrated;
  }
  return migrated;
}

size_t NodeSetCache::RetainDocuments(const std::vector<uint64_t>& doc_ids) {
  return cache_.EraseIf([&doc_ids](const std::string&,
                                   const CachedNodeSet& entry) {
    for (uint64_t id : doc_ids) {
      if (entry.doc_id == id) return false;
    }
    return true;
  });
}

void NodeSetCache::ExportTo(MetricsRegistry* metrics,
                            const std::string& prefix) const {
  metrics->gauge(prefix + ".hits").Set(static_cast<int64_t>(hits()));
  metrics->gauge(prefix + ".misses").Set(static_cast<int64_t>(misses()));
  metrics->gauge(prefix + ".invalidations")
      .Set(static_cast<int64_t>(invalidations()));
  metrics->gauge(prefix + ".partial_invalidations")
      .Set(static_cast<int64_t>(partial_invalidations()));
  metrics->gauge(prefix + ".size").Set(static_cast<int64_t>(size()));
}

}  // namespace lll::xq
