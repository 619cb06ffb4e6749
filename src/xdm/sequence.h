#ifndef LLL_XDM_SEQUENCE_H_
#define LLL_XDM_SEQUENCE_H_

#include <memory>
#include <vector>

#include "xdm/item.h"

namespace lll::xdm {

// A shared, immutable object a Sequence's items were copied from verbatim
// (the evaluator's interned node sets; see Sequence::source()).
class SequenceSource {
 public:
  virtual ~SequenceSource() = default;
};

// The XDM sequence. Sequences are FLAT by construction: a Sequence holds
// Items and an Item can never be a Sequence, so (1,(2,3),()) is physically
// (1,2,3) -- "with all of the internal sequence structure washed out", as the
// paper puts it. Every pathology in the paper's Table (experiment E1) follows
// from this one representation decision, which is why it is enforced by the
// type system here rather than by a normalization pass.
//
// There is likewise no distinction between an item and a singleton sequence.
class Sequence {
 public:
  Sequence() = default;
  explicit Sequence(Item item) { items_.push_back(std::move(item)); }
  explicit Sequence(std::vector<Item> items) : items_(std::move(items)) {}

  static Sequence Empty() { return Sequence(); }
  static Sequence Singleton(Item item) { return Sequence(std::move(item)); }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  const Item& at(size_t i) const { return items_[i]; }
  const std::vector<Item>& items() const { return items_; }

  void Append(Item item) {
    items_.push_back(std::move(item));
    ordered_deduped_ = false;
    source_.reset();
  }
  // Concatenation -- the only way to combine sequences, and it flattens.
  // Appending to an empty sequence preserves the other's order invariant;
  // any other concatenation invalidates it.
  void AppendSequence(const Sequence& other) {
    if (other.items_.empty()) return;
    ordered_deduped_ = items_.empty() && other.ordered_deduped_;
    source_.reset();
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }
  // Move-aware overload for the path/FLWOR hot loops: steals the other
  // sequence's storage instead of copying every Item.
  void AppendSequence(Sequence&& other) {
    if (other.items_.empty()) return;
    if (items_.empty()) {
      *this = std::move(other);
    } else {
      ordered_deduped_ = false;
      source_.reset();
      items_.insert(items_.end(),
                    std::make_move_iterator(other.items_.begin()),
                    std::make_move_iterator(other.items_.end()));
    }
    other.items_.clear();
    other.ordered_deduped_ = false;
    other.source_.reset();
  }

  // True if every item is a node.
  bool AllNodes() const;
  // True if any item is a node.
  bool AnyNode() const;

  // The order invariant: true means "if this is a node sequence, it is in
  // document order with no duplicate nodes". Set by sorting (or by an
  // evaluator that can prove the invariant statically); cleared by any
  // mutation that could break it. Lets already-sorted sequences skip the
  // re-sort that the flat XDM otherwise forces after every path step.
  bool ordered_deduped() const { return ordered_deduped_; }
  void MarkOrderedDeduped() { ordered_deduped_ = true; }

  // Sorts node items into document order and removes duplicate nodes.
  // Precondition: AllNodes(). Path steps and `union` produce this form.
  // No-op (returns false) when the sequence is already known-ordered or has
  // at most one item; returns true if a sort pass actually ran. When
  // `compare_count` is non-null it is incremented once per comparator call.
  bool SortDocumentOrderAndDedup(size_t* compare_count = nullptr);

  // Provenance: the shared immutable object whose items this sequence holds
  // verbatim, in the same order -- set by the evaluator on a copy of an
  // interned node set, so `$v[@a = E]` over a variable bound to one can
  // probe that set's attribute-value index instead of scanning. Copies and
  // moves carry it; every mutation that could change the contents drops it.
  // Null (the default) for every other sequence, which pays nothing else.
  const std::shared_ptr<const SequenceSource>& source() const {
    return source_;
  }
  void set_source(std::shared_ptr<const SequenceSource> source) {
    source_ = std::move(source);
  }

  // fn:data(): atomizes every item.
  Sequence Atomized() const;

  // Space-joined string forms -- handy for diagnostics and fn:string-join-ish
  // test assertions.
  std::string DebugString() const;

 private:
  std::vector<Item> items_;
  bool ordered_deduped_ = false;
  std::shared_ptr<const SequenceSource> source_;
};

// The effective boolean value (XPath 2.0 rules): empty -> false; first item a
// node -> true; singleton boolean/number/string by value; any other
// many-item sequence is a type error (err:FORG0006).
Result<bool> EffectiveBooleanValue(const Sequence& seq);

// Requires a sequence of exactly one item (the paper's "singleton" contract).
Result<Item> RequireSingleton(const Sequence& seq, const char* what);

// Empty-or-one: empty gives nullopt-like empty Sequence semantics; used for
// optional arguments.
Result<Sequence> RequireAtMostOne(const Sequence& seq, const char* what);

}  // namespace lll::xdm

#endif  // LLL_XDM_SEQUENCE_H_
