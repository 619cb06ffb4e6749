#ifndef LLL_XQUERY_OPTIMIZER_H_
#define LLL_XQUERY_OPTIMIZER_H_

#include <functional>
#include <string>
#include <vector>

#include "xquery/ast.h"

namespace lll::xq {

// Optimizer switches. The default configuration deliberately reproduces the
// Galax-era behavior the paper fought with: dead-code analysis is ON and
// fn:trace is NOT recognized as impure, so
//
//     let $dummy := trace("x=", $x)
//
// introduces a dead variable that is "helpfully optimized away -- along with
// the call to trace". Setting recognize_trace = true models "the optimizer
// would be fixed to recognize trace in the next version".
struct OptimizerOptions {
  bool constant_folding = true;
  bool dead_let_elimination = true;
  bool recognize_trace = false;
  // Order analysis: annotate path steps whose results are provably in
  // document order under step-wise evaluation (forward axes from a singleton
  // or ordered-disjoint input), so the evaluator can skip the normalizing
  // sort the flat XDM otherwise forces after every step.
  bool order_analysis = true;
  // Limit push-down: annotate paths consumed by a statically limited
  // consumer (fn:head, fn:subsequence with literal start/length, a
  // positional `for $x at $p in PATH` immediately guarded by `where $p le
  // N`, and let-bound paths used exactly once in such a position) with
  // Expr::limit_hint, so the streaming evaluator stops pulling after the
  // first N nodes. Conservative: hints never cross an expression boundary
  // whose consumer could observe more than the prefix. The materializing
  // evaluator ignores hints entirely.
  bool limit_pushdown = true;
};

// One rewrite decision, recorded for EXPLAIN. Where the rewrite deleted
// code (dead lets, swallowed trace calls) the note is the only remaining
// evidence it ever existed -- which is exactly what the paper's users were
// missing when their trace output silently vanished.
struct RewriteNote {
  enum class Kind {
    kConstantFolded,     // subtree replaced by its literal value
    kDeadLetEliminated,  // unused pure let binding removed
    kTraceSwallowed,     // a trace() call went down with a dead let
    kOrderedStep,        // order analysis proved a step sort-free
    kLimitPushed,        // a consumer's prefix demand annotated onto a path
  };
  Kind kind;
  std::string detail;  // human-readable: what, and what it became
  size_t line = 0;     // source position of the rewritten expression
  size_t col = 0;
};

const char* RewriteNoteKindName(RewriteNote::Kind kind);

struct OptimizerStats {
  size_t folded_constants = 0;
  size_t eliminated_lets = 0;
  // trace() calls that were inside eliminated lets -- the paper's pathology,
  // counted so E6 can report exactly how many trace outputs were swallowed.
  size_t eliminated_trace_calls = 0;
  // Path steps proven order-preserving by the order analysis.
  size_t ordered_steps_annotated = 0;
  // Paths annotated with a consumer's prefix demand (Expr::limit_hint).
  size_t limits_pushed = 0;
  // Every individual rewrite decision, in application order.
  std::vector<RewriteNote> notes;
};

// Optimizes the module in place.
OptimizerStats Optimize(Module* module, const OptimizerOptions& options);

// True if evaluating `e` can have an observable effect besides its value
// (under the given trace policy). Used by dead-let elimination.
bool IsPure(const Expr& e, const Module& module, bool recognize_trace);

// Number of times $name is referenced in `e`, respecting shadowing.
size_t CountVariableUses(const Expr& e, const std::string& name);

// Number of fn:trace calls in the tree.
size_t CountTraceCalls(const Expr& e);

// The order-analysis pass, run by Optimize() when order_analysis is on.
// Annotates PathStep::statically_ordered throughout `e` and returns the
// static order property of e's own result. `annotated` (optional) counts the
// steps proven ordered. Conservative: only sources whose cardinality is
// statically known (context item, rooted paths, literals, constructors,
// fn:doc/fn:root calls, let-only FLWORs, if/else joins) seed the proof;
// everything else starts at kNone and the evaluator's dynamic tracking picks
// up the slack at run time.
OrderProp AnalyzeOrder(Expr* e, const Module& module, size_t* annotated);

// --- Node-set intern predicate folding --------------------------------------
//
// Resolver for "is (name, arity) a user-defined function in scope?", the
// hook the predicate analyses below resolve calls through.
using UserFunctionLookup =
    std::function<bool(const std::string& name, size_t arity)>;

// The lookup over `module`'s declarations, shared by the optimizer, the bind
// pass and the evaluator so their verdicts cannot drift. Borrows `module`.
UserFunctionLookup ModuleFunctionLookup(const Module& module);

// True if `pred` may be folded into a node-set intern fingerprint: its value
// for a given candidate node is a pure function of the tree alone. That
// requires all of (DESIGN.md section 14):
//
//   - provably boolean-valued at the top level (comparisons, and/or,
//     not/exists/empty/boolean calls) or a node-path shape whose effective
//     boolean value is "any nodes?" -- NEVER a possibly-numeric expression,
//     which XPath predicate semantics would turn into a position test;
//   - no position()/last()/variables/dynamic context: the whitelisted
//     builtins are pure functions of their arguments and the context ITEM;
//   - no observable effects (fn:trace/fn:error -- the trace-parity rule) and
//     no user-defined or unknown functions, which may hide either;
//   - only downward-reading subexpressions: relative non-rooted paths over
//     child/attribute/descendant(-or-self)/self axes, so everything the
//     predicate can see lies beneath the candidate and is covered by the
//     entry's subtree guards.
bool InternFoldablePredicate(const Expr& pred,
                             const UserFunctionLookup& is_user_function);

// True if `pred` is additionally an ATTRIBUTE-ONLY foldable predicate: every
// path subexpression is a single attribute-axis step (e.g. `[@id = "x"]`
// and and/or combinations). This is the class the cache may resolve through
// when anchoring guards below a step -- the candidates' attribute state is
// exactly what a kLocalChildren guard on their parent watches.
bool InternAttributeOnlyPredicate(const Expr& pred,
                                  const UserFunctionLookup& is_user_function);

// --- Attribute-value probes -------------------------------------------------
//
// The operands of a probe-shaped predicate: a general `=` comparison with a
// bare attribute step `@a` (attribute axis, name test, no predicates) on
// either side. Shape only: sets *attr_name to a and *value to the other
// operand.
bool ProbeOperands(const Expr& pred, const std::string** attr_name,
                   const Expr** value);

// True if `pred` has the probe shape and its value operand E never observes
// the focus or has an effect, so one evaluation of E serves every candidate
// (DESIGN.md section 14): no `.`, no relative or rooted path (paths off a
// base expression are fine, their steps get a focus of their own), no
// position()/last() or other focus-reading zero-argument builtin, no
// fn:trace/fn:error, no user-defined or unknown function, no constructor.
bool ProbePredicate(const Expr& pred,
                    const UserFunctionLookup& is_user_function);

// True if `pred` can never act as a position test: its top level is
// provably boolean-valued (a comparison, and/or, a boolean builtin, or a
// relative node path) and nothing at its focus level calls position() or
// last(). Such predicates keep the same candidates whether positions count
// per context node or across the union of all contexts -- the condition
// under which a probe may answer an axis step over its whole interned set.
bool NonPositionalPredicate(const Expr& pred,
                            const UserFunctionLookup& is_user_function);

}  // namespace lll::xq

#endif  // LLL_XQUERY_OPTIMIZER_H_
