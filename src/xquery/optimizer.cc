#include "xquery/optimizer.h"

#include <functional>

#include "core/string_util.h"
#include "xquery/eval.h"

namespace lll::xq {

namespace {

// Visits every subexpression of `e` (including predicates, clauses,
// constructor parts) except function bodies.
void ForEachChild(const Expr& e, const std::function<void(const Expr&)>& fn) {
  for (const ExprPtr& c : e.children) fn(*c);
  for (const PathStep& s : e.steps) {
    for (const ExprPtr& p : s.predicates) fn(*p);
  }
  for (const FlworClause& c : e.clauses) fn(*c.expr);
  for (const OrderSpec& o : e.order_by) fn(*o.key);
  for (const DirectAttribute& a : e.attributes) {
    for (const ExprPtr& p : a.value_parts) fn(*p);
  }
}

bool IsTraceCall(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall &&
         (e.name == "trace" || e.name == "fn:trace");
}

bool IsErrorCall(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall &&
         (e.name == "error" || e.name == "fn:error");
}

// Collects pointers to every trace() call in the tree, for the swallowed-
// trace rewrite notes (the count alone can't say WHERE the calls were).
void CollectTraceCalls(const Expr& e, std::vector<const Expr*>* out) {
  if (IsTraceCall(e)) out->push_back(&e);
  ForEachChild(e, [out](const Expr& c) { CollectTraceCalls(c, out); });
}

// A numeric literal usable as a static subsequence bound. Negative literals
// parse as kUnary and are (conservatively) not recognized.
bool NumericLiteral(const Expr& e, double* value) {
  if (e.kind != ExprKind::kLiteral) return false;
  switch (e.literal_type) {
    case Expr::LiteralType::kInteger:
      *value = static_cast<double>(e.integer);
      return true;
    case Expr::LiteralType::kDouble:
      *value = e.number;
      return true;
    default:
      return false;
  }
}

std::string DescribeStep(const PathStep& step) {
  std::string out = AxisName(step.axis);
  out += "::";
  switch (step.test.kind) {
    case NodeTestKind::kName:
      out += step.test.name;
      break;
    case NodeTestKind::kAnyName:
      out += "*";
      break;
    case NodeTestKind::kText:
      out += "text()";
      break;
    case NodeTestKind::kComment:
      out += "comment()";
      break;
    case NodeTestKind::kPi:
      out += "processing-instruction()";
      break;
    case NodeTestKind::kAnyNode:
      out += "node()";
      break;
  }
  return out;
}

}  // namespace

const char* RewriteNoteKindName(RewriteNote::Kind kind) {
  switch (kind) {
    case RewriteNote::Kind::kConstantFolded:
      return "constant-folded";
    case RewriteNote::Kind::kDeadLetEliminated:
      return "dead-let-eliminated";
    case RewriteNote::Kind::kTraceSwallowed:
      return "trace-swallowed";
    case RewriteNote::Kind::kOrderedStep:
      return "ordered-step";
    case RewriteNote::Kind::kLimitPushed:
      return "limit-pushed";
  }
  return "unknown";
}

size_t CountTraceCalls(const Expr& e) {
  size_t n = IsTraceCall(e) ? 1 : 0;
  ForEachChild(e, [&n](const Expr& c) { n += CountTraceCalls(c); });
  return n;
}

size_t CountVariableUses(const Expr& e, const std::string& name) {
  if (e.kind == ExprKind::kVarRef) return e.name == name ? 1 : 0;
  if (e.kind == ExprKind::kQuantified) {
    size_t n = CountVariableUses(*e.children[0], name);
    if (e.name != name) n += CountVariableUses(*e.children[1], name);
    return n;
  }
  if (e.kind == ExprKind::kFlwor) {
    size_t n = 0;
    bool shadowed = false;
    for (const FlworClause& c : e.clauses) {
      if (shadowed) break;
      n += CountVariableUses(*c.expr, name);
      if (c.kind != FlworClause::Kind::kWhere &&
          (c.var == name || c.pos_var == name)) {
        shadowed = true;
      }
    }
    if (!shadowed) {
      for (const OrderSpec& o : e.order_by) {
        n += CountVariableUses(*o.key, name);
      }
      n += CountVariableUses(*e.children[0], name);
    }
    return n;
  }
  size_t n = 0;
  ForEachChild(e, [&](const Expr& c) { n += CountVariableUses(c, name); });
  return n;
}

namespace {

// Purity with a memo over user-defined functions; recursive functions are
// treated optimistically (pure unless their body shows otherwise), which is
// what an aggressive query optimizer does.
struct PurityAnalyzer {
  const Module& module;
  bool recognize_trace;
  std::map<std::string, int> function_state;  // 0=analyzing, 1=pure, 2=impure

  bool Pure(const Expr& e) {
    if (IsErrorCall(e)) return false;  // eliminating error() changes outcomes
    if (IsTraceCall(e)) {
      if (recognize_trace) return false;  // the "fixed" optimizer
      // Galax-era behavior: trace looks pure, so a dead let swallows it.
    }
    if (e.kind == ExprKind::kFunctionCall && !IsTraceCall(e)) {
      std::string name = e.name;
      if (StartsWith(name, "fn:")) name = name.substr(3);
      bool builtin = IsBuiltinName(e.name) || IsBuiltinName(name);
      if (!builtin) {
        const FunctionDecl* decl = nullptr;
        for (const FunctionDecl& fn : module.functions) {
          if (fn.name == e.name && fn.params.size() == e.children.size()) {
            decl = &fn;
            break;
          }
        }
        if (decl == nullptr) return false;  // unknown callee: assume impure
        auto [it, inserted] = function_state.try_emplace(decl->name, 0);
        if (inserted) {
          bool body_pure = Pure(*decl->body);
          it = function_state.find(decl->name);
          it->second = body_pure ? 1 : 2;
        }
        if (it->second == 2) return false;
        // state 0 (self-recursive) or 1: treat as pure.
      }
    }
    bool pure = true;
    ForEachChild(e, [&](const Expr& c) {
      if (pure && !Pure(c)) pure = false;
    });
    return pure;
  }
};

struct Rewriter {
  const Module& module;
  const OptimizerOptions& options;
  OptimizerStats stats;
  PurityAnalyzer purity;

  explicit Rewriter(const Module& m, const OptimizerOptions& opts)
      : module(m), options(opts), purity{m, opts.recognize_trace, {}} {}

  void Rewrite(Expr* e) {
    // Bottom-up: rewrite children first.
    for (ExprPtr& c : e->children) Rewrite(c.get());
    for (PathStep& s : e->steps) {
      for (ExprPtr& p : s.predicates) Rewrite(p.get());
    }
    for (FlworClause& c : e->clauses) Rewrite(c.expr.get());
    for (OrderSpec& o : e->order_by) Rewrite(o.key.get());
    for (DirectAttribute& a : e->attributes) {
      for (ExprPtr& p : a.value_parts) Rewrite(p.get());
    }

    if (options.dead_let_elimination && e->kind == ExprKind::kFlwor) {
      EliminateDeadLets(e);
    }
    if (options.constant_folding) FoldConstants(e);
    if (options.limit_pushdown) PushLimits(e);
  }

  // --- Limit push-down ------------------------------------------------------
  //
  // Annotates path expressions with the prefix demand of a statically
  // limited consumer (Expr::limit_hint). Sound because the streaming
  // evaluator produces exactly the first `hint` items of the full result
  // (and falls back to the FULL result when the chain cannot stream), and
  // because each recognized consumer provably never observes anything past
  // that prefix. Conservative by design: only literal bounds, only direct
  // consumer positions, no propagation through arbitrary expressions.

  // Resolves `e` as a call to the builtin `want` (bare or fn:-prefixed) that
  // is not shadowed by a user-declared function of the same name and arity.
  bool IsUnshadowedBuiltin(const Expr& e, const char* want) const {
    if (e.kind != ExprKind::kFunctionCall) return false;
    std::string name = e.name;
    if (StartsWith(name, "fn:")) name = name.substr(3);
    if (name != want) return false;
    for (const FunctionDecl& fn : module.functions) {
      if ((fn.name == e.name || fn.name == name) &&
          fn.params.size() == e.children.size()) {
        return false;  // a user function shadows the builtin
      }
    }
    return true;
  }

  // The prefix demand a call places on its first (sequence) argument: 1 for
  // fn:head, the window end for fn:subsequence with literal start/length
  // (via the same SubsequenceWindow normalization the builtin uses, so
  // pushed and unpushed plans select identical items), 0 for anything else.
  size_t ConsumerDemand(const Expr& call) const {
    if (call.children.size() == 1 && IsUnshadowedBuiltin(call, "head")) {
      return 1;
    }
    if (call.children.size() == 3 &&
        IsUnshadowedBuiltin(call, "subsequence")) {
      double start, len;
      if (!NumericLiteral(*call.children[1], &start) ||
          !NumericLiteral(*call.children[2], &len)) {
        return 0;
      }
      double lo, hi;
      if (!SubsequenceWindow(start, len, /*has_length=*/true, &lo, &hi)) {
        return 0;  // statically empty; nothing worth annotating
      }
      // Selected positions satisfy p < hi, so the first hi-1 items suffice
      // regardless of lo. Unbounded or out-of-range windows are not pushed.
      double need = hi - 1;
      if (!(need >= 1) || need > 1e15) return 0;
      return static_cast<size_t>(need);
    }
    return 0;
  }

  // A where-condition that caps position variable $pos_var at N for every
  // passing tuple: `$p le N` / `$p lt N` / `$p eq N` (value or general
  // form) with an integer literal bound. Returns 0 when nothing is proven.
  size_t PositionBound(const Expr& w, const std::string& pos_var) const {
    if (w.kind != ExprKind::kBinary || w.children.size() != 2) return 0;
    const Expr& l = *w.children[0];
    const Expr& r = *w.children[1];
    if (l.kind != ExprKind::kVarRef || l.name != pos_var) return 0;
    if (r.kind != ExprKind::kLiteral ||
        r.literal_type != Expr::LiteralType::kInteger) {
      return 0;
    }
    int64_t n = r.integer;
    switch (w.op) {
      case BinOp::kValLe:
      case BinOp::kGenLe:
      case BinOp::kValEq:
      case BinOp::kGenEq:
        return n >= 1 ? static_cast<size_t>(n) : 0;
      case BinOp::kValLt:
      case BinOp::kGenLt:
        return n >= 2 ? static_cast<size_t>(n - 1) : 0;
      default:
        return 0;
    }
  }

  // Finds the demand of the one unshadowed use of $var in `e`, but only if
  // that use sits directly in a limited consumer's sequence slot. Traversal
  // mirrors CountVariableUses' shadowing rules, so a same-named binding
  // deeper in never matches. Callers must have established uses == 1.
  size_t SoleUseDemand(const Expr& e, const std::string& var) const {
    if (e.kind == ExprKind::kFunctionCall) {
      size_t demand = ConsumerDemand(e);
      if (demand > 0 && !e.children.empty() &&
          e.children[0]->kind == ExprKind::kVarRef &&
          e.children[0]->name == var) {
        return demand;
      }
    }
    if (e.kind == ExprKind::kQuantified) {
      size_t d = SoleUseDemand(*e.children[0], var);
      if (d == 0 && e.name != var) d = SoleUseDemand(*e.children[1], var);
      return d;
    }
    if (e.kind == ExprKind::kFlwor) {
      for (const FlworClause& c : e.clauses) {
        size_t d = SoleUseDemand(*c.expr, var);
        if (d > 0) return d;
        if (c.kind != FlworClause::Kind::kWhere &&
            (c.var == var || c.pos_var == var)) {
          return 0;  // rebound: later references are a different variable
        }
      }
      for (const OrderSpec& o : e.order_by) {
        size_t d = SoleUseDemand(*o.key, var);
        if (d > 0) return d;
      }
      return SoleUseDemand(*e.children[0], var);
    }
    size_t found = 0;
    ForEachChild(e, [&](const Expr& c) {
      if (found == 0) found = SoleUseDemand(c, var);
    });
    return found;
  }

  void ApplyHint(Expr* path, size_t demand, std::string why, size_t line,
                 size_t col) {
    if (path->limit_hint == 0 || demand < path->limit_hint) {
      path->limit_hint = demand;
    }
    path->statically_limit_pushable = true;
    ++stats.limits_pushed;
    stats.notes.push_back(
        {RewriteNote::Kind::kLimitPushed, std::move(why), line, col});
  }

  void PushLimits(Expr* e) {
    if (e->kind == ExprKind::kFunctionCall) {
      size_t demand = ConsumerDemand(*e);
      if (demand > 0 && !e->children.empty() &&
          e->children[0]->kind == ExprKind::kPath) {
        ApplyHint(e->children[0].get(), demand,
                  e->name + "() observes at most the first " +
                      std::to_string(demand) +
                      " item(s) of its path argument; limit pushed",
                  e->line, e->col);
      }
      return;
    }
    if (e->kind != ExprKind::kFlwor) return;
    // Positional for guarded by an IMMEDIATELY following where on the
    // position variable: tuples past the bound are filtered before any
    // other clause can observe them (an intervening clause might error or
    // trace on a tuple the push-down would never produce).
    for (size_t i = 0; i + 1 < e->clauses.size(); ++i) {
      FlworClause& c = e->clauses[i];
      if (c.kind != FlworClause::Kind::kFor || c.pos_var.empty()) continue;
      if (c.expr->kind != ExprKind::kPath) continue;
      const FlworClause& next = e->clauses[i + 1];
      if (next.kind != FlworClause::Kind::kWhere) continue;
      size_t bound = PositionBound(*next.expr, c.pos_var);
      if (bound > 0) {
        ApplyHint(c.expr.get(), bound,
                  "where $" + c.pos_var + " caps the positional for at " +
                      std::to_string(bound) + " tuple(s); limit pushed",
                  c.expr->line, c.expr->col);
      }
    }
    // A let-bound path consumed exactly once, directly by a limited
    // consumer: binding only the demanded prefix is unobservable.
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      FlworClause& c = e->clauses[i];
      if (c.kind != FlworClause::Kind::kLet) continue;
      if (c.expr->kind != ExprKind::kPath) continue;
      size_t uses = 0;
      bool shadowed = false;
      for (size_t j = i + 1; j < e->clauses.size() && !shadowed; ++j) {
        uses += CountVariableUses(*e->clauses[j].expr, c.var);
        if (e->clauses[j].kind != FlworClause::Kind::kWhere &&
            (e->clauses[j].var == c.var ||
             e->clauses[j].pos_var == c.var)) {
          shadowed = true;
        }
      }
      if (!shadowed) {
        for (const OrderSpec& o : e->order_by) {
          uses += CountVariableUses(*o.key, c.var);
        }
        uses += CountVariableUses(*e->children[0], c.var);
      }
      if (uses != 1) continue;
      size_t demand = 0;
      for (size_t j = i + 1; j < e->clauses.size() && demand == 0; ++j) {
        demand = SoleUseDemand(*e->clauses[j].expr, c.var);
        if (e->clauses[j].kind != FlworClause::Kind::kWhere &&
            (e->clauses[j].var == c.var ||
             e->clauses[j].pos_var == c.var)) {
          break;  // rebound; stop searching like the use count did
        }
      }
      if (demand == 0 && !shadowed) {
        for (size_t k = 0; k < e->order_by.size() && demand == 0; ++k) {
          demand = SoleUseDemand(*e->order_by[k].key, c.var);
        }
        if (demand == 0) demand = SoleUseDemand(*e->children[0], c.var);
      }
      if (demand > 0) {
        ApplyHint(c.expr.get(), demand,
                  "let $" + c.var + " is consumed once, by a consumer that " +
                      "observes at most " + std::to_string(demand) +
                      " item(s); limit pushed",
                  c.expr->line, c.expr->col);
      }
    }
  }

  // Scans a FLWOR for `let $v := E` clauses where $v is unused downstream
  // and E is pure, and deletes them. Runs to a local fixpoint.
  void EliminateDeadLets(Expr* flwor) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < flwor->clauses.size(); ++i) {
        const FlworClause& clause = flwor->clauses[i];
        if (clause.kind != FlworClause::Kind::kLet) continue;
        size_t uses = 0;
        bool shadowed = false;
        for (size_t j = i + 1; j < flwor->clauses.size() && !shadowed; ++j) {
          uses += CountVariableUses(*flwor->clauses[j].expr, clause.var);
          if (flwor->clauses[j].kind != FlworClause::Kind::kWhere &&
              (flwor->clauses[j].var == clause.var ||
               flwor->clauses[j].pos_var == clause.var)) {
            shadowed = true;
          }
        }
        if (!shadowed) {
          for (const OrderSpec& o : flwor->order_by) {
            uses += CountVariableUses(*o.key, clause.var);
          }
          uses += CountVariableUses(*flwor->children[0], clause.var);
        }
        if (uses != 0) continue;
        if (!purity.Pure(*clause.expr)) continue;
        std::vector<const Expr*> traces;
        CollectTraceCalls(*clause.expr, &traces);
        stats.eliminated_trace_calls += traces.size();
        ++stats.eliminated_lets;
        stats.notes.push_back(
            {RewriteNote::Kind::kDeadLetEliminated,
             "let $" + clause.var + " := ... is unused and pure; removed",
             clause.expr->line, clause.expr->col});
        for (const Expr* t : traces) {
          stats.notes.push_back(
              {RewriteNote::Kind::kTraceSwallowed,
               "trace() inside dead let $" + clause.var +
                   " was deleted with it; its output will never appear",
               t->line, t->col});
        }
        flwor->clauses.erase(flwor->clauses.begin() +
                             static_cast<ptrdiff_t>(i));
        changed = true;
        break;
      }
    }
    // A FLWOR whose every clause was eliminated degenerates to its return
    // expression.
    if (flwor->clauses.empty() && flwor->order_by.empty()) {
      ExprPtr body = std::move(flwor->children[0]);
      *flwor = std::move(*body);
    }
  }

  void FoldConstants(Expr* e) {
    if (e->kind != ExprKind::kBinary) return;
    if (e->children.size() != 2) return;
    const Expr& a = *e->children[0];
    const Expr& b = *e->children[1];
    if (a.kind != ExprKind::kLiteral || b.kind != ExprKind::kLiteral) return;
    if (a.literal_type != Expr::LiteralType::kInteger ||
        b.literal_type != Expr::LiteralType::kInteger) {
      return;
    }
    int64_t x = a.integer;
    int64_t y = b.integer;
    int64_t value = 0;
    switch (e->op) {
      case BinOp::kAdd:
        value = x + y;
        break;
      case BinOp::kSub:
        value = x - y;
        break;
      case BinOp::kMul:
        value = x * y;
        break;
      case BinOp::kIdiv:
        if (y == 0) return;  // leave the runtime error in place
        value = x / y;
        break;
      case BinOp::kMod:
        if (y == 0) return;
        value = x % y;
        break;
      default:
        return;
    }
    Expr folded(ExprKind::kLiteral);
    folded.literal_type = Expr::LiteralType::kInteger;
    folded.integer = value;
    folded.line = e->line;
    folded.col = e->col;
    stats.notes.push_back({RewriteNote::Kind::kConstantFolded,
                           std::to_string(x) + " " + BinOpName(e->op) + " " +
                               std::to_string(y) + " folded to " +
                               std::to_string(value),
                           e->line, e->col});
    *e = std::move(folded);
    ++stats.folded_constants;
  }
};

// --- Order analysis ---------------------------------------------------------

// True if a call to `name` with `arity` args resolves to a builtin whose
// result is at most one item. A user-defined function of the same name/arity
// shadows the builtin in EvalFunctionCall, so it must not exist.
bool IsSingletonBuiltin(const Expr& e, const Module& module) {
  std::string name = e.name;
  if (StartsWith(name, "fn:")) name = name.substr(3);
  if (name != "doc" && name != "root" && name != "exactly-one" &&
      name != "zero-or-one") {
    return false;
  }
  for (const FunctionDecl& fn : module.functions) {
    if ((fn.name == e.name || fn.name == name) &&
        fn.params.size() == e.children.size()) {
      return false;  // shadowed by a user function of unknown cardinality
    }
  }
  return true;
}

struct OrderAnalyzer {
  const Module& module;
  size_t annotated = 0;
  std::vector<RewriteNote>* notes = nullptr;  // optional EXPLAIN feed

  OrderProp Analyze(Expr* e) {
    switch (e->kind) {
      case ExprKind::kLiteral:
      case ExprKind::kTextLiteral:
      case ExprKind::kEmptySequence:
      case ExprKind::kContextItem:
        // The focus is a single item by definition; literals are singletons.
        return OrderProp::kSingleton;
      case ExprKind::kPath:
        return AnalyzePath(e);
      case ExprKind::kSequence: {
        if (e->children.size() == 1) return Analyze(e->children[0].get());
        for (ExprPtr& c : e->children) Analyze(c.get());
        return OrderProp::kNone;
      }
      case ExprKind::kIf: {
        Analyze(e->children[0].get());
        OrderProp then_prop = Analyze(e->children[1].get());
        OrderProp else_prop = Analyze(e->children[2].get());
        return MeetOrder(then_prop, else_prop);
      }
      case ExprKind::kTryCatch: {
        OrderProp body = Analyze(e->children[0].get());
        OrderProp handler = Analyze(e->children[1].get());
        return MeetOrder(body, handler);
      }
      case ExprKind::kFlwor: {
        bool iterates = false;
        for (FlworClause& c : e->clauses) {
          Analyze(c.expr.get());
          if (c.kind == FlworClause::Kind::kFor) iterates = true;
        }
        for (OrderSpec& o : e->order_by) Analyze(o.key.get());
        OrderProp body = Analyze(e->children[0].get());
        // A let/where-only FLWOR evaluates its return at most once, so the
        // body's property survives; a for-loop concatenates tuples.
        if (!iterates && e->order_by.empty()) return body;
        return OrderProp::kNone;
      }
      case ExprKind::kFunctionCall: {
        for (ExprPtr& c : e->children) Analyze(c.get());
        return IsSingletonBuiltin(*e, module) ? OrderProp::kSingleton
                                              : OrderProp::kNone;
      }
      case ExprKind::kBinary: {
        Analyze(e->children[0].get());
        Analyze(e->children[1].get());
        switch (e->op) {
          case BinOp::kUnion:
          case BinOp::kIntersect:
          case BinOp::kExcept:
            // The evaluator normalizes set-operator results.
            return OrderProp::kOrdered;
          case BinOp::kTo:
            return OrderProp::kNone;  // many atomics; node order is moot
          default:
            return OrderProp::kSingleton;  // comparisons/arithmetic: <= 1 item
        }
      }
      case ExprKind::kUnary:
      case ExprKind::kQuantified:
      case ExprKind::kCastAs:
      case ExprKind::kCastableAs:
      case ExprKind::kInstanceOf:
      case ExprKind::kDirectElement:
      case ExprKind::kCompElement:
      case ExprKind::kCompAttribute:
      case ExprKind::kCompText:
      case ExprKind::kCompComment:
      case ExprKind::kCompDocument: {
        for (ExprPtr& c : e->children) Analyze(c.get());
        for (DirectAttribute& a : e->attributes) {
          for (ExprPtr& p : a.value_parts) Analyze(p.get());
        }
        return OrderProp::kSingleton;
      }
      case ExprKind::kVarRef:
        // No environment tracking; the evaluator's dynamic ordered_deduped
        // bit covers variables bound to already-normalized sequences.
        return OrderProp::kNone;
    }
    return OrderProp::kNone;
  }

  OrderProp AnalyzePath(Expr* e) {
    OrderProp prop;
    if (e->has_base) {
      prop = Analyze(e->children[0].get());
    } else {
      // Rooted paths start at the context root; relative paths start at the
      // focus item. Either way: one node.
      prop = OrderProp::kSingleton;
    }
    // Interning applies to the leading predicate-free chain of a path whose
    // base is a lone document node: the rooted form, or fn:doc(...).
    bool internable =
        (!e->has_base && e->rooted) ||
        (e->has_base && e->children[0]->kind == ExprKind::kFunctionCall &&
         (e->children[0]->name == "doc" || e->children[0]->name == "fn:doc"));
    const UserFunctionLookup is_user = ModuleFunctionLookup(module);
    for (size_t i = 0; i < e->steps.size(); ++i) {
      PathStep& step = e->steps[i];
      for (ExprPtr& p : step.predicates) Analyze(p.get());
      if (step.is_filter) {
        // `$v[@a = E]`: the variable may hold an interned node set; the
        // evaluator checks that per call.
        step.statically_probeable =
            i == 0 && e->has_base &&
            e->children[0]->kind == ExprKind::kVarRef &&
            ProbePredicate(*step.predicates[0], is_user);
        internable = false;
        continue;  // a subset preserves every property
      }
      // Advisory interning annotation (rendered by EXPLAIN); the bind pass
      // computes the chain the evaluator uses (Expr::intern_prefix).
      // Predicate-free steps intern outright; steps whose predicates are
      // all intern-foldable (pure functions of the tree, folded into the
      // fingerprint) keep the chain going too.
      // The first step that breaks the chain may still hang off it as a
      // probe: its axis and name test intern with the prefix, its first
      // predicate `@a = E` becomes a lookup in that set.
      if (internable && !step.predicates.empty()) {
        for (const ExprPtr& p : step.predicates) {
          if (!InternFoldablePredicate(*p, is_user)) {
            internable = false;
            break;
          }
        }
        step.statically_probeable =
            !internable &&
            (step.axis == Axis::kChild || step.axis == Axis::kDescendant) &&
            (step.test.kind == NodeTestKind::kName ||
             step.test.kind == NodeTestKind::kAnyName) &&
            ProbePredicate(*step.predicates[0], is_user);
      }
      step.statically_internable = internable;
      prop = TransferOrder(prop, step.axis);
      step.statically_ordered = prop != OrderProp::kNone;
      if (step.statically_ordered) {
        ++annotated;
        if (notes != nullptr) {
          notes->push_back({RewriteNote::Kind::kOrderedStep,
                            "step " + DescribeStep(step) +
                                " proven document-ordered; normalizing sort "
                                "skipped",
                            e->line, e->col});
        }
      }
    }
    return prop;
  }
};

}  // namespace

OrderProp AnalyzeOrder(Expr* e, const Module& module, size_t* annotated) {
  OrderAnalyzer analyzer{module};
  OrderProp prop = analyzer.Analyze(e);
  if (annotated != nullptr) *annotated += analyzer.annotated;
  return prop;
}

namespace {

void AnalyzeOrderNoted(Expr* e, const Module& module, OptimizerStats* stats) {
  OrderAnalyzer analyzer{module, 0, &stats->notes};
  analyzer.Analyze(e);
  stats->ordered_steps_annotated += analyzer.annotated;
}

}  // namespace

bool IsPure(const Expr& e, const Module& module, bool recognize_trace) {
  PurityAnalyzer analyzer{module, recognize_trace, {}};
  return analyzer.Pure(e);
}

OptimizerStats Optimize(Module* module, const OptimizerOptions& options) {
  Rewriter rewriter(*module, options);
  for (FunctionDecl& fn : module->functions) {
    rewriter.Rewrite(fn.body.get());
  }
  for (VariableDecl& var : module->variables) {
    rewriter.Rewrite(var.expr.get());
  }
  rewriter.Rewrite(module->body.get());
  if (options.order_analysis) {
    // After rewriting: dead-let elimination can degenerate FLWORs into their
    // bodies, which makes more paths statically analyzable.
    for (FunctionDecl& fn : module->functions) {
      AnalyzeOrderNoted(fn.body.get(), *module, &rewriter.stats);
    }
    for (VariableDecl& var : module->variables) {
      AnalyzeOrderNoted(var.expr.get(), *module, &rewriter.stats);
    }
    AnalyzeOrderNoted(module->body.get(), *module, &rewriter.stats);
  }
  return rewriter.stats;
}

// --- Node-set intern predicate folding --------------------------------------

UserFunctionLookup ModuleFunctionLookup(const Module& module) {
  return [&module](const std::string& name, size_t arity) {
    for (const FunctionDecl& fn : module.functions) {
      if (fn.name == name && fn.params.size() == arity) return true;
    }
    return false;
  };
}

namespace {

// Pure value builtins a foldable predicate may call: functions of their
// arguments and the context ITEM only -- nothing that observes position(),
// last(), variables, the dynamic context, or has effects. Note the absence
// of position/last (focus-dependent), trace/error (trace-parity rule),
// doc/collection (reach outside the candidate subtree), and generate-id
// (identity-dependent across documents).
bool IsInternFoldableBuiltin(const std::string& stripped) {
  static const char* const kAllowed[] = {
      "abs",        "avg",           "boolean",          "ceiling",
      "concat",     "contains",      "count",            "data",
      "empty",      "ends-with",     "exists",           "false",
      "floor",      "local-name",    "lower-case",       "max",
      "min",        "name",          "normalize-space",  "not",
      "number",     "round",         "starts-with",      "string",
      "string-join", "string-length", "substring",
      "substring-after", "substring-before", "sum", "translate",
      "true",       "upper-case",
  };
  for (const char* name : kAllowed) {
    if (stripped == name) return true;
  }
  return false;
}

// The boolean-valued builtins among the above, acceptable as a predicate's
// TOP-LEVEL expression. The distinction matters because XPath predicate
// semantics treat a numeric predicate value as a position test: folding
// `[count(c)]` would freeze a position-dependent selection, while
// `[exists(c)]` is a pure tree function.
bool IsInternBooleanBuiltin(const std::string& stripped) {
  return stripped == "not" || stripped == "exists" || stripped == "empty" ||
         stripped == "boolean" || stripped == "contains" ||
         stripped == "starts-with" || stripped == "ends-with" ||
         stripped == "true" || stripped == "false";
}

struct FoldScanner {
  const UserFunctionLookup& is_user_function;
  // Attribute-only mode: every path must be a single attribute-axis step.
  bool attr_only = false;

  bool UserOrUnknown(const Expr& e) const {
    std::string stripped = e.name;
    if (StartsWith(stripped, "fn:")) stripped = stripped.substr(3);
    size_t arity = e.children.size();
    if (is_user_function != nullptr &&
        (is_user_function(e.name, arity) ||
         is_user_function(stripped, arity))) {
      return true;
    }
    return !IsBuiltinName(stripped);
  }

  static std::string Stripped(const Expr& e) {
    std::string stripped = e.name;
    if (StartsWith(stripped, "fn:")) stripped = stripped.substr(3);
    return stripped;
  }

  bool FoldablePath(const Expr& e) const {
    if (e.rooted || e.has_base) return false;  // must start at the candidate
    if (e.steps.empty()) return false;
    if (attr_only) {
      if (e.steps.size() != 1) return false;
      const PathStep& s = e.steps[0];
      return !s.is_filter && s.axis == Axis::kAttribute &&
             s.predicates.empty() &&
             (s.test.kind == NodeTestKind::kName ||
              s.test.kind == NodeTestKind::kAnyName);
    }
    for (const PathStep& s : e.steps) {
      if (s.is_filter) return false;
      switch (s.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
        case Axis::kSelf:
          break;  // downward: stays inside the candidate's subtree
        default:
          return false;  // parent/ancestor/sibling escape the subtree
      }
      for (const ExprPtr& p : s.predicates) {
        // Nested predicates get their own focus; integer-literal position
        // picks and foldable boolean shapes are both pure tree functions.
        if (p->kind == ExprKind::kLiteral &&
            p->literal_type == Expr::LiteralType::kInteger) {
          continue;
        }
        if (!FoldableBool(*p)) return false;
      }
    }
    return true;
  }

  bool FoldableBool(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kBinary:
        switch (e.op) {
          case BinOp::kAnd:
          case BinOp::kOr:
            return FoldableBool(*e.children[0]) && FoldableBool(*e.children[1]);
          case BinOp::kGenEq:
          case BinOp::kGenNe:
          case BinOp::kGenLt:
          case BinOp::kGenLe:
          case BinOp::kGenGt:
          case BinOp::kGenGe:
          case BinOp::kValEq:
          case BinOp::kValNe:
          case BinOp::kValLt:
          case BinOp::kValLe:
          case BinOp::kValGt:
          case BinOp::kValGe:
          case BinOp::kIs:
            return FoldableValue(*e.children[0]) &&
                   FoldableValue(*e.children[1]);
          default:
            return false;  // arithmetic/union/range: value, maybe numeric
        }
      case ExprKind::kFunctionCall: {
        if (UserOrUnknown(e)) return false;
        if (!IsInternBooleanBuiltin(Stripped(e))) return false;
        for (const ExprPtr& c : e.children) {
          if (!FoldableValue(*c)) return false;
        }
        return true;
      }
      case ExprKind::kPath:
        // A node path's effective boolean value is "any nodes?" -- node
        // sequences are never mistaken for position tests.
        return FoldablePath(e);
      default:
        return false;
    }
  }

  bool FoldableValue(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kTextLiteral:
      case ExprKind::kEmptySequence:
      case ExprKind::kContextItem:
        return true;
      case ExprKind::kSequence: {
        for (const ExprPtr& c : e.children) {
          if (!FoldableValue(*c)) return false;
        }
        return true;
      }
      case ExprKind::kPath:
        return FoldablePath(e);
      case ExprKind::kBinary:
        switch (e.op) {
          case BinOp::kAnd:
          case BinOp::kOr:
            return FoldableBool(e);
          case BinOp::kAdd:
          case BinOp::kSub:
          case BinOp::kMul:
          case BinOp::kDiv:
          case BinOp::kIdiv:
          case BinOp::kMod:
          case BinOp::kUnion:
          case BinOp::kIntersect:
          case BinOp::kExcept:
          case BinOp::kTo:
            return FoldableValue(*e.children[0]) &&
                   FoldableValue(*e.children[1]);
          default:
            // Comparisons are boolean-valued, fine as subexpressions too.
            return FoldableBool(e);
        }
      case ExprKind::kUnary:
        return FoldableValue(*e.children[0]);
      case ExprKind::kIf:
        return FoldableValue(*e.children[0]) &&
               FoldableValue(*e.children[1]) && FoldableValue(*e.children[2]);
      case ExprKind::kFunctionCall: {
        if (UserOrUnknown(e)) return false;
        if (!IsInternFoldableBuiltin(Stripped(e))) return false;
        for (const ExprPtr& c : e.children) {
          if (!FoldableValue(*c)) return false;
        }
        return true;
      }
      default:
        // Variables (dynamic environment), FLWOR/quantified (bindings),
        // constructors (fresh node identities per evaluation), casts kept
        // out until needed: all unfoldable.
        return false;
    }
  }
};

// The probe eligibility analysis behind ProbePredicate and
// NonPositionalPredicate.
struct ProbeScanner {
  FoldScanner fold;

  bool UserOrUnknown(const Expr& e) const { return fold.UserOrUnknown(e); }

  // No fn:trace/fn:error and no user-defined or unknown call anywhere.
  bool EffectFree(const Expr& e) const {
    if (e.kind == ExprKind::kFunctionCall) {
      const std::string stripped = FoldScanner::Stripped(e);
      if (stripped == "trace" || stripped == "error" || UserOrUnknown(e)) {
        return false;
      }
    }
    bool ok = true;
    ForEachChild(e, [&](const Expr& c) { ok = ok && EffectFree(c); });
    return ok;
  }

  bool FocusFree(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kEmptySequence:
      case ExprKind::kVarRef:
        return true;
      case ExprKind::kPath: {
        // Only a base expression can give a path a focus-free start; the
        // steps' predicates run under the path's own focus.
        if (!e.has_base || !FocusFree(*e.children[0])) return false;
        for (const PathStep& s : e.steps) {
          for (const ExprPtr& p : s.predicates) {
            if (!EffectFree(*p)) return false;
          }
        }
        return true;
      }
      case ExprKind::kFunctionCall: {
        if (UserOrUnknown(e)) return false;
        const std::string stripped = FoldScanner::Stripped(e);
        if (stripped == "trace" || stripped == "error" ||
            stripped == "parse-xml-fragment") {
          return false;
        }
        // Zero-argument builtins read the focus (position, last, string,
        // name, ...) unless they are constants.
        if (e.children.empty()) {
          return stripped == "true" || stripped == "false" ||
                 stripped == "math:pi";
        }
        break;
      }
      case ExprKind::kBinary:
      case ExprKind::kUnary:
      case ExprKind::kIf:
      case ExprKind::kSequence:
      case ExprKind::kCastAs:
      case ExprKind::kCastableAs:
      case ExprKind::kInstanceOf:
      case ExprKind::kFlwor:
      case ExprKind::kQuantified:
        break;
      default:
        // `.`, constructors (fresh identities per evaluation), try/catch.
        return false;
    }
    bool ok = true;
    ForEachChild(e, [&](const Expr& c) { ok = ok && FocusFree(c); });
    return ok;
  }

  // True if position() or last() is called at e's own focus level: step
  // predicates get a focus of their own and are not entered.
  static bool ReadsPosition(const Expr& e) {
    if (e.kind == ExprKind::kFunctionCall && e.children.empty()) {
      const std::string stripped = FoldScanner::Stripped(e);
      if (stripped == "position" || stripped == "last") return true;
    }
    bool reads = false;
    auto visit = [&reads](const Expr& c) { reads = reads || ReadsPosition(c); };
    if (e.kind == ExprKind::kPath) {
      for (const ExprPtr& c : e.children) visit(*c);  // the base only
    } else {
      ForEachChild(e, visit);
    }
    return reads;
  }

  bool BooleanValued(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kBinary:
        switch (e.op) {
          case BinOp::kOr:
          case BinOp::kAnd:
          case BinOp::kGenEq:
          case BinOp::kGenNe:
          case BinOp::kGenLt:
          case BinOp::kGenLe:
          case BinOp::kGenGt:
          case BinOp::kGenGe:
          case BinOp::kValEq:
          case BinOp::kValNe:
          case BinOp::kValLt:
          case BinOp::kValLe:
          case BinOp::kValGt:
          case BinOp::kValGe:
          case BinOp::kIs:
            return true;
          default:
            return false;
        }
      case ExprKind::kFunctionCall:
        return !UserOrUnknown(e) &&
               IsInternBooleanBuiltin(FoldScanner::Stripped(e));
      case ExprKind::kPath: {
        // A relative axis path yields nodes, never a number.
        if (e.has_base || e.rooted || e.steps.empty()) return false;
        for (const PathStep& s : e.steps) {
          if (s.is_filter) return false;
        }
        return true;
      }
      default:
        return false;
    }
  }
};

}  // namespace

bool ProbeOperands(const Expr& pred, const std::string** attr_name,
                   const Expr** value) {
  if (pred.kind != ExprKind::kBinary || pred.op != BinOp::kGenEq ||
      pred.children.size() != 2 || pred.children[0] == nullptr ||
      pred.children[1] == nullptr) {
    return false;
  }
  auto bare_attribute = [](const Expr& e) {
    if (e.kind != ExprKind::kPath || e.has_base || e.rooted ||
        e.steps.size() != 1) {
      return false;
    }
    const PathStep& s = e.steps[0];
    return !s.is_filter && s.axis == Axis::kAttribute &&
           s.test.kind == NodeTestKind::kName && s.predicates.empty();
  };
  for (int side = 0; side < 2; ++side) {
    const Expr& attr = *pred.children[side];
    if (!bare_attribute(attr)) continue;
    *attr_name = &attr.steps[0].test.name;
    *value = pred.children[1 - side].get();
    return true;
  }
  return false;
}

bool ProbePredicate(const Expr& pred,
                    const UserFunctionLookup& is_user_function) {
  const std::string* attr_name = nullptr;
  const Expr* value = nullptr;
  if (!ProbeOperands(pred, &attr_name, &value)) return false;
  ProbeScanner scanner{{is_user_function}};
  return scanner.FocusFree(*value);
}

bool NonPositionalPredicate(const Expr& pred,
                            const UserFunctionLookup& is_user_function) {
  ProbeScanner scanner{{is_user_function}};
  return scanner.BooleanValued(pred) && !ProbeScanner::ReadsPosition(pred);
}

bool InternFoldablePredicate(const Expr& pred,
                             const UserFunctionLookup& is_user_function) {
  FoldScanner scanner{is_user_function, /*attr_only=*/false};
  return scanner.FoldableBool(pred);
}

bool InternAttributeOnlyPredicate(const Expr& pred,
                                  const UserFunctionLookup& is_user_function) {
  FoldScanner scanner{is_user_function, /*attr_only=*/true};
  return scanner.FoldableBool(pred);
}

}  // namespace lll::xq
