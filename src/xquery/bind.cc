#include "xquery/bind.h"

#include <string>
#include <string_view>

#include "xml/name_table.h"
#include "xquery/eval.h"
#include "xquery/optimizer.h"

namespace lll::xq {

namespace {

constexpr size_t kVariadic = static_cast<size_t>(-1);

std::string_view StripFn(std::string_view name) {
  return name.substr(0, 3) == "fn:" ? name.substr(3) : name;
}

// Appends `step`'s axis and node test to an intern fingerprint.
void AppendStepFingerprint(const PathStep& step, std::string* fingerprint) {
  *fingerprint += AxisName(step.axis);
  *fingerprint += "::";
  switch (step.test.kind) {
    case NodeTestKind::kName:
      *fingerprint += step.test.name;
      break;
    case NodeTestKind::kAnyName:
      *fingerprint += "*";
      break;
    case NodeTestKind::kText:
      *fingerprint += "text()";
      break;
    case NodeTestKind::kComment:
      *fingerprint += "comment()";
      break;
    case NodeTestKind::kPi:
      *fingerprint += "processing-instruction()";
      break;
    case NodeTestKind::kAnyNode:
      *fingerprint += "node()";
      break;
  }
}

class Binder {
 public:
  explicit Binder(const Module& module)
      : module_(module), is_user_(ModuleFunctionLookup(module)) {}

  // Post-order: a path's verdicts read the call bindings of its predicates.
  void Bind(Expr* e) {
    if (e == nullptr) return;
    for (ExprPtr& c : e->children) Bind(c.get());
    for (PathStep& s : e->steps) {
      for (ExprPtr& p : s.predicates) Bind(p.get());
    }
    for (FlworClause& c : e->clauses) Bind(c.expr.get());
    for (OrderSpec& o : e->order_by) Bind(o.key.get());
    for (DirectAttribute& a : e->attributes) {
      for (ExprPtr& p : a.value_parts) Bind(p.get());
    }
    if (e->kind == ExprKind::kFunctionCall) BindCall(e);
    if (e->kind == ExprKind::kPath) BindPath(e);
  }

 private:
  // The last declaration wins, as it did in the evaluator's old name map.
  const FunctionDecl* FindUserFunction(std::string_view name,
                                       size_t arity) const {
    for (auto it = module_.functions.rbegin(); it != module_.functions.rend();
         ++it) {
      if (it->name == name && it->params.size() == arity) return &*it;
    }
    return nullptr;
  }

  void BindCall(Expr* e) const {
    const size_t arity = e->children.size();
    const std::string_view stripped = StripFn(e->name);
    e->bound_udf = FindUserFunction(e->name, arity);
    if (e->bound_udf == nullptr && stripped.size() != e->name.size()) {
      e->bound_udf = FindUserFunction(stripped, arity);
    }
    if (e->bound_udf != nullptr) return;
    const BuiltinTable& builtins = BuiltinFunctions();
    auto it = builtins.find(BuiltinKey(stripped, arity));
    if (it == builtins.end()) it = builtins.find(BuiltinKey(stripped, kVariadic));
    if (it != builtins.end()) e->bound_builtin = &it->second;
  }

  // True if a predicate containing `e` must keep its step out of the pull
  // pipeline. fn:last() observes the focus size, which streaming never
  // knows. fn:trace()/fn:error() have effects whose order and count must
  // match the materializing evaluator: the merge interleaves per-run
  // predicate evaluation and early exit skips it outright, so such
  // predicates take the materializing path (the trace-parity rule, DESIGN.md
  // section 10). User-defined and unknown functions may do either
  // internally, so they block too.
  static bool BlocksStreaming(const Expr& e) {
    if (e.kind == ExprKind::kFunctionCall) {
      const std::string_view stripped = StripFn(e.name);
      if (stripped == "last" || stripped == "trace" || stripped == "error" ||
          e.bound_udf != nullptr || !IsBuiltinName(stripped)) {
        return true;
      }
    }
    auto blocks = [](const ExprPtr& c) {
      return c != nullptr && BlocksStreaming(*c);
    };
    for (const ExprPtr& c : e.children) {
      if (blocks(c)) return true;
    }
    for (const PathStep& s : e.steps) {
      for (const ExprPtr& p : s.predicates) {
        if (blocks(p)) return true;
      }
    }
    for (const FlworClause& c : e.clauses) {
      if (blocks(c.expr)) return true;
    }
    for (const OrderSpec& o : e.order_by) {
      if (blocks(o.key)) return true;
    }
    for (const DirectAttribute& a : e.attributes) {
      for (const ExprPtr& p : a.value_parts) {
        if (blocks(p)) return true;
      }
    }
    return false;
  }

  bool PredicatesFoldable(const PathStep& step) const {
    for (const ExprPtr& p : step.predicates) {
      if (p == nullptr || !InternFoldablePredicate(*p, is_user_)) return false;
    }
    return true;
  }

  void BindPath(Expr* e) const {
    for (PathStep& step : e->steps) {
      if (step.test.kind == NodeTestKind::kName) {
        step.test.name_id = xml::NameTable::Find(step.test.name);
      }
      bool streamable = !step.is_filter && IsStreamableAxis(step.axis);
      for (const ExprPtr& p : step.predicates) {
        if (!streamable) break;
        streamable = p == nullptr || !BlocksStreaming(*p);
      }
      step.statically_streamable = streamable;
    }
    // The internable prefix: leading axis steps that are pure functions of
    // the tree. Predicate-free steps qualify outright; steps whose
    // predicates are all intern-foldable (no position()/last()/variables/
    // effects, only downward reads -- see optimizer.h) qualify too, with the
    // predicates' canonical text in the fingerprint so `model[@id="a"]` and
    // `model[@id="b"]` intern separately.
    size_t prefix = 0;
    std::string fingerprint;
    for (const PathStep& step : e->steps) {
      if (step.is_filter || !PredicatesFoldable(step)) break;
      AppendStepFingerprint(step, &fingerprint);
      for (const ExprPtr& p : step.predicates) {
        fingerprint += '[';
        fingerprint += ExprToString(*p);
        fingerprint += ']';
      }
      fingerprint += '/';
      ++prefix;
    }
    e->intern_prefix = prefix;
    e->intern_fingerprint_size = fingerprint.size();
    // The step that ends the chain may hang off it as a probe: its axis and
    // name test, without predicates, intern with the prefix.
    if (prefix < e->steps.size() && !e->steps[prefix].is_filter &&
        e->steps[prefix].statically_probeable) {
      AppendStepFingerprint(e->steps[prefix], &fingerprint);
      fingerprint += '/';
    }
    e->intern_fingerprint = std::move(fingerprint);
  }

  const Module& module_;
  const UserFunctionLookup is_user_;
};

}  // namespace

void BindModule(Module* module) {
  Binder binder(*module);
  for (FunctionDecl& fn : module->functions) binder.Bind(fn.body.get());
  for (VariableDecl& var : module->variables) binder.Bind(var.expr.get());
  binder.Bind(module->body.get());
}

}  // namespace lll::xq
