#ifndef LLL_XQUERY_BIND_H_
#define LLL_XQUERY_BIND_H_

#include "xquery/ast.h"

namespace lll::xq {

// The bind pass: resolves, once per plan, what an evaluation would otherwise
// re-derive from the query text at every step (DESIGN.md section 16).
// CompiledQuery's constructor runs it, so compiled and disk-loaded plans are
// bound alike. Nothing it writes is persisted: NameTable ids are
// process-local, and a loaded plan is bound again. On every expression of
// the module it sets:
//
//   - Expr::bound_udf / bound_builtin on calls, in EvalFunctionCall's order:
//     the user function of the exact name, then of the fn:-stripped name,
//     then the builtin of that arity, then the variadic builtin;
//   - NodeTest::name_id on name tests, by lookup only (NameTable::Find);
//   - PathStep::statically_streamable on every step;
//   - Expr::intern_prefix and the intern fingerprint on paths.
//
// The pass writes into the tree, so it runs before the plan is shared; the
// plan is immutable afterwards (no lazy caches: plans are shared across
// threads).
void BindModule(Module* module);

}  // namespace lll::xq

#endif  // LLL_XQUERY_BIND_H_
