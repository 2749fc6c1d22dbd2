"""Pluggable monads, the ten laws, and why Ap is kept distinct from bind.

Every monad ships pure/map/ap/bind plus an observational equality.  The
ten laws (left unit, right unit in bind form and plain, associativity,
the two applicative collapse laws, the pure free theorem, map fusion,
functor identity and applicative composition) are checked on random values.

The punchline: a monad whose ap runs its argument before its function is
just as lawful as the usual one.  Programs agree with the mixed translation
under both, but the fully sequential baseline bakes in one order and gets
caught.
"""

from purify import SRC, TGT, parse_and_elaborate
from purify.check import TypeEnv, typecheck
from purify.semantics import (
    actions_agree, builtin_monads, check_laws, evaluate, make_const_env,
    mixed_order_writer,
)
from purify.translate import opt_translate, seq_translate

print("== law reports (1000 trials each) ==")
for m in builtin_monads() + [mixed_order_writer()]:
    rep = check_laws(m, 1000, seed=7)
    verdict = "all ten laws hold" if rep.all_passed else f"FAILS: {rep.failures}"
    print(f"  {m.name:10s} {verdict}")

sig, body = parse_and_elaborate("""
prim concat : Str -> Str -> Str
effect fetch : Str -> Eff Str
purify { fetch("foo")! ++ fetch("bar")! }
""")
env = TypeEnv(sig)
src_ty = typecheck(body, SRC, env)

opt = opt_translate(body)
seq = seq_translate(body)
typecheck(opt, TGT, env)
typecheck(seq, TGT, env)

print("\n== the two-applicatives observation ==")
for m in [w for w in builtin_monads() if w.name == "writer"] + [mixed_order_writer()]:
    cenv = make_const_env(sig, m)
    a_src = evaluate(body, SRC, m, cenv)
    a_opt = evaluate(opt, TGT, m, cenv).action
    a_seq = evaluate(seq, TGT, m, cenv).action
    print(f"  {m.name}: source log {a_src[1]}")
    print(f"    mixed translation agrees:      {actions_agree(src_ty, m, a_opt, a_src)}")
    print(f"    sequential baseline agrees:    {actions_agree(src_ty, m, a_seq, a_src)}")

print("\nThe flipped-ap writer satisfies every law, so no law-based rewrite")
print("may turn an Ap into a bind chain; that is why the translation keeps")
print("Ap nodes and only lowers marks that genuinely depend on each other.")
