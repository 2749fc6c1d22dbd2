"""Running effect-free source code directly shows what lifting all of it shows.

``reference_src`` is the source evaluator that lifts every leaf with
``pure`` and composes every application and pair with ``ap``.
``semantics.evaluate`` runs effect-free source subterms as host code and
enters the monad only at a mark, by the laws of McBride & Paterson (JFP
2008) that ``check_laws`` checks: ``apl`` and ``apr`` where one operand is
pure, ``idl`` for a mark on a pure action, ``aplr`` for pure parts.  The two
are compared, under all five monads, on programs that hit each shortcut and
on generated source terms: ``run_eq`` agrees, and ``report`` and the trace
DOT are identical.
"""

from __future__ import annotations

from collections import Counter

import pytest

from purify import parse_and_elaborate
from purify.check import TypeEnv, typecheck
from purify.metrics import to_dot
from purify.propcheck import GenConfig, Unsatisfiable, default_signature, gen_term
from purify.semantics import (
    MONADS, EvalError, MonadDict, _as_action, evaluate, make_const_env, value_eq_for,
)
from purify.terms import App, COM, Const, Each, Fst, Lam, Lit, Prd, SRC, Snd, Unt, Var


def reference_src(e, m, consts):
    """The source semantics with every leaf lifted: ``pure`` at each leaf,
    ``ap`` at each application and pair, ``bind`` at each mark.  A source
    node sits under no binder, so ``evaluate`` gives a leaf's value."""
    k = type(e)
    if k is App:
        return m.ap(reference_src(e.fun, m, consts), reference_src(e.arg, m, consts))
    if k is Const or k is Lit or k is Lam or k is Unt or k is Var:
        return m.pure(evaluate(e, COM, m, consts))
    if k is Each:
        return m.bind(_as_action, reference_src(e.eff, m, consts))
    if k is Prd:
        pairing = m.map(lambda va: lambda vb: (va, vb), reference_src(e.fst, m, consts))
        return m.ap(pairing, reference_src(e.snd, m, consts))
    if k is Fst:
        return m.map(lambda v: v[0], reference_src(e.pair, m, consts))
    if k is Snd:
        return m.map(lambda v: v[1], reference_src(e.pair, m, consts))
    raise EvalError(f"{k.__name__} is not a source term former")


DECLS = """prim concat : Str -> Str -> Str
prim shout : Str -> Str
prim act : Eff Str
prim actf : Str -> Eff Str
effect fetch : Str -> Eff Str
effect mk : Str -> Eff (Str -> Str)
effect two : Str -> Eff (Str, Str)
effect tick : Eff Unit
"""

# program -> monad operations it makes under the lift-late evaluator:
# (pure, map, ap, bind)
PROGRAMS = {
    # a pure function, an effectful argument: apl
    'shout(fetch("a")!)': (0, 1, 0, 0),
    '(fun x -> x ++ "!")(fetch("a")!)': (0, 1, 0, 0),
    'concat("a")(fetch("b")!)': (0, 1, 0, 0),
    # an effectful function, a pure argument: apr
    'mk("a")!("b")': (0, 1, 0, 0),
    'mk("a")!(shout("b"))': (0, 1, 0, 0),
    # both effectful: ap stays
    'mk("a")!(fetch("b")!)': (0, 0, 1, 0),
    'fetch("a")! ++ fetch("b")!': (0, 1, 1, 0),
    # a pair with one pure half, and with two effectful halves
    '(fetch("a")!, "b")': (0, 2, 0, 0),  # map the pairing, then apr
    '("a", fetch("b")!)': (0, 1, 0, 0),
    '(tick!, (fetch("a")!, ()))': (0, 3, 1, 0),
    '(fetch("a")!, fetch("b")!)': (0, 1, 1, 0),
    # a mark on a prim action and on a let-bound action: idl
    'act!': (0, 0, 0, 0),
    'actf(shout("a"))!': (1, 0, 0, 0),  # the prim's action is built with pure
    'let a = fetch("x") in a!': (0, 0, 0, 0),
    'let g = fetch in g("y")!': (0, 0, 0, 0),
    'let base = "u" in fetch(base ++ "c")!': (0, 0, 0, 0),
    # projections of an effectful pair, and a mark on a projected action
    'two("a")!.1': (0, 1, 0, 0),
    'two("a")!.2 ++ "z"': (0, 3, 0, 0),
    '(fetch("a")!, fetch("b")!).2': (0, 2, 1, 0),
    '(fetch("a"), "b").1!': (0, 0, 0, 0),
    # a mark on an action that needs an effect first: bind stays
    'fetch(fetch("x")!)!': (0, 1, 0, 1),
    'mk(fetch("x")!)!(fetch("y")!)': (0, 1, 1, 1),
    # no mark at all: one pure at the end
    'shout("a")': (1, 0, 0, 0),
    'fetch("a")': (1, 0, 0, 0),
    '(fun x -> (x, x))(tick)': (1, 0, 0, 0),
}

LATENCIES = {"fetch": 100.0, "mk": 30.0, "two": 7.0, "tick": 1.0}


def _generated(depth: int, seeds: range):
    sig = default_signature()
    env = TypeEnv(sig)
    for seed in seeds:
        try:
            term = gen_term(GenConfig(depth, seed, sig, SRC))
        except Unsatisfiable:
            continue
        yield term, typecheck(term, SRC, env)


def _assert_same(sig, term, ty, latencies):
    for make in MONADS.values():
        m = make()
        consts = make_const_env(sig, m)
        want, got = reference_src(term, m, consts), evaluate(term, SRC, m, consts)
        assert m.run_eq(got, want, value_eq_for(ty, m)), m.name
        assert m.report(got, latencies) == m.report(want, latencies), m.name
        if m.name == "trace":
            assert to_dot(got) == to_dot(want)


@pytest.mark.parametrize("body", list(PROGRAMS))
def test_shortcut_programs_match_the_reference(body):
    sig, term = parse_and_elaborate(f"{DECLS}purify {{ {body} }}\n")
    ty = typecheck(term, SRC, TypeEnv(sig))
    _assert_same(sig, term, ty, LATENCIES)


@pytest.mark.parametrize("depth,seeds", [(4, range(42_000, 42_250)), (6, range(46_000, 46_250))])
def test_generated_terms_match_the_reference(depth, seeds):
    sig = default_signature()
    latencies = {name: 10.0 * (i + 1) for i, name in enumerate(sig.effectful_names())}
    checked = 0
    for term, ty in _generated(depth, seeds):
        _assert_same(sig, term, ty, latencies)
        checked += 1
    assert checked >= 200


def _counting(m: MonadDict) -> tuple[MonadDict, Counter]:
    counts: Counter = Counter()

    def counted(op):
        def call(*args):
            counts[op] += 1
            return getattr(m, op)(*args)
        return call

    ops = (counted(op) for op in ("pure", "map", "ap", "bind"))
    return MonadDict(m.name, *ops, m.run_eq, m.effect, m.report, m.kinds), counts


@pytest.mark.parametrize("body", list(PROGRAMS))
def test_monad_operations_only_where_effects_meet(body):
    """Effect-free code makes no monad operation: ``ap`` only where both
    operands ran a mark, ``bind`` only for a mark on an effectful action."""
    sig, term = parse_and_elaborate(f"{DECLS}purify {{ {body} }}\n")
    typecheck(term, SRC, TypeEnv(sig))
    for make in MONADS.values():
        m, counts = _counting(make())
        consts = make_const_env(sig, m)
        counts.clear()  # the prim actions' seed values are built with pure
        evaluate(term, SRC, m, consts)
        assert tuple(counts[op] for op in ("pure", "map", "ap", "bind")) == PROGRAMS[body]
