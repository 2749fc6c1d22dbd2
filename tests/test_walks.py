"""The iterative term walks: size, subterms, span/work and normalize.

Each walk visits every node once and keeps no Python recursion, so a term's
depth is bounded by memory, not by the interpreter's recursion limit.  The
span/work fold is checked against a recursive reference kept here.
"""

import json
import operator
from pathlib import Path

import pytest

import purify.terms as terms
from purify.check import TypeEnv, typecheck
from purify.cli import main
from purify.metrics import dyn_span, dyn_work, span, work
from purify.pretty import pretty
from purify.propcheck import GenConfig, Unsatisfiable, default_signature, gen_term
from purify.semantics import evaluate, make_const_env, trace_monad
from purify.surface import parse_and_elaborate, parse_target_expr
from purify.terms import (
    App, Ap, Arrow, COM, Const, Each, Eff, Fst, Join, Lam, Lit, Map, Prd, Prod,
    Pure, PurifyError, SRC, STR, Snd, TGT, Term, Unt, Var, children, is_effect_free,
    size, subterms,
)
from purify.translate import naive_translate, normalize, opt_translate, seq_translate

DEMO = Path(__file__).resolve().parent.parent / "demos" / "programs"
DEEP = 10_000


# ---------------------------------------------------------------------------
# Recursive reference: the cost rule span/work are defined by
# ---------------------------------------------------------------------------

_RESULT = "result"  # an elimination: take the action's result


def _ref_runs(t: Term, env: dict, elims: list, arity: dict):
    """What running ``t``'s action performs once ``elims`` (next one first)
    apply to it: 1 for one effect, 0 for none, or the action former and the
    scope that run in its place.  An elimination is an argument ``(term,
    scope, its result?)``, ``Fst``, ``Snd`` or ``_RESULT``; ``env`` maps a
    parameter to ``[argument, followed]``, and a binding is followed once."""
    top = elims[0] if elims else None
    match t:
        case App(f, a):
            return _ref_runs(f, env, [(a, env, False)] + elims, arity)
        case Var(x):
            b = env.get(x)
            if b is None or b[1]:  # free, or followed before
                return int(_RESULT in elims)
            b[1] = True
            a, scope, result = b[0]
            return _ref_runs(a, scope, [_RESULT] * result + elims, arity)
        case Lam(x, body, _) if type(top) is tuple:
            return _ref_runs(body, {**env, x: [top, False]}, elims[1:], arity)
        case Fst(p) | Snd(p):
            return _ref_runs(p, env, [type(t)] + elims, arity)
        case Prd(a, b) if top is Fst or top is Snd:
            return _ref_runs(a if top is Fst else b, env, elims[1:], arity)
        case Const(c) if c in arity:
            return int(len(elims) >= arity[c])  # saturated, also when its result is taken
        case Pure() | Map() | Ap() | Join() if top is not _RESULT:
            return t, env
        case Pure(v):
            return _ref_runs(v, env, elims[1:], arity)
        case Map(f, a):
            return _ref_runs(f, env, [(a, env, True)] + elims[1:], arity)
        case Ap(f, a):
            return _ref_runs(f, env, [_RESULT, (a, env, True)] + elims[1:], arity)
        case Join() | Each():
            return 1  # an action's result, not seen into
        case Lam() | Prd() | Const() | Lit() | Unt():
            return 0
    raise PurifyError(f"unknown term former {type(t).__name__}")


def _ref_measure(e: Term, sig, combine) -> int:
    """Common nodes cost 0; source applications, pairs and projections
    combine their parts; a mark adds what its action runs; target ap, map
    and pure keep their rules; a join adds what its action's result runs;
    every other target node runs its own action."""
    arity = {d.name: d.effect_arity() for d in sig if d.effectful}

    def then(r) -> int:
        return cost(*r) if type(r) is tuple else r

    def cost(t: Term, env: dict) -> int:
        if t.label is TGT:
            match t:
                case Ap(f, a):
                    return combine(cost(f, env), cost(a, env))
                case Map(_, a):
                    return cost(a, env)
                case Pure():
                    return 0
                case Join(n):
                    r = _ref_runs(n, env, [_RESULT], arity)
                    return cost(n, env) + then(r)
            return then(_ref_runs(t, env, [], arity))
        if t.label is SRC:
            match t:
                case App(a, b) | Prd(a, b):
                    return combine(cost(a, env), cost(b, env))
                case Fst(p) | Snd(p):
                    return cost(p, env)
                case Each(x):
                    r = _ref_runs(x, env, [], arity)
                    return cost(x, env) + then(r)
        return 0

    return cost(e, {})


def _ref_preorder(e: Term) -> list[Term]:
    out = [e]
    for c in children(e):
        out.extend(_ref_preorder(c))
    return out


def _generated(sig):
    """Generated src/tgt/com terms, then the translations and normal forms."""
    env = TypeEnv(sig)
    goals = (STR, Prod(STR, STR), Arrow(STR, STR))
    base = []
    for i in range(2100):
        label = (SRC, TGT, COM)[i % 3]
        goal = goals[i % len(goals)]
        if label is TGT and i % 2:
            goal = Eff(goal)
        try:
            base.append((label, gen_term(GenConfig(6, 31000 + i, sig, label, goal))))
        except Unsatisfiable:
            continue
    assert len(base) >= 2000
    for label, t in base:
        yield t
        if label is SRC:
            for translate in (opt_translate, naive_translate, seq_translate):
                out = translate(t)
                typecheck(out, TGT, env)
                yield out
                yield normalize(out)
        elif label is TGT:
            yield normalize(t)


def test_span_work_equal_recursive_reference():
    sig = default_signature()
    seen = let_redexes = 0
    for t in _generated(sig):
        nodes = list(subterms(t))
        assert len(nodes) == size(t)
        assert all(a is b for a, b in zip(nodes, _ref_preorder(t)))
        for n in nodes:
            s = span(n, sig)
            assert s == _ref_measure(n, sig, max), n
            assert work(n, sig) == _ref_measure(n, sig, operator.add), n
            let_redexes += s and type(n) is App and type(n.fun) is Lam and n.label is TGT
        seen += 1
    assert seen > 6000
    assert let_redexes > 0


# ---------------------------------------------------------------------------
# One visit per node, no recursion
# ---------------------------------------------------------------------------

def _ap_chain(n: int, leaf) -> Term:
    t = leaf()
    for _ in range(n):
        t = Ap(t, leaf(), label=TGT)
    return t


def test_size_and_subterms_visit_each_node_once(monkeypatch):
    chain = _ap_chain(1000, lambda: Var("x", label=TGT))
    calls = 0

    def counted(e):
        nonlocal calls
        calls += 1
        return children(e)

    monkeypatch.setattr(terms, "children", counted)
    n = size(chain)
    assert n == 2001 and calls == n
    calls = 0
    assert len(list(subterms(chain))) == n and calls == n


def _fetch_tgt(url: str = "u") -> Term:
    return App(Const("fetch", label=TGT), Lit(url, label=TGT), label=TGT)


def test_deep_chains_need_no_recursion():
    sig = default_signature()
    join = Var("m", label=TGT)
    fst = Join(Var("m", label=TGT), label=TGT)
    for _ in range(DEEP):
        join = Join(join, label=TGT)
        fst = Fst(fst, label=TGT)
    chains = [
        # (term, span, work, effect free)
        (_ap_chain(DEEP, _fetch_tgt), 1, DEEP + 1, True),
        (join, DEEP, DEEP, False),
        (fst, 1, 1, False),
    ]
    for t, s, w, pure in chains:
        assert size(t) == sum(1 for _ in subterms(t))
        assert is_effect_free(t) is pure
        assert (span(t, sig), work(t, sig)) == (s, w)
        assert normalize(t) is t  # no rule fires, so nothing is copied


def test_normalize_deep_rewrite_without_recursion():
    t: Term = _fetch_tgt()
    for i in range(DEEP):
        ident = Lam(f"x{i}", Var(f"x{i}", label=COM), label=TGT)
        t = Map(ident, t, label=TGT)
    assert normalize(t) == _fetch_tgt()


def test_pretty_prints_deep_terms_without_recursion():
    fetch_chain: Term = Lit("u", label=SRC)
    concat_chain: Term = Lit("a", label=SRC)
    expected = '"a"'
    for i in range(DEEP):
        fetch_chain = Each(App(Const("fetch", label=SRC), fetch_chain, label=SRC), label=SRC)
        concat_chain = App(App(Const("concat", label=SRC), concat_chain, label=SRC),
                           Lit("a", label=SRC), label=SRC)
        expected = (expected if i == 0 else f"({expected})") + ' ++ "a"'
    assert pretty(fetch_chain) == "fetch(" * DEEP + '"u"' + ")!" * DEEP
    assert pretty(concat_chain) == expected


# ---------------------------------------------------------------------------
# Let-style redexes at target
# ---------------------------------------------------------------------------

def _c(*parts, label=TGT) -> Term:
    """Left-nested application of the first part to the rest."""
    t = parts[0]
    for p in parts[1:]:
        t = App(t, p, label=label)
    return t


def _lam(x, body, label=TGT) -> Term:
    return Lam(x, body, label=label)


def _let_redexes():
    fetch, probe = Const("fetch", label=COM), Const("probe", label=COM)
    x, y, u = Var("x", label=COM), Var("y", label=COM), Lit("u", label=TGT)
    xt = Var("x", label=TGT)
    fetch_x = _c(fetch, x, label=COM)
    return [
        # (term, span = work)
        (_c(_lam("x", fetch_x), u), 1),
        (_c(_lam("x", fetch), Lit("a", label=TGT), u), 1),
        (_c(_lam("y", _c(_lam("x", fetch_x, COM), y, label=COM)), u), 1),
        (_c(_lam("x", probe), Unt(label=TGT)), 1),
        (_c(_lam("x", _lam("y", _c(fetch, y, label=COM), COM)), u), 0),
        (_c(_lam("x", x), _c(Const("fetch", label=TGT), u)), 1),
        (_c(_lam("x", fetch_x, COM), Lit("u", label=COM), label=COM), 0),
        # a combinator-bodied lambda is transparent and not a let-redex
        (_c(_lam("x", _c(Const("fetch", label=TGT), Var("x", label=TGT))), u), 1),
        # an ill-typed self-application: following parameters still ends
        (_c(_lam("x", _c(x, x, label=COM)), _lam("x", _c(x, x, label=COM))), 0),
        # also when each entered body is a join costed under new bindings
        (_c(_lam("x", Join(_c(xt, xt), label=TGT)), _lam("x", Join(_c(xt, xt), label=TGT))), 1),
    ]


@pytest.mark.parametrize("case", range(len(_let_redexes())))
def test_let_redex_costs(case):
    sig = default_signature()
    t, cost = _let_redexes()[case]
    assert span(t, sig) == work(t, sig) == cost
    assert _ref_measure(t, sig, max) == _ref_measure(t, sig, operator.add) == cost


@pytest.mark.parametrize("text, cost", [
    # ``y`` runs its argument's action, costed where that argument was bound;
    # ``x`` must then be looked up under the lambdas' bindings again
    ("(fun y -> (fun x -> ap y x : (Eff Str) -> Eff Str)"
     " : (Eff (Str -> Str)) -> (Eff Str) -> Eff Str)"
     '(ap (pure concat) fetch("a"))(fetch("b"))', (1, 2)),
    # the join's result is costed under the inner ``y``; the outer ``y``,
    # bound to a fetch, must be found again after it
    ('(fun y -> ap (join (map (fun y -> pure concat("x") : Str -> Eff (Str -> Str))'
     ' (pure "s"))) y : (Eff Str) -> Eff Str)(fetch("b"))', (1, 1)),
])
def test_a_term_costed_under_other_bindings_gives_them_back(text, cost):
    sig, _ = parse_and_elaborate(
        'effect fetch : Str -> Eff Str\nprim concat : Str -> Str -> Str\npurify { "a" }'
    )
    t = parse_target_expr(text, sig)
    typecheck(t, TGT, TypeEnv(sig))
    m = trace_monad()
    d = evaluate(t, TGT, m, make_const_env(sig, m)).action
    assert (span(t, sig), work(t, sig)) == (dyn_span(d), dyn_work(d)) == cost
    assert (_ref_measure(t, sig, max), _ref_measure(t, sig, operator.add)) == cost


def test_let_sugar_analysis_counts_the_bound_call(capsys):
    assert main(["analyze", str(DEMO / "let_sugar.pfy"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for side in ("src", "opt", "naive", "seq"):
        assert (out[f"span_{side}"], out[f"work_{side}"]) == (1, 1), side


def test_normalized_fetch_chain_statics_equal_its_trace():
    sig, body = parse_and_elaborate(
        'effect fetch : Str -> Eff Str\npurify { fetch(fetch(fetch("u")!)!)! }'
    )
    env = TypeEnv(sig)
    typecheck(body, SRC, env)
    n = normalize(opt_translate(body))
    typecheck(n, TGT, env)
    # normalization leaves the let-style redex (fun x -> fetch(x))(v) behind
    assert any(isinstance(t, App) and isinstance(t.fun, Lam) for t in subterms(n))
    m = trace_monad()
    d = evaluate(n, TGT, m, make_const_env(sig, m)).action
    assert (span(n, sig), work(n, sig)) == (dyn_span(d), dyn_work(d)) == (3, 3)


LET_BOUND_EFFECTS = [
    'let f = fetch in f("u")!',
    '(let f = fetch in f("a")!) ++ (let f = fetch in f("b")!)',
    'let g = (fun x -> fetch(x) : Str -> Eff Str) in g("u")!',
]
# a mark on a pure constant's action runs no effect
PRIM_MARKS = [
    '(fetch("a")!, k!)',
    'p("a")!',
    'p(fetch("a")!)!',
    'let y = "b" in p(y)!',
]
# a let-bound parameter stands for the prim action or function it is bound to
LET_BOUND_PRIM_MARKS = [
    'let a = k in a!',
    'let q = p in q("a")!',
    '(let a = k in a!, fetch("b")!)',
]


# an action that is bound, passed, kept in a pair or returned costs nothing
# until something runs it
ACTIONS_RUN_ELSEWHERE = [
    'let a = fetch("u") in fetch("v")!',
    '(fetch("a"), fetch("b")).1!',
    '(fetch("a"), k).2!',
    '(fun u -> (fetch(u), fetch("b")).1 : Str -> Eff Str)("a")!',
    '(fun a -> probe)(fetch("u"))!',
    '((fun a -> (fun b -> b : (Eff Str) -> Eff Str))(fetch("u")))(fetch("v"))!',
]


@pytest.mark.parametrize(
    "program", LET_BOUND_EFFECTS + PRIM_MARKS + LET_BOUND_PRIM_MARKS + ACTIONS_RUN_ELSEWHERE)
def test_let_bound_effects_cost_what_their_trace_runs(program):
    # a let-bound parameter applied to arguments stands for what it is bound to
    sig, body = parse_and_elaborate(
        "effect fetch : Str -> Eff Str\neffect probe : Eff Str\n"
        "prim concat : Str -> Str -> Str\nprim k : Eff Str\nprim p : Str -> Eff Str\n"
        f"purify {{ {program} }}"
    )
    env = TypeEnv(sig)
    typecheck(body, SRC, env)
    m = trace_monad()
    consts = make_const_env(sig, m)
    opt = opt_translate(body)
    sides = [(body, SRC), (opt, TGT), (naive_translate(body), TGT),
             (seq_translate(body), TGT), (normalize(opt), TGT)]
    for t, lab in sides:
        typecheck(t, lab, env)
        d = evaluate(t, lab, m, consts)
        d = d if lab is SRC else d.action
        assert (span(t, sig), work(t, sig)) == (dyn_span(d), dyn_work(d)), pretty(t)
    assert span(opt, sig) <= span(body, sig)


@pytest.mark.parametrize("program", PRIM_MARKS)
def test_marked_prim_actions_match_the_reference(program):
    sig, body = parse_and_elaborate(
        "effect fetch : Str -> Eff Str\nprim k : Eff Str\nprim p : Str -> Eff Str\n"
        f"purify {{ {program} }}"
    )
    typecheck(body, SRC, TypeEnv(sig))  # the translations read its type stamps
    opt = opt_translate(body)
    for t in (body, opt, naive_translate(body), seq_translate(body), normalize(opt)):
        assert span(t, sig) == _ref_measure(t, sig, max), pretty(t)
        assert work(t, sig) == _ref_measure(t, sig, operator.add), pretty(t)
