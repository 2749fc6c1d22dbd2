"""The iterative term walks: size, subterms, span/work and normalize.

Each walk visits every node once and keeps no Python recursion, so a term's
depth is bounded by memory, not by the interpreter's recursion limit.  The
span/work fold is checked against a recursive reference kept here.
"""

import json
from pathlib import Path

import pytest

import purify.terms as terms
from purify.check import TypeEnv, typecheck
from purify.cli import main
from purify.metrics import dyn_span, dyn_work, span, work
from purify.pretty import pretty
from purify.propcheck import GenConfig, Unsatisfiable, default_signature, gen_term
from purify.semantics import evaluate, make_const_env, trace_monad
from purify.surface import parse_and_elaborate
from purify.terms import (
    App, Ap, Arrow, COM, Const, Each, Eff, Fst, Join, Lam, Lit, Map, Prd, Prod,
    Pure, PurifyError, SRC, STR, Snd, TGT, Term, Unt, Var, children, is_effect_free,
    size, subterms,
)
from purify.translate import naive_translate, normalize, opt_translate, seq_translate

DEMO = Path(__file__).resolve().parent.parent / "demos" / "programs"
DEEP = 10_000


# ---------------------------------------------------------------------------
# Recursive reference: the structural recursion span/work were defined by
# ---------------------------------------------------------------------------

def _ref_runs_effect(t: Term, nargs: int, sig) -> bool:
    """``t`` applied to ``nargs`` more arguments performs one effect."""
    if isinstance(t, App):
        return _ref_runs_effect(t.fun, nargs + 1, sig)
    if isinstance(t, Lam) and nargs > 0 and t.body.label is not TGT:
        # let-style redex: the body result of an applied common-bodied lambda
        return _ref_runs_effect(t.body, nargs - 1, sig)
    if isinstance(t, Const):
        decl = sig.lookup(t.name)
        return decl is not None and decl.effectful and decl.effect_arity() == nargs
    return False


def _ref_weight(t: Term, sig) -> int:
    if t.label is not TGT:
        return 0
    return int(_ref_runs_effect(t, 0, sig))


def _ref_prim_call(t: Term, sig) -> bool:
    """``t`` (under Each), or the action it returns (under Join), calls a
    ``prim`` constant, whose action runs no effect."""
    if isinstance(t, (App, Ap, Map)):
        return _ref_prim_call(t.fun, sig)
    if isinstance(t, Pure):
        return _ref_prim_call(t.inner, sig)
    if isinstance(t, Lam) and t.body.label is COM:
        return _ref_prim_call(t.body, sig)
    decl = sig.lookup(t.name) if isinstance(t, Const) else None
    return decl is not None and not decl.effectful


def _ref_measure(e: Term, sig, combine) -> int:
    def go(t: Term) -> int:
        match t:
            case Var() | Unt() | Lit() | Pure():
                return 0
            case Const():
                return _ref_weight(t, sig)
            case Lam():
                return go(t.body) if t.body.label is TGT else 0
            case Fst(p) | Snd(p):
                return go(p)
            case App(a, b):
                return _ref_weight(t, sig) + combine(go(a), go(b))
            case Prd(a, b) | Ap(a, b) | Map(a, b):
                return combine(go(a), go(b))
            case Each(x):
                return (not _ref_prim_call(x, sig)) + go(x)
            case Join(x):
                if (
                    isinstance(x, Map)
                    and isinstance(x.fun, Lam)
                    and x.fun.body.label is TGT
                ):
                    return go(x.arg) + go(x.fun.body)
                return (not _ref_prim_call(x, sig)) + go(x)
        raise PurifyError(f"unknown term former {type(t).__name__}")

    return go(e)


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
        assert span(t, sig) == _ref_measure(t, sig, max), t
        assert work(t, sig) == _ref_measure(t, sig, lambda a, b: a + b), t
        nodes = list(subterms(t))
        assert len(nodes) == size(t)
        assert all(a is b for a, b in zip(nodes, _ref_preorder(t)))
        let_redexes += any(
            isinstance(n, App) and isinstance(n.fun, Lam) and n.label is TGT
            and _ref_runs_effect(n, 0, sig)
            for n in nodes
        )
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
    ]


@pytest.mark.parametrize("case", range(len(_let_redexes())))
def test_let_redex_costs(case):
    sig = default_signature()
    t, cost = _let_redexes()[case]
    assert span(t, sig) == work(t, sig) == cost
    assert _ref_measure(t, sig, max) == _ref_measure(t, sig, lambda a, b: a + b) == cost


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


@pytest.mark.parametrize("program", LET_BOUND_EFFECTS + PRIM_MARKS + LET_BOUND_PRIM_MARKS)
def test_let_bound_effects_cost_what_their_trace_runs(program):
    # a let-bound parameter applied to arguments stands for what it is bound to
    sig, body = parse_and_elaborate(
        "effect fetch : Str -> Eff Str\nprim concat : Str -> Str -> Str\n"
        "prim k : Eff Str\nprim p : Str -> Eff Str\n"
        f"purify {{ {program} }}"
    )
    env = TypeEnv(sig)
    typecheck(body, SRC, env)
    m = trace_monad()
    consts = make_const_env(sig, m)
    sides = [(body, SRC)] + [
        (translate(body), TGT) for translate in (opt_translate, naive_translate, seq_translate)
    ]
    for t, lab in sides:
        typecheck(t, lab, env)
        d = evaluate(t, lab, m, consts)
        d = d if lab is SRC else d.action
        assert (span(t, sig), work(t, sig)) == (dyn_span(d), dyn_work(d)), pretty(t)


@pytest.mark.parametrize("program", PRIM_MARKS)
def test_marked_prim_actions_match_the_reference(program):
    sig, body = parse_and_elaborate(
        "effect fetch : Str -> Eff Str\nprim k : Eff Str\nprim p : Str -> Eff Str\n"
        f"purify {{ {program} }}"
    )
    opt = opt_translate(body)
    for t in (body, opt, naive_translate(body), seq_translate(body), normalize(opt)):
        assert span(t, sig) == _ref_measure(t, sig, max), pretty(t)
        assert work(t, sig) == _ref_measure(t, sig, lambda a, b: a + b), pretty(t)
