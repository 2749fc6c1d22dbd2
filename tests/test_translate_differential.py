"""``opt_translate`` against the node-at-a-time translation it replaced.

The reference below is that translation as it was: every leaf wrapped in
``pure`` and every application collapsed through the smart constructors.
The one-pass walk copies an effect-free subterm of leaves and applications
once instead; on the theorem suites' terms, the benchmark families and the
demos both must build the same term, print the same text, carry the same
labels and check to the same stamp at every node.
"""

from __future__ import annotations

import contextlib
import importlib.util
import pathlib
import sys
from typing import Callable

import pytest

from purify import parse_and_elaborate
from purify.check import TypeEnv, typecheck
from purify.pretty import pretty
from purify.propcheck import GenConfig, Unsatisfiable, _gen_plain, _sub_seed
from purify.terms import (
    App, Ap, COM, Const, Each, FreshNames, Fst, Join, Lam, Lit, Map, Prd, Pure,
    PurifyError, SRC, Snd, TGT, Term, Ty, Unt, Var, relabel, subterms,
)
from purify.translate import opt_translate

ROOT = pathlib.Path(__file__).resolve().parents[1]

# suite -> (depth, seed) of its acceptance run; baseline's trials are criterion 8's
SUITES = {"types": (6, 31), "semantics": (5, 41), "span_work": (6, 51), "baseline": (5, 81)}
DRAWS = 1_000
FAMILY_SIZES = (10, 100, 1_000)


# ---------------------------------------------------------------------------
# The reference: the translation node by node
# ---------------------------------------------------------------------------

def ref_smart_ap(f: Term, e: Term, fresh: FreshNames) -> Term:
    if type(f) is Pure:
        if type(e) is Pure:
            return Pure(App(f.inner, e.inner, label=COM), label=TGT)
        x = fresh.fresh()
        body = App(f.inner, Var(x, label=COM), label=COM)
        return Map(Lam(x, body, label=TGT), e, label=TGT)
    if type(e) is Pure:
        x = fresh.fresh()
        body = App(Var(x, label=COM), e.inner, label=COM)
        return Map(Lam(x, body, label=TGT), f, label=TGT)
    return Ap(f, e, label=TGT)


def ref_smart_join(e: Term) -> Term:
    if type(e) is Pure:
        return relabel(e.inner, TGT)
    return Join(e, label=TGT)


def ref_opt_translate(e: Term) -> Term:
    fresh = FreshNames()
    return _ref_translate(e, lambda f, a: ref_smart_ap(f, a, fresh), ref_smart_join, fresh)


def _ref_translate(
    e: Term,
    ap: Callable[[Term, Term], Term],
    join: Callable[[Term], Term],
    fresh: FreshNames,
) -> Term:
    def go(t: Term) -> Term:
        k = type(t)
        if k is App:
            return ap(go(t.fun), go(t.arg))
        if k is Const or k is Lit or k is Lam or k is Unt or k is Var:
            return Pure(relabel(t, COM), label=TGT)
        if k is Each:
            return join(go(t.eff))
        if k is Prd:
            x, y = fresh.fresh(), fresh.fresh()
            pair = Prd(Var(x, label=COM), Var(y, label=COM), label=COM)
            lift = Lam(x, Lam(y, pair, _ref_stamp(t.snd), label=COM), _ref_stamp(t.fst),
                       label=COM)
            return ap(ap(Pure(lift, label=TGT), go(t.fst)), go(t.snd))
        if k is Fst or k is Snd:
            x = fresh.fresh()
            lift = Lam(x, k(Var(x, label=COM), label=COM), _ref_stamp(t.pair), label=COM)
            return ap(Pure(lift, label=TGT), go(t.pair))
        raise PurifyError(f"not a source term former: {k.__name__}")

    return go(e)


def _ref_stamp(t: Term) -> Ty:
    if t.ty is None:
        raise PurifyError("translate needs a typechecked source term:"
                          f" a {type(t).__name__} has no type")
    return t.ty


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def suite_terms(name: str):
    """The first ``DRAWS`` source terms of ``name``'s acceptance run."""
    depth, seed = SUITES[name]
    sig = GenConfig().sig()
    for i in range(DRAWS):
        try:
            yield sig, _gen_plain(GenConfig(depth, _sub_seed(seed, i), sig, SRC), i)
        except Unsatisfiable:
            continue


def _families():
    spec = importlib.util.spec_from_file_location("families", ROOT / "perfbench" / "families.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_texts() -> list[tuple[str, str]]:
    """(name, text) of every family member at ``FAMILY_SIZES`` and every demo."""
    fam = _families()
    word = fam.payload_word(0)
    out = [(f"{f}-{n}", fam.family_program(f, n, word).text)
           for f in fam.FAMILIES for n in FAMILY_SIZES]
    out += [(p.name, p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "demos" / "programs").glob("*.pfy"))]
    return out


@contextlib.contextmanager
def deep_recursion(limit: int = 20_000):
    """The checker and the translations recurse once per nesting level."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def assert_same_translation(sig, body: Term) -> None:
    new, old = opt_translate(body), ref_opt_translate(body)
    assert new == old
    assert pretty(new) == pretty(old)
    assert [n.label for n in subterms(new)] == [n.label for n in subterms(old)]
    assert typecheck(new, TGT, TypeEnv(sig)) is typecheck(old, TGT, TypeEnv(sig))
    assert [n.ty for n in subterms(new)] == [n.ty for n in subterms(old)]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_terms_translate_as_before(name):
    for sig, term in suite_terms(name):
        assert_same_translation(sig, term)


PROGRAMS = dict(program_texts())


@pytest.mark.parametrize("name", PROGRAMS)
def test_programs_translate_as_before(name):
    with deep_recursion():
        sig, body = parse_and_elaborate(PROGRAMS[name])
        typecheck(body, SRC, TypeEnv(sig))
        assert_same_translation(sig, body)

