"""The ordered observation decides what every builtin monad decides.

A suite check evaluates its two sides once, under the ordered monad, and
reads every verdict off those two runs.  The shape view
(``propcheck._IN_SHAPE``) or the sequence view (``_IN_ORDER``) decides
first; only a pair that it tells apart is read by each builtin monad's own
view (``propcheck._VIEWS``) to name the first monad that differs.  This is
sound when ordered agreement implies agreement under each monad the check
names: the shape view for option, state, writer, trace and writer-rtl, the
sequence view for option, state and writer; and when each monad's view
tells a pair apart exactly when direct evaluation under that monad does.
Here both are sampled on the pairs the suites compare: 500 trials of each
evaluating suite at its acceptance depth and seed, each fault row of
``test_suites_shrink_failures`` with its fault injected, and the swap of
``(probe!, probe!)``, which only state sees.  A pair is compared whatever
its static cost, once its rewrite checks at the expected type; a side that
raises is told apart.  Each side is evaluated directly under every monad
and under the ordered monad.  The kill matrix, the pairs each observer
tells apart per input, is pinned in ``KILL_MATRIX``.

Print the kill matrix with ``PYTHONPATH=src:tests python tests/test_ordered_observation.py``.
"""

from __future__ import annotations

import functools

import pytest

from purify import propcheck
from purify.check import TypeEnv, typecheck
from purify.metrics import dyn_span, dyn_work
from purify.propcheck import (
    GenConfig, Unsatisfiable, _IN_ORDER, _IN_SHAPE, _sub_seed, default_signature,
    gen_term,
)
from purify.semantics import (
    MONADS, SYMBOL, VEff, check_laws, evaluate, make_const_env, value_eq_for,
)
from purify.surface import parse_and_elaborate
from purify.terms import (
    COM, SRC, TGT, Ap, Eff, FreshNames, Join, Lit, PurifyError, subterms,
)
from test_propcheck import FAULT_ROWS, _swapped_opt

TRIALS = 500
# the evaluating suites, at their acceptance depths and seeds
SUITES = {"semantics": (5, 41), "baseline": (5, 81), "smart_ctors": (4, 61),
          "normalize": (5, 101), "relabel": (5, 71)}
FIVE = {m.name: m for m in (make() for make in MONADS.values())}
UNTRACED = ("option", "state", "writer")
# the fault of the effect_free row changes a static cost, which no run sees
NO_KILL = {"effect_free/_constants_cost"}
SWAP = "(probe!, probe!) swap"
# per input: the pairs compared, then the pairs told apart under option, state,
# writer, trace and writer-rtl, the sequence view and the shape view
KILL_MATRIX = {
    "semantics": (500, 0, 0, 0, 0, 0, 0, 0),
    "baseline": (500, 0, 0, 0, 49, 38, 0, 49),
    "smart_ctors": (425, 0, 0, 0, 0, 0, 0, 0),
    "normalize": (500, 0, 0, 0, 0, 0, 0, 0),
    "relabel": (500, 0, 0, 0, 0, 0, 0, 0),
    "smart_ctors/_doubled_ap": (33, 0, 9, 9, 9, 9, 9, 9),
    "normalize/_swapped_normalize": (100, 0, 0, 4, 0, 4, 4, 4),
    "types/_fst_as_snd": (52, 1, 1, 1, 1, 1, 1, 1),
    "semantics/_swapped_opt": (46, 3, 4, 3, 3, 3, 4, 4),
    "semantics/_fst_as_snd": (53, 2, 2, 2, 2, 2, 2, 2),
    "span_work/seq_translate": (60, 0, 0, 0, 13, 12, 0, 13),
    "relabel/_swapped_relabel": (35, 11, 11, 11, 11, 11, 11, 11),
    "effect_free/_constants_cost": (60, 0, 0, 0, 0, 0, 0, 0),
    "baseline/_reversed_chain": (45, 0, 5, 4, 6, 0, 6, 6),
    SWAP: (1, 0, 1, 0, 0, 0, 1, 1),
}


def _pair(suite: str, term):
    """(type, rewrite, label of ``term``) that ``suite``'s check compares, the
    rewrite made through ``propcheck``'s names so that an injected fault
    shows; None for a term the check does not evaluate.  The suites that
    only type or cost an opt translation are compared as ``semantics`` is."""
    if suite in ("semantics", "types", "span_work", "baseline"):
        translate = propcheck.seq_translate if suite == "baseline" else propcheck.opt_translate
        return Eff(term.ty), translate(term), SRC
    if suite == "smart_ctors":
        if type(term) is Ap:
            return term.ty, propcheck.smart_ap(term.fun, term.arg, FreshNames()), TGT
        return (term.ty, propcheck.smart_join(term.nested), TGT) if type(term) is Join else None
    if suite == "normalize":
        return term.ty, propcheck.normalize(term), TGT
    return term.ty, propcheck.relabel(term, TGT), COM


class _Tally:
    """Per observer, the pairs it tells apart; the misses: a pair some monad
    tells apart while the view that stands for it does not; and the
    mismatches: a pair and a builtin monad whose view of the ordered run
    (``propcheck._VIEWS``) and direct evaluation give different verdicts."""

    def __init__(self, sig):
        self.sig, self.env = sig, TypeEnv(sig)
        self.consts = {m.name: make_const_env(sig, m) for m in (*FIVE.values(), _IN_ORDER)}
        self.apart = dict.fromkeys((*FIVE, "ordered", "ordered-shape"), 0)
        self.compared, self.misses, self.mismatches, self.costs = 0, [], [], 0

    def compare(self, ty, out, term, label) -> None:
        try:
            if typecheck(out, TGT, self.env) is not ty:
                return
        except PurifyError:
            return
        self.compared += 1

        def sides(m, consts):
            b = evaluate(term, label, m, consts)
            return evaluate(out, TGT, m, consts), VEff(b) if label is SRC else b

        values = {name: _values(sides, m, self.consts[name]) for name, m in FIVE.items()}
        ordered = _values(sides, _IN_ORDER, self.consts["ordered"])
        apart = {name for name, m in FIVE.items() if _apart(ty, m, values[name])}
        seq, shape = (_apart(ty, view, ordered) for view in (_IN_ORDER, _IN_SHAPE))
        for name in apart:
            self.apart[name] += 1
        self.apart["ordered"] += seq
        self.apart["ordered-shape"] += shape
        if (apart and not shape) or (apart & set(UNTRACED) and not seq):
            self.misses.append((sorted(apart), seq, shape, out, term))
        for name, view in propcheck._VIEWS.items():
            if _apart(ty, view, ordered) != (name in apart):
                self.mismatches.append((name, out, term))
        if type(ty) is Eff and ordered is not None and values["trace"] is not None:
            for v, action in zip(ordered, values["trace"]):  # each tree costs what its trace does
                d, t = v.action(0)[0], action.action
                assert (dyn_span(d), dyn_work(d)) == (dyn_span(t), dyn_work(t))
                self.costs += 1

    def row(self) -> tuple:
        """This input's row of the kill matrix."""
        return (self.compared, *self.apart.values())


def _values(sides, m, consts):
    """The two sides under ``m``, or None if evaluating one raises."""
    try:
        return sides(m, consts)
    except Exception:
        return None


def _apart(ty, m, values) -> bool:
    """Whether ``m`` tells ``values`` apart; values that could not be
    evaluated, or whose comparison raises, are told apart."""
    try:
        return values is None or not value_eq_for(ty, m)(*values)
    except Exception:
        return True


def _tally(suite: str, depth: int, seed: int, trials: int) -> _Tally:
    sig = default_signature()
    label, generate, _ = propcheck._TERM_SUITES[suite]
    tally = _Tally(sig)
    for i in range(trials):
        try:
            term = generate(GenConfig(depth, _sub_seed(seed, i), sig, label), i)
        except Unsatisfiable:
            continue
        pair = _pair(suite, term)
        if pair is not None:
            tally.compare(pair[0], pair[1], term, pair[2])
    return tally


def _fault_tally(row) -> _Tally:
    suite, depth, seed, trials, target, wrong = row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f"purify.{target}", wrong)
        return _tally(suite, depth, seed, trials)


def _swap_tally() -> _Tally:
    """``(probe!, probe!)`` against its opt translation with the pair swapped:
    only state's results name the call they come from."""
    sig, term = parse_and_elaborate("effect probe : Eff Str\npurify { (probe!, probe!) }")
    typecheck(term, SRC, TypeEnv(sig))
    tally = _Tally(sig)
    tally.compare(Eff(term.ty), _swapped_opt(term), term, SRC)
    return tally


def _key(row) -> str:
    return f"{row[0]}/{row[5].__name__}"


@functools.cache
def _suite(suite: str) -> _Tally:
    return _tally(suite, *SUITES[suite], TRIALS)


@pytest.mark.parametrize("suite", SUITES)
def test_no_monad_sees_what_the_ordered_view_misses(suite):
    tally = _suite(suite)
    assert tally.misses == tally.mismatches == [] and tally.row() == KILL_MATRIX[suite]
    assert tally.compared > 0 and (tally.costs > 0) == (suite != "relabel")  # common terms run nothing


@pytest.mark.parametrize("row", FAULT_ROWS, ids=_key)
def test_every_fault_the_monads_kill_the_ordered_view_kills(row):
    tally = _fault_tally(row)
    assert tally.misses == tally.mismatches == [] and tally.row() == KILL_MATRIX[_key(row)]
    view = "ordered" if row[0] == "baseline" else "ordered-shape"
    assert (tally.apart[view] > 0) != (_key(row) in NO_KILL), tally.apart


def test_the_state_only_swap_is_killed():
    tally = _swap_tally()
    assert tally.misses == tally.mismatches == [] and tally.row() == KILL_MATRIX[SWAP]
    assert {n for n, k in tally.apart.items() if k} == {"state", "ordered", "ordered-shape"}


def test_the_position_mark_is_in_no_generated_literal_or_name():
    """A state or ordered result names its call's position after ``@``, and
    the ordered view decides every monad's verdict only while each ``@`` in
    a value is such a position: no literal, constant name or ``SYMBOL``
    holds one, and no literal holds a digit that could run on from it."""
    words = (*propcheck._WORDS, "s")
    assert not any("@" in w or any(ch.isdigit() for ch in w) for w in words)
    assert not any("@" in d.name for d in default_signature())
    assert "@" not in SYMBOL
    for label in (SRC, COM, TGT):
        for i in range(2_000):
            t = gen_term(GenConfig(max_depth=5, seed=40_000 + i, label=label))
            assert not any(type(n) is Lit and "@" in n.value for n in subterms(t))


@pytest.mark.parametrize("view", [_IN_ORDER, _IN_SHAPE, *propcheck._VIEWS.values()],
                         ids=["sequence", "shape", *propcheck._VIEWS])
def test_both_views_obey_the_laws(view):
    report = check_laws(view, 2_000, seed=3)
    assert report.all_passed, {k: v for k, v in report.failures.items() if v}


def test_the_ordered_monad_is_not_a_builtin():
    views = (_IN_ORDER, _IN_SHAPE, *propcheck._VIEWS.values())
    assert "ordered" not in MONADS and {v.name for v in views} == {"ordered"}


if __name__ == "__main__":
    rows = [(s, _suite(s)) for s in SUITES]
    rows += [(_key(r), _fault_tally(r)) for r in FAULT_ROWS]
    rows.append((SWAP, _swap_tally()))
    names = (*FIVE, "ordered", "ordered-shape")
    print("| input | pairs | " + " | ".join(names) + " | misses | view ≠ direct |")
    print("|---" * (len(names) + 4) + "|")
    for key, t in rows:
        print(f"| {key} | {t.compared} | " + " | ".join(str(t.apart[n]) for n in names)
              + f" | {len(t.misses)} | {len(t.mismatches)} |")
    pairs, mismatches = sum(t.compared for _, t in rows), sum(len(t.mismatches) for _, t in rows)
    print(f"\n{pairs} pairs, {pairs * len(propcheck._VIEWS)} verdicts of a view against direct "
          f"evaluation, {mismatches} differing")
