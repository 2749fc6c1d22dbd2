"""Static and dynamic parallelism measures.

``span`` is the longest chain of effects that running a term performs, and
``work`` their count, by the work/depth cost semantics of Blelloch & Greiner
(FPCA 1995): an action that is only returned, passed, paired or bound costs
nothing until something runs it.  The fold reads a label only to tell a
node's fragment.  Common nodes cost nothing; source parts combine by max
(span) or sum (work), and a mark adds what its action runs; target ``ap``
combines, ``map`` costs its argument (its function is applied to a result,
never run), ``pure`` nothing, and ``join`` adds what its action's result
runs.  Any other target node is a value whose action runs where it stands.
``_runs`` alone decides what running an action performs.

``TraceDag`` is the runtime counterpart: a series-parallel tree of executed
effects, ``Par`` where ``ap`` runs two actions side by side and ``Seq`` where
``bind`` runs one after the other.  Every node stores its span and work; the
latency simulation, DOT output and trace isomorphism are folds over the tree.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from typing import Callable

from .terms import (
    App, Ap, Const, Each, Fst, Join, Lam, Lit, Map, Prd, Pure, PurifyError,
    SRC, Signature, Snd, TGT, Term, Unt, Var, children,
)


class UnknownEffect(PurifyError):
    pass


# ---------------------------------------------------------------------------
# Static span and work
# ---------------------------------------------------------------------------

def _effect_arities(sig: Signature) -> dict[str, int]:
    return {d.name: d.effect_arity() for d in sig if d.effectful}


_RESULT = object()  # a pending elimination in ``_runs``: take the action's result


def _runs(t: Term, scope: int, pending: list, arity: dict[str, int], env: list):
    """What running the action ``t`` denotes under ``scope`` performs, once
    the eliminations ``pending`` (next one last) apply to it: 1 for one
    effect, 0 for none, or the ``(term, scope)`` that runs in its place.

    An elimination is ``Fst``, ``Snd``, ``_RESULT`` or an argument ``(term,
    scope, result)``, the value of ``term`` or, if ``result``, its action's
    result.  ``env`` holds six slots per binding: param, argument (three
    slots), outer scope, followed; a scope is its innermost binding's index,
    or -1.  Flat slots keep the cyclic collector asleep: a record per binding
    would outlive the walk and make it scan every live term.  A result not
    seen into, such as an effect's, counts as one effect; a function, a pair,
    a free variable and an unsaturated constant run nothing.  Each binding is
    followed once at most over all walks, so the walks are linear and end.
    """
    while True:
        k = type(t)
        if k is App:
            pending.append((t.arg, scope, False))
            t = t.fun
        elif k is Const:
            n = arity.get(t.name)  # saturated, also when its result is taken
            return int(n is not None and n <= len(pending))
        elif k is Pure or k is Map or k is Ap:
            if not pending or pending[-1] is not _RESULT:
                return t, scope
            if k is Pure:
                pending.pop()
                t = t.inner
            else:  # map f a returns f(result of a); ap f a, (result of f)(result of a)
                pending[-1] = (t.arg, scope, True)
                if k is Ap:
                    pending.append(_RESULT)
                t = t.fun
        elif k is Join:
            return 1 if pending and pending[-1] is _RESULT else (t, scope)
        elif k is Lam and pending and type(pending[-1]) is tuple:
            env += (t.param, *pending.pop(), scope, False)
            scope, t = len(env) - 6, t.body
        elif k is Var:
            b = scope
            while b >= 0 and env[b] != t.name:
                b = env[b + 4]
            if b < 0 or env[b + 5]:  # free, or followed before: a value not seen into
                return int(_RESULT in pending)
            env[b + 5] = True
            t, scope = env[b + 1], env[b + 2]
            if env[b + 3]:
                pending.append(_RESULT)
        elif k is Fst or k is Snd:
            pending.append(k)
            t = t.pair
        elif k is Prd and pending and (pending[-1] is Fst or pending[-1] is Snd):
            t = t.fst if pending.pop() is Fst else t.snd
        elif k is Each:
            return 1  # a mark's value is an action's result
        elif k is Lam or k is Prd or k is Lit or k is Unt:
            return 0
        else:
            raise PurifyError(f"unknown term former {k.__name__}")


# Work stack entries besides terms: an int, the scope of the terms above it, or
# combine the top two (span, work) values by (max, +), or add them (a bind).
_COMBINE, _ADD = "combine", "add"


def span_work(e: Term, sig: Signature) -> tuple[int, int]:
    """Span and work of ``e`` in one fold, with a work and a value stack."""
    arity = sig.table(_effect_arities)
    env: list = []
    vals: list[tuple[int, int]] = []
    todo: list = [e]
    scope = -1
    while todo:
        t = todo.pop()
        k = type(t)
        if k is str:
            s, w = vals.pop()
            s0, w0 = vals[-1]
            vals[-1] = (s0 + s if t is _ADD else s if s > s0 else s0, w0 + w)
            continue
        if k is int:
            scope = t
            continue
        lab = t.label
        if k is Join or k is Each:
            # the part, then what running its value runs (a join's: its result)
            x = t.nested if k is Join else t.eff
            r = _runs(x, scope, [_RESULT] if k is Join else [], arity, env)
            if type(r) is not tuple:  # running the value runs r effects
                vals.append((r, r))
            todo += (_ADD, scope, *r, x) if type(r) is tuple else (_ADD, x)
        elif lab is TGT:
            if k is Ap:
                todo += (_COMBINE, t.arg, t.fun)
            elif k is Map:
                todo.append(t.arg)
            elif k is Pure:
                vals.append((0, 0))
            else:
                r = _runs(t, scope, [], arity, env)
                if type(r) is tuple:
                    todo += (scope, *r)
                else:
                    vals.append((r, r))
        elif lab is SRC and k is App:
            todo += (_COMBINE, t.arg, t.fun)
        elif lab is SRC and k is Prd:
            todo += (_COMBINE, t.snd, t.fst)
        elif lab is SRC and (k is Fst or k is Snd):
            todo.append(t.pair)
        else:
            children(t)  # which rejects an unknown kind
            vals.append((0, 0))
    return vals[0]


def span(e: Term, signature: Signature) -> int:
    """Longest chain of effect operations that running ``e`` performs."""
    return span_work(e, signature)[0]


def work(e: Term, signature: Signature) -> int:
    """Total count of effect operations that running ``e`` performs."""
    return span_work(e, signature)[1]


# ---------------------------------------------------------------------------
# Series-parallel traces
# ---------------------------------------------------------------------------
# Nothing mutates a trace, yet its nodes are not frozen: one is built per
# compose, and an __init__ that goes round __setattr__ costs about 3x more.

class Leaf:
    """One executed effect occurrence."""

    __slots__ = ("effect", "arg")
    span = work = 1

    def __init__(self, effect: str, arg: str):
        self.effect, self.arg = effect, arg


class Seq:
    """``second`` waits for every effect of ``first``."""

    __slots__ = ("first", "second", "span", "work")

    def __init__(self, first: Trace, second: Trace, span: int, work: int):
        self.first, self.second = first, second
        self.span, self.work = span, work


class Par:
    """``first`` and ``second`` run independently."""

    __slots__ = ("first", "second", "span", "work")
    __init__ = Seq.__init__


Trace = Leaf | Seq | Par
LEAF_KEY = operator.attrgetter("effect", "arg")  # what tells two leaves apart


class TraceDag:
    """An action of the trace monad: the trace of its effects (``None`` when
    it has none) and its result.  Compare traces with ``dag_iso``."""

    __slots__ = ("tree", "result")

    def __init__(self, tree: Trace | None, result: object):
        self.tree, self.result = tree, result

    @property
    def nodes(self) -> tuple[Leaf, ...]:
        """The executed effects, in construction order."""
        leaves: list[Leaf] = []
        _fold(self.tree, leaves.append, _ignore, _ignore)
        return tuple(leaves)


def empty_dag(result: object) -> TraceDag:
    return TraceDag(None, result)


def single_effect(effect: str, arg: str, result: object) -> TraceDag:
    return TraceDag(Leaf(effect, arg), result)


def parallel_compose(a: TraceDag, b: TraceDag, result: object) -> TraceDag:
    """Both halves may run independently."""
    x, y = a.tree, b.tree
    if x is None or y is None:
        return TraceDag(y if x is None else x, result)
    return TraceDag(Par(x, y, max(x.span, y.span), x.work + y.work), result)


def sequential_compose(a: TraceDag, b: TraceDag, result: object) -> TraceDag:
    """Everything in ``b`` waits for everything in ``a`` to finish."""
    x, y = a.tree, b.tree
    if x is None or y is None:
        return TraceDag(y if x is None else x, result)
    return TraceDag(Seq(x, y, x.span + y.span, x.work + y.work), result)


def _ignore(a, b) -> None:
    return None


def _fold(tree: Trace | None, leaf, seq, par):
    """Post-order fold with explicit stacks, visiting leaves in order; ``None``
    for the empty trace.  A subtree shared by two parents (an effect value
    run twice) is folded once per occurrence, like the effects it stands for."""
    stack: list = [] if tree is None else [tree]
    values: list = []
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Leaf:
            values.append(leaf(t))
        elif kind is Seq:
            stack += (seq, t.second, t.first)
        elif kind is Par:
            stack += (par, t.second, t.first)
        else:  # a combiner pushed above, its two operands now folded
            b = values.pop()
            values[-1] = t(values[-1], b)
    return values.pop() if values else None


def dyn_span(d: TraceDag) -> int:
    """Number of effects on the longest dependency path."""
    return 0 if d.tree is None else d.tree.span


def dyn_work(d: TraceDag) -> int:
    return 0 if d.tree is None else d.tree.work


def simulate_latency(d: TraceDag, latencies: dict[str, float]) -> float:
    """Critical-path completion time with unbounded workers."""
    def cost(leaf: Leaf) -> float:
        if leaf.effect not in latencies:
            raise UnknownEffect(f"no latency for effect {leaf.effect!r}")
        return latencies[leaf.effect]

    return float(_fold(d.tree, cost, operator.add, max) or 0)


def _canonical(tree: Trace, table: dict, ordered: bool, key: Callable) -> int:
    """Id in ``table`` of the canonical form of ``tree``: leaves by ``key``, nested
    Seq and Par flattened, Par children sorted unless ``ordered``.  Two series-parallel
    traces are isomorphic exactly when their canonical forms are equal (Valdes,
    Tarjan & Lawler 1982), and equal forms get equal ids in one table."""
    def close(v) -> int:
        kind, parts = v
        if kind is Leaf:
            return parts
        key = (kind, tuple(parts) if kind is Seq or ordered else tuple(sorted(parts)))
        return table.setdefault(key, len(table))

    def flatten(kind):
        def combine(x, y):
            xs = x[1] if x[0] is kind else deque((close(x),))
            ys = y[1] if y[0] is kind else deque((close(y),))
            if len(xs) >= len(ys):  # splice the shorter run into the longer
                xs.extend(ys)
                return kind, xs
            ys.extendleft(reversed(xs))
            return kind, ys
        return combine

    def leaf(t: Leaf):
        return Leaf, table.setdefault((Leaf, key(t)), len(table))

    return close(_fold(tree, leaf, flatten(Seq), flatten(Par)))


def dag_iso(a: TraceDag, b: TraceDag, ordered: bool = False, key: Callable = LEAF_KEY) -> bool:
    """Isomorphism respecting edges and each leaf's ``key`` (its effect name and
    argument label); if ``ordered``, also the left-to-right order of each Par's children."""
    if a.tree is None or b.tree is None:
        return a.tree is b.tree
    table: dict = {}
    return _canonical(a.tree, table, ordered, key) == _canonical(b.tree, table, ordered, key)


def to_dot(d: TraceDag) -> str:
    """Graphviz rendering of the expanded trace: nodes labelled name(arg) and
    numbered in construction order, an edge from every last effect of a
    Seq's first half to every first effect of its second half."""
    lines = ["digraph trace {", '  graph [v=1];']
    edges: list[tuple[int, int]] = []

    def leaf(t: Leaf):
        i = len(lines) - 2
        label = f"{t.effect}({t.arg})" if t.arg else t.effect
        label = label.replace("\\", "\\\\").replace('"', '\\"')  # DOT's string escapes
        lines.append(f'  n{i} [label="{label}"];')
        return [i], [i]  # sources, sinks

    def seq(x, y):
        edges.extend(itertools.product(x[1], y[0]))
        return x[0], y[1]

    def par(x, y):
        return _union(x[0], y[0]), _union(x[1], y[1])

    _fold(d.tree, leaf, seq, par)
    lines += (f"  n{a_} -> n{b_};" for a_, b_ in sorted(edges))
    lines.append("}")
    return "\n".join(lines)


def _union(xs: list, ys: list) -> list:
    if len(xs) < len(ys):
        xs, ys = ys, xs
    xs.extend(ys)
    return xs
