"""Static and dynamic parallelism measures.

``span`` is the length of the longest chain of unhandled effect operations
in a term; ``work`` is their total count.  Both are structural recursions:
values and pure wrappers cost nothing, pairs/applications combine children
by max (span) or sum (work), and Each/Join add one.

Two artifact-specific refinements keep the static numbers aligned with what
actually runs.  First, when a signature is supplied, a saturated application
of an effectful constant in target position counts as one operation (the
optimizing translation embeds such calls directly, without a Join).  Second,
the bind pattern Join(Map(fun, arg)) with a combinator-bodied continuation
is costed sequentially: the effects of both sides add up.

``TraceDag`` is the runtime counterpart: a series-parallel tree of executed
effects, ``Par`` where ``ap`` runs two actions side by side and ``Seq`` where
``bind`` runs one after the other.  Every node stores its span and work; the
latency simulation, DOT output and trace isomorphism are folds over the tree.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass

from .terms import (
    App, Ap, Const, Each, Fst, Join, Lam, Lit, Map, Prd, Pure, PurifyError,
    Signature, Snd, TGT, Term, Unt, Var,
)


class UnknownEffect(PurifyError):
    pass


# ---------------------------------------------------------------------------
# Static span and work
# ---------------------------------------------------------------------------

def _invocation_weight(e: Term, sig: Signature | None) -> int:
    """1 when the node is a saturated effectful-constant use in target position."""
    if sig is None or e.label is not TGT:
        return 0
    if isinstance(e, Const):
        decl = sig.lookup(e.name)
        return 1 if decl is not None and decl.effectful and decl.effect_arity() == 0 else 0
    if isinstance(e, App):
        head, depth = e, 0
        while isinstance(head, App):
            head = head.fun
            depth += 1
        if isinstance(head, Const):
            decl = sig.lookup(head.name)
            if decl is not None and decl.effectful and decl.effect_arity() == depth:
                return 1
    return 0


def _measure(e: Term, sig: Signature | None, combine) -> int:
    def go(t: Term) -> int:
        match t:
            case Var() | Unt() | Lit() | Pure():
                return 0
            case Const():
                return _invocation_weight(t, sig)
            case Lam():
                # Sequencing lambdas carry combinator bodies and stay transparent;
                # ordinary (common-bodied) lambdas are values and cost nothing.
                return go(t.body) if t.body.label is TGT else 0
            case Fst(p) | Snd(p):
                return go(p)
            case App(a, b):
                return _invocation_weight(t, sig) + combine(go(a), go(b))
            case Prd(a, b) | Ap(a, b) | Map(a, b):
                return combine(go(a), go(b))
            case Each(x):
                return 1 + go(x)
            case Join(x):
                if (
                    isinstance(x, Map)
                    and isinstance(x.fun, Lam)
                    and x.fun.body.label is TGT
                ):
                    # bind pattern: first the argument's effects, then the chain
                    # built by the continuation
                    return go(x.arg) + go(x.fun.body)
                return 1 + go(x)
        raise PurifyError(f"unknown term former {type(t).__name__}")

    return go(e)


def span(e: Term, signature: Signature | None = None) -> int:
    """Longest chain of unhandled effect operations."""
    return _measure(e, signature, max)


def work(e: Term, signature: Signature | None = None) -> int:
    """Total count of unhandled effect operations."""
    return _measure(e, signature, lambda a, b: a + b)


# ---------------------------------------------------------------------------
# Series-parallel traces
# ---------------------------------------------------------------------------
# Not frozen: one node is built per compose, and a frozen dataclass's
# __init__ costs about three times as much.  Nothing mutates a trace.

@dataclass(slots=True, eq=False)
class Leaf:
    """One executed effect occurrence."""

    effect: str
    arg: str
    span = 1
    work = 1


@dataclass(slots=True, eq=False)
class Seq:
    """``second`` waits for every effect of ``first``."""

    first: Trace
    second: Trace
    span: int
    work: int


@dataclass(slots=True, eq=False)
class Par:
    """``first`` and ``second`` run independently."""

    first: Trace
    second: Trace
    span: int
    work: int


Trace = Leaf | Seq | Par


@dataclass(slots=True, eq=False)
class TraceDag:
    """An action of the trace monad: the trace of its effects (``None`` when
    it has none) and its result.  Compare traces with ``dag_iso``."""

    tree: Trace | None
    result: object

    @property
    def nodes(self) -> tuple[Leaf, ...]:
        """The executed effects, in construction order."""
        leaves: list[Leaf] = []
        _fold(self.tree, leaves.append, _ignore, _ignore)
        return tuple(leaves)

    def with_result(self, result: object) -> "TraceDag":
        return TraceDag(self.tree, result)


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


def _canonical(tree: Trace, table: dict) -> int:
    """Id in ``table`` of the canonical form of ``tree``: nested Seq and Par
    flattened, Par children sorted.  Two series-parallel traces are
    isomorphic exactly when their canonical forms are equal (Valdes, Tarjan
    & Lawler 1982), and equal forms get equal ids in one table."""
    def close(v) -> int:
        kind, parts = v
        if kind is Leaf:
            return parts
        key = (kind, tuple(parts) if kind is Seq else tuple(sorted(parts)))
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
        return Leaf, table.setdefault((Leaf, t.effect, t.arg), len(table))

    return close(_fold(tree, leaf, flatten(Seq), flatten(Par)))


def dag_iso(a: TraceDag, b: TraceDag) -> bool:
    """Isomorphism respecting effect names, argument labels and edges."""
    if a.tree is None or b.tree is None:
        return a.tree is b.tree
    table: dict = {}
    return _canonical(a.tree, table) == _canonical(b.tree, table)


def to_dot(d: TraceDag) -> str:
    """Graphviz rendering of the expanded trace: nodes labelled name(arg) and
    numbered in construction order, an edge from every last effect of a
    Seq's first half to every first effect of its second half."""
    lines = ["digraph trace {", '  graph [v=1];']
    edges: list[tuple[int, int]] = []

    def leaf(t: Leaf):
        i = len(lines) - 2
        label = f"{t.effect}({t.arg})" if t.arg else t.effect
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
