"""Static and dynamic parallelism measures.

``span`` is the length of the longest chain of unhandled effect operations
in a term; ``work`` is their total count.  Both are one post-order fold:
values and pure wrappers cost nothing, a map costs its argument (its
function is applied to the argument's result, never run), pairs and
applications combine children by max (span) or sum (work), and Each/Join
add one.

Three refinements keep the static numbers aligned with what actually
runs.  First, a saturated application of an effectful constant in target
position counts as one operation (the optimizing translation embeds such
calls directly, without a Join), also when it is reached through applied
common-bodied lambdas (let-style redexes, as ``let`` elaborates and
normalization leaves behind).  Second, the bind pattern Join(Map(fun, arg))
with a combinator-bodied continuation is costed sequentially: the effects
of both sides add up.  Third, a mark on a ``prim`` constant's call adds none.

``TraceDag`` is the runtime counterpart: a series-parallel tree of executed
effects, ``Par`` where ``ap`` runs two actions side by side and ``Seq`` where
``bind`` runs one after the other.  Every node stores its span and work; the
latency simulation, DOT output and trace isomorphism are folds over the tree.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque

from .terms import (
    App, Ap, COM, Const, Each, Fst, Join, Lam, Lit, Map, Prd, Pure, PurifyError,
    Signature, Snd, TGT, Term, Unt, Var,
)


class UnknownEffect(PurifyError):
    pass


# ---------------------------------------------------------------------------
# Static span and work
# ---------------------------------------------------------------------------

def _saturated(head: Term, apps: list[App], depth: int,
               arity: dict[str, int]) -> bool:
    """True when ``head`` applied to the arguments of the innermost
    ``depth`` of ``apps`` (an application spine, outermost first) performs
    one effect.

    That is an effectful constant given exactly its effect arity, also when
    it is the body result of an applied common-bodied lambda: the let-style
    redex ``(fun x -> fetch(x ++ "config"))("base")`` runs one fetch.  A
    parameter of a lambda entered on the way that is still applied to an
    argument stands for the argument it was bound to, so
    ``(fun f -> f("u"))(fetch)`` runs one fetch too.  Each binding is
    followed once at most, so the walk stays linear in the term and ends
    on any term, an ill-typed self-application included.
    """
    if type(head) is Const:
        return arity.get(head.name) == depth
    todo = [(a.arg, None) for a in apps[len(apps) - depth:]]  # next one last
    scope = None  # bindings made on the way: [param, (arg, its scope), outer, followed]
    while True:
        k = type(head)
        if k is App:
            todo.append((head.arg, scope))
            head = head.fun
        elif k is Lam and todo and head.body.label is not TGT:
            scope = [head.param, todo.pop(), scope, False]
            head = head.body
        elif k is Var and todo:
            b = scope
            while b is not None and b[0] != head.name:
                b = b[2]
            if b is None or b[3]:
                return False
            b[3] = True
            head, scope = b[1]
        else:
            return k is Const and arity.get(head.name) == len(todo)


def _effect_arities(sig: Signature) -> dict[str, int]:
    return {d.name: d.effect_arity() for d in sig if d.effectful}


def _prim_call(action: Term, sig: Signature) -> bool:
    """True when ``action`` (under Each), or the action it returns (under
    Join), is a call of a constant the signature declares ``prim``, whose
    action runs no effect: ``p(x)``, ``(fun y -> p(y))(x)``, ``pure (p x)``,
    ``ap (pure p) a`` or ``map (fun y -> p(y)) a``.  As in ``_saturated``, a
    lambda's parameter stands for its argument (an ``ap``'s or ``map``'s when
    that is a ``pure``), so ``let a = k in a!`` runs no effect either."""
    todo: list = []  # arguments still to apply, next one last; None if unknown
    scope = None  # [param, (arg, its scope) or None, outer, followed]
    while True:
        k = type(action)
        if k is App:
            todo.append((action.arg, scope))
            action = action.fun
        elif k is Ap or k is Map:
            a = action.arg
            todo.append((a.inner, scope) if type(a) is Pure else None)
            action = action.fun
        elif k is Pure:
            action = action.inner
        elif k is Lam and action.body.label is COM:
            scope = [action.param, todo.pop() if todo else None, scope, False]
            action = action.body
        elif k is Var:
            b = scope
            while b is not None and b[0] != action.name:
                b = b[2]
            if b is None or b[1] is None or b[3]:
                return False
            b[3] = True
            action, scope = b[1]
        else:
            break
    decl = sig.lookup(action.name) if k is Const else None
    return decl is not None and not decl.effectful


# Instructions on the fold's work stack, between the terms (never ints):
# combine the top two values by max (span) or + (work), add them (a bind
# runs one side after the other), add one to the top value (an effect).
_COMBINE, _ADD, _ONE = range(3)


def _measure(e: Term, sig: Signature, use_max: bool) -> int:
    """The span (``use_max``) or work fold, with a work and a value stack.

    Lambdas with combinator bodies (the sequencing continuations) are
    transparent; other lambdas are values and cost nothing.
    """
    arity = sig.table(_effect_arities)
    vals: list[int] = []
    todo: list = [e]
    while todo:
        t = todo.pop()
        k = type(t)
        if k is int:
            if t == _ONE:
                vals[-1] += 1
                continue
            b = vals.pop()
            if t == _ADD or not use_max:
                vals[-1] += b
            elif b > vals[-1]:
                vals[-1] = b
        elif k is Ap:
            todo += (_COMBINE, t.arg, t.fun)
        elif k is Map:
            todo.append(t.arg)
        elif k is App:
            # the whole application spine at once, since whether a node is
            # a saturated call depends on its depth in the spine
            spine = []
            while type(t) is App:
                spine.append(t)
                t = t.fun
            depth = len(spine)
            for s in spine:
                if arity and s.label is TGT and _saturated(t, spine, depth, arity):
                    todo.append(_ONE)
                todo += (_COMBINE, s.arg)
                depth -= 1
            todo.append(t)
        elif k is Var or k is Unt or k is Lit or k is Pure:
            vals.append(0)
        elif k is Const:
            vals.append(1 if t.label is TGT and arity.get(t.name) == 0 else 0)
        elif k is Lam:
            if t.body.label is TGT:
                todo.append(t.body)
            else:
                vals.append(0)
        elif k is Join:
            x = t.nested
            if type(x) is Map and type(x.fun) is Lam and x.fun.body.label is TGT:
                # bind pattern: first the argument's effects, then the chain
                # built by the continuation
                todo += (_ADD, x.fun.body, x.arg)
            elif _prim_call(x, sig):
                todo.append(x)
            else:
                todo += (_ONE, x)
        elif k is Each:
            todo += (t.eff,) if _prim_call(t.eff, sig) else (_ONE, t.eff)
        elif k is Prd:
            todo += (_COMBINE, t.snd, t.fst)
        elif k is Fst or k is Snd:
            todo.append(t.pair)
        else:
            raise PurifyError(f"unknown term former {k.__name__}")
    return vals[0]


def span(e: Term, signature: Signature) -> int:
    """Longest chain of unhandled effect operations."""
    return _measure(e, signature, True)


def work(e: Term, signature: Signature) -> int:
    """Total count of unhandled effect operations."""
    return _measure(e, signature, False)


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
