"""Translations from direct-style source terms to combinator target terms.

``opt_translate`` and ``naive_translate`` are one structural recursion,
``_translate``, with pluggable ``ap``/``join`` constructors: the optimizing
translation passes the smart constructors ``smart_ap`` and ``smart_join``,
which apply the law-based collapses while the target term is built; the
naive one passes the raw ``Ap``/``Join`` nodes.  ``seq_translate`` is the
do-notation baseline: it linearizes every effect into a left-to-right chain
of binds (Join over Map), losing all parallelism.  ``normalize`` rewrites
target terms to a fixed point of the functor/applicative/monad laws; its
Ap collapses are ``smart_ap``'s.
"""

from __future__ import annotations

from typing import Callable, Optional

from .terms import (
    App, Ap, COM, Const, Each, FreshNames, Fst, Join, Label, Lam, Lit, Map,
    NotCommon, Prd, Pure, PurifyError, Snd, TGT, Term, Ty, Unt, Var, children,
    _relabel, relabel, replace_children, size,
)


class FuelExhausted(PurifyError):
    """The rewrite system failed to reach a fixed point within its fuel."""


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def smart_ap(f: Term, e: Term, fresh: FreshNames) -> Term:
    """Applicative application with law-based collapses.

    Pure/Pure collapses by the homomorphism law; a Pure on either side
    collapses to a single Map, binding a name from ``fresh``, by the identity
    and interchange laws; anything else keeps the parallel Ap node.
    """
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


def smart_join(e: Term) -> Term:
    """Effect flattening; a Pure payload embeds directly into the target."""
    if type(e) is Pure:
        return relabel(e.inner, TGT)
    return Join(e, label=TGT)


def opt_translate(e: Term) -> Term:
    """The optimizing one-pass translation from source to target."""
    fresh = FreshNames()
    return _translate(e, lambda f, a: smart_ap(f, a, fresh), smart_join, fresh)


def naive_translate(e: Term) -> Term:
    """Same equations as opt_translate but with raw constructors."""
    return _translate(e, Ap, Join, FreshNames())


def _translate(
    e: Term,
    ap: Callable[[Term, Term], Term],
    join: Callable[[Term], Term],
    fresh: FreshNames,
) -> Term:
    """The translation equations, with ``ap`` and ``join`` as constructors."""

    def go(t: Term) -> Term:
        k = type(t)
        if k is App:
            return ap(go(t.fun), go(t.arg))
        if k is Const or k is Lit or k is Lam or k is Unt or k is Var:
            return Pure(relabel(t, COM), label=TGT)
        if k is Each:
            return join(go(t.eff))
        if k is Prd:
            # the inner lambda is never syntactically applied, so it keeps
            # its parameter type from the checked source
            x, y = fresh.fresh(), fresh.fresh()
            pair = Prd(Var(x, label=COM), Var(y, label=COM), label=COM)
            lift = Lam(x, Lam(y, pair, _stamp(t.snd), label=COM), _stamp(t.fst), label=COM)
            return ap(ap(Pure(lift, label=TGT), go(t.fst)), go(t.snd))
        if k is Fst or k is Snd:
            x = fresh.fresh()
            lift = Lam(x, k(Var(x, label=COM), label=COM), _stamp(t.pair), label=COM)
            return ap(Pure(lift, label=TGT), go(t.pair))
        raise PurifyError(f"not a source term former: {k.__name__}")

    return go(e)


def _stamp(t: Term) -> Ty:
    """The type the checker stamped on ``t``, which a lift lambda carries."""
    if t.ty is None:
        raise PurifyError("translate needs a typechecked source term:"
                          f" a {type(t).__name__} has no type")
    return t.ty


# ---------------------------------------------------------------------------
# Sequential (do-notation) baseline
# ---------------------------------------------------------------------------

def seq_translate(e: Term) -> Term:
    """Fully sequential translation: one left-to-right chain of binds.

    The term is linearized into do-notation bindings, one per effect mark in
    evaluation order (function before argument, left pair component before
    right).  Each bind is the Join-over-Map pattern; the continuation
    lambdas carry explicit combinator bodies, which is what distinguishes
    this baseline from the common-fragment lambdas of the main translation.
    The output contains no Ap node.  The term is copied by ``relabel``'s
    walk, whose mark hook binds each payload before its own name.
    """
    fresh = FreshNames()
    bindings: list[tuple[str, Term]] = []

    def bind(each: Term, lab: Label) -> Term:
        """An effect mark becomes a fresh name bound to its payload."""
        payload = _relabel(each.eff, TGT, bind)
        name = fresh.fresh()
        bindings.append((name, payload))
        return Var(name, label=lab)

    final = _relabel(e, COM, bind)
    return _build_chain(bindings, final)


def _build_chain(bindings: list[tuple[str, Term]], final: Term) -> Term:
    """Nest the binds from the innermost (last) one outwards."""
    if not bindings:
        return Pure(final, label=TGT)
    name, payload = bindings[-1]
    out = Map(Lam(name, final, label=TGT), payload, label=TGT)
    for name, payload in reversed(bindings[:-1]):
        out = Join(Map(Lam(name, out, label=TGT), payload, label=TGT), label=TGT)
    return out


# ---------------------------------------------------------------------------
# Law-based normalizer
# ---------------------------------------------------------------------------

def normalize(e: Term) -> Term:
    """Rewrite a target term to a fixed point of the law rules.

    Rules: map identity, map composition, the Ap collapses (homomorphism,
    identity, interchange -- the same collapses smart_ap performs), the two
    left-unit forms, right unit, and bind associativity.  Fuel derived from
    term size bounds the passes and the rule firings, also those at one
    node; exhausting it signals a bug in the rule system.
    """
    n = size(e)
    sweeps, fire_cap = 4 * n + 4, 1000 * n + 1000
    fresh = FreshNames()
    fires = 0
    for _ in range(sweeps):
        e, total = _sweep(e, fresh, fires, fire_cap)
        if total == fires:
            return e
        fires = total
    raise FuelExhausted(f"normalize did not reach a fixed point within {sweeps} passes")


def _sweep(e: Term, fresh: FreshNames, fired: int, cap: int) -> tuple[Term, int]:
    """One innermost-first pass; returns the new term and the rules fired so
    far, ``fired`` before it.  Past ``cap`` firings it raises ``FuelExhausted``.

    Post-order with an explicit stack: an interior node waits on ``todo``
    as a ``(node, children)`` pair while its children are swept onto
    ``done``.  A subtree in which no rule fired is returned as it was, not
    copied.
    """
    done: list[Term] = []
    todo: list = [e]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t, kids = t
            new = tuple(done[-len(kids):])
            del done[-len(kids):]
            if new[0] is not kids[0] or new[-1] is not kids[-1]:  # 1 or 2 kids
                t = replace_children(t, new)
            while (out := _apply_rule(t, fresh)) is not None:
                t = out
                fired += 1
                if fired > cap:
                    raise FuelExhausted(f"normalize fired more than {cap} rules")
            done.append(t)
            continue
        kids = children(t)
        if kids:
            todo.append((t, kids))
            todo.extend(reversed(kids))
        else:
            done.append(t)  # no rule rewrites a leaf
    return done[0], fired


def _is_identity_lam(f: Term) -> bool:
    return (
        isinstance(f, Lam)
        and isinstance(f.body, Var)
        and f.body.name == f.param
    )


def _is_pure_eta(f: Term) -> bool:
    """Lam x -> pure x, the right-unit continuation."""
    return (
        isinstance(f, Lam)
        and isinstance(f.body, Pure)
        and isinstance(f.body.inner, Var)
        and f.body.inner.name == f.param
    )


def _apply_rule(e: Term, fresh: FreshNames) -> Optional[Term]:
    k = type(e)
    if k is Map:
        f, a = e.fun, e.arg
        if _is_identity_lam(f):
            return a
        if isinstance(a, Map):
            try:
                cf, cg = relabel(f, COM), relabel(a.fun, COM)
            except NotCommon:
                return None
            x = fresh.fresh()
            body = App(cf, App(cg, Var(x, label=COM), label=COM), label=COM)
            return Map(Lam(x, body, label=TGT), a.arg, label=TGT)
    elif k is Ap:
        f, a = e.fun, e.arg
        if isinstance(f, Pure) or isinstance(a, Pure):
            return smart_ap(f, a, fresh)
    elif k is Join:
        inner = e.nested
        if isinstance(inner, Pure):
            return smart_join(inner)  # left unit, join form
        if isinstance(inner, Map):
            g, x = inner.fun, inner.arg
            if isinstance(x, Pure):
                # left unit, bind form: running a pure action is application
                return App(g, relabel(x.inner, TGT), label=TGT)
            if _is_pure_eta(g):
                return x  # right unit
            if isinstance(x, Join) and isinstance(x.nested, Map):
                # associativity: bind g (bind f e) = bind (bind g . f) e
                f_in, e_in = x.nested.fun, x.nested.arg
                v = fresh.fresh()
                rebound = Join(
                    Map(g, App(f_in, Var(v, label=TGT), label=TGT), label=TGT),
                    label=TGT,
                )
                return Join(
                    Map(Lam(v, rebound, label=TGT), e_in, label=TGT), label=TGT
                )
    return None
