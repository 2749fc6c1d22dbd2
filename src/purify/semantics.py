"""Evaluation of guest terms under pluggable lawful monads.

One evaluator walks every term, with the target combinators mapped onto the
active monad's operations; a source term evaluates to an action, a common or
target term to a value.  Four builtin monads are provided (option, state,
writer, trace), plus a deliberately order-flipped writer whose ``ap`` runs
its argument before its function: it satisfies every law, yet distinguishes
the applicative from the left-to-right bind chaining -- which is exactly why
the translation keeps Ap nodes instead of lowering them to binds.  Each
monad's constructor is the one place that defines its behaviour, including
what one effect call does, which behavior kinds a config may give it and
what ``purify run`` reports; ``check_laws`` samples its actions from that
same effect call, and ``BEHAVIOR_KINDS`` is the union of the kinds.  Every
caller, ``purify run`` and the suites alike, evaluates a term under one monad.

Guest values are host data, as in a definitional interpreter: a Str is a
``str``, unit ``()``, a pair a 2-tuple and a function a Python callable.
Only an action is wrapped (``VEff``), and a constant environment is a plain
``{name: value}`` dict.  A node's label decides lift-late: an application,
pair or projection labelled src composes its operands through ``_apply``, so
effect-free source code runs as host code and enters the monad only at a
mark, by laws ``check_laws`` checks: ``map`` where one operand is pure
(``apl``, ``apr``), a marked pure action runs as itself (``idl``), and ``ap``
stays where both operands run effects.

``value_eq_for`` compares functions on one symbolic argument, ``SYMBOL``:
in this branch-free language that decides their equality, as in
normalization by evaluation.
"""

from __future__ import annotations

import operator
import random
from typing import Callable, Optional

from .metrics import (
    TraceDag, dag_iso, dyn_span, dyn_work, empty_dag, parallel_compose,
    sequential_compose, simulate_latency, single_effect,
)
from .terms import (
    App, Ap, Arrow, Const, Each, Eff, Fst, Join, Label, Lam, Lit, Map,
    Prd, Prod, Pure, PurifyError, SRC, STR, Signature, Snd, Term, Unit,
    Str, Unt, Var, slot_dict, type_name,
)


class EvalError(PurifyError):
    pass


class SignatureMismatch(PurifyError):
    pass


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------
# A function is total on well-typed arguments.  An action is wrapped because
# a monad's own actions are host data too (a state function, a writer pair).

class VEff:
    """A monadic action as a first-class value (one monad per run)."""

    __slots__ = ("action",)

    def __init__(self, action):
        self.action = action


VUNIT = ()


def render_value(v: object) -> str:
    k = type(v)
    if k is str:
        return v
    if k is tuple:
        return f"({render_value(v[0])},{render_value(v[1])})" if v else "()"
    if k is VEff:
        return "<eff>"
    if callable(v):
        return "<fun>"
    raise EvalError(f"unknown value {v!r}")


def base_value_eq(a: object, b: object) -> bool:
    """``==`` on first-order values; a function or an action is compared only
    at its type, by ``value_eq_for``."""
    k = type(a)
    if k is str:
        return a == b
    if k is tuple:
        return type(b) is tuple and len(a) == len(b) and all(map(base_value_eq, a, b))
    if k is not type(b):
        return False
    raise EvalError(f"{k.__name__} values need a type-directed comparator")


# ---------------------------------------------------------------------------
# Monad dictionaries
# ---------------------------------------------------------------------------

ValueEq = Callable[[object, object], bool]


class MonadDict:
    """Runtime bundle of pure/map/ap/bind plus observational equality.

    ``effect(name, result_ty, behavior)`` reads one effect constant's config
    entry (or {}) and returns its ``call(args, tag, result)``: the action of
    one call (``args`` rendered, ``tag`` the call as text, ``result`` its
    default value).  It is the monad's only model of an effect: programs
    run it and ``check_laws`` draws its samples from it.  ``report(action,
    latencies)`` gives the JSON fields ``purify run`` prints; ``kinds``, in
    order, the behavior kinds a config may give (``BEHAVIOR_KINDS`` is their union).
    """

    __slots__ = ("name", "pure", "map", "ap", "bind", "run_eq", "effect", "report", "kinds")

    def __init__(self, name: str, pure: Callable, map: Callable, ap: Callable, bind: Callable,
                 run_eq: Callable, effect: Callable,
                 report: Callable[[object, dict[str, float]], dict], kinds: tuple[str, ...]):
        self.name, self.pure, self.map, self.ap, self.bind = name, pure, map, ap, bind
        self.run_eq, self.effect, self.report, self.kinds = run_eq, effect, report, kinds


class _Absent:
    def __repr__(self) -> str:
        return "ABSENT"


ABSENT = _Absent()


def option_monad() -> MonadDict:
    def pure(v):
        return v

    def map_(f, a):
        return ABSENT if a is ABSENT else f(a)

    def ap(af, ax):
        if af is ABSENT or ax is ABSENT:
            return ABSENT
        return af(ax)

    def bind(k, a):
        return ABSENT if a is ABSENT else k(a)

    def run_eq(a, b, value_eq: ValueEq = base_value_eq):
        if (a is ABSENT) != (b is ABSENT):
            return False
        return True if a is ABSENT else value_eq(a, b)

    def effect(name, result_ty, behavior):
        if behavior.get("kind") == "absent":
            return lambda args, tag, result: ABSENT
        return lambda args, tag, result: result

    def report(a, latencies):
        if a is ABSENT:
            return {"absent": True}
        return {"absent": False, "value": render_value(a)}

    return MonadDict("option", pure, map_, ap, bind, run_eq, effect, report, ("value", "absent"))


def state_monad() -> MonadDict:
    def pure(v):
        return lambda s: (v, s)

    def map_(f, a):
        def run(s):
            v, s1 = a(s)
            return f(v), s1

        return run

    def ap(af, ax):
        def run(s):
            vf, s1 = af(s)
            vx, s2 = ax(s1)
            return vf(vx), s2

        return run

    def bind(k, a):
        def run(s):
            v, s1 = a(s)
            return k(v)(s1)

        return run

    def run_eq(a, b, value_eq: ValueEq = base_value_eq):
        for s0 in (0, 1, 2):
            va, sa = a(s0)
            vb, sb = b(s0)
            if sa != sb or not value_eq(va, vb):
                return False
        return True

    def effect(name, result_ty, behavior):
        if behavior.get("kind") == "value":
            return lambda args, tag, result: pure(result)
        if result_ty is STR:
            return lambda args, tag, result: lambda s: (f"{tag}@{s}", s + 1)
        return lambda args, tag, result: lambda s: (seed_value(result_ty, f"{tag}@{s}", m), s + 1)

    def report(a, latencies):
        value, final_state = a(0)
        return {"value": render_value(value), "final_state": final_state}

    m = MonadDict("state", pure, map_, ap, bind, run_eq, effect, report, ("value", "state_incr"))
    return m


def _writer(monad_name: str, flipped: bool) -> MonadDict:
    def pure(v):
        return (v, ())

    def map_(f, a):
        v, w = a
        return f(v), w

    def ap(af, ax):
        vf, wf = af
        vx, wx = ax
        log = wx + wf if flipped else wf + wx
        return vf(vx), log

    def bind(k, a):
        v, w = a
        v2, w2 = k(v)
        return v2, w + w2

    def run_eq(a, b, value_eq: ValueEq = base_value_eq):
        return a[1] == b[1] and value_eq(a[0], b[0])

    def effect(name, result_ty, behavior):
        kind, payload = behavior.get("kind"), behavior.get("payload")
        if kind == "value":
            return lambda args, tag, result: pure(result)
        if kind == "log" and payload is not None:
            return lambda args, tag, result, _entry=(str(payload),): (result, _entry)
        return lambda args, tag, result: (result, (tag,))

    def report(a, latencies):
        return {"value": render_value(a[0]), "log": list(a[1])}

    return MonadDict(monad_name, pure, map_, ap, bind, run_eq, effect, report, ("value", "log"))


def writer_monad() -> MonadDict:
    return _writer("writer", flipped=False)


def mixed_order_writer() -> MonadDict:
    """A fully lawful monad whose ap is the right-to-left applicative.

    Every one of the ten laws holds, yet its ap is not the left-to-right
    bind chain; programs with order-sensitive parallel effects observe the
    difference against the sequential baseline.
    """
    return _writer("writer-rtl", flipped=True)


def trace_monad() -> MonadDict:
    def pure(v):
        return empty_dag(v)

    def map_(f, d: TraceDag):
        return TraceDag(d.tree, f(d.result))

    def ap(df: TraceDag, dx: TraceDag):
        return parallel_compose(df, dx, df.result(dx.result))

    def bind(k, d: TraceDag):
        d2 = k(d.result)
        return sequential_compose(d, d2, d2.result)

    def run_eq(a: TraceDag, b: TraceDag, value_eq: ValueEq = base_value_eq):
        return dag_iso(a, b) and value_eq(a.result, b.result)

    def effect(name, result_ty, behavior):
        return lambda args, tag, result: single_effect(name, args, result)

    def report(d: TraceDag, latencies):
        return {"value": render_value(d.result), "dyn_span": dyn_span(d),
                "dyn_work": dyn_work(d), "latency_ms": simulate_latency(d, latencies)}

    return MonadDict("trace", pure, map_, ap, bind, run_eq, effect, report, ("value",))


MONADS: dict[str, Callable[[], MonadDict]] = {
    "option": option_monad, "state": state_monad, "writer": writer_monad,
    "trace": trace_monad, "writer-rtl": mixed_order_writer,
}


def builtin_monads() -> list[MonadDict]:
    """The monads every suite runs under: all of MONADS but the order-flipped
    writer, which the sequential baseline tells apart by design."""
    return [make() for make in MONADS.values() if make is not mixed_order_writer]


# ---------------------------------------------------------------------------
# Constant environments
# ---------------------------------------------------------------------------

ConstEnv = dict  # constant name -> its value under one monad


def seed_value(ty, tag: str, m: MonadDict, runs: bool = False) -> object:
    """Deterministic, type-correct default value derived from a tag.  An
    action in it is pure or, if ``runs``, runs one effect named by its tag."""
    k = type(ty)
    if k is Str:
        return tag
    if k is Unit:
        return VUNIT
    if k is Prod:
        return seed_value(ty.left, tag + ".1", m, runs), seed_value(ty.right, tag + ".2", m, runs)
    if k is Arrow:
        cod = ty.cod
        return lambda v: seed_value(cod, f"{tag}({render_value(v)})", m, runs)
    if k is Eff:
        if runs:
            return _effect_const(m, tag, ty, {})
        return VEff(m.pure(seed_value(ty.inner, tag + "^", m)))
    raise EvalError(f"unknown type {ty!r}")


# Behavior kinds a config may name: each monad's ``kinds``, the ones its ``effect``
# reads, in MONADS order.  ``state_incr`` names the state monad's default.
BEHAVIOR_KINDS = tuple(dict.fromkeys(k for make in MONADS.values() for k in make().kinds))


def _effect_const(m: MonadDict, name: str, ty, behavior: dict) -> object:
    """Effect ``name`` of type ``ty`` under ``m``: a curried function, one argument
    per arrow, ending in the call's action.  Behavior and payload are read once."""
    eff, arity = ty, 0
    while type(eff) is Arrow:
        eff, arity = eff.cod, arity + 1
    result_ty, payload = eff.inner, behavior.get("payload")
    act = m.effect(name, result_ty, behavior)
    if payload is not None and result_ty == STR:
        result = lambda tag, _fixed=str(payload): _fixed
    elif result_ty is STR:
        result = str  # a Str result is its tag, which str() returns unchanged
    else:
        result = lambda tag: seed_value(result_ty, tag, m)

    def call(args: str) -> VEff:  # args: every argument, rendered
        tag = f"{name}({args})"
        return VEff(act(args, tag, result(tag)))

    def curry(rendered: str, left: int) -> Callable[[object], object]:
        if left == 1:
            return lambda v: call(rendered + render_value(v))
        return lambda v: curry(f"{rendered}{render_value(v)},", left - 1)

    return curry("", arity) if arity else VEff(act("", name, result(name)))


def _require_observed_payload(m: MonadDict, name: str, ty, behavior: dict) -> None:
    """A payload the monad never observes is a config error.  The monad
    decides: the effect constant with the payload and with another one must
    differ under ``value_eq_for`` at its declared type."""
    other = {**behavior, "payload": f"{behavior['payload']}'"}
    if value_eq_for(ty, m)(_effect_const(m, name, ty, behavior), _effect_const(m, name, ty, other)):
        while type(ty) is Arrow:
            ty = ty.cod
        raise PurifyError(
            f"behavior payload for {name!r} is never observed under the {m.name} "
            f"monad (kind {behavior.get('kind', 'default')}, result {type_name(ty.inner)})"
        )


def _pure_const(m: MonadDict, name: str, ty) -> object:
    if name == "concat" and ty == Arrow(STR, Arrow(STR, STR)):
        return lambda a: lambda b: a + b
    return seed_value(ty, name, m)


def make_const_env(sig: Signature, m: MonadDict,
                   behaviors: Optional[dict] = None) -> ConstEnv:
    """Interpret every declared constant for one monad.

    Effectful constants become curried functions ending in an action whose
    observable behavior depends on the monad (a trace node, a log entry, a
    state increment, an optional value), optionally overridden per name by
    an effect-behavior config.  A config payload the monad never observes,
    or a kind it does not read, raises ``PurifyError``.
    """
    env = {}
    for decl in sig:
        if decl.effectful:
            behavior = (behaviors or {}).get(decl.name) or {}
            if behavior.get("payload") is not None:
                _require_observed_payload(m, decl.name, decl.ty, behavior)
            if behavior.get("kind", "value") not in m.kinds:
                raise PurifyError(f"behavior kind {behavior['kind']!r} for {decl.name!r} "
                                  f"is never observed under the {m.name} monad")
            env[decl.name] = _effect_const(m, decl.name, decl.ty, behavior)
        else:
            env[decl.name] = _pure_const(m, decl.name, decl.ty)
    return env


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _as_action(v: object):
    if type(v) is not VEff:
        raise EvalError(f"expected an effectful value, got {type(v).__name__}")
    return v.action


class _Lifted(VEff):
    """A source result that has met a mark: ``m``'s action, not a value."""

    __slots__ = ()


def evaluate(e: Term, label: Label, m: MonadDict, consts: ConstEnv):
    """Evaluate a checked term: an action at src, a direct value otherwise."""
    r = _eval(e, m, consts, {})
    if label is not SRC:
        return r
    return r.action if type(r) is _Lifted else m.pure(r)


def _eval(e: Term, m: MonadDict, consts: ConstEnv, scope: dict[str, object]) -> object:
    """The value of ``e``, or the ``_Lifted`` action of a source node that has
    run a mark.  Only a node labelled src composes its operands through
    ``_apply``; each shortcut there names the law that allows it."""
    # exact-type tests, most frequent kind first: cheaper than class patterns
    k = type(e)
    if k is Lit:
        return e.value
    if k is App:
        f, x = _eval(e.fun, m, consts, scope), _eval(e.arg, m, consts, scope)
        return _apply(m, f, x) if e.label is SRC else f(x)
    if k is Lam:
        return _closure(e.param, e.body, m, consts, scope)
    if k is Const:
        if e.name not in consts:
            raise SignatureMismatch(f"no interpretation for constant {e.name!r}")
        return consts[e.name]
    if k is Each:
        a = _eval(e.eff, m, consts, scope)
        return _Lifted(m.bind(_as_action, a.action) if type(a) is _Lifted else _as_action(a))  # idl
    if k is Prd:
        a = _eval(e.fst, m, consts, scope)
        if e.label is SRC:
            return _apply(m, _apply(m, _PAIR, a), _eval(e.snd, m, consts, scope))
        return a, _eval(e.snd, m, consts, scope)
    if k is Unt:
        return VUNIT
    if k is Pure:
        return VEff(m.pure(_eval(e.inner, m, consts, scope)))
    if k is Var:
        return scope[e.name]
    if k is Map:
        vf = _eval(e.fun, m, consts, scope)
        return VEff(m.map(vf, _as_action(_eval(e.arg, m, consts, scope))))
    if k is Fst:
        v = _eval(e.pair, m, consts, scope)
        return _apply(m, _FST, v) if e.label is SRC else v[0]
    if k is Ap:
        vf = _eval(e.fun, m, consts, scope)
        return VEff(m.ap(_as_action(vf), _as_action(_eval(e.arg, m, consts, scope))))
    if k is Join:
        return VEff(m.bind(_as_action, _as_action(_eval(e.nested, m, consts, scope))))
    if k is Snd:
        v = _eval(e.pair, m, consts, scope)
        return _apply(m, _SND, v) if e.label is SRC else v[1]
    raise EvalError(f"unknown term former {k.__name__}")


def _closure(param: str, body: Term, m: MonadDict, consts: ConstEnv, scope: dict) -> Callable:
    # not nested in ``_eval``, whose every call would then make a cell per captured name
    def closure(v: object) -> object:
        inner = dict(scope)
        inner[param] = v
        return _eval(body, m, consts, inner)

    return closure


# the source's pair former and projections, as the functions ``_apply`` applies
_PAIR, _FST, _SND = (lambda a: lambda b: (a, b)), operator.itemgetter(0), operator.itemgetter(1)


def _apply(m: MonadDict, f, x):
    """``f`` applied to ``x``, each a host value or ``_Lifted``."""
    if type(f) is _Lifted:
        if type(x) is _Lifted:
            return _Lifted(m.ap(f.action, x.action))
        return _Lifted(m.map(lambda vf, x=x: vf(x), f.action))  # apr; x a default, not a cell
    if type(x) is _Lifted:
        return _Lifted(m.map(f, x.action))  # apl
    return f(x)  # apl, aplr


# ---------------------------------------------------------------------------
# Type-directed observational equality
# ---------------------------------------------------------------------------

SYMBOL = "\u00a7"  # in no generated literal, constant name or tag


def value_eq_for(ty, m: MonadDict) -> ValueEq:
    """Observational equality at a type: structural at base types, run_eq on
    the actions at effect types, and for functions equality of the results
    on one argument, ``seed_value(dom, SYMBOL, m, True)``.

    This decides function equality while ``SYMBOL`` occurs in no literal,
    constant name or tag: nothing branches, ``concat`` concatenates and
    every other constant renders its arguments into tags, so any observation
    is a substitution instance of the result on the symbol.  Each action in
    the argument, nested or not, runs one effect named by its tag, so when and
    how often the function runs it shows.
    """
    k = type(ty)
    if k is Str:
        return operator.eq
    if k is Unit:
        return lambda a, b: True
    if k is Prod:
        le, re = value_eq_for(ty.left, m), value_eq_for(ty.right, m)
        return lambda a, b: le(a[0], b[0]) and re(a[1], b[1])
    if k is Arrow:
        ce = value_eq_for(ty.cod, m)
        x = seed_value(ty.dom, SYMBOL, m, runs=True)
        return lambda a, b: ce(a(x), b(x))
    if k is Eff:
        ie = value_eq_for(ty.inner, m)
        return lambda a, b: m.run_eq(a.action, b.action, ie)
    raise EvalError(f"unknown type {ty!r}")


def actions_agree(ty, m: MonadDict, a, b) -> bool:
    """run_eq two of ``m``'s actions whose results have type ``ty``."""
    return value_eq_for(Eff(ty), m)(VEff(a), VEff(b))


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------

LAW_NAMES = ("idl", "idr", "asc", "apl", "apr", "aplr", "map_map", "bind_pure", "map_id", "ap_comp")


class LawReport:
    __slots__ = ("monad", "trials", "seed", "passes", "failures")

    def __init__(self, monad: str, trials: int, seed: int, passes: dict[str, int],
                 failures: dict[str, list[str]]):
        self.monad, self.trials, self.seed = monad, trials, seed
        self.passes, self.failures = passes, failures

    @property
    def all_passed(self) -> bool:
        return all(not f for f in self.failures.values())

    to_dict = slot_dict


def _gen_value(rng: random.Random, depth: int = 0) -> object:
    r = rng.random()
    if depth < 2 and r < 0.25:
        return _gen_value(rng, depth + 1), _gen_value(rng, depth + 1)
    if r < 0.35:
        return VUNIT
    return rng.choice(("", "a", "b", "ab", "xyz"))


def _gen_fun(rng: random.Random) -> Callable[[object], object]:
    kind = rng.randrange(4)
    if kind == 0:
        return lambda v: v
    if kind == 1:
        c = _gen_value(rng)
        return lambda v: c
    if kind == 2:
        return lambda v: "f:" + render_value(v)
    return lambda v: (v, "t")


def _gen_action(rng: random.Random, m: MonadDict, calls: list[Callable]):
    """A pure action, or one call of an effect from ``calls`` with a random result."""
    if rng.random() < 0.7:
        args = str(rng.randrange(6))
        return rng.choice(calls)(args, f"e({args})", _gen_value(rng))
    return m.pure(_gen_value(rng))


def _gen_kleisli(rng: random.Random, m: MonadDict, calls: list[Callable]) -> Callable:
    f = _gen_fun(rng)
    if rng.random() < 0.5:
        return lambda v: m.pure(f(v))
    base = _gen_action(rng, m, calls)
    return lambda v: m.map(lambda w, _v=v: (f(_v), w), base)


def check_laws(m: MonadDict, trials: int = 1000, seed: int = 0) -> LawReport:
    """Randomized check of the ten monad/applicative/functor laws.

    The actions are pure or one call of an effect ``e : Eff Str`` under
    ``m.effect``: its default behavior or one of ``m.kinds``, all but
    ``value``, which the pure actions cover.  A law whose comparison raises
    an ``Exception`` fails, with the exception in its failure text.
    """
    passes = {law: 0 for law in LAW_NAMES}
    failures: dict[str, list[str]] = {law: [] for law in LAW_NAMES}
    calls = [m.effect("e", STR, behavior)
             for behavior in ({}, *({"kind": k} for k in m.kinds if k != "value"))]

    for i in range(trials):
        rng = random.Random(seed * 1_000_003 + i)
        x = _gen_value(rng)
        f = _gen_fun(rng)
        g = _gen_fun(rng)
        a = _gen_action(rng, m, calls)
        k1 = _gen_kleisli(rng, m, calls)
        k2 = _gen_kleisli(rng, m, calls)
        fa = m.map(lambda w: lambda v, _w=w: (_w, f(v)), _gen_action(rng, m, calls))
        u, v = (m.map(lambda r, h=h: lambda y: (r, h(y)), _gen_action(rng, m, calls))
                for h in (f, g))
        w = _gen_action(rng, m, calls)

        checks = {
            "idl": lambda: m.run_eq(m.bind(k1, m.pure(x)), k1(x)),
            "idr": lambda: m.run_eq(m.bind(lambda v: m.pure(f(v)), a), m.map(f, a)),
            "asc": lambda: m.run_eq(
                m.bind(k2, m.bind(k1, a)),
                m.bind(lambda v: m.bind(k2, k1(v)), a),
            ),
            "apl": lambda: m.run_eq(m.ap(m.pure(f), a), m.map(f, a)),
            "apr": lambda: m.run_eq(
                m.ap(fa, m.pure(x)), m.map(lambda vf: vf(x), fa)
            ),
            "aplr": lambda: m.run_eq(m.map(f, m.pure(x)), m.pure(f(x))),
            "map_map": lambda: m.run_eq(
                m.map(f, m.map(g, a)), m.map(lambda v: f(g(v)), a)
            ),
            "bind_pure": lambda: m.run_eq(m.bind(m.pure, a), a),
            "map_id": lambda: m.run_eq(m.map(lambda y: y, a), a),
            "ap_comp": lambda: m.run_eq(
                m.ap(m.ap(m.map(lambda p: lambda q: lambda y: p(q(y)), u), v), w),
                m.ap(u, m.ap(v, w)),
            ),
        }
        for law, checker in checks.items():
            try:
                held, why = checker(), ""
            except Exception as err:  # not BaseException: an interrupt stops the check
                held, why = False, f": {type(err).__name__}: {err}"
            if held:
                passes[law] += 1
            elif len(failures[law]) < 5:
                failures[law].append(f"trial {i}: x={render_value(x)}{why}")

    return LawReport(m.name, trials, seed, passes, failures)
