"""Evaluation of guest terms under pluggable lawful monads.

Source terms evaluate to monadic actions; common and target terms evaluate
directly to values, with the target combinators mapped onto the active
monad's operations.  Four builtin monads are provided (option, state,
writer, trace), plus a deliberately order-flipped writer whose ``ap`` runs
its argument before its function: it satisfies every law, yet distinguishes
the applicative from the left-to-right bind chaining -- which is exactly why
the translation keeps Ap nodes instead of lowering them to binds.  Each
monad's constructor is the one place that defines its behaviour, including
what one effect call does and what ``purify run`` reports.  The suites
evaluate a term once, under ``REIFIED``, and ``run`` it under each monad.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .metrics import (
    TraceDag, dag_iso, dyn_span, dyn_work, empty_dag, parallel_compose,
    sequential_compose, simulate_latency, single_effect,
)
from .terms import (
    App, Ap, Arrow, Const, Each, Eff, Fst, Join, Label, Lam, Lit, Map,
    Prd, Prod, Pure, PurifyError, SRC, STR, Signature, Snd, Term, Unit,
    Str, Unt, Var, type_name,
)


class EvalError(PurifyError):
    pass


class SignatureMismatch(PurifyError):
    pass


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Value:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


# Not frozen: an __init__ that goes round __setattr__ costs about 3x more.

class _Data(Value):
    """A first-order value: equal to the values of its class with equal fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__slots__))


class VUnit(_Data):
    __slots__ = ()


class VStr(_Data):
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class VPair(_Data):
    __slots__ = ("fst", "snd")

    def __init__(self, fst: Value, snd: Value):
        self.fst, self.snd = fst, snd


class VFun(Value):
    """Host closure; total on well-typed arguments."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Value], Value]):
        self.fn = fn


class VEff(Value):
    """A monadic action as a first-class value (one monad per run)."""

    __slots__ = ("action",)

    def __init__(self, action):
        self.action = action


VUNIT = VUnit()


def render_value(v: Value) -> str:
    k = type(v)
    if k is VStr:
        return v.text
    if k is VUnit:
        return "()"
    if k is VPair:
        return f"({render_value(v.fst)},{render_value(v.snd)})"
    if k is VFun:
        return "<fun>"
    if k is VEff:
        return "<eff>"
    raise EvalError(f"unknown value {v!r}")


def base_value_eq(a: Value, b: Value) -> bool:
    """Structural equality on first-order values."""
    k = type(a)
    if k is not type(b):
        return False
    if k is VStr:
        return a.text == b.text
    if k is VUnit:
        return True
    if k is VPair:
        return base_value_eq(a.fst, b.fst) and base_value_eq(a.snd, b.snd)
    raise EvalError(f"{k.__name__} values need a type-directed comparator")


# ---------------------------------------------------------------------------
# Monad dictionaries
# ---------------------------------------------------------------------------

ValueEq = Callable[[Value, Value], bool]


class MonadDict:
    """Runtime bundle of pure/map/ap/bind plus observational equality.

    ``effect(name, args, tag, result, result_ty, behavior)`` is the action of
    one effect call (``args`` rendered, ``tag`` the call as text, ``result``
    its default value, ``behavior`` its config entry or {}), and
    ``report(action, latencies)`` the JSON fields ``purify run`` prints, and
    ``kinds`` the behavior kinds a config may give its effects.
    """

    __slots__ = ("name", "pure", "map", "ap", "bind", "run_eq", "sample_action",
                 "effect", "report", "kinds")

    def __init__(self, name: str, pure: Callable, map: Callable, ap: Callable, bind: Callable,
                 run_eq: Callable, sample_action: Callable[[random.Random], object],
                 effect: Callable, report: Callable[[object, dict[str, float]], dict],
                 kinds: frozenset[str]):
        self.name, self.pure, self.map, self.ap, self.bind = name, pure, map, ap, bind
        self.run_eq, self.sample_action, self.effect = run_eq, sample_action, effect
        self.report, self.kinds = report, kinds


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
        return af.fn(ax)

    def bind(k, a):
        return ABSENT if a is ABSENT else k(a)

    def run_eq(a, b, value_eq: ValueEq = base_value_eq):
        if (a is ABSENT) != (b is ABSENT):
            return False
        return True if a is ABSENT else value_eq(a, b)

    def sample(rng: random.Random):
        if rng.random() < 0.25:
            return ABSENT
        return pure(_gen_value(rng))

    def effect(name, args, tag, result, result_ty, behavior):
        return ABSENT if behavior.get("kind") == "absent" else result

    def report(a, latencies):
        if a is ABSENT:
            return {"absent": True}
        return {"absent": False, "value": render_value(a)}

    return MonadDict("option", pure, map_, ap, bind, run_eq, sample, effect, report,
                     frozenset({"value", "absent"}))


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
            return vf.fn(vx), s2

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

    def sample(rng: random.Random):
        n = rng.randint(1, 2)

        def run(s):
            return VStr(f"s{s}"), s + n

        return run

    def effect(name, args, tag, result, result_ty, behavior):
        if behavior.get("kind") == "value":
            return pure(result)
        return lambda s: (seed_value(result_ty, f"{tag}@{s}", m), s + 1)

    def report(a, latencies):
        value, final_state = a(0)
        return {"value": render_value(value), "final_state": final_state}

    m = MonadDict("state", pure, map_, ap, bind, run_eq, sample, effect, report,
                  frozenset({"value", "state_incr"}))
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
        return vf.fn(vx), log

    def bind(k, a):
        v, w = a
        v2, w2 = k(v)
        return v2, w + w2

    def run_eq(a, b, value_eq: ValueEq = base_value_eq):
        return a[1] == b[1] and value_eq(a[0], b[0])

    def sample(rng: random.Random):
        tag = f"w{rng.randint(0, 5)}"
        return _gen_value(rng), (tag,)

    def effect(name, args, tag, result, result_ty, behavior):
        kind, payload = behavior.get("kind"), behavior.get("payload")
        if kind == "value":
            return pure(result)
        return result, (str(payload) if kind == "log" and payload is not None else tag,)

    def report(a, latencies):
        return {"value": render_value(a[0]), "log": list(a[1])}

    return MonadDict(monad_name, pure, map_, ap, bind, run_eq, sample, effect, report,
                     frozenset({"value", "log"}))


def writer_monad() -> MonadDict:
    return _writer("writer", flipped=False)


def mixed_order_writer() -> MonadDict:
    """A fully lawful monad whose ap is the right-to-left applicative.

    Every one of the seven laws holds, yet its ap is not the left-to-right
    bind chain; programs with order-sensitive parallel effects observe the
    difference against the sequential baseline.
    """
    return _writer("writer-rtl", flipped=True)


def trace_monad() -> MonadDict:
    def pure(v):
        return empty_dag(v)

    def map_(f, d: TraceDag):
        return d.with_result(f(d.result))

    def ap(df: TraceDag, dx: TraceDag):
        return parallel_compose(df, dx, df.result.fn(dx.result))

    def bind(k, d: TraceDag):
        d2 = k(d.result)
        return sequential_compose(d, d2, d2.result)

    def run_eq(a: TraceDag, b: TraceDag, value_eq: ValueEq = base_value_eq):
        return dag_iso(a, b) and value_eq(a.result, b.result)

    def sample(rng: random.Random):
        return single_effect(f"e{rng.randint(0, 3)}", "", _gen_value(rng))

    def effect(name, args, tag, result, result_ty, behavior):
        return single_effect(name, args, result)

    def report(d: TraceDag, latencies):
        return {"value": render_value(d.result), "dyn_span": dyn_span(d),
                "dyn_work": dyn_work(d), "latency_ms": simulate_latency(d, latencies)}

    return MonadDict("trace", pure, map_, ap, bind, run_eq, sample, effect, report,
                     frozenset({"value"}))


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

class ConstEnv:
    __slots__ = ("values",)

    def __init__(self, values: dict[str, Value] | None = None):
        self.values = {} if values is None else values

    def value(self, name: str) -> Value:
        if name not in self.values:
            raise SignatureMismatch(f"no interpretation for constant {name!r}")
        return self.values[name]


def seed_value(ty, tag: str, m: MonadDict) -> Value:
    """Deterministic, type-correct default value derived from a tag."""
    k = type(ty)
    if k is Str:
        return VStr(tag)
    if k is Unit:
        return VUNIT
    if k is Prod:
        return VPair(seed_value(ty.left, tag + ".1", m), seed_value(ty.right, tag + ".2", m))
    if k is Arrow:
        cod = ty.cod
        return VFun(lambda v: seed_value(cod, f"{tag}({render_value(v)})", m))
    if k is Eff:
        return VEff(m.pure(seed_value(ty.inner, tag + "^", m)))
    raise EvalError(f"unknown type {ty!r}")


# Behavior kinds a config may name; each monad's ``kinds`` are the ones its
# ``effect`` reads, and ``state_incr`` is the state monad's default.
BEHAVIOR_KINDS = ("value", "absent", "state_incr", "log")


def _effect_action(m: MonadDict, name: str, args: list[Value], result_ty,
                   behavior: dict):
    arg_str = render_value(args[0]) if len(args) == 1 else ",".join(map(render_value, args))
    tag = f"{name}({arg_str})" if args else name
    payload = behavior.get("payload")
    if payload is not None and result_ty == STR:
        result = VStr(str(payload))
    else:
        result = seed_value(result_ty, tag, m)
    return m.effect(name, arg_str, tag, result, result_ty, behavior)


def _curried_effect(m: MonadDict, name: str, ty, arity: int,
                    behavior: dict) -> Value:
    def build(args: list[Value], t) -> Value:
        if len(args) == arity:
            assert isinstance(t, Eff)
            return VEff(_effect_action(m, name, args, t.inner, behavior))
        assert isinstance(t, Arrow)
        return VFun(lambda v, _t=t, _args=args: build(_args + [v], _t.cod))

    return build([], ty)


def _require_observed_payload(m: MonadDict, name: str, ty, arity: int,
                              behavior: dict) -> None:
    """A payload the monad never observes is a config error.  The monad
    decides: the effect's action with the payload and with another one must
    differ under its ``run_eq``."""
    args = []
    for _ in range(arity):
        args.append(seed_value(ty.dom, "arg", m))
        ty = ty.cod
    other = {**behavior, "payload": f"{behavior['payload']}'"}
    if m.run_eq(_effect_action(m, name, args, ty.inner, behavior),
                _effect_action(m, name, args, ty.inner, other),
                value_eq_for(ty.inner, m)):
        raise PurifyError(
            f"behavior payload for {name!r} is never observed under the {m.name} "
            f"monad (kind {behavior.get('kind', 'default')}, result {type_name(ty.inner)})"
        )


def _pure_const(m: MonadDict, name: str, ty) -> Value:
    if name == "concat" and ty == Arrow(STR, Arrow(STR, STR)):
        return VFun(lambda a: VFun(lambda b: VStr(a.text + b.text)))
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
    env = ConstEnv()
    for decl in sig:
        if decl.effectful:
            behavior = (behaviors or {}).get(decl.name) or {}
            arity = decl.effect_arity() or 0
            if behavior.get("payload") is not None:
                _require_observed_payload(m, decl.name, decl.ty, arity, behavior)
            if behavior.get("kind", "value") not in m.kinds:
                raise PurifyError(f"behavior kind {behavior['kind']!r} for {decl.name!r} "
                                  f"is never observed under the {m.name} monad")
            env.values[decl.name] = _curried_effect(m, decl.name, decl.ty, arity, behavior)
        else:
            env.values[decl.name] = _pure_const(m, decl.name, decl.ty)
    return env


# ---------------------------------------------------------------------------
# Reified actions
# ---------------------------------------------------------------------------
# REIFIED evaluates to a monad-independent action tree (the free/freer
# structure of Capriotti & Kaposi 2014 and Kiselyov & Ishii 2015), applying
# the identity laws as it builds; ``run`` folds it into any monad's action.

class APure:
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class AEffect:
    __slots__ = ("call",)

    def __init__(self, call: tuple):  # the arguments of ``MonadDict.effect``
        self.call = call


class AMap:
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable[[Value], Value], arg):
        self.fn, self.arg = fn, arg


class AAp:
    __slots__ = ("fun", "arg")

    def __init__(self, fun, arg):
        self.fun, self.arg = fun, arg


class ABind:
    __slots__ = ("cont", "arg")

    def __init__(self, cont: Callable[[Value], object], arg):
        self.cont, self.arg = cont, arg


def _reified_monad() -> MonadDict:
    def map_(f, a):
        return APure(f(a.value)) if type(a) is APure else AMap(f, a)

    def ap(af, ax):
        if type(af) is not APure:
            return AAp(af, ax)
        if type(ax) is APure:
            return APure(af.value.fn(ax.value))
        return AMap(af.value.fn, ax)

    def bind(k, a):
        return k(a.value) if type(a) is APure else ABind(k, a)

    def effect(*call):
        return AEffect(call)

    def unobservable(*_):
        raise EvalError("a reified action is observed only through run(m, action)")

    return MonadDict("reified", APure, map_, ap, bind, unobservable, unobservable,
                     effect, unobservable, frozenset(BEHAVIOR_KINDS))


REIFIED = _reified_monad()


def run(m: MonadDict, action):
    """Monad ``m``'s own action for a reified one; an action that is already
    ``m``'s is returned unchanged."""
    k = type(action)
    if k is AEffect:
        return m.effect(*action.call)
    if k is AAp:
        return m.ap(run(m, action.fun), run(m, action.arg))
    if k is AMap:
        return m.map(action.fn, run(m, action.arg))
    if k is ABind:
        return m.bind(lambda v, _k=action.cont: run(m, _k(v)), run(m, action.arg))
    if k is APure:
        return m.pure(action.value)
    return action


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _as_action(v: Value):
    if not isinstance(v, VEff):
        raise EvalError(f"expected an effectful value, got {type(v).__name__}")
    return v.action


def evaluate(e: Term, label: Label, m: MonadDict, consts: ConstEnv):
    """Evaluate a checked term: an action at src, a direct value otherwise."""
    if label is SRC:
        return _eval_src(e, m, consts, {})
    return _eval_direct(e, m, consts, {})


def _eval_direct(e: Term, m: MonadDict, consts: ConstEnv,
                 scope: dict[str, Value]) -> Value:
    # exact-type tests, most frequent kind first: cheaper than class patterns
    k = type(e)
    if k is Lit:
        return VStr(e.value)
    if k is App:
        return _apply(_eval_direct(e.fun, m, consts, scope),
                      _eval_direct(e.arg, m, consts, scope))
    if k is Lam:
        param, body = e.param, e.body

        def closure(v: Value) -> Value:
            inner = dict(scope)
            inner[param] = v
            return _eval_direct(body, m, consts, inner)

        return VFun(closure)
    if k is Const:
        return consts.value(e.name)
    if k is Prd:
        return VPair(_eval_direct(e.fst, m, consts, scope),
                     _eval_direct(e.snd, m, consts, scope))
    if k is Unt:
        return VUNIT
    if k is Pure:
        return VEff(m.pure(_eval_direct(e.inner, m, consts, scope)))
    if k is Var:
        if e.name not in scope:
            raise EvalError(f"unbound variable {e.name!r} at runtime")
        return scope[e.name]
    if k is Map:
        vf = _eval_direct(e.fun, m, consts, scope)
        va = _eval_direct(e.arg, m, consts, scope)
        return VEff(m.map(vf.fn, _as_action(va)))
    if k is Fst:
        return _pair(_eval_direct(e.pair, m, consts, scope)).fst
    if k is Ap:
        vf = _eval_direct(e.fun, m, consts, scope)
        va = _eval_direct(e.arg, m, consts, scope)
        return VEff(m.ap(_as_action(vf), _as_action(va)))
    if k is Join:
        vn = _eval_direct(e.nested, m, consts, scope)
        return VEff(m.bind(_as_action, _as_action(vn)))
    if k is Snd:
        return _pair(_eval_direct(e.pair, m, consts, scope)).snd
    if k is Each:
        raise EvalError("Each is a source construct; evaluate at src")
    raise EvalError(f"unknown term former {k.__name__}")


def _eval_src(e: Term, m: MonadDict, consts: ConstEnv, scope: dict[str, Value]):
    k = type(e)
    if k is App:
        return m.ap(_eval_src(e.fun, m, consts, scope), _eval_src(e.arg, m, consts, scope))
    if k is Const or k is Lit or k is Lam or k is Unt or k is Var:
        return m.pure(_eval_direct(e, m, consts, scope))
    if k is Each:
        return m.bind(_as_action, _eval_src(e.eff, m, consts, scope))
    if k is Prd:
        pairing = m.map(
            lambda va: VFun(lambda vb: VPair(va, vb)),
            _eval_src(e.fst, m, consts, scope),
        )
        return m.ap(pairing, _eval_src(e.snd, m, consts, scope))
    if k is Fst:
        return m.map(lambda v: _pair(v).fst, _eval_src(e.pair, m, consts, scope))
    if k is Snd:
        return m.map(lambda v: _pair(v).snd, _eval_src(e.pair, m, consts, scope))
    raise EvalError(f"{k.__name__} is not a source term former")


def _pair(v: Value) -> VPair:
    if not isinstance(v, VPair):
        raise EvalError(f"expected a pair, got {type(v).__name__}")
    return v


def _apply(vf: Value, va: Value) -> Value:
    if not isinstance(vf, VFun):
        raise EvalError(f"expected a function, got {type(vf).__name__}")
    return vf.fn(va)


# ---------------------------------------------------------------------------
# Type-directed observational equality
# ---------------------------------------------------------------------------

EXTENSIONAL_SAMPLES = 5


def sample_values(ty, m: MonadDict) -> list[Value]:
    """Deterministic sample inputs for extensional function comparison."""
    match ty:
        case Unit():
            return [VUNIT]
        case Str():
            return [VStr(s) for s in ("", "a", "b", "ab", "q")]
        case Prod(left, right):
            ls, rs = sample_values(left, m), sample_values(right, m)
            out = [VPair(l, r) for l in ls for r in rs]
            return out[:EXTENSIONAL_SAMPLES]
        case Arrow(_, cod):
            cods = sample_values(cod, m)

            def pick(i: int) -> Value:
                return VFun(lambda v, _i=i: cods[(len(render_value(v)) + _i) % len(cods)])

            return [pick(i) for i in range(min(3, len(cods)) or 1)]
        case Eff(inner):
            return [VEff(m.pure(s)) for s in sample_values(inner, m)[:3]]
    raise EvalError(f"unknown type {ty!r}")


def value_eq_for(ty, m: MonadDict) -> ValueEq:
    """Observational equality at a type: structural at base types, pointwise
    on sampled arguments for functions, run_eq on underlying actions for
    effect types, run first when reified."""
    k = type(ty)
    if k is Str:
        return lambda a, b: a.text == b.text
    if k is Unit:
        return lambda a, b: True
    if k is Prod:
        le, re = value_eq_for(ty.left, m), value_eq_for(ty.right, m)
        return lambda a, b: le(a.fst, b.fst) and re(a.snd, b.snd)
    if k is Arrow:
        args = sample_values(ty.dom, m)[:EXTENSIONAL_SAMPLES]
        ce = value_eq_for(ty.cod, m)
        return lambda a, b: all(ce(a.fn(x), b.fn(x)) for x in args)
    if k is Eff:
        ie = value_eq_for(ty.inner, m)
        return lambda a, b: m.run_eq(run(m, a.action), run(m, b.action), ie)
    raise EvalError(f"unknown type {ty!r}")


def actions_agree(ty, m: MonadDict, a, b) -> bool:
    """run_eq two actions, reified or ``m``'s own, whose results have type ``ty``."""
    return m.run_eq(run(m, a), run(m, b), value_eq_for(ty, m))


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------

LAW_NAMES = ("idl", "idr", "asc", "apl", "apr", "aplr", "map_map")


class LawReport:
    __slots__ = ("monad", "trials", "seed", "passes", "failures")

    def __init__(self, monad: str, trials: int, seed: int, passes: dict[str, int],
                 failures: dict[str, list[str]]):
        self.monad, self.trials, self.seed = monad, trials, seed
        self.passes, self.failures = passes, failures

    @property
    def all_passed(self) -> bool:
        return all(not f for f in self.failures.values())

    def to_dict(self) -> dict:
        return {
            "v": 1,
            "monad": self.monad,
            "trials": self.trials,
            "seed": self.seed,
            "passes": self.passes,
            "failures": self.failures,
        }


def _gen_value(rng: random.Random, depth: int = 0) -> Value:
    r = rng.random()
    if depth < 2 and r < 0.25:
        return VPair(_gen_value(rng, depth + 1), _gen_value(rng, depth + 1))
    if r < 0.35:
        return VUNIT
    return VStr(rng.choice(("", "a", "b", "ab", "xyz")))


def _gen_fun(rng: random.Random) -> Callable[[Value], Value]:
    kind = rng.randrange(4)
    if kind == 0:
        return lambda v: v
    if kind == 1:
        c = _gen_value(rng)
        return lambda v: c
    if kind == 2:
        return lambda v: VStr("f:" + render_value(v))
    return lambda v: VPair(v, VStr("t"))


def _gen_action(rng: random.Random, m: MonadDict):
    if rng.random() < 0.7:
        return m.sample_action(rng)
    return m.pure(_gen_value(rng))


def _gen_kleisli(rng: random.Random, m: MonadDict) -> Callable[[Value], object]:
    f = _gen_fun(rng)
    if rng.random() < 0.5:
        return lambda v: m.pure(f(v))
    base = _gen_action(rng, m)
    return lambda v: m.map(lambda w, _v=v: VPair(f(_v), w), base)


def check_laws(m: MonadDict, trials: int = 1000, seed: int = 0) -> LawReport:
    """Randomized check of the seven monad/applicative/functor laws."""
    passes = {law: 0 for law in LAW_NAMES}
    failures: dict[str, list[str]] = {law: [] for law in LAW_NAMES}

    for i in range(trials):
        rng = random.Random(seed * 1_000_003 + i)
        x = _gen_value(rng)
        f = _gen_fun(rng)
        g = _gen_fun(rng)
        a = _gen_action(rng, m)
        k1 = _gen_kleisli(rng, m)
        k2 = _gen_kleisli(rng, m)
        fa = m.map(lambda w: VFun(lambda v, _w=w: VPair(_w, f(v))), _gen_action(rng, m))

        checks = {
            "idl": lambda: m.run_eq(m.bind(k1, m.pure(x)), k1(x)),
            "idr": lambda: m.run_eq(m.bind(lambda v: m.pure(f(v)), a), m.map(f, a)),
            "asc": lambda: m.run_eq(
                m.bind(k2, m.bind(k1, a)),
                m.bind(lambda v: m.bind(k2, k1(v)), a),
            ),
            "apl": lambda: m.run_eq(m.ap(m.pure(VFun(f)), a), m.map(f, a)),
            "apr": lambda: m.run_eq(
                m.ap(fa, m.pure(x)), m.map(lambda vf: vf.fn(x), fa)
            ),
            "aplr": lambda: m.run_eq(m.map(f, m.pure(x)), m.pure(f(x))),
            "map_map": lambda: m.run_eq(
                m.map(f, m.map(g, a)), m.map(lambda v: f(g(v)), a)
            ),
        }
        for law, checker in checks.items():
            if checker():
                passes[law] += 1
            elif len(failures[law]) < 5:
                failures[law].append(f"trial {i}: x={render_value(x)}")

    return LawReport(m.name, trials, seed, passes, failures)
