"""Random well-typed term generation and the executable theorem suites.

Generation is type-directed: choose a goal type, then a constructor whose
premises are recursively satisfiable within the remaining depth.  Every
generated term typechecks at its label.  Effectful constants only appear
in saturated calls: under an Each at source, as embedded calls or Pure
payloads at target.  Failures are minimized by greedy subterm shrinking.

Checks are built from five steps: ``span_work``, ``_mistyped`` (an output's
type against the expected one, before any cost or evaluation), ``_differs``
(the first monad under which two sides differ, each side evaluated and run
once, under the ordered monad, of which every builtin monad is a view),
``_translation`` and ``_rewrite``, which also holds a rewritten action's
static cost to its ordered trace.  A translation keeps the source's span and
work exactly (``span_work``).  A check that raises an ``Exception`` fails:
its term is shrunk and reported.
"""

from __future__ import annotations

import functools
import random
import re
from typing import Callable, Collection, Optional, Sequence

from .check import TypeEnv, typecheck
from .metrics import (
    LEAF_KEY, Leaf, TraceDag, dag_iso, dyn_span, dyn_work, empty_dag, parallel_compose,
    sequential_compose, single_effect, span_work,
)
from .pretty import pretty
from .semantics import (
    MonadDict, VEff, base_value_eq, builtin_monads, check_laws, evaluate,
    make_const_env, seed_value, value_eq_for,
)
from .terms import (
    App, Ap, Arrow, COM, Const, ConstDecl, ConstKind, Each, Eff, FreshNames, Fst,
    Join, Label, Lam, Lit, Map, Prd, Prod, Pure, PurifyError, SRC, STR, Signature,
    Snd, Str, TGT, Term, Ty, UNIT, Unit, Unt, Var, children, is_effect_free,
    relabel, slot_dict, subterms, type_name,
)
from .translate import normalize, opt_translate, seq_translate, smart_ap, smart_join


class Unsatisfiable(PurifyError):
    """No term of the requested type exists within the depth budget.  The
    type, if any, follows ``what`` in the message, rendered when it is read."""

    def __init__(self, what: str, ty: Optional[Ty] = None):
        super().__init__(what, ty)

    def __str__(self) -> str:
        what, ty = self.args
        return what if ty is None else f"{what} {type_name(ty)}"


class GenConfig:
    __slots__ = ("max_depth", "seed", "signature", "label", "goal_type")

    def __init__(self, max_depth: int = 5, seed: int = 0, signature: Optional[Signature] = None,
                 label: Label = SRC, goal_type: Optional[Ty] = None):
        self.max_depth, self.seed, self.signature = max_depth, seed, signature
        self.label, self.goal_type = label, goal_type

    def sig(self) -> Signature:
        """The given signature, or the one shared default signature."""
        return self.signature if self.signature is not None else _shared_default_signature()


def default_signature() -> Signature:
    sig = Signature()
    sig.add(ConstDecl("concat", Arrow(STR, Arrow(STR, STR)), ConstKind.PURE))
    sig.add(ConstDecl("shout", Arrow(STR, STR), ConstKind.PURE))
    sig.add(ConstDecl("pick", Arrow(Prod(STR, STR), STR), ConstKind.PURE))
    sig.add(ConstDecl("fetch", Arrow(STR, Eff(STR)), ConstKind.EFFECTFUL))
    sig.add(ConstDecl("probe", Eff(STR), ConstKind.EFFECTFUL))
    sig.add(ConstDecl("stamp", Arrow(STR, Eff(UNIT)), ConstKind.EFFECTFUL))
    return sig


# built at first use and never added to; ``default_signature()`` stays fresh for callers that add
_shared_default_signature = functools.cache(default_signature)


_WORDS = ("", "a", "b", "foo", "bar", "xy")
_PAIR = Prod(STR, STR)


def _gen_tables(sig: Signature) -> tuple[dict, dict, dict, tuple[dict, dict, dict]]:
    """The generator's signature lookups, each list in signature order.

    Effectful decls by the result of their Eff layer; pure decls, with their
    argument types, by every result an argument prefix reaches; constant
    names by declared type.  Then the menus at source, common and target,
    filled on first use by ``_Gen._menu``.  Built once per signature
    (``Signature.table``), so ``Signature.add`` drops the menus too.
    """
    effects: dict[Ty, list[ConstDecl]] = {}
    calls: dict[Ty, list[tuple[ConstDecl, tuple[Ty, ...]]]] = {}
    consts: dict[Ty, list[str]] = {}
    for d in sig:
        consts.setdefault(d.ty, []).append(d.name)
        args, t = [], d.ty
        while isinstance(t, Arrow):
            args.append(t.dom)
            t = t.cod
            if not d.effectful:
                calls.setdefault(t, []).append((d, tuple(args)))
        if d.effectful and isinstance(t, Eff):
            effects.setdefault(t.inner, []).append(d)
    return effects, calls, consts, ({}, {}, {})


class _Gen:
    def __init__(self, rng: random.Random, sig: Signature):
        self.rng = rng
        self._names = 0
        self._effects, self._calls, self._consts, menus = sig.table(_gen_tables)
        self._src_menus, self._com_menus, self._tgt_menus = menus

    def fresh_var(self) -> str:
        self._names += 1
        return f"v{self._names}"

    # -- helpers ---------------------------------------------------------

    def small_type(self) -> Ty:
        r = self.rng.random()
        if r < 0.6:
            return STR
        if r < 0.85:
            return UNIT
        return _PAIR

    def _effect_decls_for(self, inner: Ty) -> Sequence[ConstDecl]:
        return self._effects.get(inner, ())

    def _pure_call_decls(self, result: Ty) -> Sequence[tuple[ConstDecl, tuple[Ty, ...]]]:
        return self._calls.get(result, ())

    def _consts_of(self, t: Ty) -> Sequence[str]:
        return self._consts.get(t, ())

    # -- minimal terms ---------------------------------------------------

    def minimal(self, t: Ty, lab: Label, env: dict[str, Ty]) -> Term:
        k = type(t)
        if k is Unit:
            return Unt(label=lab)
        if k is Str:
            return Lit("s", label=lab)
        if k is Prod:
            return Prd(self.minimal(t.left, lab, env), self.minimal(t.right, lab, env),
                       label=lab)
        if k is Arrow:
            try:
                x = self.fresh_var()
                body = self.minimal(t.cod, COM, {**env, x: t.dom})
                return Lam(x, body, t.dom, label=lab)
            except Unsatisfiable:
                named = self._consts_of(t)
                if named:
                    return Const(named[0], label=lab)
                raise
        if k is Eff:
            if lab is TGT:
                return Pure(self.minimal(t.inner, COM, env), label=TGT)
            if lab is SRC:
                return self.effect_call(t.inner, SRC, env, depth=1)
            named = self._consts_of(t)
            if named:
                return Const(named[0], label=COM)
            raise Unsatisfiable("no common term of type Eff", t.inner)
        raise Unsatisfiable("no minimal term of type", t)

    def effect_call(self, inner: Ty, lab: Label, env: dict[str, Ty], depth: int) -> Term:
        """Saturated application of an effectful constant yielding Eff inner."""
        decls = self._effect_decls_for(inner)
        if not decls:
            raise Unsatisfiable("no effectful constant produces Eff", inner)
        d = self.rng.choice(decls)
        if lab is TGT:
            # embedded direct call: argument values are pure, generated in the
            # common fragment and relabelled into the target
            call = self._saturate(d, COM, env, depth)
            return relabel(call, TGT)
        return self._saturate(d, SRC, env, depth)

    def _saturate(self, d: ConstDecl, lab: Label, env: dict[str, Ty], depth: int) -> Term:
        term: Term = Const(d.name, label=lab)
        t = d.ty
        while isinstance(t, Arrow):
            arg = self.gen(t.dom, lab, env, max(depth - 1, 1))
            term = App(term, arg, label=lab)
            t = t.cod
        return term

    # -- main generator --------------------------------------------------

    def gen(self, t: Ty, lab: Label, env: dict[str, Ty], depth: int,
            allow_effect_values: bool = False) -> Term:
        if type(t) is Eff:
            return self.gen_eff(t, lab, env, depth, allow_effect_values)
        if depth <= 1:
            return self.gen_leaf(t, lab, env)
        # leaf-heavy near the bottom, effect-heavy higher up.  Over 3,000
        # source terms the median span is 1 at depth 5 (max 2, and about 930
        # terms run no effect); the max is 3 at depth 6
        leaf_p = 0.4 if depth <= 2 else 0.15
        if self.rng.random() < leaf_p:
            return self.gen_leaf(t, lab, env)
        return self._weighted(self._menu(t, lab), t, lab, env, depth, allow_effect_values)

    def gen_leaf(self, t: Ty, lab: Label, env: dict[str, Ty]) -> Term:
        # one kind per applicable leaf, drawn uniformly; an unapplied effectful
        # constant is an ordinary function/action value, and goals of such
        # types only arise on effect-allowing paths
        kinds: list[type] = []
        vars_ = [n for n, vt in env.items() if vt is t]
        if vars_:
            kinds.append(Var)
        consts = self._consts_of(t)
        if consts:
            kinds.append(Const)
        if t is UNIT:
            kinds.append(Unt)
        elif t is STR:
            kinds.append(Lit)
        if not kinds:
            return self.minimal(t, lab, env)
        k = self.rng.choice(kinds)
        if k is Var or k is Const:
            return k(self.rng.choice(vars_ if k is Var else consts), label=lab)
        return Unt(label=lab) if k is Unt else Lit(self.rng.choice(_WORDS), label=lab)

    def gen_eff(self, t: Eff, lab: Label, env: dict[str, Ty], depth: int,
                allow_effect_values: bool) -> Term:
        inner = t.inner
        if lab is SRC:
            return self.effect_call(inner, SRC, env, depth)
        if lab is COM:
            # Effect-typed common terms denote unexecuted actions; only used
            # as Pure payloads, never generated in the plain common suites.
            if not allow_effect_values:
                raise Unsatisfiable("no effect values in plain common terms")
            decls = self._effect_decls_for(inner)
            direct = [d for d in decls if isinstance(d.ty, Eff)]
            if depth <= 1 and direct:
                return Const(self.rng.choice(direct).name, label=COM)
            if decls:
                d = self.rng.choice(decls)
                return self._saturate(d, COM, env, depth)
            raise Unsatisfiable("no effectful constant produces Eff", inner)
        # target
        if depth <= 1:
            return Pure(self.gen(inner, COM, env, 1, allow_effect_values=True),
                        label=TGT)
        return self._weighted(self._menu(t, TGT), t, TGT, env, depth, allow_effect_values)

    def gen_nested_eff(self, inner: Ty, env: dict[str, Ty], depth: int) -> Term:
        """A target term of type Eff (Eff inner): a Pure-wrapped action value."""
        payload = self.gen(Eff(inner), COM, env, max(depth, 1), allow_effect_values=True)
        return Pure(payload, label=TGT)

    # -- menus: each option is a method (goal, label, env, depth, allow
    # effect values) -> term, drawn by its weight ------------------------

    def _menu(self, t: Ty, lab: Label) -> tuple[tuple, float]:
        """The (weight, option) pairs for goal ``t`` at ``lab`` and their total,
        built at first use: the target actions for an ``Eff`` goal (only ever
        at target), the compound constructors otherwise.  One dict per label,
        picked by ``is`` tests, since ``Label`` hashes in Python."""
        menus = self._tgt_menus if lab is TGT else self._src_menus if lab is SRC \
            else self._com_menus
        menu = menus.get(t)
        if menu is not None:
            return menu
        if type(t) is Eff:
            opts = [(2.0, _Gen._gen_pure)]
            if self._effect_decls_for(t.inner):
                opts.append((2.5, _Gen._gen_effect))
            opts += [(1.5, _Gen._gen_map), (1.5, _Gen._gen_ap), (1.0, _Gen._gen_join),
                     (0.7, _Gen._gen_bind)]
        else:
            opts = [(3.0, _Gen._gen_prd)] if type(t) is Prod else \
                [(3.0, _Gen._gen_lam)] if type(t) is Arrow else []
            opts += [(1.2, _Gen._gen_app), (0.8, _Gen._gen_proj)]
            if self._pure_call_decls(t):
                opts.append((1.2, _Gen._gen_call))
            if lab is SRC and self._effect_decls_for(t):
                # the heaviest option: about two in three depth-5 source
                # terms run an effect
                opts.append((5.0, _Gen._gen_each))
        menu = menus[t] = tuple(opts), sum(w for w, _ in opts)
        return menu

    def _weighted(self, menu: tuple[tuple, float], t: Ty, lab: Label, env: dict[str, Ty],
                  depth: int, allow: bool) -> Term:
        """Pick by weight; fall back to remaining options when one cannot be
        satisfied within the depth budget."""
        options, total = menu
        while options:
            i = _pick(self.rng, options, total)
            try:
                return options[i][1](self, t, lab, env, depth, allow)
            except Unsatisfiable:
                options = options[:i] + options[i + 1:]
                total = sum(w for w, _ in options)
        raise Unsatisfiable("no constructor applies at this goal within depth")

    def _gen_prd(self, t: Prod, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        return Prd(self.gen(t.left, lab, env, depth - 1),
                   self.gen(t.right, lab, env, depth - 1), label=lab)

    def _gen_lam(self, t: Arrow, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        x = self.fresh_var()
        body = self.gen(t.cod, COM, {**env, x: t.dom}, depth - 1, allow)
        return Lam(x, body, t.dom, label=lab)

    def _gen_app(self, t: Ty, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        s = self.small_type()
        f = self.gen(Arrow(s, t), lab, env, depth - 1)
        return App(f, self.gen(s, lab, env, depth - 1), label=lab)

    def _gen_proj(self, t: Ty, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        s = self.small_type()
        pair_ty = Prod(t, s) if self.rng.random() < 0.5 else Prod(s, t)
        p = self.gen(pair_ty, lab, env, depth - 1)
        return Fst(p, label=lab) if pair_ty.left is t else Snd(p, label=lab)

    def _gen_call(self, t: Ty, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        d, args = self.rng.choice(self._pure_call_decls(t))
        term: Term = Const(d.name, label=lab)
        for at in args:
            term = App(term, self.gen(at, lab, env, depth - 1), label=lab)
        return term

    def _gen_each(self, t: Ty, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        return Each(self.effect_call(t, SRC, env, depth - 1), label=SRC)

    def _gen_pure(self, t: Eff, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        return Pure(self.gen(t.inner, COM, env, depth - 1, allow_effect_values=True), label=TGT)

    def _gen_effect(self, t: Eff, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        return self.effect_call(t.inner, TGT, env, depth)

    def _gen_map(self, t: Eff, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        s = self.small_type()
        f = self.gen(Arrow(s, t.inner), TGT, env, depth - 1, allow_effect_values=True)
        return Map(f, self.gen(Eff(s), TGT, env, depth - 1), label=TGT)

    def _gen_ap(self, t: Eff, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        s = self.small_type()
        f = self.gen(Eff(Arrow(s, t.inner)), TGT, env, depth - 1)
        return Ap(f, self.gen(Eff(s), TGT, env, depth - 1), label=TGT)

    def _gen_join(self, t: Eff, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        return Join(self.gen_nested_eff(t.inner, env, depth - 1), label=TGT)

    def _gen_bind(self, t: Eff, lab: Label, env: dict[str, Ty], depth: int, allow: bool) -> Term:
        s = self.small_type()
        x = self.fresh_var()
        body = self.gen(t, TGT, {**env, x: s}, depth - 1)
        a = self.gen(Eff(s), TGT, env, depth - 1)
        return Join(Map(Lam(x, body, s, label=TGT), a, label=TGT), label=TGT)


_GOALS: list[tuple[float, Ty]] = [
    (5.0, STR),
    (1.5, UNIT),
    (2.0, _PAIR),
    (0.5, Prod(STR, UNIT)),
    (1.0, Arrow(STR, STR)),
]
_GOALS_WEIGHT = sum(w for w, _ in _GOALS)


def _pick(rng: random.Random, opts: Sequence[tuple[float, object]], total: float) -> int:
    """Index of a pick among ``opts``, of weight ``total``, with one ``rng.random()``."""
    r = rng.random() * total
    for i, (w, _) in enumerate(opts):
        r -= w
        if r <= 0:
            return i
    return len(opts) - 1


def _pick_goal(rng: random.Random) -> Ty:
    return _GOALS[_pick(rng, _GOALS, _GOALS_WEIGHT)][1]


def _generate(cfg: GenConfig, build: Callable[[_Gen], Term]) -> Term:
    """``build``'s term from a generator seeded by ``cfg``, checked at its label."""
    sig = cfg.sig()
    term = build(_Gen(random.Random(cfg.seed), sig))
    typecheck(term, cfg.label, TypeEnv(sig))
    return term


def gen_term(cfg: GenConfig) -> Term:
    """Generate a term that typechecks at cfg.label with the goal type."""
    def build(g: _Gen) -> Term:
        goal = cfg.goal_type if cfg.goal_type is not None else _pick_goal(g.rng)
        if isinstance(goal, Eff) and cfg.label is COM:
            raise Unsatisfiable("common terms cannot be generated at effect types")
        return g.gen(goal, cfg.label, {}, max(cfg.max_depth, 1))

    return _generate(cfg, build)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def shrink(term: Term, label: Label, sig: Signature,
           still_fails: Callable[[Term], bool]) -> Term:
    """Greedy minimization: prefer well-typed failing subterms, repeatedly."""

    def well_typed(t: Term) -> bool:
        try:
            typecheck(t, label, TypeEnv(sig))
            return True
        except PurifyError:
            return False

    current = term
    improved = True
    while improved:
        improved = False
        # preorder, then a stable sort by size; the sizes come from one pass in
        # reverse preorder, which meets every node after its children
        nodes = list(subterms(current))
        sizes: dict[int, int] = {}
        for t in reversed(nodes):
            sizes[id(t)] = 1 + sum(sizes[id(k)] for k in children(t))
        candidates = sorted(nodes[1:], key=lambda s: sizes[id(s)])
        for cand in candidates:
            if not well_typed(cand):
                continue
            try:
                if still_fails(cand):
                    current = cand
                    improved = True
                    break
            except PurifyError:
                continue
    return current


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

class SuiteReport:
    __slots__ = ("suite", "trials", "passes", "seed", "failures")

    def __init__(self, suite: str, trials: int, passes: int, seed: int,
                 failures: list[dict] | None = None):
        self.suite, self.trials, self.passes, self.seed = suite, trials, passes, seed
        self.failures = [] if failures is None else failures

    @property
    def all_passed(self) -> bool:
        return not self.failures

    to_dict = slot_dict


SUITE_NAMES = (
    "types", "semantics", "span_work", "smart_ctors", "relabel",
    "effect_free", "laws", "normalize", "baseline",
)


def _sub_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


class _Ctx:
    """What a suite check needs besides its term: the signature, its type
    environment and the constants under the ordered monad, the only monad a
    check evaluates under."""

    __slots__ = ("sig", "env_t", "ordered_consts")

    def __init__(self, sig: Signature):
        self.sig, self.env_t = sig, TypeEnv(sig)
        self.ordered_consts = make_const_env(sig, _IN_ORDER)


# -- generators: (trial config, trial index) -> a checked term --------------

def _gen_plain(sub: GenConfig, i: int) -> Term:
    return gen_term(sub)


def _gen_smart(sub: GenConfig, i: int) -> Term:
    """An Ap of two generated actions (even trials) or a Join (odd trials)."""
    def build(g: _Gen) -> Term:
        inner, d = _pick_goal(g.rng), sub.max_depth
        if i % 2 == 0:
            st = g.small_type()
            return Ap(g.gen(Eff(Arrow(st, inner)), TGT, {}, d), g.gen(Eff(st), TGT, {}, d),
                      label=TGT)
        n = g.gen_nested_eff(inner, {}, d) if g.rng.random() < 0.5 \
            else g.gen(Eff(Eff(inner)), TGT, {}, d)
        return Join(n, label=TGT)

    return _generate(sub, build)


def _gen_action(sub: GenConfig, i: int) -> Term:
    """A target action of a randomly picked result type."""
    return _generate(sub, lambda g: g.gen(Eff(_pick_goal(g.rng)), TGT, {}, sub.max_depth))


# -- checks: a failure detail, or None when the property holds -------------
#
# Checks also run on shrink candidates, so a check returns None for a shape
# it does not test.

_Check = Callable[[_Ctx, Term], Optional[str]]


def _term_ty(c: _Ctx, term: Term, label: Label) -> Ty:
    """A suite term's type at ``label``.  The generators and ``shrink``
    typecheck every term at its suite's label first, so this reads the
    stamp; a term built by hand and never checked is checked here."""
    return term.ty if term.ty is not None else typecheck(term, label, c.env_t)


_UNTRACED = ("option", "state", "writer")  # trace would see seq_translate's lost parallelism
_POSITION = re.compile(r"@\d+")


def _erased(v: object) -> object:
    """``v`` with every ``@p`` position struck from its strings and from a
    function's results; an action is struck by the view that runs it."""
    k = type(v)
    if k is str:
        return _POSITION.sub("", v)
    if k is tuple:
        return tuple(map(_erased, v))
    return v if k is VEff else lambda x: _erased(v(x))


def _erased_leaf(n: Leaf) -> tuple[str, str]:
    return n.effect, _POSITION.sub("", n.arg)


def _in_order(da: TraceDag, db: TraceDag, key: Callable) -> bool:
    return [*map(key, da.nodes)] == [*map(key, db.nodes)]


def _ordered_monad(positions: bool, trees: Optional[Callable] = None) -> MonadDict:
    """The ordered monad, run by the suites only, or a view of it.  An action
    maps a position ``s`` to a trace action and the next position: the call
    at ``s`` returns what state's returns there, ``tag@s``, and adds its leaf;
    ``ap`` runs the function, then the argument, and composes them under
    ``Par``, ``bind`` under ``Seq``.  ``run_eq`` runs both actions from 0 and
    compares results and final positions if ``positions``, else results with
    every ``@p`` struck; then, by ``trees``, the traces over leaves struck alike.

    A builtin monad is a view: state sees positions (shifting the start
    shifts every ``@p`` alike), option struck results, writer struck leaves in
    order too (its log of tags), trace their unordered shape.  This holds
    while no literal, constant name or tag has an ``@``."""
    def pure(v):
        return lambda s: (empty_dag(v), s)

    def map_(f, a):
        def act(s):
            d, s = a(s)
            return TraceDag(d.tree, f(d.result)), s
        return act

    def ap(af, ax):
        def act(s):
            df, s = af(s)
            dx, s = ax(s)
            return parallel_compose(df, dx, df.result(dx.result)), s
        return act

    def bind(k, a):
        def act(s):
            d, s = a(s)
            d2, s = k(d.result)(s)
            return sequential_compose(d, d2, d2.result), s
        return act

    def effect(name, result_ty, behavior):
        return lambda args, tag, result: lambda s: (
            single_effect(name, args, seed_value(result_ty, f"{tag}@{s}", m)), s + 1)

    def run_eq(a, b, value_eq=base_value_eq):
        (da, sa), (db, sb) = a(0), b(0)
        if positions:
            same, key = sa == sb and value_eq(da.result, db.result), LEAF_KEY
        else:
            same, key = value_eq(_erased(da.result), _erased(db.result)), _erased_leaf
        return same and (trees is None or trees(da, db, key))

    m = MonadDict("ordered", pure, map_, ap, bind, run_eq, effect, None, ("value",))
    return m


# the sequence view decides option, state and writer at once; the shape view
# every builtin monad, and writer-rtl too
_IN_ORDER = _ordered_monad(True, _in_order)
_IN_SHAPE = _ordered_monad(True, lambda da, db, key: dag_iso(da, db, True, key))
_VIEWS = {"option": _ordered_monad(False), "state": _ordered_monad(True),
          "writer": _ordered_monad(False, _in_order),
          "trace": _ordered_monad(False, lambda da, db, key: dag_iso(da, db, False, key))}


def _differs(ty: Ty, a: object, b: object, monads: Collection[str]) -> Optional[str]:
    """The first of ``monads`` (names) whose view tells apart ``a`` and ``b``,
    two values of type ``ty`` evaluated under the ordered monad, as a failure
    detail; None when none does.  The shape view, or the sequence view when
    ``monads`` has no trace, decides first, at once for every monad it stands
    for; only a pair that it tells apart is read by each view in turn."""
    if value_eq_for(ty, _IN_SHAPE if "trace" in monads else _IN_ORDER)(a, b):
        return None
    return next((f"disagrees under {name}" for name in monads
                 if not value_eq_for(ty, _VIEWS[name])(a, b)), None)


def _mistyped(c: _Ctx, out: Term, ty: Ty) -> Optional[str]:
    """A detail naming both types when target term ``out`` does not check at ``ty``."""
    got = typecheck(out, TGT, c.env_t)
    return None if got is ty else f"expected {type_name(ty)}, got {type_name(got)}"


def _translation(translate: Callable[[Term], Term], monads: tuple[str, ...]) -> _Check:
    """A check that ``translate(term)`` checks at ``Eff`` of the term's type and
    agrees with ``term`` under ``monads``; with no monads it evaluates nothing."""
    def check(c: _Ctx, term: Term) -> Optional[str]:
        ty = Eff(_term_ty(c, term, SRC))
        out = translate(term)
        if (detail := _mistyped(c, out, ty)) or not monads:
            return detail
        o = c.ordered_consts
        return _differs(ty, evaluate(out, TGT, _IN_ORDER, o),
                        VEff(evaluate(term, SRC, _IN_ORDER, o)), monads)
    return check


def _rewrite(c: _Ctx, term: Term, label: Label, out: Term, cost: tuple[int, int]) -> Optional[str]:
    """``out``, a target rewrite of ``term`` (labelled ``label``, static span/work
    ``cost``), checks at the term's type, costs no more and agrees with ``term``
    under every builtin monad.  An action ``out`` also runs its own static
    cost: the ordered run's tree is the one trace builds."""
    ty = _term_ty(c, term, label)
    if detail := _mistyped(c, out, ty):
        return detail
    s, w = span_work(out, c.sig)
    if s > cost[0] or w > cost[1]:
        return f"span {cost[0]}->{s}, work {cost[1]}->{w}"

    o = c.ordered_consts
    a = evaluate(out, TGT, _IN_ORDER, o)
    if (detail := _differs(ty, a, evaluate(term, label, _IN_ORDER, o), _VIEWS)) \
            or type(ty) is not Eff:
        return detail
    d = a.action(0)[0]
    if (dyn_span(d), dyn_work(d)) == (s, w):
        return None
    return f"static span/work {s}/{w} of the rewrite, trace {dyn_span(d)}/{dyn_work(d)}"


# each translation is named when the check runs, so that rebinding it (a tracer, a fault) shows
_check_types = _translation(lambda t: opt_translate(t), ())
_check_semantics = _translation(lambda t: opt_translate(t), (*_UNTRACED, "trace"))
_check_baseline = _translation(lambda t: seq_translate(t), _UNTRACED)


def _check_span_work(c: _Ctx, term: Term) -> Optional[str]:
    _term_ty(c, term, SRC)
    (s0, w0), (s1, w1) = span_work(term, c.sig), span_work(opt_translate(term), c.sig)
    return f"span {s0}->{s1}, work {w0}->{w1}" if (s1, w1) != (s0, w0) else None


def _check_smart_ctors(c: _Ctx, term: Term) -> Optional[str]:
    """Compare the raw Ap/Join node with its smart constructor's output."""
    k = type(term)
    if k is not Ap and k is not Join:
        return None
    out = smart_ap(term.fun, term.arg, FreshNames()) if k is Ap else smart_join(term.nested)
    return _rewrite(c, term, TGT, out, span_work(term, c.sig))


def _check_effect_free(c: _Ctx, term: Term) -> Optional[str]:
    _term_ty(c, term, COM)
    if not is_effect_free(term):
        return "common term contains Each/Join"
    return "nonzero span/work on common term" if span_work(term, c.sig) != (0, 0) else None


def _check_relabel(c: _Ctx, term: Term) -> Optional[str]:
    if span_work(term, c.sig) != (0, 0):
        return "common term has nonzero span/work"
    return _rewrite(c, term, COM, relabel(term, TGT), (0, 0))


def _check_normalize(c: _Ctx, term: Term) -> Optional[str]:
    return _rewrite(c, term, TGT, normalize(term), span_work(term, c.sig))


# suite -> (label of its terms, generator, check); "laws" checks monads instead
_TERM_SUITES: dict[str, tuple[Label, Callable[[GenConfig, int], Term], _Check]] = {
    "types": (SRC, _gen_plain, _check_types),
    "semantics": (SRC, _gen_plain, _check_semantics),
    "span_work": (SRC, _gen_plain, _check_span_work),
    "smart_ctors": (TGT, _gen_smart, _check_smart_ctors),
    "relabel": (COM, _gen_plain, _check_relabel),
    "effect_free": (COM, _gen_plain, _check_effect_free),
    "normalize": (TGT, _gen_action, _check_normalize),
    "baseline": (SRC, _gen_plain, _check_baseline),
}


def _failure(check: _Check, c: _Ctx, term: Term) -> Optional[str]:
    """``check``'s failure detail for ``term``, also when it raises an ``Exception``
    (not a ``BaseException``: a deadline or an interrupt stops the suite)."""
    try:
        return check(c, term)
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def run_suite(name: str, cfg: GenConfig, trials: int) -> SuiteReport:
    """Run one executable theorem/lemma suite and report failures.

    Every failing term, including one whose check raises, is shrunk before
    it is reported.
    """
    if name not in SUITE_NAMES:
        raise PurifyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    sig = cfg.sig()
    report = SuiteReport(name, trials, 0, cfg.seed)

    if name == "laws":
        per = max(trials, 1)
        for m in builtin_monads():
            law_report = check_laws(m, per, cfg.seed)
            if law_report.all_passed:
                report.passes += 1
            else:
                report.failures.append({
                    "seed": cfg.seed,
                    "term_pretty": m.name,
                    "detail": {k: v for k, v in law_report.failures.items() if v},
                })
        report.trials = len(builtin_monads())
        return report

    label, generate, check = _TERM_SUITES[name]
    ctx = _Ctx(sig)
    for i in range(trials):
        s = _sub_seed(cfg.seed, i)
        try:
            term = generate(GenConfig(cfg.max_depth, s, sig, label), i)
        except Unsatisfiable:
            report.passes += 1
            continue
        detail = _failure(check, ctx, term)
        if detail is None:
            report.passes += 1
            continue
        small = shrink(term, label, sig, lambda t: _failure(check, ctx, t) is not None)
        report.failures.append({
            "seed": s,
            "term_pretty": pretty(small),
            "detail": _failure(check, ctx, small) or detail,
        })
    return report
