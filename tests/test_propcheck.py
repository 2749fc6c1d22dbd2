import builtins
import json
import random

import pytest

from purify import metrics, propcheck, terms
from purify.check import TypeEnv, typecheck
from purify.metrics import span, span_work, work
from purify.pretty import pretty
from purify.propcheck import (
    GenConfig, SUITE_NAMES, Unsatisfiable, _IN_SHAPE, default_signature, gen_term,
    run_suite, shrink,
)
from purify.semantics import (
    MONADS, SYMBOL, MonadDict, evaluate, make_const_env, value_eq_for, writer_monad,
)
from purify.surface import parse_and_elaborate, parse_target_expr
from purify.terms import (
    App, Ap, Arrow, COM, Const, ConstDecl, ConstKind, Each, Eff, Fst, Join, Lam, Lit,
    Map, Prd, Prod, PurifyError, SRC, STR, Signature, Snd, TGT, UNIT, Unt, Var,
    children, relabel, replace_children, size, subterms, type_name,
)
from purify.translate import _build_chain, opt_translate, seq_translate


def test_generator_soundness_all_labels():
    sig = default_signature()
    for label in (SRC, COM, TGT):
        for i in range(400):
            t = gen_term(GenConfig(max_depth=5, seed=i, label=label))
            typecheck(t, label, TypeEnv(sig))


def test_generator_soundness_gate_ten_thousand_per_label():
    # gen_term typechecks its own output; generation succeeding IS the gate
    for label in (SRC, COM, TGT):
        for i in range(10_000):
            gen_term(GenConfig(max_depth=5, seed=20_000 + i, label=label))


def test_generator_deterministic():
    for i in range(50):
        cfg = GenConfig(max_depth=5, seed=777 + i, label=SRC)
        a = gen_term(cfg)
        b = gen_term(GenConfig(max_depth=5, seed=777 + i, label=SRC))
        assert a == b


def test_goal_type_respected():
    sig = default_signature()
    for i in range(100):
        t = gen_term(GenConfig(max_depth=4, seed=i, label=SRC, goal_type=Prod(STR, UNIT)))
        assert typecheck(t, SRC, TypeEnv(sig)) == Prod(STR, UNIT)


def test_depth_one_unit_goal_is_leaf():
    t = gen_term(GenConfig(max_depth=1, seed=3, label=SRC, goal_type=UNIT))
    assert t == Unt(label=SRC)


def test_unsatisfiable_effect_goal_without_constants():
    cfg = GenConfig(max_depth=3, seed=0, signature=Signature(), label=SRC,
                    goal_type=Eff(STR))
    with pytest.raises(Unsatisfiable):
        gen_term(cfg)


def _raw_gen(ty, label, depth, allow=False):
    """``_Gen.gen`` on one goal, for raise sites whose ``Unsatisfiable`` a
    ``gen_term`` caller only sees through the fallback of ``_weighted``."""
    return lambda: propcheck._Gen(random.Random(0), default_signature()).gen(
        ty, label, {}, depth, allow)


# what the generator tried -> (a draw that raises there, its message)
UNSATISFIABLE_TEXTS = {
    "common Eff term, no constant": (
        lambda: gen_term(GenConfig(1, 0, Signature(), COM, Arrow(STR, Eff(STR)))),
        "no common term of type Eff Str"),
    "source effect, none declared": (
        lambda: gen_term(GenConfig(3, 0, Signature(), SRC, Eff(STR))),
        "no effectful constant produces Eff Str"),
    "source effect, none for the inner type": (
        lambda: gen_term(GenConfig(3, 0, default_signature(), SRC, Eff(Prod(STR, STR)))),
        "no effectful constant produces Eff (Str, Str)"),
    "common action value, none for the inner type": (
        _raw_gen(Eff(Prod(STR, STR)), COM, 2, allow=True),
        "no effectful constant produces Eff (Str, Str)"),
    "action value in a plain common term": (
        _raw_gen(Eff(STR), COM, 3),
        "no effect values in plain common terms"),
    "common goal at an effect type": (
        lambda: gen_term(GenConfig(3, 0, None, COM, Eff(STR))),
        "common terms cannot be generated at effect types"),
    "every constructor": (
        lambda: gen_term(GenConfig(3, 0, Signature(), COM, Arrow(STR, Eff(STR)))),
        "no constructor applies at this goal within depth"),
}


def test_unsatisfiable_texts_and_trials():
    """Each raise site's message, and a trial whose generator raises
    ``Unsatisfiable`` counts as a pass: 40 ``smart_ctors`` trials at depth 4,
    seed 1, some of them unsatisfiable, all pass."""
    for case, (draw, text) in UNSATISFIABLE_TEXTS.items():
        with pytest.raises(Unsatisfiable) as err:
            draw()
        assert str(err.value) == text, case
    sig, trials = default_signature(), 40
    label, generate, _ = propcheck._TERM_SUITES["smart_ctors"]
    unsat = 0
    for i in range(trials):
        try:
            generate(GenConfig(4, propcheck._sub_seed(1, i), sig, label), i)
        except Unsatisfiable:
            unsat += 1
    report = run_suite("smart_ctors", GenConfig(4, 1, sig), trials)
    assert unsat > 0 and report.failures == [] and report.passes == trials


def test_effect_types_reachable_at_src():
    sig = default_signature()
    found = False
    for i in range(50):
        t = gen_term(GenConfig(max_depth=4, seed=i, label=SRC, goal_type=Eff(STR)))
        typecheck(t, SRC, TypeEnv(sig)) == Eff(STR)
        found = True
    assert found


def test_each_only_in_source_terms():
    for i in range(200):
        t = gen_term(GenConfig(max_depth=5, seed=16000 + i, label=TGT))
        assert not any(isinstance(n, Each) for n in subterms(t))


def test_suite_reports_deterministic():
    a = run_suite("span_work", GenConfig(max_depth=5, seed=5), 80)
    b = run_suite("span_work", GenConfig(max_depth=5, seed=5), 80)
    assert a.to_dict() == b.to_dict()


def test_suite_report_serializes():
    rep = run_suite("types", GenConfig(max_depth=4, seed=1), 50)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["v"] == 1 and data["suite"] == "types"
    assert data["passes"] == 50 and data["failures"] == []


def test_all_suites_pass_smoke():
    for name in SUITE_NAMES:
        rep = run_suite(name, GenConfig(max_depth=5, seed=9), 60)
        assert rep.all_passed, (name, rep.failures[:2])


def test_unknown_suite_rejected():
    from purify.terms import PurifyError
    with pytest.raises(PurifyError):
        run_suite("nonsense", GenConfig(), 10)


def test_shrinking_soundness():
    sig = default_signature()

    def has_mark(t):
        return any(isinstance(n, Each) for n in subterms(t))

    shrunk_any = False
    for i in range(200):
        t = gen_term(GenConfig(max_depth=5, seed=17000 + i, label=SRC))
        if not has_mark(t):
            continue
        small = shrink(t, SRC, sig, has_mark)
        # minimized term still fails the property and still typechecks
        assert has_mark(small)
        typecheck(small, SRC, TypeEnv(sig))
        assert size(small) <= size(t)
        if size(small) < size(t):
            shrunk_any = True
    assert shrunk_any


def test_a_shrink_round_sizes_its_candidates_in_one_pass(monkeypatch):
    sig, t = parse_and_elaborate(
        "prim concat : Str -> Str -> Str\neffect fetch : Str -> Eff Str\n"
        'purify { ((fetch(fetch("a")!)! ++ "b", (fetch("c")!, ())),'
        ' fetch("d" ++ fetch("e")!)!).1 }'
    )
    # a round offers the proper subterms that typecheck, in preorder, stably
    # sorted by size
    expected = []
    for s in sorted(list(subterms(t))[1:], key=size):
        try:
            typecheck(s, SRC, TypeEnv(sig))
            expected.append(s)
        except PurifyError:
            pass
    calls = []

    def counted(e):
        calls.append(e)
        return size(e)

    monkeypatch.setattr(terms, "size", counted)
    monkeypatch.setattr(propcheck, "size", counted, raising=False)
    offered = []
    assert shrink(t, SRC, sig, lambda s: offered.append(s)) is t
    assert calls == []
    assert len(offered) == len(expected) > 20
    assert all(a is b for a, b in zip(offered, expected))


def _doubled_ap(f, e, fresh):
    """A wrong smart_ap: binds the argument action once before the real Ap."""
    return Join(Map(Lam("$dup", Ap(f, e), label=TGT), e, label=TGT), label=TGT)


def _swapped_normalize(e):
    """A wrong normalize: runs an Ap's argument action before its function."""
    if not isinstance(e, Ap):
        return e
    apply_to = App(Var("$g", label=COM), Var("$y", label=COM), label=COM)
    flip = Lam("$y", Lam("$g", apply_to, e.fun.ty.inner, label=COM), label=TGT)
    return Ap(Map(flip, e.arg, label=TGT), e.fun, label=TGT)


def _rebuilt(e, node):
    """``e`` rebuilt bottom-up through ``node(old, new children)``; a rebuilt
    node drops its type stamp, which the fault may have made wrong."""
    kids = tuple(_rebuilt(k, node) for k in children(e))
    if not kids:
        return e
    out = node(e, kids)
    out.ty = None
    return out


def _swap_pairs(e):
    return _rebuilt(e, lambda t, kids: replace_children(t, kids[::-1] if type(t) is Prd else kids))


def _swapped_opt(e):
    """A wrong opt translation: every pair has its components swapped."""
    return _swap_pairs(opt_translate(e))


def _fst_as_snd(e):
    """A wrong opt translation: every first projection becomes the second."""
    return _rebuilt(opt_translate(e), lambda t, kids: (
        Snd(kids[0], label=t.label) if type(t) is Fst else replace_children(t, kids)))


def _swapped_relabel(e, label):
    """A wrong relabel: every pair has its components swapped."""
    return _swap_pairs(relabel(e, label))


def _constants_cost(t, sig):
    """A wrong work: every constant counts as one effect."""
    s, w = span_work(t, sig)
    return s, w + sum(type(n) is Const for n in subterms(t))


def _reversed_chain(bindings, final):
    """A wrong seq_translate chain: binds the marks in reverse order."""
    return _build_chain(bindings[::-1], final)


def _reparse(text, label, sig):
    """A reported ``term_pretty`` parsed back at its suite's label."""
    if label is TGT:
        return parse_target_expr(text, sig)
    decls = "".join(f"{d.kind.value} {d.name} : {type_name(d.ty)}\n" for d in sig)
    _, body = parse_and_elaborate(f"{decls}purify {{ {text} }}")
    return body if label is SRC else relabel(body, COM)


# (suite, depth, seed, trials, the name a fault rebinds under ``purify``, the fault)
FAULT_ROWS = [
    ("smart_ctors", 4, 61, 40, "propcheck.smart_ap", _doubled_ap),
    ("normalize", 5, 101, 100, "propcheck.normalize", _swapped_normalize),
    ("types", 6, 31, 60, "propcheck.opt_translate", _fst_as_snd),
    ("semantics", 5, 41, 60, "propcheck.opt_translate", _swapped_opt),
    ("semantics", 5, 41, 60, "propcheck.opt_translate", _fst_as_snd),
    ("span_work", 6, 51, 60, "propcheck.opt_translate", seq_translate),
    ("relabel", 5, 71, 60, "propcheck.relabel", _swapped_relabel),
    ("effect_free", 5, 71, 60, "propcheck.span_work", _constants_cost),
    ("baseline", 5, 81, 60, "translate._build_chain", _reversed_chain),
]


@pytest.mark.parametrize("suite, depth, seed, trials, target, wrong", FAULT_ROWS)
def test_suites_shrink_failures(monkeypatch, suite, depth, seed, trials, target, wrong):
    """An injected fault, whether its check returns a detail or raises, is
    reported with a shrunk term that still fails.  A translation that changes
    a type is reported with both types, not by a Python error from comparing
    values of different types."""
    monkeypatch.setattr(f"purify.{target}", wrong)
    rep = run_suite(suite, GenConfig(max_depth=depth, seed=seed), trials)
    assert rep.failures
    sig = default_signature()
    label, generate, check = propcheck._TERM_SUITES[suite]
    ctx = propcheck._Ctx(sig)
    shrunk = 0
    for f in rep.failures:
        assert f["detail"].split(":")[0] not in dir(builtins), f
        small = _reparse(f["term_pretty"], label, sig)
        typecheck(small, label, TypeEnv(sig))
        assert propcheck._failure(check, ctx, small) is not None
        i = f["seed"] - seed * 1_000_003
        original = generate(GenConfig(depth, f["seed"], sig, label), i)
        assert size(small) <= size(original)
        shrunk += size(small) < size(original)
    assert shrunk > 0


def test_the_symbol_is_in_no_generated_literal_or_name():
    """Comparing functions on ``SYMBOL`` decides their equality only while no
    literal or constant name, and so no tag, contains its character."""
    assert len(SYMBOL) == 1
    assert not any(SYMBOL in w for w in (*propcheck._WORDS, "s"))
    assert not any(SYMBOL in d.name for d in default_signature())
    for label in (SRC, COM, TGT):
        for i in range(2_000):
            t = gen_term(GenConfig(max_depth=5, seed=40_000 + i, label=label))
            assert not any(type(n) is Lit and SYMBOL in n.value for n in subterms(t))


def test_a_deadline_in_a_check_stops_the_suite(monkeypatch):
    """A check that raises an ``Exception`` fails; a ``BaseException``, such
    as a SIGALRM deadline or an interrupt, passes through and stops the suite."""
    class Deadline(BaseException):
        pass

    def late(ctx, term):
        raise Deadline

    monkeypatch.setitem(propcheck._TERM_SUITES, "types", (SRC, propcheck._gen_plain, late))
    with pytest.raises(Deadline):
        run_suite("types", GenConfig(max_depth=4, seed=1), 5)


def test_normalize_check_compares_statics_with_the_trace(monkeypatch):
    """A normal form whose static span/work undercount its trace fails.

    Costing the let-style redex ``(fun x -> fetch(x))(v)``, which the bind
    associativity rule leaves in this chain's normal form, as zero effects
    measures it 2/2 against a 3/3 trace.  Bounding only the growth of the
    static measures let that pass.
    """
    sig, body = parse_and_elaborate(
        'effect fetch : Str -> Eff Str\npurify { fetch(fetch(fetch("u")!)!)! }'
    )
    typecheck(body, SRC, TypeEnv(sig))
    term = opt_translate(body)
    ctx = propcheck._Ctx(sig)
    assert propcheck._check_normalize(ctx, term) is None

    runs = metrics._runs

    def no_let_redex(t, *rest):
        if type(t) is App and type(t.fun) is Lam:
            return 0
        return runs(t, *rest)

    monkeypatch.setattr(metrics, "_runs", no_let_redex)
    assert propcheck._check_normalize(ctx, term) == (
        "static span/work 2/2 of the rewrite, trace 3/3"
    )


def test_smart_ctors_hold_each_rewrite_to_its_trace(monkeypatch):
    """Every rewritten action runs, under trace, its own static cost.  A cost
    that undercounts what ``smart_ap`` builds cannot raise span or work, so
    only comparing with the trace catches it."""
    monkeypatch.setattr(propcheck, "span_work",
                        lambda t, sig: (0, 0) if type(t) is Map else span_work(t, sig))
    rep = run_suite("smart_ctors", GenConfig(max_depth=4, seed=61), 200)
    assert rep.failures
    assert all(f["detail"].startswith("static span/work 0/0 of the rewrite, trace ")
               for f in rep.failures)


def test_span_work_requires_the_source_span(monkeypatch):
    """Translation retains the source's span and work exactly.  A source cost
    that runs every effect in sequence (span = work) cannot make the
    translation cost more, so only the equality catches it."""
    monkeypatch.setattr(propcheck, "span_work", lambda t, sig: (
        (work(t, sig),) * 2 if t.label is SRC else span_work(t, sig)))
    rep = run_suite("span_work", GenConfig(max_depth=6, seed=51), 300)
    assert rep.failures
    assert all(f["detail"].startswith("span ") for f in rep.failures)


def test_laws_suite_reports_the_lawless_monad(monkeypatch):
    """A writer whose map drops the log breaks idr; the laws suite names
    that monad and the laws it breaks."""
    w = writer_monad()
    lossy = MonadDict("lossy-writer", w.pure, lambda f, a: (f(a[0]), ()), w.ap, w.bind,
                      w.run_eq, w.effect, w.report, w.kinds)
    monkeypatch.setattr(propcheck, "builtin_monads", lambda: [writer_monad(), lossy])
    rep = run_suite("laws", GenConfig(seed=3), 200)
    assert (rep.trials, rep.passes) == (2, 1)
    [failure] = rep.failures
    assert failure["term_pretty"] == "lossy-writer" and failure["seed"] == 3
    assert "idr" in failure["detail"] and "idl" not in failure["detail"]


def test_static_span_work_survive_print_and_parse():
    """Printing drops labels, so a lambda body that holds no combinator
    re-parses as common.  Static span/work must not depend on that: a map's
    function is applied to a result, never run, and a bare function value
    runs nothing, whatever its body's label."""
    sig = default_signature()
    env = TypeEnv(sig)
    closed = mismatches = 0
    for depth in (4, 5, 6):
        for seed in range(150):
            term = propcheck._gen_action(GenConfig(depth, seed, sig, TGT), seed)
            for s in subterms(term):
                try:
                    typecheck(s, TGT, env)
                except PurifyError:  # a free variable of an enclosing lambda
                    continue
                closed += 1
                back = parse_target_expr(pretty(s), sig)
                mismatches += ((span(s, sig), work(s, sig))
                               != (span(back, sig), work(back, sig)))
    assert closed > 3000
    assert mismatches == 0


def _names(sig, seeds):
    """Constant names in generated source terms."""
    return {n.name for i in seeds
            for n in subterms(gen_term(GenConfig(5, i, sig, SRC)))
            if isinstance(n, Const)}


def test_tables_follow_signature_add():
    sig = default_signature()
    call = App(Const("ping", label=TGT), Lit("a", label=TGT), label=TGT)
    assert "ping" not in _names(sig, range(100))
    assert work(call, sig) == 0
    sig.add(ConstDecl("ping", Arrow(STR, Eff(STR)), ConstKind.EFFECTFUL))
    assert "ping" in _names(sig, range(100))
    assert span(call, sig) == work(call, sig) == 1


def test_default_config_shares_one_signature():
    """Without a signature, every config generates over one default signature,
    built once; ``default_signature()`` is fresh, since callers add to it."""
    assert GenConfig().sig() is GenConfig(3, 7).sig()
    assert default_signature() is not default_signature()


def test_signatures_never_share_tables():
    call = App(Const("go", label=TGT), Lit("a", label=TGT), label=TGT)
    rng = random.Random(5)
    for i in range(200):
        arity = rng.choice((1, 2))
        ty = Eff(STR)
        for _ in range(arity):
            ty = Arrow(STR, ty)
        sig = Signature([ConstDecl("go", ty, ConstKind.EFFECTFUL)])
        assert work(call, sig) == (arity == 1)
        gen_term(GenConfig(4, i, sig, SRC))  # typechecks in its own signature
        del sig  # the next one may reuse its id(), so tables keyed by id() go stale


def _scanning_lookups(sig, drop=None):
    """The generator's lookups as scans of the signature per call, each
    blind to the declaration named ``drop``."""
    decls = [d for d in sig if d.name != drop]

    def effect_decls_for(self, inner):
        out = []
        for d in decls:
            if d.effectful:
                t = d.ty
                while isinstance(t, Arrow):
                    t = t.cod
                if isinstance(t, Eff) and t.inner == inner:
                    out.append(d)
        return out

    def pure_call_decls(self, result):
        out = []
        for d in decls:
            if d.effectful:
                continue
            args, t = [], d.ty
            while isinstance(t, Arrow):
                args.append(t.dom)
                t = t.cod
                if t == result and args:
                    out.append((d, list(args)))
        return out

    def consts_of(self, t):
        return [d.name for d in decls if d.ty == t]

    return effect_decls_for, pure_call_decls, consts_of


_LOOKUPS = ("_effect_decls_for", "_pure_call_decls", "_consts_of")


def _scan_signature():
    sig = default_signature()
    sig.add(ConstDecl("both", Arrow(STR, Arrow(UNIT, Eff(Prod(STR, STR)))),
                      ConstKind.EFFECTFUL))
    sig.add(ConstDecl("twice", Arrow(STR, Arrow(STR, Prod(STR, STR))), ConstKind.PURE))
    return sig


def _draws(sig):
    gens = [(label, propcheck._gen_plain) for label in (SRC, COM, TGT)]
    gens += [(TGT, propcheck._gen_smart), (TGT, propcheck._gen_action)]
    out = []
    for i in range(500):
        for label, generate in gens:
            try:
                out.append(pretty(generate(GenConfig(4 + i % 3, i, sig, label), i)))
            except Unsatisfiable:
                out.append(None)
    return out


def test_tabled_generator_draws_the_scanned_terms(monkeypatch):
    """The generator reads its tables only through the three lookups, its
    menus included: on a fresh signature, whose menus are built through the
    lookups replaced by scans, it draws the tabled terms."""
    tabled = _draws(_scan_signature())
    sig = _scan_signature()
    for name, scan in zip(_LOOKUPS, _scanning_lookups(sig)):
        monkeypatch.setattr(propcheck._Gen, name, scan)
    assert _draws(sig) == tabled


@pytest.mark.parametrize("lookup, dropped", [
    ("_effect_decls_for", "both"), ("_pure_call_decls", "twice"), ("_consts_of", "shout"),
])
def test_scanned_draws_see_a_dropped_declaration(monkeypatch, lookup, dropped):
    """The negative control of the test above: when one lookup's scan misses
    a declaration, the draws change."""
    tabled = _draws(_scan_signature())
    sig = _scan_signature()
    scans = zip(_LOOKUPS, _scanning_lookups(sig), _scanning_lookups(sig, dropped))
    for name, scan, blind in scans:
        monkeypatch.setattr(propcheck._Gen, name, blind if name == lookup else scan)
    assert _draws(sig) != tabled


# each term suite's acceptance depth and seed
ACCEPTANCE = {"types": (6, 31), "semantics": (5, 41), "span_work": (6, 51), "smart_ctors": (4, 61),
              "relabel": (5, 71), "effect_free": (5, 71), "normalize": (5, 101), "baseline": (5, 81)}
# (suite, depth, seed, trials, fault target, fault) of every fault row, by the row's name
FAULTS = [pytest.param(*row, id=f"{row[0]}/{row[5].__name__}") for row in FAULT_ROWS]
EVALUATING = ("semantics", "smart_ctors", "relabel", "normalize", "baseline")


@pytest.mark.parametrize("suite, depth, seed, trials, target, wrong", [
    pytest.param(s, 5, 17, 40, None, None, id=s) for s in (*EVALUATING, "types")] + FAULTS)
def test_each_check_evaluates_each_side_once(monkeypatch, suite, depth, seed, trials, target,
                                             wrong):
    """A check evaluates its two terms once each, under the ordered monad,
    whose one run per side decides what every monad it names decides, also
    when the sides differ and while the failing term is shrunk; ``types``
    compares types only and evaluates nothing, and a check that fails on a
    type or a static cost evaluates nothing either."""
    if target is not None:
        monkeypatch.setattr(f"purify.{target}", wrong)
    calls = []
    evaluate = propcheck.evaluate
    monkeypatch.setattr(propcheck, "evaluate", lambda *a: calls.append(a) or evaluate(*a))
    label, generate, check = propcheck._TERM_SUITES[suite]
    per_check = []

    def counted(ctx, term):
        before = len(calls)
        try:
            return check(ctx, term)
        finally:
            per_check.append(len(calls) - before)

    monkeypatch.setitem(propcheck._TERM_SUITES, suite, (label, generate, counted))
    rep = run_suite(suite, GenConfig(max_depth=depth, seed=seed), trials)
    assert rep.all_passed == (target is None) and per_check
    if target is None:
        assert set(per_check) == {2 if suite in EVALUATING else 0}
    else:
        assert set(per_check) <= {0, 2} and (2 in per_check) == (suite in EVALUATING)


def test_a_trial_the_ordered_monad_tells_apart_is_compared_per_monad(monkeypatch):
    """Two ordered evaluations tell the sides apart; each monad's view then
    reads the same two runs, up to the first view under which they differ,
    with no evaluation more: a pair swapped in the translation of
    ``(probe!, probe!)`` only changes state's results."""
    sig, term = parse_and_elaborate("effect probe : Eff Str\npurify { (probe!, probe!) }")
    typecheck(term, SRC, TypeEnv(sig))
    monkeypatch.setattr(propcheck, "opt_translate", _swapped_opt)
    used = []
    evaluate = propcheck.evaluate
    monkeypatch.setattr(propcheck, "evaluate", lambda *a: used.append(a[2].name) or evaluate(*a))
    assert propcheck._check_semantics(propcheck._Ctx(sig), term) == "disagrees under state"
    assert used == ["ordered", "ordered"]


def test_a_pair_only_the_shape_view_tells_apart_passes(monkeypatch):
    """A rewrite that swaps the two arguments of an ``ap``, one a chain of two
    stamps and the other a stamp, changes only the order of a Par.  The shape
    view tells the sides apart, yet no monad does, not even writer-rtl: every
    leaf is ``stamp(x)``.  The rewrite passes on two evaluations, and its
    cost, 2/3, is read off the ordered run."""
    sig = default_signature()
    const = "pure (fun p -> (fun q -> () : Unit -> Unit) : Unit -> Unit -> Unit)"
    chain = 'join (map (fun u -> stamp("x") : Unit -> Eff Unit) stamp("x"))'
    term = parse_target_expr(f'ap (ap ({const}) ({chain})) stamp("x")', sig)
    out = parse_target_expr(f'ap (ap ({const}) stamp("x")) ({chain})', sig)
    ctx = propcheck._Ctx(sig)
    assert typecheck(term, TGT, ctx.env_t) is typecheck(out, TGT, ctx.env_t) is Eff(UNIT)
    assert span_work(term, sig) == span_work(out, sig) == (2, 3)

    def apart(m) -> bool:
        consts = make_const_env(sig, m)
        return not value_eq_for(Eff(UNIT), m)(*(evaluate(t, TGT, m, consts) for t in (term, out)))
    assert apart(_IN_SHAPE) and not any(apart(make()) for make in MONADS.values())
    used = []
    monkeypatch.setattr(propcheck, "evaluate", lambda *a: used.append(a[2].name) or evaluate(*a))
    assert propcheck._rewrite(ctx, term, TGT, out, (2, 3)) is None
    assert used == ["ordered", "ordered"]


def test_a_difference_only_trace_sees_is_reported(monkeypatch):
    """Running ``(stamp("x")!, stamp("y")!)``'s two stamps in sequence, not in
    parallel, keeps every result, position and leaf order: only the shape
    view, which a check naming trace decides on first, tells the sides apart,
    and only trace's view names a monad."""
    sig, term = parse_and_elaborate(
        'effect stamp : Str -> Eff Unit\npurify { (stamp("x")!, stamp("y")!) }')
    typecheck(term, SRC, TypeEnv(sig))
    ctx, seq = propcheck._Ctx(sig), seq_translate(term)
    typecheck(seq, TGT, ctx.env_t)
    assert propcheck._rewrite(ctx, seq, TGT, opt_translate(term), (2, 2)) == "disagrees under trace"
    monkeypatch.setattr(propcheck, "opt_translate", seq_translate)
    assert propcheck._check_semantics(ctx, term) == "disagrees under trace"


@pytest.mark.parametrize("suite, depth, seed, trials, target, wrong", [
    pytest.param(s, *ACCEPTANCE[s], 300, None, None, id=s) for s in ACCEPTANCE] + FAULTS)
def test_a_passing_trial_never_leaves_the_ordered_path(monkeypatch, suite, depth, seed, trials,
                                                       target, wrong):
    """A trial is decided by the ordered monad alone, whether it passes or
    fails and is shrunk: the suite builds no constant environment under any
    other monad."""
    if target is not None:
        monkeypatch.setattr(f"purify.{target}", wrong)
    built = []
    make_const_env = propcheck.make_const_env
    monkeypatch.setattr(propcheck, "make_const_env",
                        lambda sig, m: built.append(m.name) or make_const_env(sig, m))
    rep = run_suite(suite, GenConfig(max_depth=depth, seed=seed), trials)
    assert rep.all_passed == (target is None) and built == ["ordered"]


def test_types_suite_typechecks_each_term_once(monkeypatch):
    """The generator checks the source term; the suite's check reads its
    stamp and typechecks only the translation."""
    labels = []
    typecheck = propcheck.typecheck
    monkeypatch.setattr(propcheck, "typecheck",
                        lambda t, lab, env: labels.append(lab) or typecheck(t, lab, env))
    rep = run_suite("types", GenConfig(max_depth=6, seed=31), 50)
    assert rep.all_passed and rep.passes == 50
    assert labels == [SRC, TGT] * 50
