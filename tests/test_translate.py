import pytest

from purify.check import TypeEnv, typecheck
from purify.metrics import span, work
from purify.propcheck import (
    GenConfig, Unsatisfiable, _gen_plain, _sub_seed, default_signature, gen_term,
)
from purify.semantics import (
    VEff, actions_agree, builtin_monads, evaluate, make_const_env,
    mixed_order_writer, value_eq_for,
)
from purify.terms import (
    App, Ap, COM, Const, ConstDecl, ConstKind, Each, Eff, FreshNames, Join, Lam, Lit,
    Map, Prd, Pure, PurifyError, SRC, STR, Signature, TGT, Term, Var, alpha_eq,
    is_effect_free, subterms,
)
from purify.translate import (
    FuelExhausted, naive_translate, normalize, opt_translate, seq_translate,
    smart_ap, smart_join,
)


def _com(name):
    return Const(name, label=COM)


def _tgt(name):
    return Const(name, label=TGT)


def _call_tgt(fn, lit):
    return App(Const(fn, label=TGT), Lit(lit, label=TGT), label=TGT)


# ---------------------------------------------------------------------------
# The one-pass optimizing translation
# ---------------------------------------------------------------------------

def test_translate_variable_wraps_in_pure():
    out = opt_translate(Var("x", label=SRC))
    assert out == Pure(Var("x", label=COM), label=TGT)


def test_translate_leaves():
    assert opt_translate(Const("c", label=SRC)) == Pure(_com("c"), label=TGT)
    assert opt_translate(Lit("a", label=SRC)) == Pure(Lit("a", label=COM), label=TGT)


def test_two_fetch_pair_collapses_to_ap_map(two_fetches):
    sig, body = two_fetches
    out = opt_translate(body)
    typecheck(out, TGT, TypeEnv(sig))

    pair_lift = Lam(
        "a",
        Lam("b", Prd(Var("a", label=COM), Var("b", label=COM), label=COM), label=COM),
        label=COM,
    )
    expected = Ap(
        Map(
            Lam("x", App(pair_lift, Var("x", label=COM), label=COM), label=TGT),
            _call_tgt("fetch", "foo"),
            label=TGT,
        ),
        _call_tgt("fetch", "bar"),
        label=TGT,
    )
    assert alpha_eq(out, expected)


def test_translated_effect_call_embeds_directly():
    sig, body = _fetch_program('purify { fetch("u")! }')
    out = opt_translate(body)
    # JOIN(Pure payload) embeds the call; no Join, no Pure remains
    assert alpha_eq(out, _call_tgt("fetch", "u"))


def _fetch_program(last_line):
    from purify import parse_and_elaborate
    text = "prim concat : Str -> Str -> Str\neffect fetch : Str -> Eff Str\n" + last_line
    sig, body = parse_and_elaborate(text)
    typecheck(body, SRC, TypeEnv(sig))
    return sig, body


def test_nested_marks_become_bind_chain():
    sig, body = _fetch_program('purify { fetch(fetch("u")!)! }')
    out = opt_translate(body)
    typecheck(out, TGT, TypeEnv(sig))
    lift = Lam("x", App(_com("fetch"), Var("x", label=COM), label=COM), label=TGT)
    expected = Join(Map(lift, _call_tgt("fetch", "u"), label=TGT), label=TGT)
    assert alpha_eq(out, expected)


def test_double_mark_collapses_inner_join():
    sig = Signature([ConstDecl("deep", Eff(Eff(STR)), ConstKind.EFFECTFUL)])
    body = Each(Each(Const("deep", label=SRC), label=SRC), label=SRC)
    typecheck(body, SRC, TypeEnv(sig))
    out = opt_translate(body)
    assert alpha_eq(out, Join(Const("deep", label=TGT), label=TGT))
    assert sum(1 for n in subterms(out) if isinstance(n, Join)) == 1


def test_translation_emits_no_each_and_common_bodies():
    for i in range(200):
        t = gen_term(GenConfig(max_depth=5, seed=2700 + i, label=SRC))
        out = opt_translate(t)
        assert not any(isinstance(n, Each) for n in subterms(out))
        for n in subterms(out):
            if isinstance(n, Lam):
                assert n.body.label is COM


def test_type_preservation_all_modes():
    sig = default_signature()
    env = TypeEnv(sig)
    for i in range(200):
        t = gen_term(GenConfig(max_depth=5, seed=3400 + i, label=SRC))
        src_ty = typecheck(t, SRC, env)
        for translate in (opt_translate, naive_translate, seq_translate):
            out = translate(t)
            assert typecheck(out, TGT, env) == Eff(src_ty)


@pytest.mark.parametrize("translate", [opt_translate, naive_translate],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("program", ['(fetch("a")!, fetch("b")!).1', '(fetch("a")!, "b")',
                                     '(fun p -> p.2 : (Str, Str) -> Str)(("a", fetch("b")!))'])
def test_translating_an_unchecked_pair_is_a_diagnostic(translate, program):
    # the pair and projection lift lambdas carry the checker's type stamps
    from purify import parse_and_elaborate
    sig, body = parse_and_elaborate(f"effect fetch : Str -> Eff Str\npurify {{ {program} }}")
    with pytest.raises(PurifyError, match="^translate needs a typechecked source term"):
        translate(body)
    src_ty = typecheck(body, SRC, TypeEnv(sig))
    assert typecheck(translate(body), TGT, TypeEnv(sig)) == Eff(src_ty)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def test_smart_ap_pure_pure():
    f = Pure(Lam("x", Var("x", label=COM), STR, label=COM), label=TGT)
    e = Pure(Unt_lit := Lit("v", label=COM), label=TGT)
    out = smart_ap(f, e, FreshNames())
    assert out == Pure(App(f.inner, Unt_lit, label=COM), label=TGT)


def test_smart_ap_pure_function_side():
    g = Pure(Lam("y", Var("y", label=COM), STR, label=COM), label=TGT)
    ff = _tgt("probe")
    out = smart_ap(g, ff, FreshNames())
    assert isinstance(out, Map)
    lam = out.fun
    assert isinstance(lam, Lam) and lam.body == App(g.inner, Var(lam.param, label=COM), label=COM)
    assert out.arg is ff


def test_smart_ap_pure_argument_side():
    gf = _tgt("gf")
    e = Pure(Lit("v", label=COM), label=TGT)
    out = smart_ap(gf, e, FreshNames())
    assert isinstance(out, Map)
    lam = out.fun
    assert lam.body == App(Var(lam.param, label=COM), e.inner, label=COM)
    assert out.arg is gf


def test_smart_ap_fallthrough_keeps_parallel_ap():
    out = smart_ap(_tgt("gf"), _tgt("ff"), FreshNames())
    assert out == Ap(_tgt("gf"), _tgt("ff"), label=TGT)


def test_smart_join_pure_relabels():
    out = smart_join(Pure(_com("ff"), label=TGT))
    assert out == Const("ff", label=TGT)


def test_smart_join_fallthrough():
    m = Map(Lam("x", Var("x", label=COM), label=TGT), _tgt("e"), label=TGT)
    assert smart_join(m) == Join(m, label=TGT)


# ---------------------------------------------------------------------------
# Naive translation
# ---------------------------------------------------------------------------

def test_naive_variable():
    assert naive_translate(Var("x", label=SRC)) == Pure(Var("x", label=COM), label=TGT)


def test_naive_application_is_raw_ap():
    t = App(Var("f", label=SRC), Var("x", label=SRC), label=SRC)
    out = naive_translate(t)
    assert out == Ap(
        Pure(Var("f", label=COM), label=TGT),
        Pure(Var("x", label=COM), label=TGT),
        label=TGT,
    )


def test_naive_each_is_raw_join():
    t = Each(Const("ff", label=SRC), label=SRC)
    out = naive_translate(t)
    assert out == Join(Pure(_com("ff"), label=TGT), label=TGT)


# ---------------------------------------------------------------------------
# Sequential baseline
# ---------------------------------------------------------------------------

def test_seq_on_pure_term_is_pure():
    assert seq_translate(Var("x", label=SRC)) == Pure(Var("x", label=COM), label=TGT)


def test_seq_two_fetches_fully_sequential(two_fetches):
    sig, body = two_fetches
    out = seq_translate(body)
    typecheck(out, TGT, TypeEnv(sig))
    assert span(out, sig) == 2 and work(out, sig) == 2
    assert span(opt_translate(body), sig) == 1


def test_seq_contains_no_ap():
    for i in range(200):
        t = gen_term(GenConfig(max_depth=5, seed=6400 + i, label=SRC))
        out = seq_translate(t)
        assert not any(isinstance(n, Ap) for n in subterms(out))


def test_seq_equals_opt_on_effect_free_terms():
    sig = default_signature()
    env = TypeEnv(sig)
    monads = builtin_monads()
    envs = [(m, make_const_env(sig, m)) for m in monads]
    checked = 0
    for i in range(400):
        t = gen_term(GenConfig(max_depth=4, seed=5700 + i, label=SRC))
        if not is_effect_free(t):
            continue
        checked += 1
        src_ty = typecheck(t, SRC, env)
        a = seq_translate(t)
        b = opt_translate(t)
        typecheck(a, TGT, env)
        typecheck(b, TGT, env)
        for m, cenv in envs:
            va = evaluate(a, TGT, m, cenv).action
            vb = evaluate(b, TGT, m, cenv).action
            assert actions_agree(src_ty, m, va, vb), (m.name, i)
    assert checked > 50


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

def _check_tgt(t, sig=None):
    sig = sig or default_signature()
    typecheck(t, TGT, TypeEnv(sig))
    return t


def test_normalize_left_unit_join():
    t = _check_tgt(Join(Pure(_com("probe"), label=TGT), label=TGT))
    assert normalize(t) == Const("probe", label=TGT)


def test_normalize_map_identity():
    t = _check_tgt(Map(Lam("x", Var("x", label=COM), label=TGT), _tgt("probe"), label=TGT))
    assert normalize(t) == _tgt("probe")


def test_normalize_map_composition():
    inner = Map(Lam("x", Var("x", label=COM), label=TGT), _tgt("probe"), label=TGT)
    outer = Map(
        Lam("y", App(_com("shout"), Var("y", label=COM), label=COM), label=TGT),
        inner, label=TGT,
    )
    _check_tgt(outer)
    out = normalize(outer)
    # composed into a single Map over the base action
    assert isinstance(out, Map) and out.arg == _tgt("probe")


def test_normalize_ap_collapses():
    # homomorphism: the applicative application of two pures becomes one Pure
    # (no beta rule: the payload keeps the application)
    f = Pure(Lam("x", Var("x", label=COM), STR, label=COM), label=TGT)
    raw = Ap(f, Pure(Lit("v", label=COM), label=TGT), label=TGT)
    _check_tgt(raw)
    out = normalize(raw)
    assert out == Pure(App(f.inner, Lit("v", label=COM), label=COM), label=TGT)


def test_normalize_left_unit_bind_form():
    # bind g (pure e) = g e: the continuation is applied directly
    g = Lam("x", App(_com("fetch"), Var("x", label=COM), label=COM), label=TGT)
    t = Join(Map(g, Pure(Lit("u", label=COM), label=TGT), label=TGT), label=TGT)
    _check_tgt(t)
    out = normalize(t)
    assert alpha_eq(out, App(g, Lit("u", label=TGT), label=TGT))


def test_normalize_right_unit():
    g = Lam("x", Pure(Var("x", label=COM), label=TGT), label=TGT)
    t = Join(Map(g, _call_tgt("fetch", "u"), label=TGT), label=TGT)
    _check_tgt(t)
    assert alpha_eq(normalize(t), _call_tgt("fetch", "u"))


def test_normalize_associativity_flattens_nested_binds():
    sig = default_signature()
    inner = Join(Map(_tgt("fetch"), _tgt("probe"), label=TGT), label=TGT)
    t = Join(Map(_tgt("fetch"), inner, label=TGT), label=TGT)
    _check_tgt(t, sig)
    out = normalize(t)
    typecheck(out, TGT, TypeEnv(sig))
    # rewritten to bind (bind g . f); the outer argument is now the base action
    assert isinstance(out, Join) and isinstance(out.nested, Map)
    assert out.nested.arg == _tgt("probe")
    assert span(out, sig) <= span(t, sig) and work(out, sig) <= work(t, sig)


def test_normalize_is_sound_on_translations(two_chains):
    sig, body = two_chains
    env = TypeEnv(sig)
    src_ty = typecheck(body, SRC, env)
    for translate in (opt_translate, naive_translate, seq_translate):
        out = translate(body)
        typecheck(out, TGT, env)
        n = normalize(out)
        typecheck(n, TGT, env)
        assert span(n, sig) <= span(out, sig)
        assert work(n, sig) <= work(out, sig)
        for m in builtin_monads():
            cenv = make_const_env(sig, m)
            a = evaluate(out, TGT, m, cenv).action
            b = evaluate(n, TGT, m, cenv).action
            assert actions_agree(src_ty, m, a, b), (m.name, translate.__name__)


@pytest.mark.parametrize("depth, seed", [(5, 41), (6, 51)])
def test_translations_under_the_order_flipped_writer(depth, seed):
    """writer-rtl runs an Ap's argument before its function: the translations
    that keep Ap nodes agree with the source under it, and the do-notation
    baseline, which runs every effect left to right, does not."""
    sig, m = default_signature(), mixed_order_writer()
    consts = make_const_env(sig, m)
    translations = {
        "opt": opt_translate, "naive": naive_translate,
        "normalize(opt)": lambda t: normalize(opt_translate(t)), "seq": seq_translate,
    }
    disagree = dict.fromkeys(translations, 0)
    for i in range(1_000):
        try:
            t = _gen_plain(GenConfig(depth, _sub_seed(seed, i), sig, SRC), i)
        except Unsatisfiable:
            continue
        eq = value_eq_for(Eff(t.ty), m)
        src = VEff(evaluate(t, SRC, m, consts))
        for name, translate in translations.items():
            disagree[name] += not eq(evaluate(translate(t), TGT, m, consts), src)
    assert disagree["seq"] > 0
    assert disagree == {"opt": 0, "naive": 0, "normalize(opt)": 0, "seq": disagree["seq"]}


def test_optimized_output_is_mostly_normal_with_known_exception():
    """The one-pass translation usually emits normal forms; consecutive pure
    function applications are the known exception (normalize composes the two
    Maps into one).  Either way the results stay semantically equal."""
    sig = default_signature()
    env = TypeEnv(sig)
    monads = [(m, make_const_env(sig, m)) for m in builtin_monads()]
    composed = 0
    for i in range(300):
        t = gen_term(GenConfig(max_depth=5, seed=9400 + i, label=SRC))
        src_ty = typecheck(t, SRC, env)
        out = opt_translate(t)
        typecheck(out, TGT, env)
        n = normalize(out)
        if not alpha_eq(n, out):
            composed += 1
            for m, cenv in monads:
                a = evaluate(out, TGT, m, cenv).action
                b = evaluate(n, TGT, m, cenv).action
                assert actions_agree(src_ty, m, a, b)


def test_map_over_map_counterexample_to_normal_form_conjecture():
    sig, body = _fetch_program('prim shout : Str -> Str\npurify { shout(shout(fetch("u")!)) }')
    out = opt_translate(body)
    typecheck(out, TGT, TypeEnv(sig))
    assert isinstance(out, Map) and isinstance(out.arg, Map)
    n = normalize(out)
    assert not alpha_eq(n, out)  # normalize composes the two Maps
    assert isinstance(n, Map) and not isinstance(n.arg, Map)


def test_normalize_deep_bind_chain_terminates():
    sig = default_signature()
    t: Term = _tgt("probe")
    for _ in range(60):
        t = Join(Map(_tgt("fetch"), t, label=TGT), label=TGT)
    typecheck(t, TGT, TypeEnv(sig))
    out = normalize(t)
    typecheck(out, TGT, TypeEnv(sig))
    assert span(out, sig) == 61 and work(out, sig) == 61


def test_a_rule_that_keeps_firing_at_one_node_exhausts_the_fuel(monkeypatch):
    """A rule that returns its input never reaches a fixed point at its node;
    the firing bound stops it there, within one pass."""
    class Hung(Exception):
        pass

    t = Pure(Lit("a", label=COM), label=TGT)  # 2 nodes: at most 3,000 firings
    fired = []

    def stuck(e, fresh):
        fired.append(e)
        if len(fired) > 10 * 3_000:
            raise Hung
        return e

    monkeypatch.setattr("purify.translate._apply_rule", stuck)
    with pytest.raises(FuelExhausted, match="fired more than 3000 rules"):
        normalize(t)


def test_passes_that_keep_firing_exhaust_the_pass_bound(monkeypatch):
    """A pass that reports a firing but changes nothing never reaches a
    fixed point; the pass bound stops the loop."""
    t = Pure(Lit("a", label=COM), label=TGT)  # 2 nodes: at most 12 passes
    monkeypatch.setattr("purify.translate._sweep",
                        lambda e, fresh, fired, cap: (e, fired + 1))
    with pytest.raises(FuelExhausted) as ei:
        normalize(t)
    assert str(ei.value) == "normalize did not reach a fixed point within 12 passes"
