import random

import pytest

from purify import propcheck
from purify.check import TypeEnv, typecheck
from purify.metrics import dyn_span, dyn_work
from purify.propcheck import GenConfig, default_signature, gen_term
from purify.semantics import (
    ABSENT, LAW_NAMES, MONADS, EvalError, MonadDict, SignatureMismatch, VEff, VUNIT,
    actions_agree, base_value_eq, builtin_monads, check_laws, evaluate,
    make_const_env, mixed_order_writer, option_monad, render_value, state_monad,
    trace_monad, value_eq_for, writer_monad, _gen_action, _gen_fun,
)
from purify.terms import (
    Arrow, COM, Const, ConstDecl, ConstKind, Each, Eff, Fst, Join, Lam, Lit, Map, Prd,
    Prod, SRC, STR, Signature, TGT, Unt, Var,
)
from purify.translate import opt_translate, seq_translate


@pytest.fixture
def sig():
    return default_signature()


def test_com_eval_pair_projection():
    m = option_monad()
    env = make_const_env(default_signature(), m)
    t = Fst(Prd(Unt(label=COM), Unt(label=COM), label=COM), label=COM)
    assert evaluate(t, COM, m, env) == VUNIT


def test_option_each_absent():
    sig = Signature([ConstDecl("none", Eff(STR), ConstKind.EFFECTFUL)])
    m = option_monad()
    env = make_const_env(sig, m, {"none": {"kind": "absent"}})
    t = Each(Const("none", label=SRC), label=SRC)
    typecheck(t, SRC, TypeEnv(sig))
    assert evaluate(t, SRC, m, env) is ABSENT


def test_option_ap_absent_propagates():
    m = option_monad()
    f = m.pure(lambda v: v)
    assert m.ap(f, ABSENT) is ABSENT
    assert m.ap(ABSENT, m.pure(VUNIT)) is ABSENT


def test_writer_bind_sequences_logs():
    m = writer_monad()
    a = ("x", ("a",))
    out = m.bind(lambda v: (v, ("b",)), a)
    assert out[1] == ("a", "b")


def test_state_threads_left_to_right():
    m = state_monad()
    inc = lambda s: (f"v{s}", s + 1)
    paired = m.ap(m.map(lambda a: lambda b: (a, b), inc), inc)
    v, s = paired(0)
    assert render_value(v) == "(v0,v1)" and s == 2


def test_trace_ap_parallel_bind_sequential():
    m = trace_monad()
    from purify.metrics import single_effect
    d1 = single_effect("f", "1", lambda v: ("r", v))
    d2 = single_effect("g", "2", "x")
    par = m.ap(d1, d2)
    assert (dyn_span(par), dyn_work(par)) == (1, 2)
    seq = m.bind(lambda v: single_effect("h", render_value(v), v), d2)
    assert (dyn_span(seq), dyn_work(seq)) == (2, 2)


def test_laws_all_builtin_monads():
    for m in builtin_monads():
        rep = check_laws(m, 400, 42)
        assert rep.all_passed, (m.name, rep.failures)


def test_laws_hold_for_mixed_order_writer_too():
    # Both applicative orders are lawful; that is the point of keeping Ap.
    rep = check_laws(mixed_order_writer(), 400, 42)
    assert rep.all_passed, rep.failures


def _incoherent(m: MonadDict, trials: int) -> int:
    """How many instances of ``ap f x == bind (fun g -> map g x) f`` fail
    under ``m``, with ``f`` and ``x`` drawn from its own effect calls, as
    ``check_laws`` draws its actions."""
    calls = [m.effect("e", STR, behavior)
             for behavior in ({}, *({"kind": k} for k in m.kinds if k != "value"))]
    fails = 0
    for i in range(trials):
        rng = random.Random(i)
        h = _gen_fun(rng)
        f = m.map(lambda r: lambda y: (r, h(y)), _gen_action(rng, m, calls))
        x = _gen_action(rng, m, calls)
        fails += not m.run_eq(m.ap(f, x), m.bind(lambda g: m.map(g, x), f))
    return fails


def test_ap_bind_coherence_is_what_untraced_lists():
    # the suites compare the do-notation baseline, which has no ap, under
    # exactly the builtin monads whose ap agrees with bind
    fails = {name: _incoherent(make(), 2_000) for name, make in MONADS.items()}
    assert {m.name for m in builtin_monads() if not fails[m.name]} == set(propcheck._UNTRACED)
    assert fails["writer-rtl"] > 0, fails


def _bracketing_ap(af, ax):
    (vf, wf), (vx, wx) = af, ax
    return vf(vx), (("(",) + wf + wx + (")",) if wf and wx else wf + wx)


def _state_ap_incr(af, ax):
    def run(s):
        vf, s1 = af(s)
        vx, s2 = ax(s1)
        return vf(vx), s2 + 1

    return run


# name: (monad, the operations replaced, the laws it fails at seed 0 in 1,000
# trials).  Each fault shows only on an action that observes something: an
# absent option, a state increment or a log entry.
LAWLESS = {
    # wraps two non-empty logs in brackets: lawful in all but applicative
    # composition, where the nesting of the brackets shows
    "bracketing": (writer_monad, {"ap": _bracketing_ap}, {"ap_comp"}),
    "state-ap-incr": (state_monad, {"ap": _state_ap_incr}, {"apl", "apr", "ap_comp"}),
    "state-map-keeps": (state_monad, {"map": lambda f, a: lambda s: (f(a(s)[0]), s)},
                        {"idr", "apl", "map_id"}),
    "writer-map-doubles": (writer_monad, {"map": lambda f, a: (f(a[0]), a[1] + a[1])},
                           {"idr", "apl", "apr", "map_map", "map_id", "ap_comp"}),
    "option-keeps-fun": (option_monad, {"ap": lambda af, ax: (
        ABSENT if af is ABSENT else af if ax is ABSENT else af(ax))}, {"apl", "ap_comp"}),
    "option-absent-x": (option_monad, {"map": lambda f, a: "x" if a is ABSENT else f(a)},
                        {"idr", "apl", "apr", "map_map", "map_id", "ap_comp"}),
}


def lawless(name: str) -> MonadDict:
    """``LAWLESS[name]``'s monad with its operations replaced."""
    make, ops, _ = LAWLESS[name]
    m = make()
    pure, map_, ap, bind = (ops.get(op, getattr(m, op)) for op in ("pure", "map", "ap", "bind"))
    return MonadDict(name, pure, map_, ap, bind, m.run_eq, m.effect, m.report, m.kinds)


def test_laws_check_applicative_composition():
    rep = check_laws(lawless("bracketing"), 2000, 0)
    assert tuple(rep.passes) == LAW_NAMES
    assert LAW_NAMES[-3:] == ("bind_pure", "map_id", "ap_comp")
    assert {law for law, fails in rep.failures.items() if fails} == {"ap_comp"}
    assert 0 < rep.passes["ap_comp"] < 2000
    assert all(n == 2000 for law, n in rep.passes.items() if law != "ap_comp")


@pytest.mark.parametrize("name", list(LAWLESS))
def test_law_strength_table(name):
    rep = check_laws(lawless(name), 1_000, 0)
    assert {law for law, fails in rep.failures.items() if fails} == LAWLESS[name][2]


@pytest.mark.parametrize("name, error", [
    ("option-keeps-fun", "EvalError: function values need a type-directed comparator"),
    ("option-absent-x", "TypeError: 'str' object is not callable"),
])
def test_law_whose_comparison_raises_fails(monkeypatch, name, error):
    texts = [t for fails in check_laws(lawless(name), 300, 0).failures.values() for t in fails]
    assert any(t.endswith(error) for t in texts), texts
    monkeypatch.setattr(propcheck, "builtin_monads", lambda: [option_monad(), lawless(name)])
    rep = propcheck.run_suite("laws", GenConfig(seed=0), 300)
    assert (rep.trials, rep.passes, len(rep.failures)) == (2, 1, 1)


def test_mixed_order_writer_disagrees_with_sequential_baseline(two_fetches):
    sig, body = two_fetches
    env_t = TypeEnv(sig)
    src_ty = typecheck(body, SRC, env_t)
    m = mixed_order_writer()
    env = make_const_env(sig, m)
    a_src = evaluate(body, SRC, m, env)
    seq = seq_translate(body)
    typecheck(seq, TGT, env_t)
    a_seq = evaluate(seq, TGT, m, env).action
    assert not actions_agree(src_ty, m, a_seq, a_src)
    # while the optimizing translation still agrees (it keeps the Ap)
    opt = opt_translate(body)
    typecheck(opt, TGT, env_t)
    a_opt = evaluate(opt, TGT, m, env).action
    assert actions_agree(src_ty, m, a_opt, a_src)


def test_two_fetch_pair_agrees_under_trace(two_fetches):
    sig, body = two_fetches
    env_t = TypeEnv(sig)
    src_ty = typecheck(body, SRC, env_t)
    m = trace_monad()
    env = make_const_env(sig, m)
    out = opt_translate(body)
    typecheck(out, TGT, env_t)
    a_src = evaluate(body, SRC, m, env)
    a_tgt = evaluate(out, TGT, m, env).action
    assert actions_agree(src_ty, m, a_tgt, a_src)


def test_sequential_baseline_loses_parallelism_under_trace(two_fetches):
    # the baseline agreement holds for option/state/writer but is allowed to
    # fail under the trace monad: the chain DAG is not isomorphic to the
    # parallel one, which is precisely the lost parallelism
    sig, body = two_fetches
    env_t = TypeEnv(sig)
    src_ty = typecheck(body, SRC, env_t)
    seq = seq_translate(body)
    typecheck(seq, TGT, env_t)
    m = trace_monad()
    env = make_const_env(sig, m)
    a_src = evaluate(body, SRC, m, env)
    a_seq = evaluate(seq, TGT, m, env).action
    assert not actions_agree(src_ty, m, a_seq, a_src)
    assert dyn_span(a_src) == 1 and dyn_span(a_seq) == 2


def test_relabel_preserves_semantics_generated(sig):
    from purify.terms import relabel
    monads = [(m, make_const_env(sig, m)) for m in builtin_monads()]
    for i in range(150):
        t = gen_term(GenConfig(max_depth=5, seed=11000 + i, label=COM))
        ty = typecheck(t, COM, TypeEnv(sig))
        out = relabel(t, TGT)
        typecheck(out, TGT, TypeEnv(sig))
        for m, env in monads:
            eq = value_eq_for(ty, m)
            assert eq(evaluate(t, COM, m, env), evaluate(out, TGT, m, env))


def test_signature_mismatch():
    m = option_monad()
    env = make_const_env(Signature(), m)
    with pytest.raises(SignatureMismatch):
        evaluate(Const("ghost", label=COM), COM, m, env)


def test_values_compare_by_content():
    """Guest values are host data: a Str is a str, unit (), a pair a tuple."""
    m = option_monad()
    env = make_const_env(default_signature(), m)
    pair = evaluate(Prd(Lit("a"), Prd(Unt(), Lit("b"))), COM, m, env)
    assert pair == ("a", ((), "b")) == ("a", (VUNIT, "b"))
    assert hash(pair) == hash(("a", ((), "b"))) and pair != (((), "b"), "a")
    assert evaluate(Lit("a"), COM, m, env) == "a" != evaluate(Unt(), COM, m, env)
    assert len({"a", "a", VUNIT, (), pair}) == 3


def test_base_value_eq():
    assert base_value_eq(((), "a"), ((), "a"))
    assert not base_value_eq("a", "b")
    assert not base_value_eq("a", VUNIT) and not base_value_eq(VUNIT, ("a", "b"))
    assert not base_value_eq(("a", "b"), ("a", "c"))
    f = lambda v: v
    assert not base_value_eq(f, "a")
    with pytest.raises(EvalError, match="function values need a type-directed comparator"):
        base_value_eq(f, f)
    with pytest.raises(EvalError, match="function values need a type-directed comparator"):
        base_value_eq(("a", f), ("a", f))
    action = VEff(VUNIT)
    with pytest.raises(EvalError, match="VEff values need a type-directed comparator"):
        base_value_eq(action, action)
    for m in builtin_monads():  # run_eq compares results with base_value_eq by default
        with pytest.raises(EvalError, match="type-directed comparator"):
            m.run_eq(m.pure(f), m.pure(f))


def test_extensional_function_comparison(sig):
    m = option_monad()
    eq = value_eq_for(Arrow(STR, STR), m)
    assert eq(lambda v: v + "", lambda v: v)
    assert not eq(lambda v: v, lambda v: v + "!")
    for m in builtin_monads():  # a function argument is told apart by what it is applied to
        eq = value_eq_for(Arrow(Arrow(STR, STR), STR), m)
        assert not eq(lambda h: h("a"), lambda h: h("b"))
        assert eq(lambda h: h("a"), lambda h: h("a" + ""))


def _evaluated(sig, *terms):
    """Each builtin monad, with ``terms`` evaluated at target under it."""
    for m in builtin_monads():
        consts = make_const_env(sig, m)
        yield m, [evaluate(t, TGT, m, consts) for t in terms]


def test_functions_of_actions_are_observed_running_them(sig):
    """An ``Eff`` argument runs one effect, so a function that runs it twice
    differs from one that runs it once wherever a run is observed.  Option
    observes only presence and the result, so it cannot tell them apart."""
    once = Lam("a", Var("a", label=TGT), Eff(STR), label=TGT)
    twice = Lam("a", Join(Map(Lam("_", Var("a", label=TGT), STR, label=TGT),
                              Var("a", label=TGT), label=TGT), label=TGT), Eff(STR), label=TGT)
    ty = Arrow(Eff(STR), Eff(STR))
    for t in (once, twice):
        assert typecheck(t, TGT, TypeEnv(sig)) is ty
    runs = list(_evaluated(sig, once, twice))
    equal = {m.name: value_eq_for(ty, m)(f, g) for m, (f, g) in runs}
    assert equal == {"option": True, "state": False, "writer": False, "trace": False}
    assert all(value_eq_for(ty, m)(f, f) for m, (f, g) in runs)


def test_functions_observe_actions_nested_in_their_argument(sig):
    """An action inside a function's argument (here the first of a pair)
    runs one effect too, so running it twice is observed as at the top."""
    p = Var("p", label=TGT)
    once = Lam("p", Fst(p, label=TGT), Prod(Eff(STR), STR), label=TGT)
    twice = Lam("p", Join(Map(Lam("u", Fst(p, label=TGT), STR, label=TGT),
                              Fst(p, label=TGT), label=TGT), label=TGT),
                Prod(Eff(STR), STR), label=TGT)
    ty = Arrow(Prod(Eff(STR), STR), Eff(STR))
    for t in (once, twice):
        assert typecheck(t, TGT, TypeEnv(sig)) is ty
    runs = list(_evaluated(sig, once, twice))
    equal = {m.name: value_eq_for(ty, m)(f, g) for m, (f, g) in runs}
    assert equal == {"option": True, "state": False, "writer": False, "trace": False}
    assert all(value_eq_for(ty, m)(g, g) for m, (f, g) in runs)


def test_effect_behavior_config_value_and_log():
    sig = Signature([ConstDecl("tick", Eff(STR), ConstKind.EFFECTFUL)])
    t = Each(Const("tick", label=SRC), label=SRC)
    typecheck(t, SRC, TypeEnv(sig))
    m = writer_monad()
    env = make_const_env(sig, m, {"tick": {"kind": "value", "payload": "fixed"}})
    v, log = evaluate(t, SRC, m, env)
    assert v == "fixed" and log == ()
    env2 = make_const_env(sig, m, {"tick": {"kind": "log", "payload": "ding"}})
    v2, log2 = evaluate(t, SRC, m, env2)
    assert log2 == ("ding",)


def test_state_behavior_value_keeps_state():
    sig = Signature([ConstDecl("tick", Eff(STR), ConstKind.EFFECTFUL)])
    t = Each(Const("tick", label=SRC), label=SRC)
    typecheck(t, SRC, TypeEnv(sig))
    m = state_monad()
    env = make_const_env(sig, m, {"tick": {"kind": "value", "payload": "k"}})
    v, s = evaluate(t, SRC, m, env)(7)
    assert v == "k" and s == 7


def test_run_eq_state_distinguishes_final_states():
    m = state_monad()
    a = lambda s: (VUNIT, s + 1)
    b = lambda s: (VUNIT, s + 2)
    assert not m.run_eq(a, b)
    assert m.run_eq(a, lambda s: (VUNIT, s + 1))


def test_render_value():
    assert render_value(VUNIT) == "()" and render_value("a") == "a"
    assert render_value(("a", VUNIT)) == "(a,())"
    assert render_value((("", ()), ((), "b"))) == "((,()),((),b))"
    assert render_value(lambda v: v) == "<fun>"
    assert render_value(VEff(option_monad().pure("a"))) == "<eff>"
    assert render_value((lambda v: v, (VEff(()), ()))) == "(<fun>,(<eff>,()))"
    with pytest.raises(EvalError, match="unknown value"):
        render_value(1)
