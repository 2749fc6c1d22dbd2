import json

import pytest

from purify import propcheck
from purify.check import TypeEnv, typecheck
from purify.propcheck import (
    GenConfig, SUITE_NAMES, Unsatisfiable, default_signature, gen_term,
    run_suite, shrink,
)
from purify.surface import parse_target_expr
from purify.terms import (
    App, Ap, COM, Each, Eff, Join, Lam, Map, Prod, SRC, STR, Signature, TGT, UNIT,
    Unt, Var, alpha_eq, size, subterms,
)


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


def _doubled_ap(f, e, fresh=None):
    """A wrong smart_ap: binds the argument action once before the real Ap."""
    return Join(Map(Lam("$dup", Ap(f, e), label=TGT), e, label=TGT), label=TGT)


def _swapped_normalize(e, reassoc=False):
    """A wrong normalize: runs an Ap's argument action before its function."""
    if not isinstance(e, Ap):
        return e
    apply_to = App(Var("$g", label=COM), Var("$y", label=COM), label=COM)
    flip = Lam("$y", Lam("$g", apply_to, e.fun.ty.inner, label=COM), label=TGT)
    return Ap(Map(flip, e.arg, label=TGT), e.fun, label=TGT)


@pytest.mark.parametrize("suite, depth, seed, trials, attr, wrong", [
    ("smart_ctors", 4, 61, 40, "smart_ap", _doubled_ap),
    ("normalize", 5, 101, 100, "normalize", _swapped_normalize),
])
def test_target_suites_shrink_failures(monkeypatch, suite, depth, seed, trials, attr,
                                       wrong):
    monkeypatch.setattr(propcheck, attr, wrong)
    rep = run_suite(suite, GenConfig(max_depth=depth, seed=seed), trials)
    assert rep.failures
    sig = default_signature()
    label, generate, check = propcheck._TERM_SUITES[suite]
    ctx = propcheck._Ctx.of(sig)
    shrunk = 0
    for f in rep.failures:
        small = parse_target_expr(f["term_pretty"], sig)
        typecheck(small, TGT, TypeEnv(sig))
        assert check(ctx, small) is not None
        i = f["seed"] - seed * 1_000_003
        original = generate(GenConfig(depth, f["seed"], sig, label), i)
        assert size(small) <= size(original)
        shrunk += size(small) < size(original)
    assert shrunk > 0
