import pytest

from purify.check import (
    AnnotationNeeded, LabelMismatch, TypeEnv, TypeMismatch, UnboundVar,
    UnknownConst, typecheck,
)
from purify.propcheck import GenConfig, default_signature, gen_term
from purify.surface import parse_and_elaborate, parse_target_expr
from purify.terms import (
    App, Ap, Arrow, COM, Const, Each, Eff, Fst, Join, Lam, Lit, Map, Prd,
    Pure, SRC, STR, Signature, ConstDecl, ConstKind, TGT, UNIT, Unt, Var,
)


@pytest.fixture
def sig():
    return default_signature()


@pytest.fixture
def env(sig):
    return TypeEnv(sig)


def test_pair_projection_at_com(env):
    t = Fst(Prd(Unt(label=COM), Unt(label=COM), label=COM), label=COM)
    assert typecheck(t, COM, env) == UNIT
    assert t.ty == UNIT  # nodes get stamped


def test_each_eliminates_one_eff(env):
    t = Each(Const("probe", label=SRC), label=SRC)
    assert typecheck(t, SRC, env) == STR


def test_each_rejected_at_tgt(env):
    t = Each(Const("probe", label=SRC), label=SRC)
    with pytest.raises(LabelMismatch):
        typecheck(t, TGT, env)


def test_pure_wraps_common(env):
    t = Pure(Lit("a", label=COM), label=TGT)
    assert typecheck(t, TGT, env) == Eff(STR)


def test_pure_payload_must_be_common(env):
    t = Pure(Lit("a", label=SRC), label=TGT)
    with pytest.raises(LabelMismatch):
        typecheck(t, TGT, env)


def test_join_flattens(env):
    t = Join(Pure(Const("probe", label=COM), label=TGT), label=TGT)
    assert typecheck(t, TGT, env) == Eff(STR)


def test_join_requires_nested_eff(env):
    t = Join(Pure(Lit("a", label=COM), label=TGT), label=TGT)
    with pytest.raises(TypeMismatch):
        typecheck(t, TGT, env)


def test_map_and_ap(env):
    fetch_tgt = Const("fetch", label=TGT)
    call = App(fetch_tgt, Lit("u", label=TGT), label=TGT)
    m = Map(Lam("x", Var("x", label=COM), label=TGT), call, label=TGT)
    assert typecheck(m, TGT, env) == Eff(STR)
    ap = Ap(Pure(Lam("x", Var("x", label=COM), label=COM), label=TGT), call, label=TGT)
    assert typecheck(ap, TGT, env) == Eff(STR)


def test_ap_domain_mismatch(env):
    f = Pure(Lam("x", Unt(label=COM), STR, label=COM), label=TGT)
    arg = Pure(Unt(label=COM), label=TGT)  # Eff Unit, domain wants Str
    with pytest.raises(TypeMismatch):
        typecheck(Ap(f, arg, label=TGT), TGT, env)


def test_lambda_body_checked_at_com(env):
    lam = Lam("x", Var("x", label=COM), STR, label=SRC)
    assert typecheck(lam, SRC, env) == Arrow(STR, STR)


def test_tgt_bodied_lambda_only_in_target(env):
    body = Pure(Var("x", label=COM), label=TGT)
    lam = Lam("x", body, STR, label=SRC)
    with pytest.raises(LabelMismatch):
        typecheck(lam, SRC, env)


def test_unapplied_lambda_needs_annotation(env):
    lam = Lam("x", Var("x", label=COM), label=COM)
    with pytest.raises(AnnotationNeeded):
        typecheck(lam, COM, env)


def test_application_site_determines_parameter(env):
    lam = Lam("x", Var("x", label=COM), label=COM)
    t = App(lam, Lit("a", label=COM), label=COM)
    assert typecheck(t, COM, env) == STR
    assert lam.ty == Arrow(STR, STR)


def test_unbound_and_unknown(env):
    with pytest.raises(UnboundVar):
        typecheck(Var("ghost", label=COM), COM, env)
    with pytest.raises(UnknownConst):
        typecheck(Const("ghost", label=COM), COM, env)


def test_label_of_every_node_enforced(env):
    t = Prd(Unt(label=COM), Unt(label=SRC), label=COM)
    with pytest.raises(LabelMismatch):
        typecheck(t, COM, env)


def test_determinism_and_weakening(sig):
    for i in range(150):
        t = gen_term(GenConfig(max_depth=5, seed=4200 + i, label=SRC))
        ty1 = typecheck(t, SRC, TypeEnv(sig))
        ty2 = typecheck(t, SRC, TypeEnv(sig))
        assert ty1 == ty2
        widened = TypeEnv(sig, {"unused_binding": UNIT})
        assert typecheck(t, SRC, widened) == ty1


def test_generated_terms_check_at_each_label(sig):
    for label in (SRC, COM, TGT):
        for i in range(200):
            t = gen_term(GenConfig(max_depth=5, seed=5100 + i, label=label))
            typecheck(t, label, TypeEnv(sig))  # gen_term already checks; stay green


def test_effectful_signature_shape_enforced():
    with pytest.raises(Exception):
        Signature([ConstDecl("bad", STR, ConstKind.EFFECTFUL)])


def test_lifted_lambda_under_ap_must_be_common(env):
    """``ap (pure (fun …))`` types the lambda from the action it is applied
    to, under the same label rule as any other payload of ``pure``."""
    fetch_a = App(Const("fetch", label=TGT), Lit("a", label=TGT), label=TGT)
    for lam_label, ok in ((COM, True), (TGT, False)):
        lam = Lam("x", Var("x", label=COM), label=lam_label)
        t = Ap(Pure(lam, label=TGT), fetch_a, label=TGT)
        if ok:
            assert typecheck(t, TGT, env) == Eff(STR)
            assert lam.ty == Arrow(STR, STR)
        else:
            with pytest.raises(LabelMismatch):
                typecheck(t, TGT, env)


# ---------------------------------------------------------------------------
# Annotations: the parser stamps one on its node, the checker compares it
# ---------------------------------------------------------------------------

_F = "effect f : Str -> Eff Str\n"

ANNOTATION_MISMATCHES = [
    ('purify { ("a" : Unit) }', "annotation Unit does not match type Str"),
    ("purify { (fun x -> x : Str -> Unit) }",
     "annotation Str -> Unit does not match type Str -> Str"),
    ('purify { let y = ("a" : Unit) in y }', "annotation Unit does not match type Str"),
    ('purify { let y = "a" in (y : Unit) }', "annotation Unit does not match type Str"),
    (_F + 'purify { let y = "a" in (f(y)! : Unit) }', "annotation Unit does not match type Str"),
    (_F + 'purify { (f("a") : Eff Unit) }', "annotation Eff Unit does not match type Eff Str"),
    # a mark on a value that is not an action
    ('purify { "a"! }', "Each needs an Eff-typed argument, got Str"),
    # a second annotation on one expression is compared with the first, by the parser
    ('purify { (("a" : Unit) : Str) }', "1:24: annotation Str does not match annotation Unit"),
    ("purify { ((fun x -> x : Unit -> Unit) : Str -> Str) }",
     "1:39: annotation Str -> Str does not match annotation Unit -> Unit"),
]

ANNOTATIONS_THAT_HOLD = [
    ('purify { ("a" : Str) }', STR),
    ("purify { (fun x -> x : Str -> Str) }", Arrow(STR, STR)),
    ('purify { let y = ("a" : Str) in (y : Str) }', STR),
    (_F + 'purify { let y = "a" in (f(y)! : Str) }', STR),
    (_F + 'purify { ((f("a") : Eff Str)! : Str) }', STR),
    ('purify { (("a" : Str) : Str) }', STR),
]


@pytest.mark.parametrize("text, message", ANNOTATION_MISMATCHES)
def test_source_annotation_mismatch(text, message):
    with pytest.raises(TypeMismatch) as ei:
        sig, body = parse_and_elaborate(text)
        typecheck(body, SRC, TypeEnv(sig))
    assert str(ei.value) == message


@pytest.mark.parametrize("text, ty", ANNOTATIONS_THAT_HOLD)
def test_source_annotation_that_holds(text, ty):
    sig, body = parse_and_elaborate(text)
    assert typecheck(body, SRC, TypeEnv(sig)) == ty


def test_target_annotation_mismatch(env, sig):
    t = parse_target_expr('map (fun x -> x : Str -> Unit) (pure "a")', sig)
    with pytest.raises(TypeMismatch) as ei:
        typecheck(t, TGT, env)
    assert str(ei.value) == "annotation Str -> Unit does not match type Str -> Str"
    t = parse_target_expr('map (fun x -> x : Str -> Str) (pure "a")', sig)
    assert typecheck(t, TGT, env) == Eff(STR)


@pytest.mark.parametrize("text, message", [
    ('map (fun x -> x) "a"', "Map argument must be Eff-typed, got Str"),
    ('ap (pure "a") (pure "b")', "Ap function side must have type Eff (s -> t), got Eff Str"),
    ('map "a" (pure "b")', "expected a function, got Str"),
])
def test_target_combinator_diagnostics(sig, env, text, message):
    t = parse_target_expr(text, sig)
    with pytest.raises(TypeMismatch) as ei:
        typecheck(t, TGT, env)
    assert str(ei.value) == message
