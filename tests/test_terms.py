import copy
import dataclasses
import pickle
import sys
import threading

from purify.check import TypeEnv, typecheck
from purify.metrics import span, work
from purify.pretty import pretty
from purify.propcheck import GenConfig, default_signature, gen_term
from purify.semantics import evaluate, make_const_env, trace_monad
from purify.surface import parse_and_elaborate
from purify.terms import (
    App, Arrow, COM, Const, Each, Eff, Fst, Lam, Lit, NotCommon, Prd, Prod, Pure,
    PurifyError, SRC, STR, Str, TGT, Term, Ty, UNIT, Unit, Unt, Var, alpha_eq,
    is_effect_free, relabel, replace_children, size, subterms,
)
from purify.translate import naive_translate, opt_translate, seq_translate

import pytest


def test_relabel_leaf():
    out = relabel(Unt(label=COM), TGT)
    assert out == Unt(label=TGT)


def test_relabel_structure_preserving():
    t = Fst(Prd(Unt(label=COM), Unt(label=COM), label=COM), label=COM)
    out = relabel(t, SRC)
    assert all(n.label is SRC for n in subterms(out))
    assert pretty(out) == pretty(t)


def test_relabel_rejects_each():
    t = Each(Const("c", label=SRC), label=SRC)
    with pytest.raises(NotCommon):
        relabel(t, TGT)


def test_relabel_rejects_combinators():
    with pytest.raises(NotCommon):
        relabel(Pure(Unt(label=COM), label=TGT), SRC)


def test_relabel_copies_target_lambda_with_common_body():
    body = App(Const("shout", label=COM), Var("x", label=COM), label=COM)
    out = relabel(Lam("x", body, label=TGT), COM)
    assert out == Lam("x", body, label=COM)
    assert out.body is body


def test_relabel_rejects_lambda_with_target_body():
    body = Pure(Var("x", label=COM), label=TGT)
    with pytest.raises(NotCommon):
        relabel(Lam("x", body, label=TGT), COM)


def test_relabel_identity_on_structure_generated():
    for i in range(200):
        t = gen_term(GenConfig(max_depth=4, seed=i, label=COM))
        for target in (SRC, TGT, COM):
            assert pretty(relabel(t, target)) == pretty(t)


def test_is_effect_free():
    assert is_effect_free(Lam("x", Var("x", label=COM), label=COM))
    assert not is_effect_free(Each(Const("fetchFoo", label=SRC), label=SRC))
    # Ap alone performs no unhandled effect
    from purify.terms import Ap
    t = Ap(Pure(Lam("x", Var("x", label=COM), label=COM), label=TGT),
           Const("ff", label=TGT), label=TGT)
    assert is_effect_free(t)


def test_com_terms_are_effect_free_generated():
    for i in range(300):
        t = gen_term(GenConfig(max_depth=5, seed=1000 + i, label=COM))
        assert is_effect_free(t)


def test_alpha_eq_renamed_identity():
    a = Lam("x", Var("x", label=COM), label=COM)
    b = Lam("y", Var("y", label=COM), label=COM)
    assert alpha_eq(a, b)


def test_alpha_eq_distinguishes_bodies():
    a = Lam("x", Var("x", label=COM), label=COM)
    b = Lam("x", Unt(label=COM), label=COM)
    assert not alpha_eq(a, b)


def test_alpha_eq_distinguishes_constructors():
    assert not alpha_eq(Pure(Unt(label=COM), label=TGT), Unt(label=TGT))


def test_alpha_eq_respects_labels_and_consts():
    assert not alpha_eq(Unt(label=COM), Unt(label=SRC))
    assert not alpha_eq(Const("a", label=COM), Const("b", label=COM))
    assert not alpha_eq(Lit("a", label=COM), Lit("b", label=COM))


def test_alpha_eq_binding_consistency():
    # \x.\y. x  vs  \u.\v. v  differ
    a = Lam("x", Lam("y", Var("x", label=COM), label=COM), label=COM)
    b = Lam("u", Lam("v", Var("v", label=COM), label=COM), label=COM)
    assert not alpha_eq(a, b)


def test_alpha_eq_shadowing():
    # \x.\y. x  vs  \y.\y. y: the rhs variable is the inner binder
    a = Lam("x", Lam("y", Var("x", label=COM), label=COM), label=COM)
    b = Lam("y", Lam("y", Var("y", label=COM), label=COM), label=COM)
    assert not alpha_eq(a, b)
    # and the positive case: \x.\y. y vs \y.\y. y
    c = Lam("x", Lam("y", Var("y", label=COM), label=COM), label=COM)
    assert alpha_eq(c, b)


def test_alpha_eq_bound_vs_free():
    a = Lam("x", Var("x", label=COM), label=COM)
    b = Lam("y", Var("z", label=COM), label=COM)
    assert not alpha_eq(a, b)
    assert not alpha_eq(b, a)


def test_alpha_eq_on_deep_chains():
    """A walk on an explicit stack: chains far deeper than the recursion limit."""
    def chain(bottom):
        t = bottom
        for _ in range(10_000):
            t = Fst(Prd(t, Unt(label=COM), label=COM), label=COM)
        return t

    assert alpha_eq(chain(Lit("a", label=COM)), chain(Lit("a", label=COM)))
    assert not alpha_eq(chain(Lit("a", label=COM)), chain(Lit("b", label=COM)))


def test_alpha_eq_is_equivalence_on_generated_terms():
    terms = [gen_term(GenConfig(max_depth=4, seed=i, label=SRC)) for i in range(60)]
    for t in terms:
        assert alpha_eq(t, t)
    for a in terms[:20]:
        for b in terms[:20]:
            assert alpha_eq(a, b) == alpha_eq(b, a)
    # transitivity on the equal pairs
    for a in terms[:15]:
        for b in terms[:15]:
            for c in terms[:15]:
                if alpha_eq(a, b) and alpha_eq(b, c):
                    assert alpha_eq(a, c)


def test_size_counts_nodes():
    t = App(Const("f", label=SRC), Lit("a", label=SRC), label=SRC)
    assert size(t) == 3


def test_effect_arity():
    sig = default_signature()
    assert sig.lookup("fetch").effect_arity() == 1
    assert sig.lookup("probe").effect_arity() == 0
    assert sig.lookup("concat").effect_arity() is None


class _Alien(Term):
    """A node kind that no layer knows."""


def test_unknown_node_kind_is_a_diagnostic():
    sig = default_signature()
    m = trace_monad()
    env = make_const_env(sig, m)
    alien = _Alien(label=SRC)
    nested = App(Const("shout", label=SRC), _Alien(label=SRC), label=SRC)
    calls = {
        "evaluate src": lambda t: evaluate(t, SRC, m, env),
        "evaluate tgt": lambda t: evaluate(t, TGT, m, env),
        "typecheck": lambda t: typecheck(t, SRC, TypeEnv(sig)),
        "opt_translate": opt_translate,
        "naive_translate": naive_translate,
        "seq_translate": seq_translate,
        "relabel": lambda t: relabel(t, TGT),
        "pretty": pretty,
        "span": lambda t: span(t, sig),
        "work": lambda t: work(t, sig),
    }
    # at every label: a fold that dispatches on labels must still see the kind
    for t in (alien, nested, _Alien(label=COM), _Alien(label=TGT)):
        for name, call in calls.items():
            with pytest.raises(PurifyError):
                call(t)
                pytest.fail(f"{name} accepted an unknown node kind")
    with pytest.raises(PurifyError):
        replace_children(alien, ())


# ---------------------------------------------------------------------------
# Hash-consed types
# ---------------------------------------------------------------------------

TYPES = [UNIT, STR, Prod(STR, UNIT), Arrow(Prod(STR, STR), Eff(STR)),
         Eff(Eff(Arrow(STR, UNIT)))]


def test_equal_types_are_one_object():
    assert Unit() is UNIT and Str() is STR
    assert Prod(STR, STR) is Prod(STR, STR)
    assert Arrow(STR, Eff(UNIT)) is Arrow(Str(), Eff(Unit()))
    assert Prod(STR, UNIT) is not Prod(UNIT, STR) and Eff(STR) != Eff(UNIT)
    assert len({Prod(STR, STR), Prod(STR, STR), Prod(STR, UNIT)}) == 2


def test_parsed_types_are_the_built_ones():
    sig, _ = parse_and_elaborate(
        "effect f : (Str, Unit) -> Eff (Str -> Str)\nprim k : Eff Str\npurify { () }"
    )
    assert sig.lookup("f").ty is Arrow(Prod(STR, UNIT), Eff(Arrow(STR, STR)))
    assert sig.lookup("k").ty is Eff(STR)
    typed = parse_and_elaborate("purify { (fun x -> x : Str -> Str) }")[1]
    assert typed.param_ty is STR
    assert typecheck(typed, SRC, TypeEnv(sig)) is Arrow(STR, STR)


@pytest.mark.parametrize("ty", TYPES, ids=repr)
def test_copies_of_a_type_are_the_type(ty):
    assert copy.copy(ty) is ty
    assert copy.deepcopy(ty) is ty
    assert copy.deepcopy({"t": [ty]})["t"][0] is ty
    assert pickle.loads(pickle.dumps(ty)) is ty


@pytest.mark.parametrize("ty", TYPES, ids=repr)
def test_types_are_immutable(ty):
    for name in ty.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(ty, name, STR)
    for name in ty.__slots__:
        with pytest.raises(AttributeError):
            delattr(ty, name)
        assert getattr(ty, name) is not None


def test_types_match_by_field():
    match Arrow(Prod(STR, UNIT), Eff(STR)):
        case Arrow(Prod(a, b), Eff(c)):
            assert (a, b, c) == (STR, UNIT, STR)
        case _:
            pytest.fail("class patterns do not bind the fields")
    with pytest.raises(TypeError):
        Prod(STR)


def test_threads_interning_one_type_share_it():
    def chain(out):
        t = Prod(UNIT, Arrow(UNIT, UNIT))  # a base no other test builds
        for _ in range(2000):
            t = Eff(Arrow(STR, t))
            out.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = [[] for _ in range(4)]
        threads = [threading.Thread(target=chain, args=(o,)) for o in outs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(o) == 2000 for o in outs)
    assert all(a is b for o in outs[1:] for a, b in zip(outs[0], o))


def test_no_type_is_a_dataclass():
    assert not any(dataclasses.is_dataclass(k) for k in (Ty, Unit, Str, Prod, Arrow, Eff))
