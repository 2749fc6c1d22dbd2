"""Label and type checking for guest terms.

The checker is syntax directed and post hoc: it validates the labelling
discipline (Each only in source position, combinators only in target
position, lambda bodies common) and synthesizes the unique type of a term,
stamping every node's ``ty`` field along the way.

Lambda parameters do not need annotations when the context determines
them (bidirectional typing): an application's argument, or the action a
``map`` or ``ap`` runs, gives the parameter type, also through ``pure``.
Any other lambda must carry a ``param_ty`` annotation (surface syntax
``(fun x -> e : T -> U)``).
"""

from __future__ import annotations

from .terms import (
    App, Ap, Arrow, COM, Const, Each, Eff, Fst, Join, Label, Lam, Lit, Map,
    Prd, Prod, Pure, PurifyError, SRC, Signature, Snd, STR, TGT, Term, Ty,
    UNIT, Unt, Var, type_name,
)


class TypeCheckError(PurifyError):
    pass


class LabelMismatch(TypeCheckError):
    pass


class TypeMismatch(TypeCheckError):
    pass


class UnboundVar(TypeCheckError):
    pass


class UnknownConst(TypeCheckError):
    pass


class AnnotationNeeded(TypeCheckError):
    pass


class TypeEnv:
    """Scope-ordered variable typing plus the constant signature."""

    __slots__ = ("sig", "vars")

    def __init__(self, sig: Signature, vars: dict[str, Ty] | None = None):
        self.sig, self.vars = sig, {} if vars is None else vars


def typecheck(e: Term, expected_label: Label, env: TypeEnv) -> Ty:
    """Synthesize the type of ``e`` at ``expected_label`` and stamp nodes."""
    return _synth(e, expected_label, env.sig, dict(env.vars))


# node kinds that live in one fragment only; every other kind is common
_FRAGMENT = {Each: SRC, Pure: TGT, Map: TGT, Ap: TGT, Join: TGT}
_TYPES = Ty._interned  # a type that exists is read from here, not rebuilt


def _synth(e: Term, lab: Label, sig: Signature, scope: dict[str, Ty],
           dom: Ty | None = None) -> Ty:
    """Type ``e`` at label ``lab``.  ``dom`` is the parameter type the
    context gives a lambda in function position (an application's argument,
    a ``map``'s or ``ap``'s action); ``pure`` passes it on to its payload.
    ``scope`` (one per call of ``typecheck``) types the variables in scope."""
    k = type(e)
    if _FRAGMENT.get(k, lab) is not lab:
        raise LabelMismatch(
            f"{k.__name__} only lives in the {_FRAGMENT[k]} fragment, not {lab}"
        )
    if e.label is not lab:
        raise LabelMismatch(
            f"{k.__name__} node labelled {e.label} where {lab} is required"
        )
    # exact-type tests, most frequent kind first: cheaper than class patterns
    if k is Lit:
        ty: Ty = STR
    elif k is App:
        # argument first, so an unannotated lambda gets its parameter type
        ta = _synth(e.arg, lab, sig, scope)
        tf = _synth(e.fun, lab, sig, scope, ta)
        if not isinstance(tf, Arrow):
            raise TypeMismatch(f"application of non-function type {type_name(tf)}")
        if tf.dom != ta:
            raise TypeMismatch(
                f"argument type {type_name(ta)} does not match domain {type_name(tf.dom)}"
            )
        ty = tf.cod
    elif k is Const:
        decl = sig.lookup(e.name)
        if decl is None:
            raise UnknownConst(f"unknown constant {e.name!r}")
        ty = decl.ty
    elif k is Prd:
        ty = Prod(_synth(e.fst, lab, sig, scope), _synth(e.snd, lab, sig, scope))
    elif k is Lam:
        param_ty = dom if e.param_ty is None else e.param_ty
        if param_ty is None:
            raise AnnotationNeeded(
                "cannot infer parameter type of unapplied lambda; "
                "annotate it as (fun x -> e : T -> U)"
            )
        body_lab = e.body.label
        # Sequencing lambdas fabricated by the do-notation baseline carry
        # explicit combinator bodies; they only make sense in target terms.
        if body_lab is not COM and (body_lab is not TGT or lab is not TGT):
            raise LabelMismatch(
                f"lambda body labelled {body_lab} (bodies are common, or "
                f"target inside target terms)"
            )
        outer, scope[e.param] = scope.get(e.param), param_ty
        tb = _synth(e.body, body_lab, sig, scope)
        scope[e.param] = outer  # None when it was unbound
        ty = _TYPES.get((Arrow, param_ty, tb)) or Arrow(param_ty, tb)
    elif k is Each:
        ti = _synth(e.eff, SRC, sig, scope)
        if not isinstance(ti, Eff):
            raise TypeMismatch(f"Each needs an Eff-typed argument, got {type_name(ti)}")
        ty = ti.inner
    elif k is Unt:
        ty = UNIT
    elif k is Var:
        ty = scope.get(e.name)
        if ty is None:
            raise UnboundVar(f"unbound variable {e.name!r}")
    elif k is Fst or k is Snd:
        tp = _synth(e.pair, lab, sig, scope)
        if not isinstance(tp, Prod):
            raise TypeMismatch(f"{k.__name__} applied to non-pair type {type_name(tp)}")
        ty = tp.left if k is Fst else tp.right
    elif k is Pure:
        ti = _synth(e.inner, COM, sig, scope, dom)
        ty = _TYPES.get((Eff, ti)) or Eff(ti)
    elif k is Map or k is Ap:
        ta = _synth(e.arg, TGT, sig, scope)
        if not isinstance(ta, Eff):
            raise TypeMismatch(
                f"{k.__name__} argument must be Eff-typed, got {type_name(ta)}"
            )
        tf = _synth(e.fun, TGT, sig, scope, ta.inner)
        if k is Ap:
            if not (isinstance(tf, Eff) and isinstance(tf.inner, Arrow)):
                raise TypeMismatch(
                    f"Ap function side must have type Eff (s -> t), got {type_name(tf)}"
                )
            tf = tf.inner
        elif not isinstance(tf, Arrow):
            raise TypeMismatch(f"expected a function, got {type_name(tf)}")
        if tf.dom != ta.inner:
            raise TypeMismatch(
                f"{k.__name__} domain {type_name(tf.dom)} does not match argument "
                f"{type_name(ta.inner)}"
            )
        ty = _TYPES.get((Eff, tf.cod)) or Eff(tf.cod)
    elif k is Join:
        tn = _synth(e.nested, TGT, sig, scope)
        if not (isinstance(tn, Eff) and isinstance(tn.inner, Eff)):
            raise TypeMismatch(
                f"Join needs an Eff (Eff _)-typed argument, got {type_name(tn)}"
            )
        ty = tn.inner
    else:
        raise TypeCheckError(f"unknown term former {k.__name__}")
    if e.ty is not None and e.ty is not ty:  # the parser stamps an annotation
        raise TypeMismatch(f"annotation {type_name(e.ty)} does not match type {type_name(ty)}")
    e.ty = ty
    return ty
