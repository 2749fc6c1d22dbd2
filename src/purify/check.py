"""Label and type checking for guest terms.

The checker is syntax directed and post hoc: it validates the labelling
discipline (Each only in source position, combinators only in target
position, lambda bodies common) and synthesizes the unique type of a term,
stamping every node's ``ty`` field along the way.

Lambda parameters do not need annotations when the application site
determines them; an unapplied lambda must carry a ``param_ty`` annotation
(surface syntax ``(fun x -> e : T -> U)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class TypeEnv:
    """Scope-ordered variable typing plus the constant signature."""

    sig: Signature
    vars: dict[str, Ty] = field(default_factory=dict)

    def bind(self, name: str, ty: Ty) -> "TypeEnv":
        new = dict(self.vars)
        new[name] = ty
        return TypeEnv(self.sig, new)


def typecheck(e: Term, expected_label: Label, env: TypeEnv) -> Ty:
    """Synthesize the type of ``e`` at ``expected_label`` and stamp nodes."""
    return _synth(e, expected_label, env)


def _require_label(e: Term, want: Label) -> None:
    if e.label is not want:
        raise LabelMismatch(
            f"{type(e).__name__} node labelled {e.label} where {want} is required"
        )


def _stamp(e: Term, ty: Ty) -> Ty:
    e.ty = ty
    return ty


def _synth(e: Term, lab: Label, env: TypeEnv) -> Ty:
    # exact-type tests, most frequent kind first: cheaper than class patterns
    k = type(e)
    if k is Lit:
        _require_label(e, lab)
        return _stamp(e, STR)
    if k is App:
        _require_label(e, lab)
        return _stamp(e, _synth_app(e.fun, e.arg, lab, env))
    if k is Const:
        _require_label(e, lab)
        decl = env.sig.lookup(e.name)
        if decl is None:
            raise UnknownConst(f"unknown constant {e.name!r}")
        return _stamp(e, decl.ty)
    if k is Prd:
        _require_label(e, lab)
        return _stamp(e, Prod(_synth(e.fst, lab, env), _synth(e.snd, lab, env)))
    if k is Lam:
        _require_label(e, lab)
        if e.param_ty is None:
            raise AnnotationNeeded(
                "cannot infer parameter type of unapplied lambda; "
                "annotate it as (fun x -> e : T -> U)"
            )
        return _stamp(e, _check_lam(e, e.param_ty, lab, env))
    if k is Each:
        if lab is not SRC:
            raise LabelMismatch(f"Each only lives in the source fragment, not {lab}")
        _require_label(e, SRC)
        ti = _synth(e.eff, SRC, env)
        if not isinstance(ti, Eff):
            raise TypeMismatch(f"Each needs an Eff-typed argument, got {type_name(ti)}")
        return _stamp(e, ti.inner)
    if k is Unt:
        _require_label(e, lab)
        return _stamp(e, UNIT)
    if k is Var:
        _require_label(e, lab)
        if e.name not in env.vars:
            raise UnboundVar(f"unbound variable {e.name!r}")
        return _stamp(e, env.vars[e.name])
    if k is Fst or k is Snd:
        _require_label(e, lab)
        tp = _synth(e.pair, lab, env)
        if not isinstance(tp, Prod):
            raise TypeMismatch(f"{k.__name__} applied to non-pair type {type_name(tp)}")
        return _stamp(e, tp.left if k is Fst else tp.right)
    if k is Pure:
        if lab is not TGT:
            raise LabelMismatch(f"Pure only lives in the target fragment, not {lab}")
        _require_label(e, TGT)
        return _stamp(e, Eff(_synth(e.inner, COM, env)))
    if k is Map:
        if lab is not TGT:
            raise LabelMismatch(f"Map only lives in the target fragment, not {lab}")
        _require_label(e, TGT)
        ta = _synth(e.arg, TGT, env)
        if not isinstance(ta, Eff):
            raise TypeMismatch(f"Map argument must be Eff-typed, got {type_name(ta)}")
        tf = _synth_fun(e.fun, ta.inner, TGT, env)
        return _stamp(e, Eff(tf.cod))
    if k is Ap:
        if lab is not TGT:
            raise LabelMismatch(f"Ap only lives in the target fragment, not {lab}")
        _require_label(e, TGT)
        f = e.fun
        ta = _synth(e.arg, TGT, env)
        if not isinstance(ta, Eff):
            raise TypeMismatch(f"Ap argument must be Eff-typed, got {type_name(ta)}")
        if isinstance(f, Pure) and isinstance(f.inner, Lam) and f.inner.param_ty is None:
            # a lifted unannotated lambda: its parameter comes from the
            # argument side, like an ordinary application site
            _require_label(f, TGT)
            arrow = _check_lam(f.inner, ta.inner, COM, env)
            tf: Ty = Eff(arrow)
            f.ty = tf
        else:
            tf = _synth(f, TGT, env)
        if not (isinstance(tf, Eff) and isinstance(tf.inner, Arrow)):
            raise TypeMismatch(
                f"Ap function side must have type Eff (s -> t), got {type_name(tf)}"
            )
        if tf.inner.dom != ta.inner:
            raise TypeMismatch(
                f"Ap domain {type_name(tf.inner.dom)} does not match argument "
                f"{type_name(ta.inner)}"
            )
        return _stamp(e, Eff(tf.inner.cod))
    if k is Join:
        if lab is not TGT:
            raise LabelMismatch(f"Join only lives in the target fragment, not {lab}")
        _require_label(e, TGT)
        tn = _synth(e.nested, TGT, env)
        if not (isinstance(tn, Eff) and isinstance(tn.inner, Eff)):
            raise TypeMismatch(
                f"Join needs an Eff (Eff _)-typed argument, got {type_name(tn)}"
            )
        return _stamp(e, tn.inner)
    raise TypeCheckError(f"unknown term former {k.__name__}")


def _check_lam(lam: Lam, dom: Ty, lab: Label, env: TypeEnv) -> Arrow:
    """Check a lambda against a known parameter type."""
    if lam.param_ty is not None and lam.param_ty != dom:
        raise TypeMismatch(
            f"lambda annotated {type_name(lam.param_ty)} used where "
            f"{type_name(dom)} is required"
        )
    body_env = env.bind(lam.param, dom)
    if lam.body.label is COM:
        cod = _synth(lam.body, COM, body_env)
    elif lam.body.label is TGT and lab is TGT:
        # Sequencing lambdas fabricated by the do-notation baseline carry
        # explicit combinator bodies; they only make sense in target terms.
        cod = _synth(lam.body, TGT, body_env)
    else:
        raise LabelMismatch(
            f"lambda body labelled {lam.body.label} (bodies are common, or "
            f"target inside target terms)"
        )
    ty = Arrow(dom, cod)
    lam.ty = ty
    return ty


def _synth_fun(f: Term, dom: Ty, lab: Label, env: TypeEnv) -> Arrow:
    """Type a term in function position whose domain is already known."""
    if isinstance(f, Lam):
        _require_label(f, lab)
        return _check_lam(f, dom, lab, env)
    tf = _synth(f, lab, env)
    if not isinstance(tf, Arrow):
        raise TypeMismatch(f"expected a function, got {type_name(tf)}")
    if tf.dom != dom:
        raise TypeMismatch(
            f"function domain {type_name(tf.dom)} does not match argument "
            f"{type_name(dom)}"
        )
    return tf


def _synth_app(f: Term, a: Term, lab: Label, env: TypeEnv) -> Ty:
    if isinstance(f, Lam) and f.param_ty is None:
        # Argument-first so unannotated lambdas get their parameter type
        # from the application site.
        ta = _synth(a, lab, env)
        tf = _synth_fun(f, ta, lab, env)
        return tf.cod
    tf = _synth(f, lab, env)
    if not isinstance(tf, Arrow):
        raise TypeMismatch(f"application of non-function type {type_name(tf)}")
    ta = _synth(a, lab, env)
    if tf.dom != ta:
        raise TypeMismatch(
            f"argument type {type_name(ta)} does not match domain {type_name(tf.dom)}"
        )
    return tf.cod
