"""Guest-language types, labels, terms and structural utilities.

Every AST node carries a fragment label (source / target / common) and an
optional type stamp that the checker fills in.  All operations in this
module build fresh trees and never mutate their arguments (the ``ty`` stamp
is a write-once annotation, not part of equality).  Types are hash-consed
(Filliatre & Conchon, ML 2006): each distinct type is one shared immutable
object, so comparing or hashing two types is a pointer test.

Terms, types and every other record in this package are plain classes with
``__slots__``, not dataclasses: importing ``dataclasses`` (which loads
``inspect``) and building each decorated class cost a fresh interpreter
about a third of its start-up, which every one-shot ``purify`` command pays.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Optional, TypeVar

_T = TypeVar("_T")


class PurifyError(Exception):
    """Base class for every diagnostic raised by this package."""


class NotCommon(PurifyError):
    """Raised by relabel when a node outside the common fragment is found."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class _Frozen:
    """An immutable slotted record, set once on construction; a copy or an
    unpickled one is rebuilt from its fields, in ``__slots__`` order."""

    __slots__ = ()

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


def slot_dict(record: object) -> dict:
    """A report's JSON form: ``"v": 1``, then its ``__slots__`` in order."""
    return {"v": 1, **{f: getattr(record, f) for f in record.__slots__}}


class Ty(_Frozen):
    """Guest type; one of Unit, Str, Prod, Arrow, Eff.  Hash-consed and
    immutable: equal types are one object, so ``==`` and ``hash`` are the
    identity defaults, and a copy or an unpickled type is that object."""

    __slots__ = ()
    _interned: dict[tuple, Ty] = {}  # (class, *fields) -> the type

    def __new__(cls, *fields: Ty) -> Ty:
        key = (cls, *fields)
        t = Ty._interned.get(key)
        if t is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields")
            t = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(t, name, value)
            # one atomic insert, so threads that race here still share one object
            t = Ty._interned.setdefault(key, t)
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return type_name(self)


class Unit(Ty):
    __slots__ = __match_args__ = ()


class Str(Ty):
    __slots__ = __match_args__ = ()


class Prod(Ty):
    __slots__ = __match_args__ = ("left", "right")


class Arrow(Ty):
    __slots__ = __match_args__ = ("dom", "cod")


class Eff(Ty):
    __slots__ = __match_args__ = ("inner",)


UNIT = Unit()
STR = Str()


def type_name(t: Ty) -> str:
    """Concrete-syntax rendering of a type (re-parseable)."""
    k = type(t)
    if k is Unit or k is Str:
        return k.__name__
    if k is Prod:
        return f"({type_name(t.left)}, {type_name(t.right)})"
    if k is Arrow or k is Eff:
        # a function or action type inside another one is parenthesized
        part = t.dom if k is Arrow else t.inner
        s = f"({type_name(part)})" if type(part) in (Arrow, Eff) else type_name(part)
        return f"{s} -> {type_name(t.cod)}" if k is Arrow else f"Eff {s}"
    raise PurifyError(f"unknown type {t!r}")


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

class Label(enum.Enum):
    """Fragment tag: direct-style source, combinator target, or common."""

    SRC = "src"
    TGT = "tgt"
    COM = "com"

    def __str__(self) -> str:
        return self.value


SRC = Label.SRC
TGT = Label.TGT
COM = Label.COM


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base AST node.

    ``label`` places the node in one of the three language fragments.
    ``ty`` is a parsed annotation, then the checker's stamp (not in ==, repr).
    A node kind lists its fields in ``__match_args__`` and the ones ``==``
    compares in ``_compare``.  Terms are mutable, so they are unhashable.
    """

    __slots__ = ("label", "ty")
    __match_args__ = _compare = ()

    def __init__(self, *, label: Label = COM, ty: Optional[Ty] = None):
        self.label, self.ty = label, ty

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        fields = ("label", *self._compare)
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in ("label", *self.__match_args__))
        return f"{type(self).__qualname__}({fields})"


# Each kind has its own constructor (or shares one with the same fields and
# default label): a loop over the fields would slow down every node built.

class Var(Term):
    __slots__ = __match_args__ = _compare = ("name",)

    def __init__(self, name: str, *, label: Label = COM, ty: Optional[Ty] = None):
        self.name, self.label, self.ty = name, label, ty


class Const(Term):
    __slots__ = __match_args__ = _compare = ("name",)
    __init__ = Var.__init__


class Unt(Term):
    __slots__ = ()


class Lit(Term):
    __slots__ = __match_args__ = _compare = ("value",)

    def __init__(self, value: str, *, label: Label = COM, ty: Optional[Ty] = None):
        self.value, self.label, self.ty = value, label, ty


class Prd(Term):
    __slots__ = __match_args__ = _compare = ("fst", "snd")

    def __init__(self, fst: Term, snd: Term, *, label: Label = COM, ty: Optional[Ty] = None):
        self.fst, self.snd = fst, snd
        self.label, self.ty = label, ty


class Fst(Term):
    __slots__ = __match_args__ = _compare = ("pair",)

    def __init__(self, pair: Term, *, label: Label = COM, ty: Optional[Ty] = None):
        self.pair, self.label, self.ty = pair, label, ty


class Snd(Term):
    __slots__ = __match_args__ = _compare = ("pair",)
    __init__ = Fst.__init__


class App(Term):
    __slots__ = __match_args__ = _compare = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term, *, label: Label = COM, ty: Optional[Ty] = None):
        self.fun, self.arg = fun, arg
        self.label, self.ty = label, ty


class Lam(Term):
    """Function literal.

    The body normally lives in the common fragment.  The sequential baseline
    translation fabricates lambdas whose body is a target term (explicit
    combinator chains); those are only well formed at the target label.
    ``param_ty`` is an optional annotation used by the checker when the
    parameter type is not determined by the application site (ignored by
    ``==``, like ``ty``).
    """

    __slots__ = __match_args__ = ("param", "body", "param_ty")
    _compare = ("param", "body")

    def __init__(self, param: str, body: Term, param_ty: Optional[Ty] = None, *,
                 label: Label = COM, ty: Optional[Ty] = None):
        self.param, self.body, self.param_ty = param, body, param_ty
        self.label, self.ty = label, ty


class Each(Term):
    """Direct-style effect execution mark (source only)."""

    __slots__ = __match_args__ = _compare = ("eff",)

    def __init__(self, eff: Term, *, label: Label = SRC, ty: Optional[Ty] = None):
        self.eff, self.label, self.ty = eff, label, ty


class Pure(Term):
    __slots__ = __match_args__ = _compare = ("inner",)

    def __init__(self, inner: Term, *, label: Label = TGT, ty: Optional[Ty] = None):
        self.inner, self.label, self.ty = inner, label, ty


class Map(Term):
    __slots__ = __match_args__ = _compare = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term, *, label: Label = TGT, ty: Optional[Ty] = None):
        self.fun, self.arg = fun, arg
        self.label, self.ty = label, ty


class Ap(Term):
    __slots__ = __match_args__ = _compare = ("fun", "arg")
    __init__ = Map.__init__


class Join(Term):
    __slots__ = __match_args__ = _compare = ("nested",)

    def __init__(self, nested: Term, *, label: Label = TGT, ty: Optional[Ty] = None):
        self.nested, self.label, self.ty = nested, label, ty


def children(e: Term) -> tuple[Term, ...]:
    """Immediate subterms, left to right."""
    # exact-type tests: a class pattern in ``match`` costs several times more
    k = type(e)
    if k is Ap or k is Map or k is App:
        return (e.fun, e.arg)
    if k is Var or k is Const or k is Unt or k is Lit:
        return ()
    if k is Pure:
        return (e.inner,)
    if k is Lam:
        return (e.body,)
    if k is Join:
        return (e.nested,)
    if k is Prd:
        return (e.fst, e.snd)
    if k is Fst or k is Snd:
        return (e.pair,)
    if k is Each:
        return (e.eff,)
    raise PurifyError(f"unknown term {e!r}")


def subterms(e: Term) -> Iterator[Term]:
    """The term and all its descendants, preorder (left subtree first)."""
    stack = [e]
    while stack:
        t = stack.pop()
        yield t
        kids = children(t)
        if kids:
            stack.extend(reversed(kids))


def size(e: Term) -> int:
    """Number of nodes."""
    n = 0
    stack = [e]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def replace_children(e: Term, new: tuple[Term, ...]) -> Term:
    """Same node kind and label with replaced immediate subterms."""
    k = type(e)
    if k is App or k is Ap or k is Map or k is Prd:
        return k(new[0], new[1], label=e.label, ty=e.ty)
    if k is Fst or k is Snd or k is Pure or k is Join or k is Each:
        return k(new[0], label=e.label, ty=e.ty)
    if k is Lam:
        return Lam(e.param, new[0], e.param_ty, label=e.label, ty=e.ty)
    if k is Var or k is Const or k is Unt or k is Lit:
        return e
    raise PurifyError(f"unknown term {e!r}")


# ---------------------------------------------------------------------------
# Constant signatures
# ---------------------------------------------------------------------------

class ConstKind(enum.Enum):
    PURE = "prim"
    EFFECTFUL = "effect"


class ConstDecl(_Frozen):
    """A declared constant; equal and hashed by its fields."""

    __slots__ = ("name", "ty", "kind")

    def __init__(self, name: str, ty: Ty, kind: ConstKind):
        for f, value in zip(self.__slots__, (name, ty, kind)):
            object.__setattr__(self, f, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.ty, self.kind) == (other.name, other.ty, other.kind)

    def __hash__(self) -> int:
        return hash((self.name, self.ty, self.kind))

    @property
    def effectful(self) -> bool:
        return self.kind is ConstKind.EFFECTFUL

    def effect_arity(self) -> Optional[int]:
        """Number of arguments until the declared type reaches its Eff layer.

        None for pure constants and for effectful declarations whose type
        never reaches Eff (rejected by Signature validation anyway).
        """
        if not self.effectful:
            return None
        t, n = self.ty, 0
        while type(t) is Arrow:
            t, n = t.cod, n + 1
        return n if type(t) is Eff else None


class Signature:
    """Ordered, name-unique collection of constant declarations."""

    def __init__(self, decls: list[ConstDecl] | None = None):
        self.decls: list[ConstDecl] = []
        self._by_name: dict[str, ConstDecl] = {}
        self._tables: dict[Callable, object] = {}
        for d in decls or []:
            self.add(d)

    def add(self, decl: ConstDecl) -> None:
        if decl.name in self._by_name:
            raise PurifyError(f"duplicate constant {decl.name!r}")
        if decl.effectful and decl.effect_arity() is None:
            raise PurifyError(
                f"effectful constant {decl.name!r} must have a type of shape"
                f" Arrow(..., Eff _) or Eff _, got {type_name(decl.ty)}"
            )
        self.decls.append(decl)
        self._by_name[decl.name] = decl
        self._tables.clear()

    def table(self, build: Callable[[Signature], _T]) -> _T:
        """``build(self)``, computed at first use and kept until the next
        ``add``: an index a layer derives from the declarations, such as
        the generator's lookups by result type or the effect arities."""
        tab = self._tables.get(build)
        if tab is None:
            tab = self._tables[build] = build(self)
        return tab

    def lookup(self, name: str) -> Optional[ConstDecl]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[ConstDecl]:
        return iter(self.decls)

    def effectful_names(self) -> list[str]:
        return [d.name for d in self.decls if d.effectful]


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

FRESH_PREFIX = "$"


class FreshNames:
    """Monotone counter namespace, disjoint from user identifiers.

    The parser rejects identifiers starting with the reserved prefix, so
    generated binders can never capture user variables.
    """

    def __init__(self):
        self._next = 1

    def fresh(self) -> str:
        name = f"{FRESH_PREFIX}x{self._next}"
        self._next += 1
        return name


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def relabel(e: Term, target: Label) -> Term:
    """Copy a common term with every node's label replaced by ``target``.

    The common fragment is decided by node kind, not by the input's own
    labels: value formers (Var, Const, Unt, Lit, Prd, Fst, Snd, App) and
    lambdas whose bodies are common, at any label.  Lambda bodies stay
    common at every label.  Raises NotCommon on Each/Pure/Map/Ap/Join and on
    a lambda whose body is not labelled common.  Only the body's root is
    read: the checker and the parser keep every node below a common one
    common, and reading the whole body would make nested lambdas (such as
    desugared lets) quadratic.
    """
    return _relabel(e, target, None)


def _relabel(e: Term, target: Label, mark: Optional[Callable[[Term, Label], Term]]) -> Term:
    """``relabel`` with a hook for effect marks: an Each becomes
    ``mark(each, target)``, children left to right; with no hook it raises
    NotCommon."""
    k = type(e)
    if k is Lit:
        return Lit(e.value, label=target, ty=e.ty)
    if k is Const or k is Var:
        return k(e.name, label=target, ty=e.ty)
    if k is App:
        return App(_relabel(e.fun, target, mark), _relabel(e.arg, target, mark),
                   label=target, ty=e.ty)
    if k is Prd:
        return Prd(_relabel(e.fst, target, mark), _relabel(e.snd, target, mark),
                   label=target, ty=e.ty)
    if k is Lam:
        if e.body.label is not COM:
            raise NotCommon("relabel: lambda body contains non-common nodes")
        return Lam(e.param, e.body, e.param_ty, label=target, ty=e.ty)
    if k is Fst or k is Snd:
        return k(_relabel(e.pair, target, mark), label=target, ty=e.ty)
    if k is Unt:
        return Unt(label=target, ty=e.ty)
    if k is Each and mark is not None:
        return mark(e, target)
    raise NotCommon(f"relabel: {k.__name__} is not a common term former")


def is_effect_free(e: Term) -> bool:
    """True iff the term contains no Each and no Join node."""
    return not any(isinstance(n, (Each, Join)) for n in subterms(e))


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables.

    Labels, constant names and literals are compared exactly; type stamps
    and parameter annotations are ignored.  Binders are compared by level
    so shadowing cannot conflate distinct variables.
    """
    todo = [(a, b, {}, {}, 0)]
    while todo:
        x, y, lx, ly, depth = todo.pop()
        k = type(x)
        if k is not type(y) or x.label is not y.label:
            return False
        if k is Var:
            i, j = lx.get(x.name), ly.get(y.name)
            if i != j or i is None and x.name != y.name:  # bound at one level, or both free
                return False
        elif k is Lam:
            todo.append((x.body, y.body, {**lx, x.param: depth}, {**ly, y.param: depth}, depth + 1))
        elif k is Const or k is Lit:
            if x != y:
                return False
        else:
            todo.extend((u, v, lx, ly, depth) for u, v in zip(children(x), children(y)))
    return True
