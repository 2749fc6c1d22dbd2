"""Concrete syntax: lexing, parsing and elaboration into core terms.

A program is a list of constant declarations followed by exactly one
``purify { ... }`` block.  The effect mark is postfix ``!``.  A left paren
glued to the preceding token is a call argument, so ``f("a")!`` marks the
whole call while ``f ("a")!`` applies ``f`` to a marked string.

``parse_target_expr`` additionally understands the combinator keywords
``pure``/``map``/``ap``/``join`` so pretty-printed target terms re-parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .terms import (
    App, Ap, Arrow, COM, Const, ConstDecl, ConstKind, Each, Eff, FRESH_PREFIX,
    Fst, Join, Label, Lam, Lit, Map, Prd, Prod, Pure, PurifyError, SRC,
    Signature, Snd, STR, TGT, Term, Ty, UNIT, Unt, Var, is_effect_free,
    relabel, subterms,
)

KEYWORDS = {
    "effect", "prim", "purify", "fun", "let", "in",
    "Unit", "Str", "Eff",
    "pure", "map", "ap", "join",
}

# keyword -> (core node, arity)
COMBINATORS = {"pure": (Pure, 1), "map": (Map, 2), "ap": (Ap, 2), "join": (Join, 1)}


class ParseError(PurifyError):
    def __init__(self, line: int, col: int, expected: str):
        self.line, self.col, self.expected = line, col, expected
        super().__init__(f"{line}:{col}: expected {expected}")


class DuplicateDecl(PurifyError):
    pass


class UnboundName(PurifyError):
    pass


class MarkUnderLambda(PurifyError):
    pass


class LetTooEffectful(PurifyError):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # "ident" | "kw" | "string" | punctuation text | "eof"
    text: str
    line: int
    col: int
    glued: bool  # True when no whitespace separates it from the previous token


_PUNCT2 = ("->", "++", ".1", ".2")
_PUNCT1 = "(){},:!="


def tokenize(src: str) -> list[Tok]:
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    glued = False
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            glued = False
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            glued = False
            continue
        if src.startswith("--", i):
            end = src.find("\n", i)
            end = n if end < 0 else end
            col += end - i
            i = end
            continue
        start_line, start_col = line, col
        if ch == '"':
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or src[i] == "\n":
                    raise ParseError(start_line, start_col, "closing quote")
                c = src[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError(line, col, "escape character")
                    esc = src[i + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc))
                    if buf[-1] is None:
                        raise ParseError(line, col, "valid escape (\\n \\t \\\" \\\\)")
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    break
                buf.append(c)
                i += 1
                col += 1
            toks.append(Tok("string", "".join(buf), start_line, start_col, glued))
            glued = True
            continue
        two = src[i:i + 2]
        if two in _PUNCT2:
            toks.append(Tok(two, two, line, col, glued))
            i += 2
            col += 2
            glued = True
            continue
        if ch in _PUNCT1:
            toks.append(Tok(ch, ch, line, col, glued))
            i += 1
            col += 1
            glued = True
            continue
        if ch.isalpha() or ch == "_" or ch == FRESH_PREFIX:
            j = i + 1 if ch == FRESH_PREFIX else i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Tok(kind, word, line, col, glued))
            col += j - i
            i = j
            glued = True
            continue
        raise ParseError(line, col, f"token (found {ch!r})")
    toks.append(Tok("eof", "", line, col, False))
    return toks


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------

@dataclass
class SExpr:
    pos: tuple[int, int] = field(kw_only=True, default=(0, 0))


@dataclass
class SVar(SExpr):
    name: str


@dataclass
class SLit(SExpr):
    value: str


@dataclass
class SUnit(SExpr):
    pass


@dataclass
class SPair(SExpr):
    fst: SExpr
    snd: SExpr


@dataclass
class SProj(SExpr):
    expr: SExpr
    index: int


@dataclass
class SApp(SExpr):
    fun: SExpr
    arg: SExpr


@dataclass
class SLam(SExpr):
    param: str
    body: SExpr
    annot: Optional[Ty] = None


@dataclass
class SLet(SExpr):
    name: str
    bound: SExpr
    body: SExpr


@dataclass
class SMark(SExpr):
    expr: SExpr


@dataclass
class SComb(SExpr):
    kind: str
    args: list[SExpr]


@dataclass
class SurfaceProgram:
    decls: list[ConstDecl]
    body: SExpr


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Tok], combinators: bool):
        self.toks = toks
        self.i = 0
        self.combinators = combinators
        # fresh-prefixed binders only occur in machine-printed target terms
        self.allow_fresh = combinators

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(t.line, t.col, f"{kind!r} (found {t.text or 'end of input'!r})")
        if kind == "ident" and not self.allow_fresh and t.text.startswith(FRESH_PREFIX):
            raise ParseError(t.line, t.col,
                             f"identifier (prefix {FRESH_PREFIX!r} is reserved)")
        return self.next()

    def expect_kw(self, word: str) -> Tok:
        t = self.peek()
        if t.kind != "kw" or t.text != word:
            raise ParseError(t.line, t.col, f"{word!r} (found {t.text or 'end of input'!r})")
        return self.next()

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == word

    # -- types ----------------------------------------------------------

    def parse_type(self) -> Ty:
        if self.at_kw("Eff"):
            self.next()
            return Eff(self.parse_atype())
        left = self.parse_atype()
        if self.peek().kind == "->":
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_atype(self) -> Ty:
        t = self.peek()
        if t.kind == "kw" and t.text == "Unit":
            self.next()
            return UNIT
        if t.kind == "kw" and t.text == "Str":
            self.next()
            return STR
        if t.kind == "(":
            self.next()
            first = self.parse_type()
            if self.peek().kind == ",":
                self.next()
                second = self.parse_type()
                self.expect(")")
                return Prod(first, second)
            self.expect(")")
            return first
        raise ParseError(t.line, t.col, "a type")

    # -- expressions ------------------------------------------------------

    def parse_expr(self) -> SExpr:
        t = self.peek()
        if self.at_kw("fun"):
            self.next()
            name = self.expect("ident")
            self.expect("->")
            body = self.parse_expr()
            return SLam(name.text, body, pos=(t.line, t.col))
        if self.at_kw("let"):
            self.next()
            name = self.expect("ident")
            self.expect("=")
            bound = self.parse_expr()
            self.expect_kw("in")
            body = self.parse_expr()
            return SLet(name.text, bound, body, pos=(t.line, t.col))
        return self.parse_infix()

    def parse_infix(self) -> SExpr:
        left = self.parse_app()
        while self.peek().kind == "++":
            op = self.next()
            right = self.parse_app()
            concat = SVar("concat", pos=(op.line, op.col))
            left = SApp(SApp(concat, left, pos=(op.line, op.col)), right,
                        pos=(op.line, op.col))
        return left

    def parse_app(self) -> SExpr:
        if self.combinators and self.peek().kind == "kw" and self.peek().text in COMBINATORS:
            t = self.next()
            arity = COMBINATORS[t.text][1]
            args = [self.parse_post() for _ in range(arity)]
            return SComb(t.text, args, pos=(t.line, t.col))
        f = self.parse_post()
        while self._at_argument():
            arg = self.parse_post()
            f = SApp(f, arg, pos=arg.pos)
        return f

    def _at_argument(self) -> bool:
        t = self.peek()
        if t.kind in ("ident", "string"):
            return True
        # A glued "(" was already consumed as a call by parse_post.
        return t.kind == "(" and not t.glued

    def parse_post(self) -> SExpr:
        e = self.parse_atom()
        while True:
            t = self.peek()
            if t.kind == "!":
                self.next()
                e = SMark(e, pos=(t.line, t.col))
            elif t.kind == ".1":
                self.next()
                e = SProj(e, 1, pos=(t.line, t.col))
            elif t.kind == ".2":
                self.next()
                e = SProj(e, 2, pos=(t.line, t.col))
            elif t.kind == "(" and t.glued:
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                e = SApp(e, arg, pos=(t.line, t.col))
            else:
                return e

    def parse_atom(self) -> SExpr:
        t = self.peek()
        if t.kind == "ident":
            if not self.allow_fresh and t.text.startswith(FRESH_PREFIX):
                raise ParseError(t.line, t.col,
                                 f"identifier (prefix {FRESH_PREFIX!r} is reserved)")
            self.next()
            return SVar(t.text, pos=(t.line, t.col))
        if t.kind == "string":
            self.next()
            return SLit(t.text, pos=(t.line, t.col))
        if t.kind == "(":
            self.next()
            if self.peek().kind == ")":
                self.next()
                return SUnit(pos=(t.line, t.col))
            e = self.parse_expr()
            nxt = self.peek()
            if nxt.kind == ",":
                self.next()
                snd = self.parse_expr()
                self.expect(")")
                return SPair(e, snd, pos=(t.line, t.col))
            if nxt.kind == ":":
                self.next()
                ty = self.parse_type()
                self.expect(")")
                if isinstance(e, SLam):
                    if not isinstance(ty, Arrow):
                        raise ParseError(nxt.line, nxt.col, "an arrow type annotation")
                    e.annot = ty
                    return e
                return e  # non-lambda annotations carry no information we keep
            self.expect(")")
            return e
        if t.kind == "kw" and t.text in ("fun", "let"):
            return self.parse_expr()
        raise ParseError(t.line, t.col, f"an expression (found {t.text or 'end of input'!r})")

    # -- programs ---------------------------------------------------------

    def parse_program(self) -> SurfaceProgram:
        decls: list[ConstDecl] = []
        seen: set[str] = set()
        while self.at_kw("effect") or self.at_kw("prim"):
            kw = self.next()
            name = self.expect("ident")
            if name.text in seen:
                raise DuplicateDecl(f"constant {name.text!r} declared twice")
            seen.add(name.text)
            self.expect(":")
            ty = self.parse_type()
            kind = ConstKind.EFFECTFUL if kw.text == "effect" else ConstKind.PURE
            decls.append(ConstDecl(name.text, ty, kind))
        self.expect_kw("purify")
        self.expect("{")
        body = self.parse_expr()
        self.expect("}")
        self.expect("eof")
        return SurfaceProgram(decls, body)


def parse(text: str) -> SurfaceProgram:
    """Parse a program: declarations plus one purify block."""
    return _Parser(tokenize(text), combinators=False).parse_program()


def _parse_expr_text(text: str, combinators: bool) -> SExpr:
    p = _Parser(tokenize(text), combinators=combinators)
    e = p.parse_expr()
    p.expect("eof")
    return e


# ---------------------------------------------------------------------------
# Elaboration: surface -> core term
# ---------------------------------------------------------------------------

def elaborate(p: SurfaceProgram) -> tuple[Signature, Term]:
    """Produce the signature and the Src-labelled core term of a program."""
    sig = Signature()
    for d in p.decls:
        sig.add(d)
    body = _elab(p.body, sig, set(), SRC, target=False)
    return sig, body


def parse_target_expr(text: str, sig: Signature) -> Term:
    """Parse a pretty-printed target term back into a Tgt-labelled tree."""
    surf = _parse_expr_text(text, combinators=True)
    return _elab(surf, sig, set(), TGT, target=True)


def _elab(e: SExpr, sig: Signature, scope: set[str], lab: Label,
          target: bool) -> Term:
    """Elaborate a source (marks, let) or target (combinators) expression.

    A lambda body is common, except a target lambda body that holds a
    combinator, which is labelled Tgt.
    """
    k = type(e)
    if k is SVar:
        if e.name in scope:
            return Var(e.name, label=lab)
        if e.name in sig:
            return Const(e.name, label=lab)
        raise UnboundName(f"{e.pos[0]}:{e.pos[1]}: unbound name {e.name!r}")
    if k is SApp:
        return App(_elab(e.fun, sig, scope, lab, target),
                   _elab(e.arg, sig, scope, lab, target), label=lab)
    if k is SLit:
        return Lit(e.value, label=lab)
    if k is SUnit:
        return Unt(label=lab)
    if k is SPair:
        return Prd(_elab(e.fst, sig, scope, lab, target),
                   _elab(e.snd, sig, scope, lab, target), label=lab)
    if k is SProj:
        core = _elab(e.expr, sig, scope, lab, target)
        return (Fst if e.index == 1 else Snd)(core, label=lab)
    if k is SLam:
        body_lab = TGT if lab is TGT else COM
        inner = _elab(e.body, sig, scope | {e.param}, body_lab, target)
        if body_lab is TGT and not any(isinstance(n, (Pure, Map, Ap, Join))
                                       for n in subterms(inner)):
            inner = relabel(inner, COM)
        param_ty = e.annot.dom if isinstance(e.annot, Arrow) else None
        return Lam(e.param, inner, param_ty, label=lab)
    if k is SComb:
        if not target:
            raise ParseError(e.pos[0], e.pos[1],
                             "a surface expression (combinators are target-only)")
        if lab is not TGT:
            raise ParseError(e.pos[0], e.pos[1], "a pure expression (combinator in common position)")
        node = COMBINATORS[e.kind][0]
        arg_lab = COM if node is Pure else TGT
        return node(*(_elab(a, sig, scope, arg_lab, target) for a in e.args), label=TGT)
    if k is SMark:
        if target:
            raise ParseError(e.pos[0], e.pos[1], "no effect mark in target terms")
        if lab is COM:
            raise MarkUnderLambda(
                f"{e.pos[0]}:{e.pos[1]}: effect mark '!' under a lambda; "
                "lambda bodies are pure"
            )
        return Each(_elab(e.expr, sig, scope, SRC, target), label=SRC)
    if k is SLet:
        if target:
            raise ParseError(e.pos[0], e.pos[1], "no let in target terms")
        return _elab_let(e, sig, scope, lab)
    raise PurifyError(f"unknown surface node {e!r}")


def _elab_let(e: SLet, sig: Signature, scope: set[str], lab: Label) -> Term:
    """Desugar ``let x = e in b`` to immediate application.

    The bound expression must be effect free.  The continuation either has
    no mark (plain application of a lambda) or is a single mark at the root,
    which commutes out of the fabricated lambda.  Anything else is rejected
    with a hint to use nested marks instead.
    """
    bound_core = _elab(e.bound, sig, scope, lab, target=False)
    if not is_effect_free(bound_core):
        raise LetTooEffectful(
            f"{e.pos[0]}:{e.pos[1]}: bound expression of let has effect marks; "
            "rewrite with nested marks, e.g. f(g(x)!)!"
        )
    body_core = _elab(e.body, sig, scope | {e.name}, lab, target=False)
    if is_effect_free(body_core):
        return App(Lam(e.name, relabel(body_core, COM), label=lab), bound_core, label=lab)
    if isinstance(body_core, Each) and is_effect_free(body_core.eff):
        inner = App(Lam(e.name, relabel(body_core.eff, COM), label=SRC),
                    relabel(bound_core, SRC), label=SRC)
        return Each(inner, label=SRC)
    raise LetTooEffectful(
        f"{e.pos[0]}:{e.pos[1]}: let continuation uses more than one effect "
        "mark; rewrite with nested marks (f(g(x)!)! style)"
    )


def parse_and_elaborate(text: str) -> tuple[Signature, Term]:
    """Convenience wrapper: parse a program and elaborate its body."""
    return elaborate(parse(text))
