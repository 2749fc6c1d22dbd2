"""Concrete syntax: a lexer and a one-pass parser to labelled core terms.

A program is a list of constant declarations followed by exactly one
``purify { ... }`` block.  The effect mark is postfix ``!``.  A left paren
glued to the preceding token is a call argument, so ``f("a")!`` marks the
whole call while ``f ("a")!`` applies ``f`` to a marked string.

The parser elaborates as it goes, with no intermediate syntax tree: it
resolves names, labels each node from its context and desugars ``let``.

``parse_target_expr`` additionally understands the combinator keywords
``pure``/``map``/``ap``/``join`` so pretty-printed target terms re-parse.
"""

from __future__ import annotations

from typing import Optional

from .terms import (
    App, Ap, Arrow, COM, Const, ConstDecl, ConstKind, Each, Eff, FRESH_PREFIX,
    Fst, Join, Lam, Lit, Map, Prd, Prod, Pure, PurifyError, SRC, Signature,
    Snd, STR, TGT, Term, Ty, UNIT, Unt, Var, relabel,
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

class Tok:
    """``kind`` is "ident", "kw", "string", the punctuation text or "eof";
    ``glued`` is True when no whitespace separates it from the previous token."""

    __slots__ = ("kind", "text", "line", "col", "glued")

    def __init__(self, kind: str, text: str, line: int, col: int, glued: bool):
        self.kind, self.text, self.line, self.col, self.glued = kind, text, line, col, glued


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
# Parser: tokens -> labelled core terms
# ---------------------------------------------------------------------------

class SurfaceProgram:
    __slots__ = ("sig", "body")

    def __init__(self, sig: Signature, body: Term):
        self.sig, self.body = sig, body


class _Parser:
    """Recursive descent that builds labelled core terms as it parses.

    ``lab`` is the label of the node being parsed: Src at the top of a
    program, Com under a lambda; in target mode Tgt, or Com inside
    ``pure``.  Names resolve against ``scope`` (the enclosing binders),
    then the signature.  Elaboration errors are recorded so that a syntax
    error is reported first; ``finish`` raises the first one met.
    """

    def __init__(self, toks: list[Tok], sig: Signature, target: bool):
        self.toks = toks
        self.i = 0
        self.sig = sig
        self.target = target
        self.lab = TGT if target else SRC
        self.scope: frozenset[str] = frozenset()
        self.combinators = 0  # combinator nodes built so far
        self.marks = 0  # Each nodes built so far, so a let tests its parts in O(1)
        self.error: Optional[PurifyError] = None

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
        # fresh-prefixed binders only occur in machine-printed target terms
        if kind == "ident" and not self.target and t.text.startswith(FRESH_PREFIX):
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

    def fail(self, err: PurifyError) -> None:
        if self.error is None:
            self.error = err

    def finish(self) -> None:
        self.expect("eof")
        if self.error is not None:
            raise self.error

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

    def parse_expr(self) -> Term:
        t = self.peek()
        if self.at_kw("fun"):
            self.next()
            param = self.expect("ident").text
            self.expect("->")
            # a lambda body is common, except a target lambda body that
            # holds a combinator, which is labelled Tgt
            lab, scope, combinators = self.lab, self.scope, self.combinators
            self.lab, self.scope = TGT if lab is TGT else COM, scope | {param}
            body = self.parse_expr()
            if self.lab is TGT and self.combinators == combinators:
                body = relabel(body, COM)
            self.lab, self.scope = lab, scope
            return Lam(param, body, label=lab)
        if self.at_kw("let"):
            if self.target:
                raise ParseError(t.line, t.col, "no let in target terms")
            self.next()
            name = self.expect("ident").text
            self.expect("=")
            marks = self.marks
            bound = self.parse_expr()
            if self.marks != marks:
                self.fail(LetTooEffectful(
                    f"{t.line}:{t.col}: bound expression of let has effect marks; "
                    "rewrite with nested marks, e.g. f(g(x)!)!"
                ))
            self.expect_kw("in")
            scope, self.scope, marks = self.scope, self.scope | {name}, self.marks
            body = self.parse_expr()
            self.scope = scope
            return self._let(t, name, bound, body, self.marks - marks)
        return self.parse_infix()

    def _let(self, t: Tok, name: str, bound: Term, body: Term, marks: int) -> Term:
        """Desugar ``let name = bound in body`` to immediate application.

        The bound expression must be effect free.  The continuation either
        has no mark (plain application of a lambda) or is a single mark at
        the root, which commutes out of the fabricated lambda.  Anything
        else is rejected with a hint to use nested marks instead.  ``marks``
        counts the Each nodes of ``body`` (a mark rebuilt here replaces one).
        """
        if self.error is not None:
            return body  # the term is discarded; relabel may not apply
        if marks == 0:
            return App(Lam(name, relabel(body, COM), label=self.lab), bound, label=self.lab)
        if type(body) is Each and marks == 1:
            inner = App(Lam(name, relabel(body.eff, COM), label=SRC),
                        relabel(bound, SRC), label=SRC)
            return Each(inner, label=SRC)
        self.fail(LetTooEffectful(
            f"{t.line}:{t.col}: let continuation uses more than one effect "
            "mark; rewrite with nested marks (f(g(x)!)! style)"
        ))
        return body

    def _name(self, name: str, t: Tok) -> Term:
        if name in self.scope:
            return Var(name, label=self.lab)
        if name not in self.sig:
            self.fail(UnboundName(f"{t.line}:{t.col}: unbound name {name!r}"))
        return Const(name, label=self.lab)

    def parse_infix(self) -> Term:
        left = self.parse_app()
        while self.peek().kind == "++":
            concat = self._name("concat", self.next())
            right = self.parse_app()
            left = App(App(concat, left, label=self.lab), right, label=self.lab)
        return left

    def parse_app(self) -> Term:
        t = self.peek()
        if self.target and t.kind == "kw" and t.text in COMBINATORS:
            self.next()
            if self.lab is not TGT:
                self.fail(ParseError(t.line, t.col,
                                     "a pure expression (combinator in common position)"))
            node, arity = COMBINATORS[t.text]
            lab, self.lab = self.lab, COM if node is Pure else TGT
            args = [self.parse_post() for _ in range(arity)]
            self.lab = lab
            self.combinators += 1
            return node(*args, label=TGT)
        f = self.parse_post()
        # a glued "(" is a call, which parse_post has already consumed
        while (t := self.peek()).kind in ("ident", "string") or t.kind == "(" and not t.glued:
            f = App(f, self.parse_post(), label=self.lab)
        return f

    def parse_post(self) -> Term:
        e = self.parse_atom()
        while True:
            t = self.peek()
            if t.kind == "!":
                if self.target:
                    raise ParseError(t.line, t.col, "no effect mark in target terms")
                if self.lab is COM:
                    self.fail(MarkUnderLambda(
                        f"{t.line}:{t.col}: effect mark '!' under a lambda; "
                        "lambda bodies are pure"
                    ))
                self.next()
                self.marks += 1
                e = Each(e, label=SRC)
            elif t.kind == ".1" or t.kind == ".2":
                self.next()
                e = (Fst if t.kind == ".1" else Snd)(e, label=self.lab)
            elif t.kind == "(" and t.glued:
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                e = App(e, arg, label=self.lab)
            else:
                return e

    def parse_atom(self) -> Term:
        t = self.peek()
        if t.kind == "ident":
            return self._name(self.expect("ident").text, t)
        if t.kind == "string":
            self.next()
            return Lit(t.text, label=self.lab)
        if t.kind == "(":
            self.next()
            if self.peek().kind == ")":
                self.next()
                return Unt(label=self.lab)
            e = self.parse_expr()
            nxt = self.peek()
            if nxt.kind == ",":
                self.next()
                snd = self.parse_expr()
                self.expect(")")
                return Prd(e, snd, label=self.lab)
            if nxt.kind == ":":
                self.next()
                ty = self.parse_type()
                self.expect(")")
                if type(e) is Lam:
                    if not isinstance(ty, Arrow):
                        raise ParseError(nxt.line, nxt.col, "an arrow type annotation")
                    e.param_ty = ty.dom
                return e  # non-lambda annotations carry no information we keep
            self.expect(")")
            return e
        if t.kind == "kw" and t.text in ("fun", "let"):
            return self.parse_expr()
        raise ParseError(t.line, t.col, f"an expression (found {t.text or 'end of input'!r})")

    # -- programs ---------------------------------------------------------

    def parse_program(self) -> SurfaceProgram:
        decls: dict[str, ConstDecl] = {}
        while self.at_kw("effect") or self.at_kw("prim"):
            kw = self.next()
            name = self.expect("ident").text
            if name in decls:
                raise DuplicateDecl(f"constant {name!r} declared twice")
            self.expect(":")
            kind = ConstKind.EFFECTFUL if kw.text == "effect" else ConstKind.PURE
            decls[name] = ConstDecl(name, self.parse_type(), kind)
        try:
            self.sig = Signature(list(decls.values()))
        except PurifyError as err:
            self.fail(err)
        self.expect_kw("purify")
        self.expect("{")
        body = self.parse_expr()
        self.expect("}")
        self.finish()
        return SurfaceProgram(self.sig, body)


def parse(text: str) -> SurfaceProgram:
    """Parse declarations plus one purify block to a signature and Src body."""
    return _Parser(tokenize(text), Signature(), target=False).parse_program()


def elaborate(p: SurfaceProgram) -> tuple[Signature, Term]:
    """The signature and the Src-labelled core term of a parsed program."""
    return p.sig, p.body


def parse_target_expr(text: str, sig: Signature) -> Term:
    """Parse a pretty-printed target term back into a Tgt-labelled tree."""
    p = _Parser(tokenize(text), sig, target=True)
    e = p.parse_expr()
    p.finish()
    return e


def parse_and_elaborate(text: str) -> tuple[Signature, Term]:
    """Convenience wrapper: the signature and Src body of a program."""
    return elaborate(parse(text))
