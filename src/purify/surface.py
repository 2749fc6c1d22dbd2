"""Concrete syntax: a lexer and a one-pass parser to labelled core terms.

A program is a list of constant declarations followed by exactly one
``purify { ... }`` block.  The effect mark is postfix ``!``.  A left paren
glued to the preceding token is a call argument, so ``f("a")!`` marks the
whole call while ``f ("a")!`` applies ``f`` to a marked string.

The lexer is one compiled pattern, matched once per token, that fills
parallel lists of token kinds, texts and glue flags; a line and column are
worked out from an offset only when a diagnostic is made.  The parser
indexes those lists and elaborates as it goes, with no syntax tree: it
resolves names, labels each node from its context and desugars ``let``.
``parse_target_expr`` also reads the combinator keywords
``pure``/``map``/``ap``/``join``, so pretty-printed target terms re-parse.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from operator import not_
from typing import Optional

from .terms import (
    App, Ap, Arrow, COM, Const, ConstDecl, ConstKind, Each, Eff, FRESH_PREFIX,
    Fst, Join, Lam, Lit, Map, Prd, Prod, Pure, PurifyError, SRC, Signature,
    Snd, STR, TGT, Term, Ty, UNIT, Unt, Var, relabel, type_name,
)
from .check import TypeMismatch

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
# Lexer: one pattern fills parallel token lists
# ---------------------------------------------------------------------------

# a token as ``Tokens[i]`` shows it: ``kind`` is "ident", "kw", "string", the
# punctuation text or "eof"; ``glued`` is True when it touches the token before
Tok = namedtuple("Tok", "kind text line col glued")

_BLANKS = r"(?:[ \t\r\n]|--[^\n]*)*"
_STRING = r'"(?:[^"\\\n]|\\[nt"\\])*'  # a string up to its closing quote

# One match per token, which takes the blanks and comments after it along,
# so a token is glued when the match before it took none.
_LEADING = re.compile(_BLANKS)
_TOKEN = re.compile(rf"""
    (?: ( {_STRING}"                    # a string, quotes included
        | ->|\+\+|\.[12]|[(){{}},:!=]   # punctuation
        | (?:\$|[^\W\d])[\w']*          # a word
        | \Z )                          # the end of the text
      | ([\s\S]) )                      # any other character: an error
    ({_BLANKS})
""", re.VERBOSE)

# the kinds named by their text; any other word is an "ident"
_KINDS = {"": "eof", **{t: t for t in ("->", "++", ".1", ".2", *"(){},:!=", *KEYWORDS)}}
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return re.sub(r"\\(.)", lambda m: _ESCAPES[m[1]], body) if "\\" in body else body


class Tokens:
    """The tokens of one text as parallel sequences that end in ``eof``:
    ``kinds[i]`` is "ident", "string", "eof", or the text of a keyword or
    punctuation; ``texts[i]`` is the source text, quotes included; and
    ``glued[i]`` is as in ``Tok``."""

    __slots__ = ("src", "kinds", "texts", "glued", "_offsets", "_lines")

    def __init__(self, src: str, kinds: list[str], texts: tuple[str, ...], glued: list[bool]):
        self.src, self.kinds, self.texts, self.glued = src, kinds, texts, glued
        self._offsets = self._lines = None

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Tok:
        kind, text = self.kinds[i], self.texts[i]
        return Tok("kw" if kind in KEYWORDS else kind,
                   _unquote(text) if kind == "string" else text, *self.where(i), self.glued[i])

    def offset(self, i: int) -> int:
        if self._offsets is None:  # the starts of the token matches, found again
            start = _LEADING.match(self.src).end()
            self._offsets = [m.start() for m in _TOKEN.finditer(self.src, start)]
        return self._offsets[i]

    def position(self, offset: int) -> tuple[int, int]:
        if self._lines is None:
            self._lines = [0, *(m.end() for m in re.finditer("\n", self.src))]
        line = bisect_right(self._lines, offset)
        return line, offset - self._lines[line - 1] + 1

    def where(self, i: int) -> tuple[int, int]:
        return self.position(self.offset(i))

    def error(self, i: int) -> ParseError:
        """The diagnostic for match ``i`` of the pattern, which is no token."""
        src, offset = self.src, self.offset(i)
        if src[offset] != '"':
            return ParseError(*self.position(offset), f"token (found {src[offset]!r})")
        end = re.compile(_STRING).match(src, offset).end()  # the first character not in it
        if src.startswith("\\", end):
            return ParseError(*self.position(end), "escape character" if end + 1 == len(src)
                              else "valid escape (\\n \\t \\\" \\\\)")
        return ParseError(*self.position(offset), "closing quote")


def tokenize(src: str) -> Tokens:
    raws, bad, blanks = zip(*_TOKEN.findall(src, _LEADING.match(src).end()))
    get = _KINDS.get
    kinds = [get(r) or ("string" if r[0] == '"' else "ident") for r in raws]
    glued = [False, *map(not_, blanks[:-1])]
    glued[-1] = False
    toks = Tokens(src, kinds, raws, glued)
    # the pattern lets a word start with a numeral such as '²', which
    # str.isalpha refuses; ASCII text has none
    if any(bad) or not src.isascii():
        for i, r in enumerate(raws):
            if bad[i] or kinds[i] == "ident" and not (r[0].isalpha() or r[0] in "_$"):
                raise toks.error(i)
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

    The parser reads the token lists by index: ``self.kinds[self.i]`` is
    the kind of the token at the cursor.  ``lab`` is the label of the node
    being parsed: Src at the top of a program, Com under a lambda; in
    target mode Tgt, or Com inside ``pure``.  Names resolve against
    ``scope`` (the enclosing binders), then the signature.  Elaboration
    errors are recorded so that a syntax error is reported first;
    ``finish`` raises the first one met.
    """

    __slots__ = ("toks", "kinds", "texts", "glued", "i", "sig", "target", "lab", "scope",
                 "combinators", "marks", "error")

    def __init__(self, toks: Tokens, sig: Signature, target: bool):
        self.toks, self.kinds, self.texts, self.glued = toks, toks.kinds, toks.texts, toks.glued
        self.i, self.sig, self.target, self.lab = 0, sig, target, TGT if target else SRC
        self.scope: frozenset[str] = frozenset()
        self.combinators = 0  # combinator nodes built so far
        self.marks = 0  # Each nodes built so far, so a let tests its parts in O(1)
        self.error: Optional[PurifyError] = None

    def syntax_error(self, expected: str, i: Optional[int] = None) -> ParseError:
        return ParseError(*self.toks.where(self.i if i is None else i), expected)

    def unexpected(self, expected: str) -> ParseError:
        t = self.toks[self.i]
        found = "end of input" if t.kind == "eof" else t.text
        return ParseError(t.line, t.col, f"{expected} (found {found!r})")

    def expect(self, kind: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            raise self.unexpected(repr(kind))
        self.i = i + 1
        return self.texts[i]

    def ident(self) -> str:
        name = self.expect("ident")
        # fresh-prefixed binders only occur in machine-printed target terms
        if name[0] == FRESH_PREFIX and not self.target:
            raise self.syntax_error(
                f"identifier (prefix {FRESH_PREFIX!r} is reserved)", self.i - 1)
        return name

    def fail(self, error: type[PurifyError], i: int, message: str) -> None:
        """Record an elaboration error at token ``i`` unless one came before."""
        if self.error is None:
            self.error = error("%d:%d: %s" % (*self.toks.where(i), message))

    def finish(self) -> None:
        self.expect("eof")
        if self.error is not None:
            raise self.error

    # -- types ----------------------------------------------------------

    def parse_type(self) -> Ty:
        if self.kinds[self.i] == "Eff":
            self.i += 1
            return Eff(self.parse_atype())
        left = self.parse_atype()
        if self.kinds[self.i] == "->":
            self.i += 1
            return Arrow(left, self.parse_type())
        return left

    def parse_atype(self) -> Ty:
        k = self.kinds[self.i]
        if k == "Str" or k == "Unit":
            self.i += 1
            return STR if k == "Str" else UNIT
        if k == "(":
            self.i += 1
            first = self.parse_type()
            if self.kinds[self.i] == ",":
                self.i += 1
                first = Prod(first, self.parse_type())
            self.expect(")")
            return first
        raise self.syntax_error("a type")

    # -- expressions ------------------------------------------------------

    def parse_expr(self) -> Term:
        k = self.kinds[self.i]
        if k == "fun":
            self.i += 1
            param = self.ident()
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
        if k == "let":
            if self.target:
                raise self.syntax_error("no let in target terms")
            start = self.i
            self.i += 1
            name = self.ident()
            self.expect("=")
            marks = self.marks
            bound = self.parse_expr()
            if self.marks != marks:
                self.fail(LetTooEffectful, start, "bound expression of let has effect marks; "
                          "rewrite with nested marks, e.g. f(g(x)!)!")
            self.expect("in")
            scope, self.scope, marks = self.scope, self.scope | {name}, self.marks
            body = self.parse_expr()
            self.scope = scope
            return self._let(start, name, bound, body, self.marks - marks)
        left = self.parse_app()
        while self.kinds[self.i] == "++":
            concat = self._name("concat", self.i)
            self.i += 1
            right = self.parse_app()
            left = App(App(concat, left, label=self.lab), right, label=self.lab)
        return left

    def _let(self, start: int, name: str, bound: Term, body: Term, marks: int) -> Term:
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
            return Each(inner, label=SRC, ty=body.ty)
        self.fail(LetTooEffectful, start, "let continuation uses more than one effect "
                  "mark; rewrite with nested marks (f(g(x)!)! style)")
        return body

    def _name(self, name: str, i: int) -> Term:
        """The term for ``name``, written at token ``i``."""
        if name in self.scope:
            return Var(name, label=self.lab)
        if name not in self.sig:
            self.fail(UnboundName, i, f"unbound name {name!r}")
        return Const(name, label=self.lab)

    def parse_app(self) -> Term:
        k = self.kinds[self.i]
        if self.target and k in COMBINATORS:
            if self.lab is not TGT:
                self.error = self.error or self.syntax_error(
                    "a pure expression (combinator in common position)")
            self.i += 1
            node, arity = COMBINATORS[k]
            lab, self.lab = self.lab, COM if node is Pure else TGT
            args = [self.parse_post() for _ in range(arity)]
            self.lab = lab
            self.combinators += 1
            return node(*args, label=TGT)
        f = self.parse_post()
        kinds, glued = self.kinds, self.glued
        # a glued "(" is a call, which parse_post has already consumed
        while (k := kinds[self.i]) in ("ident", "string") or k == "(" and not glued[self.i]:
            f = App(f, self.parse_post(), label=self.lab)
        return f

    def parse_post(self) -> Term:
        """An atom followed by marks, projections and glued calls."""
        i = self.i
        k = self.kinds[i]
        if k == "ident":
            e = self._name(self.ident(), i)
        elif k == "string":
            self.i = i + 1
            e = Lit(_unquote(self.texts[i]), label=self.lab)
        elif k == "(":
            e = self.parse_parens()
        elif k == "fun" or k == "let":
            e = self.parse_expr()
        else:
            raise self.unexpected("an expression")
        while True:
            k = self.kinds[self.i]
            if k == "!":
                if self.target:
                    raise self.syntax_error("no effect mark in target terms")
                if self.lab is COM:
                    self.fail(MarkUnderLambda, self.i,
                              "effect mark '!' under a lambda; lambda bodies are pure")
                self.i += 1
                self.marks += 1
                e = Each(e, label=SRC)
            elif k == ".1" or k == ".2":
                self.i += 1
                e = (Fst if k == ".1" else Snd)(e, label=self.lab)
            elif k == "(" and self.glued[self.i]:
                self.i += 1
                arg = self.parse_expr()
                self.expect(")")
                e = App(e, arg, label=self.lab)
            else:
                return e

    def parse_parens(self) -> Term:
        """Unit, a parenthesized expression, a pair or an annotation."""
        self.i += 1
        if self.kinds[self.i] == ")":
            self.i += 1
            return Unt(label=self.lab)
        e = self.parse_expr()
        colon = self.i
        k = self.kinds[colon]
        if k == ",":
            self.i += 1
            e = Prd(e, self.parse_expr(), label=self.lab)
        elif k == ":":
            self.i += 1
            ty = self.parse_type()
            self.expect(")")
            if type(e) is Lam:
                if not isinstance(ty, Arrow):
                    raise self.syntax_error("an arrow type annotation", colon)
                e.param_ty = ty.dom
            if e.ty is not None and e.ty is not ty:  # ((e : A) : B)
                self.fail(TypeMismatch, colon, f"annotation {type_name(ty)} does not match"
                          f" annotation {type_name(e.ty)}")
            e.ty = ty  # the checker compares it with the type it synthesizes
            return e
        self.expect(")")
        return e

    # -- programs ---------------------------------------------------------

    def parse_program(self) -> SurfaceProgram:
        decls: dict[str, ConstDecl] = {}
        while (k := self.kinds[self.i]) == "effect" or k == "prim":
            self.i += 1
            name = self.ident()
            if name in decls:
                raise DuplicateDecl(f"constant {name!r} declared twice")
            self.expect(":")
            kind = ConstKind.EFFECTFUL if k == "effect" else ConstKind.PURE
            decls[name] = ConstDecl(name, self.parse_type(), kind)
        try:
            self.sig = Signature(list(decls.values()))
        except PurifyError as err:
            self.error = self.error or err
        self.expect("purify")
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
