"""Deterministic, re-parseable rendering of core terms.

Source and common fragments use the surface grammar (calls are printed in
glued call style, ``f("a")!``); target terms use the combinator keywords
``pure``, ``map``, ``ap`` and ``join`` in prefix form.
"""

from __future__ import annotations

from .terms import (
    App, Ap, Arrow, Const, Each, Fst, Join, Lam, Lit, Map, Prd, Pure,
    PurifyError, Snd, Term, Unt, Var, type_name,
)

CONCAT_NAME = "concat"


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"})


def escape_string(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


# Binding levels, tightest first.  A node printed in a slot that accepts a
# lower level than its own is parenthesized (Ramsey, "Unparsing Expressions
# with Prefix and Postfix Operators", SP&E 1998).
ATOM, POSTFIX, OPERAND, EXPR = range(4)


def _lam(e: Lam) -> tuple:
    # always parenthesized, so it sits in any slot
    typed = e.param_ty is not None and isinstance(e.ty, Arrow)
    close = f" : {type_name(e.ty)})" if typed else ")"
    return ATOM, (f"(fun {e.param} -> ", (e.body, EXPR), close)


def _app(e: App) -> tuple:
    f = e.fun
    if type(f) is App and type(f.fun) is Const and f.fun.name == CONCAT_NAME:
        return EXPR, ((f.arg, OPERAND), " ++ ", (e.arg, OPERAND))
    return POSTFIX, ((f, POSTFIX), "(", (e.arg, EXPR), ")")


# node kind -> its binding level and layout: literal text pieces and
# (child, slot level) pairs, left to right
_LAYOUTS = {
    App: _app,
    Var: lambda e: (ATOM, (e.name,)),
    Const: lambda e: (ATOM, (e.name,)),
    Lit: lambda e: (ATOM, (escape_string(e.value),)),
    Unt: lambda e: (ATOM, ("()",)),
    Prd: lambda e: (ATOM, ("(", (e.fst, EXPR), ", ", (e.snd, EXPR), ")")),
    Lam: _lam,
    Each: lambda e: (POSTFIX, ((e.eff, POSTFIX), "!")),
    Fst: lambda e: (POSTFIX, ((e.pair, POSTFIX), ".1")),
    Snd: lambda e: (POSTFIX, ((e.pair, POSTFIX), ".2")),
    Pure: lambda e: (OPERAND, ("pure ", (e.inner, ATOM))),
    Map: lambda e: (OPERAND, ("map ", (e.fun, ATOM), " ", (e.arg, ATOM))),
    Ap: lambda e: (OPERAND, ("ap ", (e.fun, ATOM), " ", (e.arg, ATOM))),
    Join: lambda e: (OPERAND, ("join ", (e.nested, ATOM))),
}


def pretty(e: Term) -> str:
    """Render a term; parse(pretty(e)) is alpha-equivalent to e."""
    out: list[str] = []
    stack: list = [(e, EXPR)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, slot = item
        layout = _LAYOUTS.get(type(t))
        if layout is None:
            raise PurifyError(f"cannot print term former {type(t).__name__}")
        level, pieces = layout(t)
        if level > slot:
            pieces = ("(", *pieces, ")")
        stack.extend(reversed(pieces))
    return "".join(out)


def pretty_program(sig, body: Term) -> str:
    """Render declarations plus a purify block (round-trips through parse)."""
    lines = [f"{decl.kind.value} {decl.name} : {type_name(decl.ty)}" for decl in sig]
    lines.append(f"purify {{ {pretty(body)} }}")
    return "\n".join(lines) + "\n"
