"""Benchmark programs and the references their outputs are checked against.

A program is described twice: as surface text, which is all the compiler
sees, and as a small expression tree built by hand, from which a reference
interpreter written here computes the expected value, state, log and span /
work.  None of the expected outputs comes from purify itself.

Trees are tuples: ("lit", s), ("prim", name) (a declared Str constant, whose
default value is its name), ("fetch", x), ("cat", a, b) and ("pair", a, b).
Every function here is iterative, so the deepest family member (10 000
nested fetches) needs no deep Python recursion.
"""

from __future__ import annotations

import random
import string

HEADER = (
    "prim concat : Str -> Str -> Str\n"
    "effect fetch : Str -> Eff Str\n"
)
SIZES = (10, 100, 1000, 10000)
FAMILIES = ("wide", "deep", "balanced", "dup")
DEFAULT_LATENCY_MS = 100.0


def payload_word(seed: int) -> str:
    """Seeded lowercase string payload shared by every literal of a run."""
    rng = random.Random(f"payload-{seed}")
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 6)))


def _fetch(x):
    return ("fetch", x)


def _chain_cat(leaves):
    """Left-associated ``a ++ b ++ c ...``, as the parser builds it."""
    tree = leaves[0]
    for leaf in leaves[1:]:
        tree = ("cat", tree, leaf)
    return tree


def _balanced_cat(leaves):
    """Binary ``++`` tree with the leaves in order, built bottom-up."""
    level = list(leaves)
    while len(level) > 1:
        nxt = [("cat", level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def family_tree(family: str, n: int, word: str):
    if family == "wide":
        return _chain_cat([_fetch(("lit", f"{word}{i}")) for i in range(n)])
    if family == "dup":
        return _chain_cat([_fetch(("lit", word)) for _ in range(n)])
    if family == "deep":
        tree = ("lit", word)
        for _ in range(n):
            tree = _fetch(tree)
        return tree
    if family == "balanced":
        return _balanced_cat([_fetch(_fetch(("lit", f"{word}{i}"))) for i in range(n)])
    raise ValueError(f"unknown family {family!r}")


def closed_form(family: str, n: int) -> tuple[int, int, float]:
    """(span, work, latency at 100 ms per fetch) by the family's formula."""
    span, work = {
        "wide": (1, n), "dup": (1, n), "deep": (n, n), "balanced": (2, 2 * n),
    }[family]
    return span, work, span * DEFAULT_LATENCY_MS


# -- text ---------------------------------------------------------------------

def fold(tree, leaf, combine):
    """Bottom-up fold: ``leaf(node)`` for leaves, ``combine(node, kids)`` otherwise."""
    results: list = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        kids = node[1:] if node[0] in ("fetch", "cat", "pair") else ()
        if not kids:
            results.append(leaf(node))
        elif expanded:
            k = len(kids)
            vals = results[-k:]
            del results[-k:]
            results.append(combine(node, vals))
        else:
            stack.append((node, True))
            for child in reversed(kids):
                stack.append((child, False))
    return results[0]


def to_source(tree) -> str:
    """Surface text of a tree: ``++`` chains left-associated, marks postfix."""

    def leaf(node):
        return f'"{node[1]}"' if node[0] == "lit" else node[1]

    def combine(node, kids):
        if node[0] == "fetch":
            return ("fetch(", kids[0], ")!")
        if node[0] == "pair":
            return ("(", kids[0], ", ", kids[1], ")")
        left, right = kids
        if node[2][0] == "cat":
            right = ("(", right, ")")
        return (left, " ++ ", right)

    # pieces are nested tuples of strings; flatten iteratively
    pieces, out = [fold(tree, leaf, combine)], []
    while pieces:
        p = pieces.pop()
        if isinstance(p, str):
            out.append(p)
        else:
            pieces.extend(reversed(p))
    return "".join(out)


def program_text(tree) -> str:
    return f"{HEADER}purify {{ {to_source(tree)} }}\n"


# -- reference interpreter ------------------------------------------------------

def static_span_work(tree) -> tuple[int, int]:
    def combine(node, kids):
        if node[0] == "fetch":
            return kids[0][0] + 1, kids[0][1] + 1
        return max(kids[0][0], kids[1][0]), kids[0][1] + kids[1][1]

    return fold(tree, lambda node: (0, 0), combine)


def reference_run(tree, monad: str) -> dict:
    """Expected ``run --json`` fields under a monad with default behaviours.

    A fetch of ``v`` returns ``fetch(v)`` and, under state, ``fetch(v)@s``
    while incrementing the state.  Writers log one tag per fetch: inner
    effects first, then left to right; ``writer-rtl`` flips the order of
    the two sides of every applicative combination.
    """
    stateful = monad == "state"
    logged = monad in ("writer", "writer-rtl")  # a deep chain's log is quadratic in n
    counter = [0]

    # Effects run in evaluation order (left to right, inner first), so a
    # post-order walk visits fetches in the order the state monad sees them.
    def leaf(node):
        return node[1], ()

    def combine(node, kids):
        if node[0] == "fetch":
            value, log = kids[0]
            tag = f"fetch({value})"
            result = f"{tag}@{counter[0]}" if stateful else tag
            counter[0] += 1
            return result, (log + (tag,) if logged else ())
        (va, la), (vb, lb) = kids
        value = va + vb if node[0] == "cat" else f"({va},{vb})"
        return value, (lb + la) if monad == "writer-rtl" else (la + lb)

    value, log = fold(tree, leaf, combine)
    span, work = static_span_work(tree)
    out: dict = {"v": 1, "monad": monad}
    if monad == "option":
        out.update(absent=False, value=value)
    elif monad == "state":
        out.update(value=value, final_state=work)
    elif monad in ("writer", "writer-rtl"):
        out.update(value=value, log=list(log))
    elif monad == "trace":
        out.update(value=value, dyn_span=span, dyn_work=work,
                   latency_ms=span * DEFAULT_LATENCY_MS)
    else:
        raise ValueError(f"unknown monad {monad!r}")
    return out


# -- the program corpus --------------------------------------------------------

class Program:
    """One benchmark input: its text, its reference tree and expected forms."""

    def __init__(self, name: str, text: str, tree, type_name: str = "Str",
                 family: str | None = None, n: int | None = None):
        self.name = name
        self.text = text
        self.tree = tree
        self.type_name = type_name
        self.family = family
        self.n = n
        if family is not None:
            self.span, self.work, self.latency_ms = closed_form(family, n)
        else:
            self.span, self.work = static_span_work(tree)
            self.latency_ms = self.span * DEFAULT_LATENCY_MS

    def expected_analysis(self) -> dict:
        """``analyze --json``: every translation keeps span/work except seq,
        whose single bind chain has span equal to work."""
        s, w = self.span, self.work
        return {
            "v": 1, "span_src": s, "work_src": w, "span_opt": s, "work_opt": w,
            "span_naive": s, "work_naive": w, "span_seq": w, "work_seq": w,
        }


# Hand-written trees of the three demo programs (demos/programs/*.pfy).
DEMO_TREES = {
    "let_sugar": (("fetch", ("cat", ("lit", "https://example.org/"), ("lit", "config"))),
                  "Str"),
    "nested_chains": (("cat", ("fetch", ("fetch", ("prim", "urlXX"))),
                       ("fetch", ("fetch", ("prim", "urlYY")))), "Str"),
    "two_fetches": (("pair", ("fetch", ("lit", "foo")), ("fetch", ("lit", "bar"))),
                    "(Str, Str)"),
}

# README: `purify translate demos/programs/nested_chains.pfy`, whitespace-folded.
NESTED_CHAINS_OPT = (
    "ap (map (fun $x2 -> concat($x2)) (join (map (fun $x1 -> fetch($x1)) "
    "(fetch(urlXX))))) (join (map (fun $x3 -> fetch($x3)) (fetch(urlYY))))"
)


def demo_programs(root: str) -> list[Program]:
    out = []
    for name, (tree, ty) in DEMO_TREES.items():
        with open(f"{root}/demos/programs/{name}.pfy", encoding="utf-8") as fh:
            out.append(Program(name, fh.read(), tree, ty))
    return out


def family_program(family: str, n: int, word: str) -> Program:
    tree = family_tree(family, n, word)
    return Program(f"{family}-{n}", program_text(tree), tree, family=family, n=n)
