"""Pin the terms every term suite generates.

For each suite, the first 500 trials at its acceptance depth and seed are
generated the way ``run_suite`` generates them, and one sha256 is taken over
each term's printed form, the labels of its nodes (preorder) and its type
stamp.  Suite reports that all pass show no terms, so this is the check that
a change to the generator, the checker or the type representation draws the
same terms, draw for draw.  ``DRAW_DIGESTS`` pins, the same way, draws no
suite makes: ``gen_term`` at every label and the two target-action
generators across depths, over the default signature and a larger one.

Print the digests with ``PYTHONPATH=src python tests/test_term_digests.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from purify import propcheck
from purify.pretty import pretty
from purify.propcheck import GenConfig, Unsatisfiable, default_signature
from purify.terms import (
    COM, SRC, TGT, Arrow, ConstDecl, ConstKind, Eff, Prod, STR, UNIT, subterms, type_name,
)

TRIALS = 500

# suite -> (depth, seed, sha256), the acceptance depths and seeds
DIGESTS = {
    "types": (6, 31,
        "ee25ebb0271eb1d0afd389dced019f25156a8d6976dde8cf4ed0ad2da58dca4e"),
    "semantics": (5, 41,
        "5a5137f3130b5487279787456dc8cee0a2c859566f74b8884064431b3786aa75"),
    "span_work": (6, 51,
        "10e80ebed14d7fd2e7c90568dead7ac655f4ecdff5db0d1e7bcaaccec2f62050"),
    "smart_ctors": (4, 61,
        "234197f8ca26710203536a2a668df3e4158fb1b042df5ba25cef96b88792d8d5"),
    "relabel": (5, 71,
        "ca5bf19f4b51b672efec92f81e3cb9c91d7ebcec49f5257f48eb05933cc64389"),
    "effect_free": (5, 71,
        "ca5bf19f4b51b672efec92f81e3cb9c91d7ebcec49f5257f48eb05933cc64389"),
    "normalize": (5, 101,
        "c3d10762a6e095383c2f991afffe4d470f87b6af82d749341ac7eaafcbb8c755"),
    "baseline": (5, 81,
        "fa4b92ec89fc35bd7d4d22dbab72053ea0524a0a6cbccced903d22f51adfa269"),
}


def _draw(h, generate, cfg: GenConfig, i: int) -> None:
    """Hash one draw: its printed form, preorder labels and type stamp."""
    try:
        term = generate(cfg, i)
    except Unsatisfiable:
        h.update(b"unsat\n")
        return
    labels = "".join(str(n.label) for n in subterms(term))
    h.update(f"{pretty(term)}\t{labels}\t{type_name(term.ty)}\n".encode("utf-8"))


def term_digest(name: str) -> str:
    depth, seed, _ = DIGESTS[name]
    label, generate, _ = propcheck._TERM_SUITES[name]
    sig = default_signature()
    h = hashlib.sha256()
    for i in range(TRIALS):
        _draw(h, generate, GenConfig(depth, propcheck._sub_seed(seed, i), sig, label), i)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_generated_terms_are_pinned(name):
    assert term_digest(name) == DIGESTS[name][2]


def test_every_term_suite_is_pinned():
    assert set(DIGESTS) == set(propcheck._TERM_SUITES)


# Draws the suites never make: every label and depth of gen_term and the two
# target generators, also over a signature with an effect result of pair type
# (``both``), a pure call of pair type (``twice``) and an effect taking an
# action (``later``, whose argument an embedded target call draws at com).
DRAW_SEEDS = 200
DRAW_CASES = {
    "gen_term": ((SRC, COM, TGT), range(3, 8), propcheck._gen_plain),
    "smart": ((TGT,), range(3, 7), propcheck._gen_smart),
    "action": ((TGT,), range(3, 7), propcheck._gen_action),
}


def _extended_signature():
    sig = default_signature()
    sig.add(ConstDecl("both", Arrow(STR, Arrow(UNIT, Eff(Prod(STR, STR)))),
                      ConstKind.EFFECTFUL))
    sig.add(ConstDecl("twice", Arrow(STR, Arrow(STR, Prod(STR, STR))), ConstKind.PURE))
    sig.add(ConstDecl("later", Arrow(Eff(STR), Eff(STR)), ConstKind.EFFECTFUL))
    return sig


SIGNATURES = {"default": default_signature, "extended": _extended_signature}

# (signature, case) -> sha256 over every label, depth and seed of the case
DRAW_DIGESTS = {
    ("default", "gen_term"):
        "b41f2e28435d2926ef2515f75a0b234cc3ef7266d912c2ba07feb85032f5c412",
    ("default", "smart"):
        "476e71db8eaaecb086028fc2e7e8752a2d739fb9095dda9c388538c9ca697434",
    ("default", "action"):
        "19fdaaf49c865acc65694886c1da6db8d068976bdacbd04eb5b18393ef63bab7",
    ("extended", "gen_term"):
        "cff57068929815e579b21cfcb6ec5006f02592a23f2e94d8b4cfc6abfc449522",
    ("extended", "smart"):
        "3eb21cef6681020b98d07325d4497fffdb6e6431cbec0000abfe202c400b6b38",
    ("extended", "action"):
        "39a41420b71a1d21a8df88bdb250e6cea9baf771b415bf209ef747d87c116813",
}


def draw_digest(sig_name: str, case: str) -> str:
    labels, depths, generate = DRAW_CASES[case]
    sig = SIGNATURES[sig_name]()
    h = hashlib.sha256()
    for label in labels:
        for depth in depths:
            for i in range(DRAW_SEEDS):
                _draw(h, generate, GenConfig(depth, i, sig, label), i)
    return h.hexdigest()


@pytest.mark.parametrize("sig_name, case", sorted(DRAW_DIGESTS))
def test_generator_draws_are_pinned(sig_name, case):
    assert draw_digest(sig_name, case) == DRAW_DIGESTS[sig_name, case]


if __name__ == "__main__":
    for suite in DIGESTS:
        print(f"{suite}: {term_digest(suite)}")
    for sig_name in SIGNATURES:
        for case in DRAW_CASES:
            print(f"{sig_name} {case}: {draw_digest(sig_name, case)}")
