"""Pin the terms every term suite generates.

For each suite, the first 500 trials at its acceptance depth and seed are
generated the way ``run_suite`` generates them, and one sha256 is taken over
each term's printed form, the labels of its nodes (preorder) and its type
stamp.  Suite reports that all pass show no terms, so this is the check that
a change to the generator, the checker or the type representation draws the
same terms, draw for draw.

Print the digests with ``PYTHONPATH=src python tests/test_term_digests.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from purify import propcheck
from purify.pretty import pretty
from purify.propcheck import GenConfig, Unsatisfiable, default_signature
from purify.terms import subterms, type_name

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


def term_digest(name: str) -> str:
    depth, seed, _ = DIGESTS[name]
    label, generate, _ = propcheck._TERM_SUITES[name]
    sig = default_signature()
    h = hashlib.sha256()
    for i in range(TRIALS):
        cfg = GenConfig(depth, propcheck._sub_seed(seed, i), sig, label)
        try:
            term = generate(cfg, i)
        except Unsatisfiable:
            h.update(b"unsat\n")
            continue
        labels = "".join(str(n.label) for n in subterms(term))
        h.update(f"{pretty(term)}\t{labels}\t{type_name(term.ty)}\n".encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_generated_terms_are_pinned(name):
    assert term_digest(name) == DIGESTS[name][2]


def test_every_term_suite_is_pinned():
    assert set(DIGESTS) == set(propcheck._TERM_SUITES)


if __name__ == "__main__":
    for suite in DIGESTS:
        print(f"{suite}: {term_digest(suite)}")
