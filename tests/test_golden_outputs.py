"""Golden-output guard: suite reports and translations stay byte-identical.

``golden_outputs.json`` holds sha256 digests of outputs recorded before a
refactor: every suite report at the acceptance depths and seeds (at reduced
trial counts), the pretty-printed opt/naive/seq/normalize(naive)
translations of generated source terms, and the pretty-printed normal
forms of generated target terms.  A refactor that changes a generated term,
a seed, a fresh name or a rewrite order changes a digest.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden_outputs.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from purify.pretty import pretty
from purify.propcheck import GenConfig, Unsatisfiable, _pick_goal, gen_term, run_suite
from purify.terms import Eff, PurifyError, SRC, TGT
from purify.translate import naive_translate, normalize, opt_translate, seq_translate

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# suite -> (depth, seed, trials): the acceptance depths and seeds, fewer trials
SUITES = {
    "types": (6, 31, 300),
    "semantics": (5, 41, 150),
    "span_work": (6, 51, 300),
    "smart_ctors": (4, 61, 200),
    "relabel": (5, 71, 300),
    "effect_free": (5, 71, 300),
    "laws": (5, 81, 50),
    "normalize": (5, 101, 150),
    "baseline": (5, 81, 150),
}
SOURCE_TERMS = 300
TARGET_TERMS = 300
DEPTH = 5


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _attempt(fn) -> str:
    try:
        return pretty(fn())
    except PurifyError as exc:
        return f"error {type(exc).__name__}: {exc}"


def suite_digest(name: str) -> str:
    depth, seed, trials = SUITES[name]
    report = run_suite(name, GenConfig(max_depth=depth, seed=seed), trials)
    return _digest([json.dumps(report.to_dict(), sort_keys=True)])


def translation_digests() -> dict[str, str]:
    outs: dict[str, list[str]] = {"opt": [], "naive": [], "seq": [], "normalize_naive": []}
    for i in range(SOURCE_TERMS):
        try:
            term = gen_term(GenConfig(max_depth=DEPTH, seed=i, label=SRC))
        except Unsatisfiable:
            for lines in outs.values():
                lines.append("unsat")
            continue
        outs["opt"].append(_attempt(lambda: opt_translate(term)))
        outs["naive"].append(_attempt(lambda: naive_translate(term)))
        outs["seq"].append(_attempt(lambda: seq_translate(term)))
        outs["normalize_naive"].append(_attempt(lambda: normalize(naive_translate(term))))
    return {key: _digest(lines) for key, lines in outs.items()}


def normalize_target_digest() -> str:
    lines = []
    for i in range(TARGET_TERMS):
        goal = Eff(_pick_goal(random.Random(i)))
        try:
            term = gen_term(GenConfig(max_depth=DEPTH, seed=i, label=TGT, goal_type=goal))
        except Unsatisfiable:
            lines.append("unsat")
            continue
        lines.append(_attempt(lambda: normalize(term)))
    return _digest(lines)


def compute() -> dict:
    return {
        "suites": {name: suite_digest(name) for name in SUITES},
        "translations": translation_digests(),
        "normalize_target": normalize_target_digest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_report_unchanged(golden, name):
    assert suite_digest(name) == golden["suites"][name]


def test_translations_unchanged(golden):
    assert translation_digests() == golden["translations"]


def test_normalize_target_unchanged(golden):
    assert normalize_target_digest() == golden["normalize_target"]


if __name__ == "__main__":
    data = compute()
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    else:
        print(json.dumps(data, indent=2, sort_keys=True))
