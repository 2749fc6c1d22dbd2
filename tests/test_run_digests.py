"""Pin what evaluation shows: every monad's ``report`` and the trace DOT.

The golden digests cover suite reports and translations, which print no
value, log, state or trace.  Here the source of 300 generated source terms
(depth 5, seeds 0-299) and of the three demo programs is evaluated at
``src``, and its opt, naive, seq and ``normalize(opt)`` translations at
``tgt``.  Each side is run under all five monads, and one sha256 per
(monad, side) is taken over the JSON of ``report``; one more per side over
the trace monad's ``to_dot``.  An evaluation error is digested as its class
and message.

``run_digests.json`` was recorded before the evaluator learned to run
effect-free source code directly, so it checks that change, and any later
one, against the plain lift-everything semantics.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_run_digests.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from purify import parse_and_elaborate
from purify.check import TypeEnv, typecheck
from purify.metrics import to_dot
from purify.propcheck import GenConfig, Unsatisfiable, default_signature, gen_term
from purify.semantics import MONADS, evaluate, make_const_env
from purify.terms import PurifyError, SRC, TGT
from purify.translate import naive_translate, normalize, opt_translate, seq_translate

DIGESTS = Path(__file__).with_name("run_digests.json")
PROGRAMS = sorted(Path(__file__).parent.parent.joinpath("demos", "programs").glob("*.pfy"))
SOURCE_TERMS = 300
DEPTH = 5
SIDES = {
    "src": None, "opt": opt_translate, "naive": naive_translate, "seq": seq_translate,
    "normalize_opt": lambda t: normalize(opt_translate(t)),
}
KEYS = [f"{m}/{s}" for m in MONADS for s in SIDES] + [f"trace/dot_{s}" for s in SIDES]


def _programs():
    """(signature, checked source term) for each input; None if unsatisfiable."""
    sig = default_signature()
    for i in range(SOURCE_TERMS):
        try:
            yield sig, gen_term(GenConfig(max_depth=DEPTH, seed=i, signature=sig, label=SRC))
        except Unsatisfiable:
            yield None
    for path in PROGRAMS:
        psig, body = parse_and_elaborate(path.read_text(encoding="utf-8"))
        typecheck(body, SRC, TypeEnv(psig))
        yield psig, body


def _observe(m, sig, term, label, consts) -> tuple[str, str | None]:
    """``report`` as JSON, and the DOT text under the trace monad."""
    latencies = {name: 10.0 * (i + 1) for i, name in enumerate(sig.effectful_names())}
    try:
        action = evaluate(term, label, m, consts)
        action = action if label is SRC else action.action
        report = json.dumps(m.report(action, latencies), sort_keys=True)
        return report, to_dot(action) if m.name == "trace" else None
    except PurifyError as exc:
        error = f"error {type(exc).__name__}: {exc}"
        return error, error if m.name == "trace" else None


def compute() -> dict:
    monads = [make() for make in MONADS.values()]
    lines: dict[str, list[str]] = {key: [] for key in KEYS}
    for prog in _programs():
        if prog is None:
            for out in lines.values():
                out.append("unsat")
            continue
        sig, body = prog
        terms = {side: body if tr is None else tr(body) for side, tr in SIDES.items()}
        for side, t in terms.items():
            if side != "src":
                typecheck(t, TGT, TypeEnv(sig))
        for m in monads:
            consts = make_const_env(sig, m)
            for side, t in terms.items():
                report, dot = _observe(m, sig, t, SRC if side == "src" else TGT, consts)
                lines[f"{m.name}/{side}"].append(report)
                if dot is not None:
                    lines[f"{m.name}/dot_{side}"].append(dot)
    return {key: hashlib.sha256("\n".join(out).encode("utf-8")).hexdigest()
            for key, out in lines.items()}


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_run_output_unchanged(computed, pinned, key):
    assert computed[key] == pinned[key]


def test_every_digest_is_checked(computed, pinned):
    assert set(computed) == set(pinned) == set(KEYS)
    assert len(PROGRAMS) == 3


if __name__ == "__main__":
    data = compute()
    if "--write" in sys.argv[1:]:
        DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    else:
        print(json.dumps(data, indent=2, sort_keys=True))
