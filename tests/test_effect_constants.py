"""Pin what one effect constant does under each monad, through ``purify run``.

The table crosses arities 0, 1 and 2, results ``Str``, ``Unit``,
``(Str, Unit)``, ``Str -> Str`` and ``Eff Str``, and every behavior kind
with and without a payload (and a payload with the default kind).  Each
program calls the effect twice with different arguments and observes each
result: a function result is applied, an action result is marked.  Under
each monad, one sha256 per result type is taken over the exit code, stdout
and stderr of ``run --json`` for every arity and behavior; the digests were
recorded before each constant was built once per monad, so the values,
logs, states, traces and the unobserved-payload and unread-kind
diagnostics are those of the per-call construction.

Print the digests with ``PYTHONPATH=src python tests/test_effect_constants.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from purify.cli import main
from purify.semantics import BEHAVIOR_KINDS, MONADS

RESULTS = {  # result type -> what observes one call's result
    "Str": "", "Unit": "", "(Str, Unit)": "", "Str -> Str": '("x")', "Eff Str": "!",
}
BEHAVIORS = [None, {"payload": "p"}] + [
    b for kind in BEHAVIOR_KINDS for b in ({"kind": kind}, {"kind": kind, "payload": "p"})
]


def program(arity: int, result: str) -> str:
    ty = "".join("Str -> " for _ in range(arity)) + f"Eff ({result})"
    calls = ["e" + "".join(f'("{a}")' for a in args[:arity]) for args in ("ab", "cd")]
    body = ", ".join(call + "!" + RESULTS[result] for call in calls)
    return f"effect e : {ty}\npurify {{ ({body}) }}\n"


def outputs(monad: str, result: str) -> list[str]:
    """Exit code, stdout and stderr of ``run --json`` for each table row."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        prog, cfg = Path(tmp, "e.pfy"), Path(tmp, "cfg.json")
        for arity in (0, 1, 2):
            prog.write_text(program(arity, result), encoding="utf-8")
            for behavior in BEHAVIORS:
                argv = ["run", str(prog), "--monad", monad, "--json"]
                if behavior is not None:
                    cfg.write_text(json.dumps({"behavior": {"e": behavior}}), encoding="utf-8")
                    argv += ["--config", str(cfg)]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                lines.append(f"{arity} {behavior} -> {code} {out.getvalue()!r} "
                             f"{err.getvalue().replace(tmp, '<tmp>')!r}")
    return lines


def digest(monad: str, result: str) -> str:
    return hashlib.sha256("\n".join(outputs(monad, result)).encode("utf-8")).hexdigest()


# (monad, result type) -> sha256 of ``outputs``
DIGESTS = {
    ("option", "Str"):
        "7af75b7d78a68c7042ed4abd285ba50c7c00fb0ed17dd17ddc9a8ff1665cd049",
    ("option", "Unit"):
        "7f1d291232f8e253bb2d646b4cc48a06bcb805f5f515353ed8e4b08d03eb8566",
    ("option", "(Str, Unit)"):
        "360a9ff70c20a80ae026dd6e5825af40094b1a49df50468d97b9dd1d7873c5ae",
    ("option", "Str -> Str"):
        "e5364d8add64ff7eb9402bd325f56999f521a2560a9eca75f8bdf40e186dcbee",
    ("option", "Eff Str"):
        "954f6222c952bab3f6231aa6e87b3e0fcd5cdce195ee2df43fa8c1d88b756a6d",
    ("state", "Str"):
        "602d4ed3c4b717d9fb1bf391bd0945e83d61e5c6ad50b0cad88e35a8b9adea7a",
    ("state", "Unit"):
        "aa6025ccb0ba273688174c0c7d153569efae38be4e2effd28dd8f70466b5dda0",
    ("state", "(Str, Unit)"):
        "05756b0b2a48a71b6e0fc5ee4cb5598e6525f4d0b066a38ee68b9bf24a270030",
    ("state", "Str -> Str"):
        "63413c5076548781a007e144f736b9174dc49a0ae7297ffef10a52ad604a171c",
    ("state", "Eff Str"):
        "c5609a9c77c292175a2822e787a9fd8afab26c7f1619457c5760941f5407fd2e",
    ("writer", "Str"):
        "719da721d9a15a251cfe69d1fb5603b3e8be635d56e6d8b8c3185cd8349ffcff",
    ("writer", "Unit"):
        "d653c2e8334a3c7ddd530eb57e1e86bc1157d2b985cc6d2cab18fb8cdc000694",
    ("writer", "(Str, Unit)"):
        "33d6e2be69cad9c2ac0df2e80e474e49c3bab2c2e23d10d9d7ae71dc6bf48606",
    ("writer", "Str -> Str"):
        "9810133eed82460a500115d4a428b43280ad7ee68b24666fc28e2c95c7dc262a",
    ("writer", "Eff Str"):
        "7bef9219f41b238c53953aaf415582fdccef78843a6afbb52f874093176e007b",
    ("trace", "Str"):
        "6cad6ae41583b43e54289075cee78f5479f296f0e29c605885fe7a4d72f4a328",
    ("trace", "Unit"):
        "f0f301e3f908adb29256c188d5611526fba9b605cc0dab64bd2721b106374d43",
    ("trace", "(Str, Unit)"):
        "567a98fb360179a64d5ba9a8b3ba53034a20290000e3f5253925632ceb9e0a41",
    ("trace", "Str -> Str"):
        "6afdc00f5c50c45ddb3e805947e83def3837b0f85915deac1f38d6743d5fba40",
    ("trace", "Eff Str"):
        "173f99cff4caf6508670d8ebe502a2189cad31d12dc2459a3a0bba63c2c636f5",
    ("writer-rtl", "Str"):
        "ea8b8c1b186f8741f59a73d80ef8008fab31cc2128c3cd5eecac6447c1007968",
    ("writer-rtl", "Unit"):
        "4b2216f3096889429a51e40996dc936b6690bb796b9d86db810a34b8446a66f6",
    ("writer-rtl", "(Str, Unit)"):
        "20bcaf46bee13497b2756905e2868e5215ba2b2805597306110c419009b1e217",
    ("writer-rtl", "Str -> Str"):
        "fc08856d18651e9a76bf2840b6b898400ec5a7c34927c0538b6fe272ba8bfd08",
    ("writer-rtl", "Eff Str"):
        "2bf6c7082b145d075e431a7422efb0878d386d5335170ba692f74690c7715ce4",
}


@pytest.mark.parametrize("monad,result", list(DIGESTS))
def test_effect_constant_runs_are_pinned(monad, result):
    assert digest(monad, result) == DIGESTS[monad, result]


def test_table_covers_every_monad_and_result():
    assert set(DIGESTS) == {(m, r) for m in MONADS for r in RESULTS}


def test_diagnostics_of_one_row():
    """Two rows written out: a payload the monad never observes, and a kind
    it does not read."""
    rows = outputs("state", "Unit")
    assert rows[BEHAVIORS.index({"payload": "p"})] == (
        "0 {'payload': 'p'} -> 1 '' \"error: behavior payload for 'e' is never "
        "observed under the state monad (kind default, result Unit)\\n\"")
    assert rows[BEHAVIORS.index({"kind": "log"})] == (
        "0 {'kind': 'log'} -> 1 '' \"error: behavior kind 'log' for 'e' is never "
        "observed under the state monad\\n\"")


if __name__ == "__main__":
    for m in MONADS:
        for r in RESULTS:
            print(f'    ("{m}", "{r}"):\n        "{digest(m, r)}",')
