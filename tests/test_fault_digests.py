"""Pin what a failing suite reports: each fault row's failures, byte for byte.

Every row of ``test_propcheck.FAULT_ROWS`` injects one fault and runs its
suite.  One sha256 per row is taken over the JSON of each reported failure:
its seed, its shrunk term (``term_pretty``) and its detail, in report order.
So a change to how a check decides, or in what order it names a monad,
shows here even when the suite still fails.

``DIGESTS`` was recorded before the suites decided agreement on one ordered
observation per side, so it checks that change, and any later one, against
per-monad comparison.

Print the digests with ``PYTHONPATH=src python tests/test_fault_digests.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from purify.propcheck import GenConfig, run_suite
from test_propcheck import FAULT_ROWS

DIGESTS = {
    "smart_ctors/_doubled_ap":
        "af99a6ed4ddbfaf3f3708463893715b1785c81bcab31fae579d56bd5e45380a4",
    "normalize/_swapped_normalize":
        "22bc6a7c07cf10dc17d8f9fd8b3d2f3defe23ad620f9d11d1d7298a7fd48d677",
    "types/_fst_as_snd":
        "756a18ff7511e6a8c5e54a9d88d50b7fc4f683071bdd3ac79495921b54b13339",
    "semantics/_swapped_opt":
        "99f18a7ecb69649b46555b286d400bb2fee4eb99a540d9d99b29680bc0bd0ecb",
    "semantics/_fst_as_snd":
        "a293d4f570336d510c74cd68def621d0097ca191a19e7690d13bd0ae07707ef0",
    "span_work/seq_translate":
        "1c39f0e85f459f882ecfe7cdc8d2042c8667069e979e85156bb741c8ac96cb5e",
    "relabel/_swapped_relabel":
        "7144af4c64e0858cfaffcc1db4aa1ee8d6b84d6040503fac174ee4fb39de8e8a",
    "effect_free/_constants_cost":
        "79b7d3af8566f28dd7175c09a429db5188c217f8b5b573dce70556da257eba97",
    "baseline/_reversed_chain":
        "ce690fd4587dd1657fa16c7941bdf8d6f7136c16aced166e0a914e5fd6f015ab",
}


def _key(row) -> str:
    return f"{row[0]}/{row[5].__name__}"


def digest(row) -> str:
    """The sha256 of ``row``'s failures, its fault injected for the run."""
    suite, depth, seed, trials, target, wrong = row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f"purify.{target}", wrong)
        report = run_suite(suite, GenConfig(max_depth=depth, seed=seed), trials)
    lines = (json.dumps([f["seed"], f["term_pretty"], f["detail"]]) for f in report.failures)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("row", FAULT_ROWS, ids=_key)
def test_fault_report_unchanged(row):
    assert digest(row) == DIGESTS[_key(row)]


def test_every_fault_row_is_pinned():
    assert sorted(map(_key, FAULT_ROWS)) == sorted(DIGESTS)


if __name__ == "__main__":
    for row in FAULT_ROWS:
        print(f'    "{_key(row)}":\n        "{digest(row)}",')
