"""Tests of the benchmark itself: family shapes, closed forms at n = 10, the
reference interpreter against the CLI, the deadline and the tracer.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import os
import time

import pytest

import families
import harness
import tracer
import workloads
from purify import metrics, translate
from purify.surface import parse_and_elaborate
from purify.terms import Each, subterms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _depth(tree) -> int:
    return families.fold(tree, lambda node: 0, lambda node, kids: 1 + max(kids))


def _payloads(tree) -> list:
    out = []
    families.fold(tree, lambda node: out.append(node[1]), lambda node, kids: None)
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 10])
def test_family_shapes(n):
    w = families.payload_word(3)
    wide = families.family_tree("wide", n, w)
    assert len(set(_payloads(wide))) == n and _depth(wide) == n  # left-assoc chain
    assert set(_payloads(families.family_tree("dup", n, w))) == {w}
    assert _depth(families.family_tree("deep", n, w)) == n
    balanced = families.family_tree("balanced", n, w)
    assert len(set(_payloads(balanced))) == n
    assert _depth(balanced) == 2 + (n - 1).bit_length()  # 2-chains under a binary ++ tree


@pytest.mark.parametrize("family", families.FAMILIES)
def test_closed_forms_hold_at_n10(family):
    prog = families.family_program(family, 10, families.payload_word(0))
    assert families.static_span_work(prog.tree) == (prog.span, prog.work)
    assert prog.text.count("fetch(") == {"balanced": 20}.get(family, 10)
    sig, body = parse_and_elaborate(prog.text)
    assert sum(isinstance(t, Each) for t in subterms(body)) == prog.work
    assert (metrics.span(body, sig), metrics.work(body, sig)) == (prog.span, prog.work)
    seq = translate.seq_translate(body)
    assert metrics.span(seq, sig) == metrics.work(seq, sig) == prog.work


def test_deep_program_text_needs_no_recursion():
    prog = families.family_program("deep", 10_000, "u")
    assert prog.text.count("fetch(") == 10_000
    assert families.reference_run(prog.tree, "trace")["dyn_span"] == 10_000


def test_seed_sets_payloads_and_order():
    assert families.payload_word(1) == families.payload_word(1)
    assert len({families.payload_word(s) for s in range(5)}) > 1
    a = [o.program for o in workloads.scale_ops(ROOT, 1)]
    b = [o.program for o in workloads.scale_ops(ROOT, 2)]
    assert a == b and workloads.scale_programs(ROOT, 1)[-1].text != workloads.scale_programs(ROOT, 2)[-1].text


def _small(ops):
    return [o for o in ops if not workloads.is_frontier(o) and not o.known_failure]


def test_scale_ops_pass_below_the_frontier():
    for op in _small(workloads.scale_ops(ROOT, 0)):
        out = harness.run_op(op, 10.0)
        assert out.fail is None, (op.program, op.kind, out.detail)


def test_cli_outputs_match_the_reference_interpreter(tmp_path):
    for op in _small(workloads.cli_ops(ROOT, 4, str(tmp_path))):
        out = harness.run_op(op, 10.0)
        assert out.fail is None, (op.program, op.kind, out.detail)


def test_gate_seed_zero_reproduces_acceptance_seeds():
    ops = workloads.gate_ops(0)
    first = {o.kind: o.prepare() for o in ops if o.program.endswith("#0")}
    assert first["types"].seed == 31 and first["types"].max_depth == 6
    assert first["normalize"].seed == 101
    assert {o.kind for o in ops} == set(workloads.GATE_SUITES)


def test_wrong_output_and_deadline_are_counted():
    def op(body, check=lambda i, o: None):
        return harness.Op(0, "k", "p", lambda i: 1, lambda: 0, body, check)

    assert harness.run_op(op(lambda i: 1, lambda i, o: "bad"), 1.0).fail == "wrong"
    assert harness.run_op(op(lambda i: 1 / 0), 1.0).fail == "internal"
    t0 = time.perf_counter()

    def spin(_):
        while True:
            pass

    assert harness.run_op(op(spin), 0.2).fail == "deadline"
    assert time.perf_counter() - t0 < 2.0


def test_tracer_records_outermost_calls_and_restores():
    from purify import terms
    original = terms.relabel
    tr = tracer.Tracer()
    tr.install([workloads])
    try:
        assert terms.relabel is not original
        prog = families.family_program("wide", 10, "u")
        p = workloads.Prepared(prog)
        tr.start_op(1)
        workloads._compile(p)
        tr.stop_op()
    finally:
        tr.uninstall()
    assert terms.relabel is original
    layer = tr.per_layer(1, 0.0)
    assert layer["surface.parse.calls"][0] == 1
    assert layer["translate.opt_translate.calls"][0] == 1
    assert layer["translate.smart_ap.calls"][0] > 1
    for name in tracer.NAMES:
        assert layer[f"{name}.self_s"][0] <= layer[f"{name}.s"][0] + 1e-9
    assert all(s[4] == 1 for s in tr.spans)
