"""purify benchmark: gate, scale and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload scale --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines
before it are the human-readable report: every end-to-end metric by name,
unit and sample count, the failure breakdown, and the probe ops.

End-to-end numbers come only from untraced runs.  A traced run alternates
untraced and traced passes over the same ops and reports the difference as
the tracing overhead.  See README.md beside this file for the design.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

WORKLOADS = ("gate", "scale", "cli")
OP_DEADLINE_S = 10.0      # per timed op; every timed op takes well under 1 s
PROBE_DEADLINE_S = 1.0    # per probe op
PROBE_BUDGET_S = 20.0     # probes left when this is spent count as deadline failures
SETUP_RUNS = 11


def _import_purify():
    """Put ./src first on the path.  The other benchmark modules import
    purify, so they are imported inside functions, after this has run."""
    if not os.path.isfile(os.path.join(SRC, "purify", "__init__.py")):
        sys.exit(f"error: no purify sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import purify
    if not os.path.abspath(purify.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: purify was imported from {purify.__file__}, not {SRC}")


def setup_once(workload: str) -> float:
    """Seconds from a fresh interpreter's ``import purify`` to the end of
    the workload's one-time preparation, measured in a child process."""
    res = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), workload],
                         env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if res.returncode != 0:
        sys.exit(f"error: set-up child exited with {res.returncode}:\n{res.stderr}")
    return float(res.stdout.strip().splitlines()[-1])


def build_ops(workload: str, seed: int):
    import workloads as w
    if workload == "gate":
        ops = w.gate_ops(seed)
    elif workload == "scale":
        ops = w.scale_ops(ROOT, seed)
    else:
        ops = w.cli_ops(ROOT, seed, os.path.join(OUT, f"cli-{seed}"))
    timed = [o for o in ops if not o.known_failure and not w.is_frontier(o)]
    probes = [o for o in ops if o.known_failure or w.is_frontier(o)]
    return timed, probes


def run_probes(probes):
    """Each probe once, smallest inputs first, within the probe budget."""
    from harness import Outcome, Tally, run_op
    import workloads as w
    tally, rows = Tally(), []
    start = time.perf_counter()
    for op in sorted(probes, key=lambda o: w.program_size(o.program)):
        if time.perf_counter() - start > PROBE_BUDGET_S:
            o = Outcome(op, fail="deadline", detail="not run: probe budget spent")
        else:
            o = run_op(op, PROBE_DEADLINE_S)
        tally.add(o)
        rows.append(o)
    return tally, rows


def _unit_us(o) -> float:
    return o.seconds / o.units * 1e6


def _summary(samples) -> dict:
    from harness import quantile
    us = [_unit_us(o) for o in samples]
    return {
        "throughput_per_s": (sum(o.units for o in samples) / sum(o.seconds for o in samples), "1/s"),
        "op_us_per_unit.p50": (quantile(us, 0.5), "us"),
        "op_us_per_unit.p90": (quantile(us, 0.9), "us"),
    }


def _by(samples, key) -> dict:
    """Group outcomes by ``key``, groups in the order of their first op."""
    groups: dict = {}
    for o in sorted(samples, key=lambda o: o.op.id):
        groups.setdefault(key(o), []).append(o)
    return groups


def workload_report(workload: str, tally, setup: list[float]) -> list[tuple]:
    """The named metrics of one workload: (name, value, unit, samples)."""
    from harness import best_per_op, quantile
    s = best_per_op(tally.samples)
    rows = [("setup_s", statistics.median(setup), "s", len(setup))]
    if workload == "gate":
        rows.append(("verify_trials_per_s", sum(o.units for o in s) / sum(o.seconds for o in s),
                     "1/s", len(s)))
        for suite, group in _by(s, lambda o: o.op.kind).items():
            rows.append((f"verify_trials_per_s[{suite}]",
                         sum(o.units for o in group) / sum(o.seconds for o in group),
                         "1/s", len(group)))
    elif workload == "scale":
        for kind, group in _by(s, lambda o: o.op.kind).items():
            us = [_unit_us(o) for o in group]
            for q in (0.5, 0.9):
                rows.append((f"{kind}_us_per_node.p{int(q * 100)}", quantile(us, q), "us", len(us)))
    else:
        ms = [o.seconds * 1e3 for o in s]
        for q in (0.5, 0.9):
            rows.append((f"cli_ms.p{int(q * 100)}", quantile(ms, q), "ms", len(ms)))
        for kind, group in _by(s, lambda o: o.op.kind).items():
            rows.append((f"cli_ms.p50[{kind}]", quantile([o.seconds * 1e3 for o in group], 0.5),
                         "ms", len(group)))
    return rows


def print_report(workload, seed, tally, probe_tally, probe_rows, setup, passes) -> None:
    from harness import FAIL_KINDS, best_per_op, quantile
    print(f"== workload {workload}  seed {seed}  timed passes {passes}  "
          f"timed op executions {tally.attempted}")
    print(f"{'metric':44s} {'value':>14s} {'unit':6s} {'samples':>8s}")
    for name, value, unit, n in workload_report(workload, tally, setup):
        print(f"{name:44s} {value:14.6g} {unit:6s} {n:8d}")
    attempted = tally.attempted + probe_tally.attempted
    failed = tally.n_failed + probe_tally.n_failed
    print(f"{'fail_ratio':44s} {failed / attempted:14.6g} {'ratio':6s} {attempted:8d}")
    for label, t in (("timed", tally), ("probes", probe_tally)):
        kinds = ", ".join(f"{k} {t.failed[k]}" for k in FAIL_KINDS)
        print(f"failures[{label}]: {t.n_failed} of {t.attempted} ({kinds})")
    if workload == "scale" and tally.samples:
        print("per program (fastest us per node):")
        by_prog = _by(best_per_op(tally.samples), lambda o: o.op.program)
        for prog, group in by_prog.items():
            cells = " ".join(f"{k}={quantile([_unit_us(o) for o in g], 0.5):.4g}"
                             for k, g in _by(group, lambda o: o.op.kind).items())
            print(f"  {prog:16s} {cells}")
    if probe_rows:
        print("probes (known seed-commit failures and family members above n = 100):")
        for o in probe_rows:
            status = o.fail or f"ok {o.seconds * 1e3:.1f} ms"
            why = o.op.known_failure or ""
            print(f"  {o.op.program:16s} {o.op.kind:20s} {status:10s} {o.detail[:90]}"
                  + (f"  [known: {why[:80]}]" if why and o.fail else ""))
    for (prog, kind), detail in list(tally.first_failures.items())[:20]:
        print(f"  timed failure: {prog} {kind}: {detail[:160]}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import best_per_op, measure
    import workloads as w
    os.makedirs(OUT, exist_ok=True)
    timed, probes = build_ops(workload, seed)
    shuffle = workload != "gate"
    if not trace:
        # Set-up children run between passes, spread over the timed window,
        # so that they sample the same drift in machine speed as the ops.
        setup: list = []
        start = time.perf_counter()

        def between_passes(wall, i):
            slot = len(setup) * seconds / SETUP_RUNS
            if len(setup) < SETUP_RUNS and time.perf_counter() - start >= slot:
                setup.append(setup_once(workload))

        tally = measure(timed, seconds, seed, OP_DEADLINE_S, shuffle, on_pass=between_passes)
        setup += [setup_once(workload) for _ in range(SETUP_RUNS - len(setup))]
        passes = len(tally.samples) // max(len(timed), 1)
        probe_tally, probe_rows = run_probes(probes)
        print_report(workload, seed, tally, probe_tally, probe_rows, setup, passes)
        metrics = {"setup_s": (statistics.median(setup), "s")}
        if tally.samples:
            metrics.update(_summary(best_per_op(tally.samples)))
    else:
        from tracer import Tracer
        tr = Tracer()
        walls: dict = {False: [], True: []}
        tr.install([w])
        try:
            tally = measure(timed, seconds, seed, OP_DEADLINE_S, shuffle, min_passes=2,
                            tracer_for_pass=lambda i: tr if i % 2 else None,
                            on_pass=lambda wall, i: walls[bool(i % 2)].append(wall))
        finally:
            tr.uninstall()
        overhead = statistics.mean(walls[True]) / statistics.mean(walls[False]) - 1
        metrics = tr.per_layer(len(walls[True]), overhead)
        path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
        tr.write_spans(path, workload, seed)
        print(f"== workload {workload}  seed {seed}  traced passes {len(walls[True])}  "
              f"untraced passes {len(walls[False])}  tracing overhead {overhead:.3f}")
        print(f"spans written to {os.path.relpath(path, ROOT)} ({len(tr.spans)} kept, "
              f"{tr.dropped} dropped)")
        for name, (value, unit) in metrics.items():
            if value:
                print(f"  {name:48s} {value:14.6g} {unit}")
    return {
        "correct": tally.n_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # keep the report if a run dies
    faulthandler.enable()
    _import_purify()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
