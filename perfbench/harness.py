"""Timing loop, per-op deadline and failure accounting.

An op is one call into purify on prepared inputs: ``prepare`` builds its
inputs (not timed), ``body`` is the timed call, and ``check``
compares the output with a reference and returns an error string or None.
A run is closed-loop and single-threaded: one op at a time.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from purify.terms import PurifyError

FAIL_KINDS = ("diagnostic", "internal", "wrong", "deadline")


class Deadline(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Op:
    id: int
    kind: str          # compile, analyze, ... / suite name / cli command
    program: str       # input name, for the per-row report
    units: Callable[[object], int]   # work units of one call, from the prepared inputs
    prepare: Callable[[], object]    # builds (or fetches cached) inputs
    body: Callable[[object], object]
    check: Callable[[object, object], Optional[str]]
    known_failure: Optional[str] = None   # why it fails at the seed commit


@dataclass
class Outcome:
    op: Op
    seconds: float = 0.0       # timed body only
    units: int = 0
    fail: Optional[str] = None  # one of FAIL_KINDS
    detail: str = ""


def run_op(op: Op, deadline_s: float, tracer=None) -> Outcome:
    """Prepare, time and check one op under an in-process SIGALRM deadline.

    With a tracer, only the timed body is traced; preparation and the
    output check call purify too, and must not count as its work.
    """
    out = Outcome(op)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        inputs = op.prepare()
        if tracer is not None:
            tracer.start_op(op.id)
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = op.body(inputs)
            out.seconds = time.perf_counter() - t0
        finally:
            gc.enable()
            if tracer is not None:
                tracer.stop_op()
        err = op.check(inputs, result)
        out.units = op.units(inputs)
        if err:
            out.fail, out.detail = "wrong", err
    except Deadline:
        out.fail, out.detail = "deadline", f"over {deadline_s:g} s"
    except Exception as exc:  # classify; the benchmark itself must keep running
        out.fail = "diagnostic" if isinstance(exc, PurifyError) else "internal"
        out.detail = f"{type(exc).__name__}: {str(exc)[:120]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return out


@dataclass
class Tally:
    attempted: int = 0
    failed: dict = field(default_factory=lambda: {k: 0 for k in FAIL_KINDS})
    samples: list = field(default_factory=list)   # successful timed outcomes
    first_failures: dict = field(default_factory=dict)  # (program, kind) -> detail

    def add(self, o: Outcome, timed: bool = True) -> None:
        self.attempted += 1
        if o.fail:
            self.failed[o.fail] += 1
            self.first_failures.setdefault((o.op.program, o.op.kind), f"{o.fail}: {o.detail}")
        elif timed:
            self.samples.append(o)

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def measure(ops: list[Op], seconds: float, seed: int, deadline_s: float,
            shuffle: bool, min_passes: int = 1,
            tracer_for_pass: Callable[[int], object] = lambda i: None,
            on_pass: Callable[[float, int], None] = lambda wall, i: None) -> Tally:
    """One untimed warm-up pass, then full passes until ``seconds`` elapse
    and at least ``min_passes`` are done.

    The op order of each pass is drawn from ``seed`` when ``shuffle`` is set.
    ``tracer_for_pass(i)`` gives the tracer of timed pass i, or None, and
    ``on_pass(wall, i)`` is told its wall time.
    """
    rng = random.Random(f"order-{seed}")
    tally = Tally()
    order = list(ops)
    for o in order:
        tally.add(run_op(o, deadline_s), timed=False)
    start, i = time.perf_counter(), 0
    while i < min_passes or time.perf_counter() - start < seconds:
        if shuffle:
            rng.shuffle(order)
        tracer = tracer_for_pass(i)
        t0 = time.perf_counter()
        for o in order:
            tally.add(run_op(o, deadline_s, tracer))
        on_pass(time.perf_counter() - t0, i)
        i += 1
    return tally


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def best_per_op(samples: list) -> list:
    """Each op's fastest timed execution.  The machine is shared, and
    contention only ever adds time, so the minimum over many passes is the
    steadiest estimate of an op's own cost."""
    best: dict = {}
    for o in samples:
        if o.op.id not in best or o.seconds < best[o.op.id].seconds:
            best[o.op.id] = o
    return [best[k] for k in sorted(best)]
