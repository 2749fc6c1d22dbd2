"""The three workloads as lists of ops over seeded inputs.

gate   the theorem suites, in chunks of trials, at the acceptance depths and
       seeds (offset by --seed);
scale  the demo programs and four generated families at n = 10..10 000,
       each through compile / analyze / normalize / run / agree;
cli    in-process ``purify.cli.main`` over the demos and the n = 10 family
       members, every command.

Each op's output is checked against a reference from ``families`` or a
known verdict (every suite trial passes), never against purify's own output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from purify.cli import main
from purify.check import TypeEnv, typecheck
from purify.metrics import dyn_span, dyn_work, simulate_latency, span, work
from purify.pretty import pretty
from purify.propcheck import GenConfig, run_suite
from purify.semantics import (
    actions_agree, builtin_monads, evaluate, make_const_env, render_value,
)
from purify.surface import elaborate, parse, parse_target_expr
from purify.terms import (
    App, Ap, COM, Const, Join, Lam, Map, SRC, TGT, Var, alpha_eq, size, type_name,
)
from purify.translate import naive_translate, normalize, opt_translate, seq_translate

import families
from harness import Op

# -- gate ---------------------------------------------------------------------

# suite -> (depth, acceptance seed, acceptance trials).  effect_free and
# baseline are not in tests/test_acceptance.py: both use depth 5, effect_free
# the relabel seed and baseline the seed of criterion 8, whose trial terms
# are exactly baseline's.  For laws, trials are per monad.
GATE_SUITES = {
    "types": (6, 31, 10_000),
    "semantics": (5, 41, 2_000),
    "span_work": (6, 51, 10_000),
    "smart_ctors": (4, 61, 5_000),
    "relabel": (5, 71, 5_000),
    "effect_free": (5, 71, 5_000),
    "laws": (5, 81, 1_000),
    "normalize": (5, 101, 2_000),
    "baseline": (5, 81, 2_000),
}
GATE_CHUNK = 25          # trials per op
GATE_FRACTION = 20       # one pass runs 1/20 of the acceptance trial counts
CHUNK_SEED_STRIDE = 100_000


def gate_ops(seed: int) -> list[Op]:
    """Chunk k of a suite runs seed ``acceptance + seed + k * stride``; with
    seed 0, chunk 0 reproduces the first trials of the acceptance gate."""
    ops = []
    for name, (depth, acc_seed, acc_trials) in GATE_SUITES.items():
        per_monad = len(builtin_monads()) if name == "laws" else 1
        for k in range(max(1, acc_trials // GATE_FRACTION // GATE_CHUNK)):
            cfg = GenConfig(max_depth=depth, seed=acc_seed + seed + k * CHUNK_SEED_STRIDE)
            ops.append(Op(
                id=len(ops), kind=name, program=f"{name}#{k}",
                units=lambda _c, p=per_monad: GATE_CHUNK * p,
                prepare=lambda c=cfg: c,
                body=lambda c, n=name: run_suite(n, c, GATE_CHUNK),
                check=_check_suite,
            ))
    return ops


def _check_suite(cfg, report):
    want = len(builtin_monads()) if report.suite == "laws" else GATE_CHUNK
    if report.failures or report.passes != want:
        return f"{report.passes}/{report.trials} passed: {report.failures[:1]}"
    return None


# -- scale --------------------------------------------------------------------

# Ops whose check fails at the seed commit, keyed by (workload, family or
# demo name, op kind), with the defect.  They run once per run as probes and
# are reported by failure kind; the timed loop, whose every op must succeed,
# leaves them out.
_LET_SUGAR = ("the let-bound fetch is printed and runs once, but the static "
              "span/work of the opt and seq targets is 0/0 instead of 1/1")
_DEEP_NORMALIZE = ("normalize drops one level of the fetch chain from the static "
                   "span/work (n-1) while the trace still has n")
KNOWN_FAILURES = {
    ("scale", "let_sugar", "compile"): _LET_SUGAR,
    ("scale", "let_sugar", "analyze"): _LET_SUGAR,
    ("scale", "let_sugar", "normalize"): _LET_SUGAR,
    ("scale", "deep", "normalize"): _DEEP_NORMALIZE,
    ("cli", "let_sugar", "translate-opt"): _LET_SUGAR,
    ("cli", "let_sugar", "translate-seq"): _LET_SUGAR,
    ("cli", "let_sugar", "translate-normalize"): _LET_SUGAR,
    ("cli", "let_sugar", "analyze"): _LET_SUGAR,
    ("cli", "deep", "translate-normalize"): _DEEP_NORMALIZE,
}


def _known(workload: str, prog: families.Program, kind: str):
    return KNOWN_FAILURES.get((workload, prog.family or prog.name, kind))


def scale_programs(root: str, seed: int) -> list[families.Program]:
    word = families.payload_word(seed)
    return families.demo_programs(root) + [
        families.family_program(f, n, word) for f in families.FAMILIES for n in families.SIZES
    ]


class Prepared:
    """Lazily built inputs of one program, shared by its ops (not timed)."""

    def __init__(self, prog: families.Program):
        self.prog = prog
        self._cache: dict = {}

    def _get(self, key, build):
        if key not in self._cache:
            try:
                self._cache[key] = (build(), None)
            except Exception as exc:
                self._cache[key] = (None, exc)
        value, exc = self._cache[key]
        if exc is not None:
            raise exc
        return value

    def source(self):
        """(sig, body, type): the elaborated, checked source term."""
        def build():
            sig, body = elaborate(parse(self.prog.text))
            return sig, body, typecheck(body, SRC, TypeEnv(sig))
        return self._get("source", build)

    def nodes(self) -> int:
        return self._get("nodes", lambda: size(self.source()[1]))

    def opt(self):
        return self._get("opt", lambda: opt_translate(self.source()[1]))

    def envs(self):
        """[(monad, constant environment)] for the four builtin monads."""
        sig = self.source()[0]
        return self._get("envs", lambda: [(m, make_const_env(sig, m)) for m in builtin_monads()])

    def ready(self, kind: str) -> "Prepared":
        """Build, outside the timed body, every input an op of ``kind`` reads."""
        self.nodes()
        if kind in ("normalize", "agree"):
            self.opt()
        if kind in ("run", "agree"):
            self.envs()
        return self


def _latencies(sig) -> dict:
    return {name: families.DEFAULT_LATENCY_MS for name in sig.effectful_names()}


def _sw(t, sig) -> tuple[int, int]:
    return span(t, sig), work(t, sig)


def _compile(p: Prepared):
    sig, body = elaborate(parse(p.prog.text))
    env = TypeEnv(sig)
    ty = typecheck(body, SRC, env)
    opt = opt_translate(body)
    typecheck(opt, TGT, env)
    return sig, ty, opt, pretty(opt)


def _check_compile(p: Prepared, out):
    sig, ty, opt, text = out
    prog = p.prog
    if type_name(ty) != prog.type_name:
        return f"type {type_name(ty)}, want {prog.type_name}"
    if _sw(opt, sig) != (prog.span, prog.work):
        return f"opt span/work {_sw(opt, sig)}, want {(prog.span, prog.work)}"
    if text.count("fetch(") != prog.work:  # every fetch call is printed once
        return f"printed translation has {text.count('fetch(')} fetch calls, want {prog.work}"
    if prog.name == "nested_chains":
        if text != families.NESTED_CHAINS_OPT:
            return "translation text differs from the README"
        if not alpha_eq(opt, _criterion2_expected()):
            return "translation differs from acceptance criterion 2"
    return None


def _criterion2_expected():
    """The combinator form of nested_chains given in acceptance criterion 2."""
    def chain(url):
        call = App(Const("fetch", label=TGT), Const(url, label=TGT), label=TGT)
        cont = Lam("a", App(Const("fetch", label=COM), Var("a", label=COM), label=COM),
                   label=TGT)
        return Join(Map(cont, call, label=TGT), label=TGT)

    lift = Lam("k", App(Const("concat", label=COM), Var("k", label=COM), label=COM),
               label=TGT)
    return Ap(Map(lift, chain("urlXX"), label=TGT), chain("urlYY"), label=TGT)


def _analyze(p: Prepared):
    sig, body, _ = p.source()
    out = {"v": 1, "span_src": span(body, sig), "work_src": work(body, sig)}
    for key, tr in (("opt", opt_translate), ("naive", naive_translate),
                    ("seq", seq_translate)):
        t = tr(body)
        out[f"span_{key}"], out[f"work_{key}"] = _sw(t, sig)
    return out


def _check_analyze(p: Prepared, out):
    want = p.prog.expected_analysis()
    return None if out == want else f"got {out}, want {want}"


def _normalize(p: Prepared):
    return normalize(p.opt())


def _check_normalize(p: Prepared, out):
    sig = p.source()[0]
    typecheck(out, TGT, TypeEnv(sig))
    want = (p.prog.span, p.prog.work)
    return None if _sw(out, sig) == want else f"span/work {_sw(out, sig)}, want {want}"


def _trace_env(p: Prepared):
    return next(e for e in p.envs() if e[0].name == "trace")


def _run(p: Prepared):
    sig, body, _ = p.source()
    m, env = _trace_env(p)
    d = evaluate(body, SRC, m, env)
    return render_value(d.result), dyn_span(d), dyn_work(d), simulate_latency(d, _latencies(sig))


def _check_run(p: Prepared, out):
    prog = p.prog
    want = (families.reference_run(prog.tree, "trace")["value"], prog.span, prog.work,
            prog.latency_ms)
    if out != want:
        return f"value/span/work/latency: got {_clip(out)}, want {_clip(want)}"
    if prog.name == "nested_chains":
        return _criterion9(p)
    return None


def _clip(x) -> str:
    s = json.dumps(x)
    return s if len(s) < 160 else s[:157] + "..."


def _criterion9(p: Prepared):
    """Acceptance criterion 9: opt runs in 200 ms, seq in 400 ms, and the
    dynamic span/work of both equals the static."""
    sig, body, _ = p.source()
    m, env = _trace_env(p)
    for tr, ms in ((opt_translate, 200.0), (seq_translate, 400.0)):
        t = tr(body)
        d = evaluate(t, TGT, m, env).action
        if simulate_latency(d, {"fetch": 100.0}) != ms or (dyn_span(d), dyn_work(d)) != _sw(t, sig):
            return f"criterion 9 fails for {tr.__name__}"
    return None


def _agree(p: Prepared):
    _, body, ty = p.source()
    opt = p.opt()
    return [
        actions_agree(ty, m, evaluate(opt, TGT, m, env).action,
                      evaluate(body, SRC, m, env))
        for m, env in p.envs()
    ]


def _check_agree(p: Prepared, out):
    names = [m.name for m, _ in p.envs()]
    bad = [n for n, ok in zip(names, out) if not ok]
    return f"source and opt target disagree under {bad}" if bad else None


SCALE_OPS = {
    "compile": (_compile, _check_compile),
    "analyze": (_analyze, _check_analyze),
    "normalize": (_normalize, _check_normalize),
    "run": (_run, _check_run),
    "agree": (_agree, _check_agree),
}


def scale_ops(root: str, seed: int) -> list[Op]:
    ops = []
    for prog in scale_programs(root, seed):
        p = Prepared(prog)
        for kind, (body, check) in SCALE_OPS.items():
            ops.append(Op(
                id=len(ops), kind=kind, program=prog.name,
                units=lambda p_: p_.nodes(), prepare=lambda p_=p, k=kind: p_.ready(k),
                body=body, check=check,
                known_failure=_known("scale", prog, kind),
            ))
    return ops


def program_size(name: str) -> int:
    """n of a family member named ``family-n``; 0 for the demos."""
    tail = name.rsplit("-", 1)[-1]
    return int(tail) if "-" in name and tail.isdigit() else 0


def is_frontier(op: Op) -> bool:
    """Family members above n = 100: the seed commit's recursion limits."""
    return program_size(op.program) > 100


# -- cli ----------------------------------------------------------------------

MONADS = ("option", "state", "writer", "writer-rtl", "trace")
CLI_LATENCIES = (50.0, 75.0, 100.0, 150.0, 250.0)


def cli_commands(path: str, config: str) -> list[tuple[str, list[str]]]:
    cmds = [("check", ["check", path])]
    for mode in ("opt", "naive", "seq"):
        cmds.append((f"translate-{mode}", ["translate", path, "--mode", mode]))
    cmds.append(("translate-normalize", ["translate", path, "--normalize"]))
    cmds.append(("analyze", ["analyze", path, "--json"]))
    for m in MONADS:
        cmds.append((f"run-{m}", ["run", path, "--monad", m, "--json"]))
    cmds.append(("run-trace-config", ["run", path, "--monad", "trace", "--config", config,
                                      "--json"]))
    return cmds


def _call_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _check_cli(prog: families.Program, kind: str, latency: float):
    sig: list = []   # the program's signature, parsed on first use

    def check(_argv, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if kind == "check":
            return None if text.strip() == prog.type_name else f"type {text.strip()!r}"
        if kind.startswith("translate"):
            if not sig:
                sig.append(elaborate(parse(prog.text))[0])
            term = parse_target_expr(text.strip(), sig[0])
            want = (prog.work, prog.work) if kind == "translate-seq" else (prog.span, prog.work)
            if _sw(term, sig[0]) != want:
                return f"span/work {_sw(term, sig[0])}, want {want}"
            if kind == "translate-opt" and prog.name == "nested_chains" \
                    and text.strip() != families.NESTED_CHAINS_OPT:
                return "translation text differs from the README"
            return None
        got = json.loads(text)
        if kind == "analyze":
            want = prog.expected_analysis()
        else:
            monad = kind[len("run-"):].replace("-config", "")
            want = families.reference_run(prog.tree, monad)
            if kind == "run-trace-config":
                want["latency_ms"] = prog.span * latency
        return None if got == want else f"got {_clip(got)}, want {_clip(want)}"

    return check


def cli_ops(root: str, seed: int, workdir: str) -> list[Op]:
    """Programs are written under ``workdir``; the latency config's value is
    drawn from the seed."""
    os.makedirs(workdir, exist_ok=True)
    latency = random.Random(f"latency-{seed}").choice(CLI_LATENCIES)
    config = os.path.join(workdir, "latency.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"latency_ms": {"fetch": latency}}, fh)
    word = families.payload_word(seed)
    programs = families.demo_programs(root) + [
        families.family_program(f, 10, word) for f in families.FAMILIES
    ]
    ops = []
    for prog in programs:
        path = os.path.join(workdir, f"{prog.name}.pfy")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(prog.text)
        for kind, argv in cli_commands(path, config):
            ops.append(Op(
                id=len(ops), kind=kind, program=prog.name,
                units=lambda _a: 1, prepare=lambda a=argv: a,
                body=_call_main, check=_check_cli(prog, kind, latency),
                known_failure=_known("cli", prog, kind),
            ))
    return ops
