"""Command-line entry point: check, translate, analyze, run, laws, suite."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .check import TypeEnv, typecheck
from .metrics import dyn_span, dyn_work, simulate_latency, span, to_dot, work
from .pretty import pretty
from .propcheck import SUITE_NAMES, GenConfig, run_suite
from .semantics import (
    ABSENT, builtin_monads, check_laws, evaluate, make_const_env,
    mixed_order_writer, render_value,
)
from .surface import elaborate, parse
from .terms import PurifyError, SRC, TGT, type_name
from .translate import naive_translate, normalize, opt_translate, seq_translate

DEFAULT_LATENCY_MS = 100.0


def _load_program(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PurifyError(f"{path}: not UTF-8 text ({exc})") from None
    prog = parse(text)
    sig, body = elaborate(prog)
    ty = typecheck(body, SRC, TypeEnv(sig))
    return sig, body, ty


def _load_config(path: Optional[str], sig) -> dict:
    """Read and validate an effect-behavior config; problems are diagnostics."""
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise PurifyError(f"config {path}: malformed JSON ({exc})") from None
    if not isinstance(config, dict):
        raise PurifyError(f"config {path}: top level must be a JSON object")
    declared = set(sig.effectful_names())
    for section in ("latency_ms", "behavior"):
        entries = config.get(section, {})
        if not isinstance(entries, dict):
            raise PurifyError(f"config section {section!r} must be a JSON object")
        for name in entries:
            if name not in declared:
                raise PurifyError(
                    f"config names an undeclared effect {name!r} in {section}"
                )
    for name, ms in config.get("latency_ms", {}).items():
        if isinstance(ms, bool) or not isinstance(ms, (int, float)) or not ms >= 0:
            raise PurifyError(f"latency for {name!r} must be a nonnegative number")
    for name, behavior in config.get("behavior", {}).items():
        if not isinstance(behavior, dict):
            raise PurifyError(f"behavior for {name!r} must be a JSON object")
    return config


def _monad_by_name(name: str):
    for m in builtin_monads():
        if m.name == name:
            return m
    if name == mixed_order_writer().name:
        return mixed_order_writer()
    raise PurifyError(f"unknown monad {name!r}")


def _require_positive(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise PurifyError(f"--{name} must be at least 1, got {getattr(args, name)}")


def cmd_check(args) -> int:
    sig, body, ty = _load_program(args.file)
    print(type_name(ty))
    return 0


def cmd_translate(args) -> int:
    sig, body, _ = _load_program(args.file)
    if args.mode == "opt":
        out = opt_translate(body)
    elif args.mode == "naive":
        out = naive_translate(body)
    else:
        out = seq_translate(body)
    if args.normalize:
        out = normalize(out, reassoc=args.reassoc)
    typecheck(out, TGT, TypeEnv(sig))
    print(pretty(out))
    return 0


def cmd_analyze(args) -> int:
    sig, body, _ = _load_program(args.file)
    env = TypeEnv(sig)
    opt = opt_translate(body)
    naive = naive_translate(body)
    seq = seq_translate(body)
    for t in (opt, naive, seq):
        typecheck(t, TGT, env)
    stats = {
        "v": 1,
        "span_src": span(body, sig),
        "work_src": work(body, sig),
        "span_opt": span(opt, sig),
        "work_opt": work(opt, sig),
        "span_naive": span(naive, sig),
        "work_naive": work(naive, sig),
        "span_seq": span(seq, sig),
        "work_seq": work(seq, sig),
    }
    if args.json:
        print(json.dumps(stats))
    else:
        for key in ("src", "opt", "naive", "seq"):
            print(f"{key}: span={stats['span_' + key]} work={stats['work_' + key]}")
    return 0


def cmd_run(args) -> int:
    sig, body, ty = _load_program(args.file)
    config = _load_config(args.config, sig)
    m = _monad_by_name(args.monad)
    env = make_const_env(sig, m, config.get("behavior"))
    action = evaluate(body, SRC, m, env)

    out: dict = {"v": 1, "monad": m.name}
    if m.name == "option":
        if action is ABSENT:
            out["absent"] = True
        else:
            out["absent"] = False
            out["value"] = render_value(action)
    elif m.name == "state":
        value, final_state = action(0)
        out["value"] = render_value(value)
        out["final_state"] = final_state
    elif m.name.startswith("writer"):
        value, log = action
        out["value"] = render_value(value)
        out["log"] = list(log)
    elif m.name == "trace":
        out["value"] = render_value(action.result)
        out["dyn_span"] = dyn_span(action)
        out["dyn_work"] = dyn_work(action)
        latency_cfg = config.get("latency_ms", {})
        latencies = {
            name: float(latency_cfg.get(name, DEFAULT_LATENCY_MS))
            for name in sig.effectful_names()
        }
        out["latency_ms"] = simulate_latency(action, latencies)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(to_dot(action) + "\n")
            out["dot"] = args.dot
    else:
        out["value"] = f"<{m.name} action>"

    if args.json:
        print(json.dumps(out))
    else:
        for k, v in out.items():
            if k == "v":
                continue
            print(f"{k}: {v}")
    return 0


def cmd_laws(args) -> int:
    _require_positive(args, "trials")
    m = _monad_by_name(args.monad)
    report = check_laws(m, args.trials, args.seed)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        for law in report.passes:
            fails = report.failures[law]
            status = "pass" if not fails else f"FAIL ({len(fails)} shown)"
            print(f"{law}: {report.passes[law]}/{report.trials} {status}")
    return 0 if report.all_passed else 2


def cmd_suite(args) -> int:
    _require_positive(args, "trials", "depth")
    cfg = GenConfig(max_depth=args.depth, seed=args.seed)
    report = run_suite(args.name, cfg, args.trials)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"suite {report.suite}: {report.passes}/{report.trials} passed")
        for f in report.failures[:10]:
            print(f"  seed={f['seed']} term={f['term_pretty']}: {f['detail']}")
    return 0 if report.all_passed else 2


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="purify",
        description="Compile direct-style effect programs to applicative/monadic "
                    "combinators and check the translation's guarantees.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="parse, elaborate and typecheck a program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("translate", help="print the combinator translation")
    p.add_argument("file")
    p.add_argument("--mode", choices=("opt", "naive", "seq"), default="opt")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--reassoc", action="store_true",
                   help="enable the ap-composition reassociation rule")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("analyze", help="span/work of source and translations")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("run", help="evaluate a program under a monad")
    p.add_argument("file")
    p.add_argument("--monad", required=True,
                   choices=("option", "state", "writer", "trace", "writer-rtl"))
    p.add_argument("--config", help="effect-behavior config (JSON)")
    p.add_argument("--dot", help="write the trace DAG as graphviz (trace only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("laws", help="check the seven monad laws")
    p.add_argument("--monad", required=True,
                   choices=("option", "state", "writer", "trace", "writer-rtl"))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("suite", help="run a property suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PurifyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
