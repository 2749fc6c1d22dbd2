"""Command-line entry point: check, translate, analyze, run, laws, suite.

A command reaches its layers through the package's lazy namespace, so a
one-shot process compiles only the ones it runs: ``check`` loads surface
and check, ``translate`` adds translate, ``analyze`` translate and metrics,
``run`` semantics and metrics; ``laws`` loads semantics, ``suite``
propcheck.  ``json`` loads only for ``--json`` and ``--config``."""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from typing import Optional

import purify

from .pretty import pretty
from .terms import PurifyError, SRC, TGT, type_name

DEFAULT_LATENCY_MS = 100.0
CONFIG_SECTIONS = ("latency_ms", "behavior")
# the grammar's choices, which tests tie to the layers' own tables
TRANSLATIONS = ("opt", "naive", "seq")  # translate.{mode}_translate
MONAD_NAMES = ("option", "state", "writer", "trace", "writer-rtl")  # semantics.MONADS
SUITE_NAMES = ("types", "semantics", "span_work", "smart_ctors", "relabel",
               "effect_free", "laws", "normalize", "baseline")  # propcheck.SUITE_NAMES


def _load_program(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is no token
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PurifyError(f"{path}: not UTF-8 text ({exc})") from None
    sig, body = purify.surface.elaborate(purify.surface.parse(text))
    ty = purify.check.typecheck(body, SRC, purify.check.TypeEnv(sig))
    return sig, body, ty


def _print_json(obj) -> None:
    import json  # only the commands that read or print JSON load it
    print(json.dumps(obj))


def _load_config(path: Optional[str], sig) -> dict:
    """Read and validate an effect-behavior config; problems are diagnostics."""
    if not path:
        return {}
    import json
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise PurifyError(f"config {path}: malformed JSON ({exc})") from None
    if not isinstance(config, dict):
        raise PurifyError(f"config {path}: top level must be a JSON object")
    declared = set(sig.effectful_names())
    for section, entries in config.items():
        if section not in CONFIG_SECTIONS:
            raise PurifyError(
                f"config {path}: unknown key {section!r}; "
                f"choose from {', '.join(CONFIG_SECTIONS)}"
            )
        if not isinstance(entries, dict):
            raise PurifyError(f"config section {section!r} must be a JSON object")
        for name in entries:
            if name not in declared:
                raise PurifyError(
                    f"config names an undeclared effect {name!r} in {section}"
                )
    for name, ms in config.get("latency_ms", {}).items():
        if (isinstance(ms, bool) or not isinstance(ms, (int, float))
                or not 0 <= ms <= sys.float_info.max):
            raise PurifyError(f"latency for {name!r} must be a nonnegative number")
    for name, behavior in config.get("behavior", {}).items():
        if not isinstance(behavior, dict):
            raise PurifyError(f"behavior for {name!r} must be a JSON object")
        for key in sorted(behavior.keys() - {"kind", "payload"}):
            raise PurifyError(
                f"behavior for {name!r} has unknown field {key!r}; choose from kind, payload"
            )
        if "kind" in behavior and behavior["kind"] not in purify.semantics.BEHAVIOR_KINDS:
            raise PurifyError(
                f"behavior for {name!r} has unknown kind {behavior['kind']!r}; "
                f"choose from {', '.join(purify.semantics.BEHAVIOR_KINDS)}"
            )
        if not isinstance(behavior.get("payload", ""), str):
            raise PurifyError(f"behavior payload for {name!r} must be a JSON string")
    return config


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
    out = getattr(purify.translate, args.mode + "_translate")(body)
    if args.normalize:
        out = purify.translate.normalize(out)
    purify.check.typecheck(out, TGT, purify.check.TypeEnv(sig))
    print(pretty(out))
    return 0


def cmd_analyze(args) -> int:
    sig, body, _ = _load_program(args.file)
    env = purify.check.TypeEnv(sig)
    terms = {"src": body, **{k: getattr(purify.translate, k + "_translate")(body)
                             for k in TRANSLATIONS}}
    for key in TRANSLATIONS:
        purify.check.typecheck(terms[key], TGT, env)
    stats = {"v": 1}
    for key, t in terms.items():
        stats["span_" + key], stats["work_" + key] = purify.metrics.span_work(t, sig)
    if args.json:
        _print_json(stats)
    else:
        for key in terms:
            print(f"{key}: span={stats['span_' + key]} work={stats['work_' + key]}")
    return 0


def cmd_run(args) -> int:
    if args.dot and args.monad != "trace":
        raise PurifyError("--dot writes the trace DAG; it needs --monad trace")
    sig, body, ty = _load_program(args.file)
    config = _load_config(args.config, sig)
    sem = purify.semantics
    m = sem.MONADS[args.monad]()
    action = sem.evaluate(body, SRC, m, sem.make_const_env(sig, m, config.get("behavior")))

    latency_cfg = config.get("latency_ms", {})
    latencies = {
        name: float(latency_cfg.get(name, DEFAULT_LATENCY_MS))
        for name in sig.effectful_names()
    }
    out: dict = {"v": 1, "monad": m.name, **m.report(action, latencies)}
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(purify.metrics.to_dot(action) + "\n")
        out["dot"] = args.dot

    if args.json:
        _print_json(out)
    else:
        for k, v in out.items():
            if k == "v":
                continue
            print(f"{k}: {v}")
    return 0


def cmd_laws(args) -> int:
    _require_positive(args, "trials")
    sem = purify.semantics
    report = sem.check_laws(sem.MONADS[args.monad](), args.trials, args.seed)
    if args.json:
        _print_json(report.to_dict())
    else:
        for law in report.passes:
            fails = report.failures[law]
            status = "pass" if not fails else f"FAIL ({len(fails)} shown)"
            print(f"{law}: {report.passes[law]}/{report.trials} {status}")
    return 0 if report.all_passed else 2


def cmd_suite(args) -> int:
    _require_positive(args, "trials", "depth")
    cfg = purify.propcheck.GenConfig(max_depth=args.depth, seed=args.seed)
    report = purify.propcheck.run_suite(args.name, cfg, args.trials)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"suite {report.suite}: {report.passes}/{report.trials} passed")
        for f in report.failures[:10]:
            print(f"  seed={f['seed']} term={f['term_pretty']}: {f['detail']}")
    return 0 if report.all_passed else 2


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a diagnostic (exit code 1);
    argparse's own exit code 2 is the code for property failures."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise PurifyError(message)


@functools.cache
def _parser() -> _ArgumentParser:
    """The command-line grammar, built at the first ``main`` call and shared
    by every later one: building it costs far more than parsing an argv."""
    parser = _ArgumentParser(
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
    p.add_argument("--mode", choices=TRANSLATIONS, default="opt")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("analyze", help="span/work of source and translations")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("run", help="evaluate a program under a monad")
    p.add_argument("file")
    p.add_argument("--monad", required=True, choices=MONAD_NAMES)
    p.add_argument("--config", help="effect-behavior config (JSON)")
    p.add_argument("--dot", help="write the trace DAG as graphviz (trace only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("laws", help="check the ten monad laws")
    p.add_argument("--monad", required=True, choices=MONAD_NAMES)
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
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    collecting = gc.isenabled()
    try:
        args = _parser().parse_args(argv)
        if args.cmd in ("check", "translate", "analyze", "run"):
            gc.disable()  # terms are acyclic: the collector would only rescan live ones
        return args.fn(args)
    except (PurifyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of purify itself, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()
