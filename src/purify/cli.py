"""Command-line entry point: check, translate, analyze, run, laws, suite.

A command reaches its layers through the package's lazy namespace, so a
one-shot process compiles only the ones it runs: ``check`` loads surface
and check, ``translate`` adds translate, ``analyze`` translate and metrics,
``run`` semantics and metrics; ``laws`` loads semantics, ``suite``
propcheck.  ``json`` loads only for ``--json`` and ``--config``.

The command line is read against one grammar table, ``COMMANDS``, by a
small reader that follows argparse's rules without importing argparse."""

from __future__ import annotations

import gc
import re
import sys
from types import SimpleNamespace
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
    cfg = purify.propcheck.GenConfig(max_depth=args.depth, seed=args.seed)
    report = purify.propcheck.run_suite(args.name, cfg, args.trials)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"suite {report.suite}: {report.passes}/{report.trials} passed")
        for f in report.failures[:10]:
            print(f"  seed={f['seed']} term={f['term_pretty']}: {f['detail']}")
    return 0 if report.all_passed else 2


# The grammar.  Each command has its handler, its help and its arguments in
# argparse's order: a positional is named without dashes.  An argument is
# (kind, default) or, for an int with a floor, (int, default, least); its kind
# is bool for a flag, int, str, or a table of choices, and a REQUIRED default
# must be given.
REQUIRED, _HELP = object(), ("help", None)
DESCRIPTION = ("Compile direct-style effect programs to applicative/monadic combinators\n"
               "and check the translation's guarantees.  -h/--help after a command\n"
               "describes it.")
_FILE, _MONAD, _JSON = (str, REQUIRED), (MONAD_NAMES, REQUIRED), (bool, False)
COMMANDS = {
    "check": (cmd_check, "parse, elaborate and typecheck a program", {"file": _FILE}),
    "translate": (cmd_translate, "print the combinator translation", {
        "file": _FILE, "--mode": (TRANSLATIONS, "opt"), "--normalize": (bool, False)}),
    "analyze": (cmd_analyze, "span/work of source and translations",
                {"file": _FILE, "--json": _JSON}),
    "run": (cmd_run, "evaluate a program under a monad; --config reads an effect-behavior "
            "config (JSON), --dot writes the trace DAG as graphviz (trace only)", {
                "file": _FILE, "--monad": _MONAD, "--config": (str, None),
                "--dot": (str, None), "--json": _JSON}),
    "laws": (cmd_laws, "check the ten monad laws", {
        "--monad": _MONAD, "--trials": (int, 1000, 1), "--seed": (int, 0), "--json": _JSON}),
    "suite": (cmd_suite, "run a property suite; NAME is one of " + ", ".join(SUITE_NAMES), {
        "name": (SUITE_NAMES, REQUIRED), "--trials": (int, 500, 1), "--depth": (int, 5, 1),
        "--seed": (int, 0), "--json": _JSON}),
}


def _level(arguments: dict) -> tuple:
    """A level of the grammar as the reader walks it: its arguments by name,
    -h/--help first as argparse lists them; the positional's name; each
    field's default; and each int's floor."""
    spec = {"-h": _HELP, "--help": _HELP, **arguments}
    return (spec, next((name for name in spec if name[0] != "-"), None),
            {name.lstrip("-"): arg[1] for name, arg in spec.items() if arg is not _HELP},
            [(name, arg[2]) for name, arg in spec.items() if arg[2:]])


_LEVELS = {None: _level({}), **{cmd: _level(row[2]) for cmd, row in COMMANDS.items()}}
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")  # argparse reads these as values


def _synopsis(cmd: str) -> str:
    """A command's grammar in one line, as README.md's CLI block gives it."""
    words = ["purify", cmd]
    for name, (kind, default, *_) in COMMANDS[cmd][2].items():
        word = (name.upper() if name[0] != "-" else name if kind is bool else
                f"{name} " + ("|".join(kind) if isinstance(kind, tuple) else name[2:].upper()))
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _usage(cmd: Optional[str] = None) -> str:
    return f"usage: {_synopsis(cmd) if cmd else 'purify ' + '|'.join(COMMANDS) + ' ...'}\n"


def _fail(cmd: Optional[str], message: str):
    """A malformed command line: the usage line, then ``main``'s one error
    line and exit code 1, as argparse's own code 2 marks property failures."""
    sys.stderr.write(_usage(cmd))
    raise PurifyError(message)


def _option(word: str, cmd: Optional[str]):
    """How argparse reads ``word`` at ``cmd``'s level: None for a value, else
    the option's name (None if it has none) and its ``=value`` or None."""
    options = _LEVELS[cmd][0]
    if len(word) < 2 or word[0] != "-":
        return None
    if word in options:
        return word, None
    name, eq, value = word.partition("=")
    if eq and name in options:
        return name, value
    if word[1] == "-":  # a long option by any unambiguous prefix
        found = [option for option in options if option.startswith(name)]
        if len(found) > 1:
            _fail(cmd, f"ambiguous option: {word} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif word[1] == "h":
        return "-h", word[2:]
    return None if _NUMBER.match(word) or " " in word else (None, None)


def _value(cmd: Optional[str], name: str, kind, word: Optional[str]):
    """What ``word`` gives the argument ``name`` of ``kind``.  A flag's word
    is its ``=value``, which argparse refused, but it read ``-hh`` as
    ``-h -h``; -h/--help prints help and exits 0."""
    if kind in (bool, "help"):
        if name == "-h" and word:
            word = word.lstrip("h") or None
        if word is not None:
            shown = "-h/--help" if kind == "help" else name
            _fail(cmd, f"argument {shown}: ignored explicit argument {word!r}")
        if kind == "help":
            text = COMMANDS[cmd][1] if cmd else "\n".join(
                [DESCRIPTION, ""] + [f"  {_synopsis(c)}\n      {row[1]}" for c, row in COMMANDS.items()])
            try:
                sys.stdout.write(f"{_usage(cmd)}\n{text}\n")
            except OSError:  # as argparse did: help cut short by a closed pipe still exits 0
                pass
            raise SystemExit(0)
        return True
    if kind is int:
        try:
            return int(word)
        except ValueError:
            _fail(cmd, f"argument {name}: invalid int value: {word!r}")
    if kind is not str and word not in kind:
        _fail(cmd, f"argument {name}: invalid choice: {word!r} "
                   f"(choose from {', '.join(map(repr, kind))})")
    return word


def _read(argv: list[str]) -> SimpleNamespace:
    """Read a command line as argparse read this grammar: options before or
    after the positional, as ``--opt value``, ``--opt=value`` or by a unique
    prefix; a negative number is a value and ``--`` ends the options; -h
    prints help and exits 0.  A malformed line fails in argparse's words."""
    at, extras, cmd = 0, [], None
    # before the command only -h/--help is known; an unknown option waits in extras
    while at < len(argv) and argv[at] != "--" and (hit := _option(argv[at], None)):
        if hit[0] is None:
            extras.append(argv[at])
        else:
            _value(None, hit[0], "help", hit[1])
        at += 1
    if argv[at:] in ([], ["--"]):
        _fail(None, "the following arguments are required: cmd")
    cmd = _value(None, "cmd", COMMANDS, argv[at])  # argparse read a "--" here as the command
    spec, positional, defaults, floors = _LEVELS[cmd]
    argv, args = argv[at + 1:], dict(defaults)
    end = argv.index("--") if "--" in argv else len(argv)  # every later word is a value
    # argparse read every word before it took any, so an ambiguous prefix fails first
    hits = [_option(word, cmd) for word in argv[:end]] + [None] * (len(argv) - end)
    k = 0
    while k < len(argv):
        if hits[k] is None:
            if positional and (k != end or k + 1 < len(argv)):
                k += k == end  # argparse's pattern for a positional: ["--"] value ["--"]
                args[positional] = _value(cmd, positional, spec[positional][0], argv[k])
                k += k + 1 == end
                positional = None
            else:
                extras.append(argv[k])
        elif hits[k][0] is None:
            extras.append(argv[k])
        else:
            name, value = hits[k]
            if value is None and spec[name][0] not in (bool, "help"):
                k += 1
                if k == len(argv) or k == end or hits[k] is not None:
                    _fail(cmd, f"argument {name}: expected one argument")
                value = argv[k]
            args[name[2:]] = _value(cmd, name, spec[name][0], value)
        k += 1
    if REQUIRED in args.values():
        _fail(cmd, "the following arguments are required: " + ", ".join(
            name for name in spec if args.get(name.lstrip("-")) is REQUIRED))
    if extras:
        _fail(cmd, "unrecognized arguments: " + " ".join(extras))
    for name, least in floors:
        if args[name[2:]] < least:
            raise PurifyError(f"{name} must be at least {least}, got {args[name[2:]]}")
    return SimpleNamespace(cmd=cmd, fn=COMMANDS[cmd][0], **args)


def main(argv: Optional[list[str]] = None) -> int:
    collecting = gc.isenabled()
    try:
        args = _read(sys.argv[1:] if argv is None else list(argv))
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
