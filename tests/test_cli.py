import argparse
import contextlib
import functools
import io
import json
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import purify.cli as cli
from purify.cli import _usage, main
from purify.semantics import MONADS
from purify.terms import PurifyError

TWO_FETCHES = """prim concat : Str -> Str -> Str
effect fetch : Str -> Eff Str
purify { (fetch("foo")!, fetch("bar")!) }
"""

TWO_CHAINS = """prim concat : Str -> Str -> Str
prim urlXX : Str
prim urlYY : Str
effect fetch : Str -> Eff Str
purify { fetch(fetch(urlXX)!)! ++ fetch(fetch(urlYY)!)! }
"""


@pytest.fixture
def two_fetches_file(tmp_path):
    p = tmp_path / "two.pfy"
    p.write_text(TWO_FETCHES)
    return str(p)


@pytest.fixture
def two_chains_file(tmp_path):
    p = tmp_path / "chains.pfy"
    p.write_text(TWO_CHAINS)
    return str(p)


def test_check_prints_type(two_fetches_file, capsys):
    assert main(["check", two_fetches_file]) == 0
    assert capsys.readouterr().out.strip() == "(Str, Str)"


def test_check_diagnostic_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.pfy"
    p.write_text("purify { ghost }")
    assert main(["check", str(p)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_is_diagnostic(capsys):
    assert main(["check", "/nonexistent/nowhere.pfy"]) == 1


def test_non_utf8_program_is_diagnostic(tmp_path, capsys):
    p = tmp_path / "bytes.pfy"
    p.write_bytes(b"\xff\xfe")
    assert main(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


def test_analyze_json_two_fetches(two_fetches_file, capsys):
    assert main(["analyze", two_fetches_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["v"] == 1
    assert (data["span_src"], data["work_src"]) == (1, 2)
    assert (data["span_opt"], data["work_opt"]) == (1, 2)
    assert (data["span_seq"], data["work_seq"]) == (2, 2)


def test_analyze_json_two_chains(two_chains_file, capsys):
    assert main(["analyze", two_chains_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["span_src"], data["work_src"]) == (2, 4)
    assert (data["span_opt"], data["work_opt"]) == (2, 4)
    assert (data["span_seq"], data["work_seq"]) == (4, 4)


def test_analyze_human_readable(two_fetches_file, capsys):
    assert main(["analyze", two_fetches_file]) == 0
    out = capsys.readouterr().out
    assert "src: span=1 work=2" in out


def test_translate_roundtrip_analysis(two_chains_file, capsys):
    """translate output re-parses and re-analyzes to the same span/work."""
    from purify.check import TypeEnv, typecheck
    from purify.metrics import span, work
    from purify.surface import parse_and_elaborate, parse_target_expr
    from purify.terms import SRC, TGT
    from purify.translate import opt_translate

    assert main(["translate", two_chains_file, "--mode", "opt"]) == 0
    printed = capsys.readouterr().out.strip()
    sig, body = parse_and_elaborate(TWO_CHAINS)
    typecheck(body, SRC, TypeEnv(sig))
    in_memory = opt_translate(body)
    typecheck(in_memory, TGT, TypeEnv(sig))
    back = parse_target_expr(printed, sig)
    typecheck(back, TGT, TypeEnv(sig))
    assert span(back, sig) == span(in_memory, sig)
    assert work(back, sig) == work(in_memory, sig)


def test_translate_modes_differ(two_chains_file, capsys):
    from purify.surface import parse_and_elaborate, parse_target_expr
    from purify.terms import Ap, subterms

    sig, _ = parse_and_elaborate(TWO_CHAINS)
    assert main(["translate", two_chains_file, "--mode", "seq"]) == 0
    seq_out = capsys.readouterr().out.strip()
    assert not any(isinstance(n, Ap) for n in subterms(parse_target_expr(seq_out, sig)))
    assert main(["translate", two_chains_file, "--mode", "naive"]) == 0
    naive_out = capsys.readouterr().out.strip()
    assert any(isinstance(n, Ap) for n in subterms(parse_target_expr(naive_out, sig)))


def test_translate_normalize_flag(two_chains_file, capsys):
    assert main(["translate", two_chains_file, "--mode", "naive", "--normalize"]) == 0
    out = capsys.readouterr().out
    assert "join" in out


def test_reassoc_is_an_unknown_argument(two_chains_file, capsys):
    """The normalizer has no optional rules, so there is no flag to select one."""
    assert main(["translate", two_chains_file, "--reassoc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage = _usage("translate")
    assert usage.startswith("usage: purify ")
    assert captured.err == usage + "error: unrecognized arguments: --reassoc\n"


def test_run_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    p = tmp_path / "quotes.pfy"
    p.write_text('effect fetch : Str -> Eff Str\npurify { (fetch("a\\"b")!, fetch("c\\\\")!) }\n')
    dot_path = tmp_path / "trace.dot"
    assert main(["run", str(p), "--monad", "trace", "--dot", str(dot_path)]) == 0
    assert dot_path.read_text().splitlines() == [
        "digraph trace {", "  graph [v=1];",
        '  n0 [label="fetch(a\\"b)"];', '  n1 [label="fetch(c\\\\)"];', "}",
    ]


def test_run_trace_json(two_chains_file, tmp_path, capsys):
    dot_path = str(tmp_path / "trace.dot")
    assert main(["run", two_chains_file, "--monad", "trace", "--json",
                 "--dot", dot_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dyn_span"] == 2 and data["dyn_work"] == 4
    assert data["latency_ms"] == 200.0
    dot = open(dot_path).read()
    assert dot.startswith("digraph")


def test_run_trace_latency_config(two_chains_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latency_ms": {"fetch": 50}}))
    assert main(["run", two_chains_file, "--monad", "trace", "--json",
                 "--config", str(cfg)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["latency_ms"] == 100.0


def test_run_writer_logs(two_fetches_file, capsys):
    assert main(["run", two_fetches_file, "--monad", "writer", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["log"] == ["fetch(foo)", "fetch(bar)"]


def test_run_state(two_fetches_file, capsys):
    assert main(["run", two_fetches_file, "--monad", "state", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["final_state"] == 2


def test_run_option_with_absent_behavior(two_fetches_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"behavior": {"fetch": {"kind": "absent"}}}))
    assert main(["run", two_fetches_file, "--monad", "option", "--json",
                 "--config", str(cfg)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["absent"] is True


# ``run --json`` for results of every value kind, recorded before guest values
# became host data: (program, {monad: the fields after "v" and "monad"}).
RUN_JSON = {
    "pair": ('effect f : Str -> Eff (Str, Str)\npurify { f("a")! }\n', {
        "option": '"absent": false, "value": "(f(a).1,f(a).2)"',
        "state": '"value": "(f(a)@0.1,f(a)@0.2)", "final_state": 1',
        "writer": '"value": "(f(a).1,f(a).2)", "log": ["f(a)"]',
        "writer-rtl": '"value": "(f(a).1,f(a).2)", "log": ["f(a)"]',
        "trace": '"value": "(f(a).1,f(a).2)", "dyn_span": 1, "dyn_work": 1, "latency_ms": 100.0',
    }),
    "nested-pair": ('effect f : Str -> Eff (Str, Unit)\neffect h : Eff (Unit, (Str, Str))\n'
                    'purify { (f("x")!, h!) }\n', {
        "option": '"absent": false, "value": "((f(x).1,()),((),(h.2.1,h.2.2)))"',
        "state": '"value": "((f(x)@0.1,()),((),(h@1.2.1,h@1.2.2)))", "final_state": 2',
        "writer": '"value": "((f(x).1,()),((),(h.2.1,h.2.2)))", "log": ["f(x)", "h"]',
        "writer-rtl": '"value": "((f(x).1,()),((),(h.2.1,h.2.2)))", "log": ["h", "f(x)"]',
        "trace": '"value": "((f(x).1,()),((),(h.2.1,h.2.2)))", "dyn_span": 1, "dyn_work": 2, '
                 '"latency_ms": 100.0',
    }),
    "function": ("prim p : Str -> Str\npurify { p }\n", {
        "option": '"absent": false, "value": "<fun>"',
        "state": '"value": "<fun>", "final_state": 0',
        "writer": '"value": "<fun>", "log": []',
        "writer-rtl": '"value": "<fun>", "log": []',
        "trace": '"value": "<fun>", "dyn_span": 0, "dyn_work": 0, "latency_ms": 0.0',
    }),
    "action": ("effect e : Eff Str\npurify { e }\n", {
        "option": '"absent": false, "value": "<eff>"',
        "state": '"value": "<eff>", "final_state": 0',
        "writer": '"value": "<eff>", "log": []',
        "writer-rtl": '"value": "<eff>", "log": []',
        "trace": '"value": "<eff>", "dyn_span": 0, "dyn_work": 0, "latency_ms": 0.0',
    }),
    "mixed-pair": ("prim p : Str -> Str\neffect e : Eff Str\npurify { (p, (e, ())) }\n", {
        "option": '"absent": false, "value": "(<fun>,(<eff>,()))"',
        "state": '"value": "(<fun>,(<eff>,()))", "final_state": 0',
        "writer": '"value": "(<fun>,(<eff>,()))", "log": []',
        "writer-rtl": '"value": "(<fun>,(<eff>,()))", "log": []',
        "trace": '"value": "(<fun>,(<eff>,()))", "dyn_span": 0, "dyn_work": 0, "latency_ms": 0.0',
    }),
}


@pytest.mark.parametrize("monad", list(MONADS))
@pytest.mark.parametrize("kind", list(RUN_JSON))
def test_run_json_pins_every_value_kind(tmp_path, capsys, kind, monad):
    text, fields = RUN_JSON[kind]
    p = tmp_path / "prog.pfy"
    p.write_text(text)
    assert main(["run", str(p), "--monad", monad, "--json"]) == 0
    assert capsys.readouterr().out == f'{{"v": 1, "monad": "{monad}", {fields[monad]}}}\n'


def test_program_with_byte_order_mark(tmp_path, capsys):
    p = tmp_path / "bom.pfy"
    p.write_bytes(b"\xef\xbb\xbf" + TWO_FETCHES.encode("utf-8"))
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "(Str, Str)"


def test_config_with_byte_order_mark(two_chains_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"latency_ms": {"fetch": 50}}).encode("utf-8"))
    assert main(["run", two_chains_file, "--monad", "trace", "--json",
                 "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["latency_ms"] == 100.0


def test_laws_exit_codes(capsys):
    assert main(["laws", "--monad", "option", "--trials", "100"]) == 0
    out = capsys.readouterr().out
    assert "idl: 100/100 pass" in out


def test_laws_json(capsys):
    assert main(["laws", "--monad", "trace", "--trials", "50", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["v"] == 1 and data["monad"] == "trace"


def test_suite_json_and_exit(capsys):
    assert main(["suite", "span_work", "--trials", "50", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passes"] == 50 and data["failures"] == []


def test_property_failures_exit_2(capsys, monkeypatch):
    from purify import semantics
    from purify.semantics import LawReport

    def broken_laws(m, trials, seed):
        return LawReport(m.name, trials, seed, {"idl": 0},
                         {"idl": ["trial 0: forced failure"]})

    monkeypatch.setattr(semantics, "check_laws", broken_laws)
    assert main(["laws", "--monad", "option", "--trials", "10"]) == 2


def test_suite_whose_check_raises_exits_2(monkeypatch, capsys):
    """An exception from the system under test is a counterexample, with a
    seed and a shrunk term: here seq_translate binds the marks in reverse
    order, so the chain uses a variable before binding it."""
    from purify import translate
    build = translate._build_chain
    monkeypatch.setattr(translate, "_build_chain", lambda binds, final: build(binds[::-1], final))
    assert main(["suite", "baseline", "--seed", "81", "--trials", "60", "--json"]) == 2
    first = json.loads(capsys.readouterr().out)["failures"][0]
    assert first == {"seed": 81_000_243, "term_pretty": "stamp(probe!)!",
                     "detail": "UnboundVar: unbound variable '$x1'"}


def test_suite_text_lists_failures_and_exits_2(monkeypatch, capsys):
    from purify import translate
    build = translate._build_chain
    monkeypatch.setattr(translate, "_build_chain", lambda binds, final: build(binds[::-1], final))
    assert main(["suite", "baseline", "--seed", "81", "--trials", "60"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("suite baseline: ") and lines[0].endswith("/60 passed")
    assert not lines[0].startswith("suite baseline: 60/")
    assert lines[1] == "  seed=81000243 term=stamp(probe!)!: UnboundVar: unbound variable '$x1'"
    assert 2 <= len(lines) <= 11 and all(line.startswith("  seed=") for line in lines[1:])


def test_analyze_costs_a_mark_on_a_mark(tmp_path, capsys):
    """Running the action that an effect returns is costed as one more
    effect on every side, while the trace runs one (an open case of the cost
    semantics); this pins the cost resolver's mark-on-a-mark case."""
    p = tmp_path / "nested.pfy"
    p.write_text('effect g : Str -> Eff (Eff Str)\npurify { g("u")!! }\n')
    assert main(["analyze", str(p), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"v": 1, **{f"{m}_{side}": 2 for side in ("src", "opt", "naive", "seq")
                               for m in ("span", "work")}}


def test_config_rejects_undeclared_effects(two_fetches_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latency_ms": {"ghost": 5}}))
    assert main(["run", two_fetches_file, "--monad", "trace", "--json",
                 "--config", str(cfg)]) == 1
    assert "undeclared effect" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["suite", "types", "--trials", "-5"],
    ["suite", "types", "--trials", "0"],
    ["suite", "types", "--depth", "0"],
    ["laws", "--monad", "option", "--trials", "0"],
])
def test_out_of_range_counts_are_diagnostics(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert "passed" not in captured.out


@pytest.mark.parametrize("text, message", [
    ("{\"latency_ms\": ", "malformed JSON"),
    ("[1, 2]", "top level must be a JSON object"),
    ("{\"latency_ms\": [50]}", "section 'latency_ms' must be a JSON object"),
    ("{\"behavior\": \"absent\"}", "section 'behavior' must be a JSON object"),
    ("{\"latency_ms\": {\"fetch\": \"fast\"}}", "must be a nonnegative number"),
    ("{\"latency_ms\": {\"fetch\": null}}", "must be a nonnegative number"),
    ("{\"latency_ms\": {\"fetch\": -1}}", "must be a nonnegative number"),
    ("{\"behavior\": {\"fetch\": \"absent\"}}", "behavior for 'fetch' must be a JSON object"),
    ("{\"behavior\": {\"fetch\": {\"kind\": \"absnet\"}}}", "unknown kind 'absnet'"),
    ("{\"latency_ms\": {\"fetch\": 1e999}}", "must be a nonnegative number"),
    pytest.param("{\"latency_ms\": {\"fetch\": 1" + "0" * 400 + "}}",
                 "must be a nonnegative number", id="latency-beyond-float"),
    ("{\"behavior\": {\"fetch\": {\"kind\": \"log\", \"payload\": {\"a\": [1]}}}}",
     "payload for 'fetch' must be a JSON string"),
    ("{\"behavior\": {\"fetch\": {\"payload\": null}}}",
     "payload for 'fetch' must be a JSON string"),
    ("{\"latency\": {\"fetch\": 50}}", "unknown key 'latency'"),
    ("{\"behavior\": {\"fetch\": {\"kind\": \"value\", \"paylod\": \"x\"}}}",
     "unknown field 'paylod'"),
])
def test_bad_config_is_diagnostic(two_fetches_file, tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", two_fetches_file, "--monad", "trace", "--json",
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_dot_without_trace_is_diagnostic(two_fetches_file, tmp_path, capsys):
    dot_path = tmp_path / "trace.dot"
    assert main(["run", two_fetches_file, "--monad", "writer", "--dot", str(dot_path)]) == 1
    assert "needs --monad trace" in capsys.readouterr().err
    assert not dot_path.exists()


PIPELINE = (["check"], ["translate"], ["analyze"], ["run", "--monad", "trace"])


def test_internal_fault_exits_3(tmp_path, capsys):
    """1,000 nested marks exceed Python's recursion limit in the parser: a
    fault of purify, not of the program, reported in one line."""
    p = tmp_path / "deep.pfy"
    p.write_text("effect fetch : Str -> Eff Str\npurify { "
                 + "fetch(" * 1000 + '"u"' + ")!" * 1000 + " }")
    for cmd in PIPELINE:
        assert main([cmd[0], str(p), *cmd[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RecursionError")
        assert err.count("\n") == 1


def test_internal_fault_exits_3_wherever_it_is_raised(two_chains_file, monkeypatch, capsys):
    """An internal fault after parsing, here in the checker, is reported the
    same way in every pipeline command."""
    def boom(*args):
        raise RecursionError("boom")

    monkeypatch.setattr("purify.check.typecheck", boom)
    for cmd in PIPELINE:
        assert main([cmd[0], two_chains_file, *cmd[1:]]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "internal error: RecursionError: boom\n")


_TOKENS = ("fetch", "concat", "x", '"a"', "(", ")", ",", "!", ".1", ".2", "++", "fun",
           "->", "let", "=", "in", ":", "Str", "Eff", "()")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_TOKENS), max_size=10))
def test_random_programs_end_in_result_or_diagnostic(tmp_path, capsys, toks):
    p = tmp_path / "fuzz.pfy"
    p.write_text("prim concat : Str -> Str -> Str\neffect fetch : Str -> Eff Str\n"
                 "purify { " + " ".join(toks) + " }")
    for cmd in PIPELINE:
        assert main([cmd[0], str(p), *cmd[1:]]) in (0, 1)
    capsys.readouterr()


USAGE_ERRORS = (
    [],
    ["nope"],
    ["check"],
    ["run"],
    ["run", "a.pfy"],
    ["suite", "nope"],
    ["translate", "a.pfy", "--mode", "bogus"],
    ["laws", "--monad", "trace", "--trials", "x"],
    ["check", "a.pfy", "--bogus"],
    # argparse read "--" after "=" as no value at all, and the command then failed
    ["translate", "a.pfy", "--mode=--"],
    ["suite", "types", "--trials=--"],
)


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    """Exit code 2 belongs to property failures, so a malformed command line
    is a diagnostic: the usage line, then one error line."""
    for argv in USAGE_ERRORS:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: purify")
        assert err.splitlines()[-1].startswith("error: ")
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    for argv in (["--help"], *([cmd, "--help"] for cmd in cli.COMMANDS)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(_usage(argv[0] if len(argv) == 2 else None)) and err == ""


def test_help_to_a_closed_pipe_exits_0(monkeypatch):
    """``purify --help | head -1`` may close stdout before help is written."""
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    for argv in (["--help"], ["run", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


_ARGV_WORDS = ("check", "translate", "analyze", "run", "laws", "suite",
               "--mode", "--normalize", "--reassoc", "--json", "--monad", "--config",
               "--dot", "--trials", "--depth", "--seed", "--help",
               "--mode=seq", "--norm", "--js", "-h", "--", "-3",
               "0", "1", "-1", "x", "trace", "types",
               "ok.pfy", "missing.pfy", "bytes.pfy")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_ARGV_WORDS), max_size=8))
def test_random_argv_ends_in_result_or_diagnostic(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # --dot writes where it is told
    (tmp_path / "ok.pfy").write_text(TWO_FETCHES)
    (tmp_path / "bytes.pfy").write_bytes(b"\xff\xfe")
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("fetch", "kind", "payload", "x")), inner, max_size=3),
    max_leaves=8,
)
# a config with the random value at one level of the schema
_CONFIG_LEVELS = (
    lambda v: v,
    lambda v: {"latency_ms": v},
    lambda v: {"behavior": v},
    lambda v: {"latency_ms": {"fetch": v}},
    lambda v: {"behavior": {"fetch": v}},
    lambda v: {"behavior": {"fetch": {"kind": v}}},
    lambda v: {"behavior": {"fetch": {"kind": "log", "payload": v}}},
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_CONFIG_LEVELS), _JSON)
def test_random_configs_end_in_result_or_diagnostic(two_fetches_file, tmp_path, capsys,
                                                    level, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(level(value)))
    for monad in MONADS:
        assert main(["run", two_fetches_file, "--monad", monad, "--json",
                     "--config", str(cfg)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("monad, result, kind, observed", [
    ("trace", "Str", None, True),
    ("trace", "Unit", "value", False),
    ("trace", "Unit", "log", False),
    ("option", "Str", None, True),
    ("option", "Str", "absent", False),
    ("state", "Str", "value", True),
    ("state", "Str", None, False),
    ("state", "Unit", "log", False),
    ("writer", "Unit", "log", True),
    ("writer", "Unit", "value", False),
    ("writer-rtl", "(Str, Unit)", "log", True),
])
def test_unobserved_payload_is_diagnostic(tmp_path, capsys, monad, result, kind, observed):
    """Each monad decides whether it reads a payload, for the behavior's
    kind and the effect's result type; a payload it never reads is refused."""
    prog = tmp_path / "prog.pfy"
    prog.write_text(f"effect stamp : Str -> Eff {result}\npurify {{ stamp(\"a\")! }}")
    behavior = {"payload": "x"} if kind is None else {"kind": kind, "payload": "x"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"behavior": {"stamp": behavior}}))
    code = main(["run", str(prog), "--monad", monad, "--json", "--config", str(cfg)])
    out, err = capsys.readouterr()
    if observed:
        assert code == 0 and '"x"' in out
    else:
        assert code == 1 and out == ""
        assert f"payload for 'stamp' is never observed under the {monad} monad" in err


@pytest.mark.parametrize("monad", tuple(MONADS))
@pytest.mark.parametrize("kind", ("value", "absent", "log", "state_incr"))
def test_unread_behavior_kind_is_diagnostic(two_fetches_file, tmp_path, capsys, kind, monad):
    """A kind is accepted only under a monad that reads it; ``value`` under
    every monad, as the README's example config gives it a payload."""
    read = {"value": MONADS, "absent": ("option",), "log": ("writer", "writer-rtl"),
            "state_incr": ("state",)}[kind]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"behavior": {"fetch": {"kind": kind}}}))
    code = main(["run", two_fetches_file, "--monad", monad, "--json", "--config", str(cfg)])
    out, err = capsys.readouterr()
    if monad in read:
        assert code == 0 and out
    else:
        assert code == 1 and out == ""
        assert f"behavior kind {kind!r} for 'fetch' is never observed under the {monad} monad" in err


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_matches_a_fresh_one(two_chains_file, tmp_path, capsys):
    """main reads every call from one module-level grammar table; no call's
    outcome depends on the calls before it."""
    import importlib

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latency_ms": {"fetch": 50}}))
    dot = str(tmp_path / "trace.dot")
    sequence = (
        ["check", two_chains_file, "--bogus"],
        ["--help"],
        ["translate", two_chains_file, "--mode", "naive", "--normalize"],
        ["translate", two_chains_file, "--mode", "naive"],
        ["run", two_chains_file, "--monad", "trace", "--config", str(cfg), "--dot", dot],
        ["run", two_chains_file, "--monad", "trace"],
        ["suite", "types", "--trials", "0"],
        ["laws", "--monad", "option", "--trials", "-3"],
        ["check", two_chains_file],
    )
    shared = [_outcome(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:  # a new table and reader per call
        importlib.reload(cli)
        fresh.append(_outcome(argv, capsys))
    for argv, got, want in zip(sequence, shared, fresh):
        assert got == want, argv
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0, 1, 1, 0]


def test_grammar_choices_are_the_layers_tables():
    """The grammar is read without importing a layer, from constants that
    must name exactly the translations, monads and suites the layers have."""
    from purify import propcheck, translate

    public = [n[:-len("_translate")] for n in translate.__dict__
              if n.endswith("_translate") and not n.startswith("_")]
    assert sorted(cli.TRANSLATIONS) == sorted(public)
    assert cli.MONAD_NAMES == tuple(MONADS)
    assert cli.SUITE_NAMES == propcheck.SUITE_NAMES


def test_compiling_commands_pause_the_collector(two_fetches_file, monkeypatch, capsys):
    """check, translate, analyze and run work with the cyclic collector
    paused (terms are acyclic) and hand the caller's setting back, also
    after a diagnostic; suite and laws leave it as the caller set it."""
    import gc

    # imported before the spies go on, so propcheck binds the real typecheck
    from purify import check, propcheck, semantics

    seen = []

    def spy(fn):
        def call(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)
        return call

    for layer, name in ((check, "typecheck"), (propcheck, "run_suite"),
                        (semantics, "check_laws")):
        monkeypatch.setattr(layer, name, spy(getattr(layer, name)))
    bad = two_fetches_file + ".bad.pfy"
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write('prim concat : Str -> Str -> Str\npurify { ("a" ++ "b")! }\n')
    compiling = [(cmd + [f], code) for f, code in ((two_fetches_file, 0), (bad, 1))
                 for cmd in (["check"], ["translate"], ["analyze"], ["run", "--monad", "trace"])]
    try:
        for before in (True, False):
            for argv, code in compiling:
                (gc.enable if before else gc.disable)()
                seen.clear()
                assert main(argv) == code, argv
                assert seen and not any(seen), argv
                assert gc.isenabled() is before, argv
            for argv in (["suite", "types", "--trials", "2"],
                         ["laws", "--monad", "option", "--trials", "2"]):
                (gc.enable if before else gc.disable)()
                seen.clear()
                assert main(argv) == 0
                assert seen == [before]
                assert gc.isenabled() is before
    finally:
        gc.enable()
    capsys.readouterr()


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise PurifyError(message)


@functools.cache
def _reference_parser() -> _ReferenceParser:
    """The argparse grammar the table reader replaced, as the reference it
    must agree with."""
    parser = _ReferenceParser(prog="purify")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("check")
    p.add_argument("file")
    p.set_defaults(fn=cli.cmd_check)
    p = sub.add_parser("translate")
    p.add_argument("file")
    p.add_argument("--mode", choices=cli.TRANSLATIONS, default="opt")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=cli.cmd_translate)
    p = sub.add_parser("analyze")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_analyze)
    p = sub.add_parser("run")
    p.add_argument("file")
    p.add_argument("--monad", required=True, choices=cli.MONAD_NAMES)
    p.add_argument("--config")
    p.add_argument("--dot")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_run)
    p = sub.add_parser("laws")
    p.add_argument("--monad", required=True, choices=cli.MONAD_NAMES)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_laws)
    p = sub.add_parser("suite")
    p.add_argument("name", choices=cli.SUITE_NAMES)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cli.cmd_suite)
    return parser


def _reference_read(argv):
    args = _reference_parser().parse_args(argv)
    for name in {"laws": ("trials",), "suite": ("trials", "depth")}.get(args.cmd, ()):
        if getattr(args, name) < 1:  # the handlers' own check, before the table held it
            raise PurifyError(f"--{name} must be at least 1, got {getattr(args, name)}")
    return args


def _reading(read, argv):
    """What reading ``argv`` shows: the exit code, the parsed fields, the
    error lines, whether a usage line came first, and whose help it printed."""
    out, err = io.StringIO(), io.StringIO()
    fields = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, code = dict(vars(read(list(argv)))), 0
        except SystemExit as exc:
            code = exc.code
        except PurifyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    if fields:  # the handler by name: a reloaded module has new function objects
        fields["fn"] = fields["fn"].__name__
    helped = out.getvalue().split()[2:3] if out.getvalue() else None
    if helped and helped[0] not in cli.COMMANDS:
        helped = ["purify"]
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    return code, fields, errors, err.getvalue().startswith("usage: purify"), helped


# words whose reading turns on argparse's rarer rules
_EDGE_WORDS = ("--=x", "-hx", "-hh", "-h=h", "--he", "--he=", "--mode=", "--json=1",
               "--trials=2", "--mo", "-x", "-x y", "-1.5", "-", "", "naive")


# the reader follows argparse as Python 3.10 and 3.11 ship it
_ARGPARSE_311 = pytest.mark.skipif(sys.version_info >= (3, 12), reason=(
    "argparse 3.12+ prints choices unquoted and reads '--' before a command"))


@_ARGPARSE_311
@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(_ARGV_WORDS + _EDGE_WORDS), max_size=8))
def test_reader_agrees_with_the_argparse_grammar(argv):
    """The table reader parses what the argparse grammar parsed, into the
    same fields, and refuses what it refused with the same error line."""
    assert _reading(cli._read, argv) == _reading(_reference_read, argv)


@_ARGPARSE_311
@pytest.mark.parametrize("argv", [
    ["translate", "f", "--mode=seq", "--norm"],
    ["translate", "--mo", "naive", "f"],
    ["translate", "--", "-f", "--mode", "seq"],
    ["translate", "f", "--normalize", "--"],
    ["run", "f", "--monad=trace", "--config", "-3", "--dot=", "--js"],
    ["laws", "--monad", "state", "--seed", "-3", "--trials=2"],
    ["suite", "--seed=-1", "types", "--trials", "7", "--"],
    ["-x", "check", "f"],
    ["check", "f", "--", "--"],
    ["check", "-hhx"],
    ["suite", "types", "--=x"],
    ["check", "--he"],
    ["run", "--monad", "bogus", "--help"],
    ["suite", "types", "--trials", "0", "--depth", "0"],
])
def test_reader_agrees_with_the_argparse_grammar_on_examples(argv):
    assert _reading(cli._read, argv) == _reading(_reference_read, argv)


def test_readme_synopsis_is_the_grammars():
    """README.md's CLI block is the synopsis the reader prints in --help."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## CLI\n\n```sh\n")[1].split("```")[0]
    assert [line.split("  #")[0].rstrip() for line in block.splitlines()] == [
        cli._synopsis(cmd) for cmd in cli.COMMANDS]
