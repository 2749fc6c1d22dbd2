"""Records are plain slotted classes that behave as the dataclasses they
replaced, and importing purify loads neither ``dataclasses`` nor ``inspect``.
The package namespace is lazy: each layer is loaded at the first use of one
of its names, and every name resolves to the layer's own object.  So is the
CLI: each one-shot command loads only the layers it runs.

The reprs and the two digests below were recorded from the dataclass terms.
``unknown term`` diagnostics print a term's repr, so it must not change.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import purify
from purify import propcheck
from purify.propcheck import GenConfig, Unsatisfiable, default_signature
from purify.terms import (
    Ap, App, COM, Const, ConstDecl, ConstKind, Each, Fst, Join, Lam, Lit, Map,
    Prd, Pure, SRC, STR, Snd, TGT, Term, UNIT, Unt, Var,
)


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this purify."""
    src = os.path.dirname(os.path.dirname(purify.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    return out.stdout.strip()


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, purify, purify.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert _fresh(code) == "[]"


# what a caller does after ``import purify`` -> the layers that must stay unloaded
LAZY_PATHS = {
    "bare import": ("pass", {"check", "surface", "translate", "semantics", "metrics",
                         "propcheck", "cli"}),
    "parse and run": ("sig, _ = purify.parse_and_elaborate('effect f : Eff Str\\n"
                      "purify { f! }'); [purify.make_const_env(sig, m) "
                      "for m in purify.builtin_monads()]", {"propcheck", "translate", "cli"}),
    "generator": ("purify.default_signature()", {"surface", "cli"}),
    "a layer as an attribute": ("purify.metrics.span_work",
                                {"check", "surface", "translate", "propcheck", "cli"}),
}


@pytest.mark.parametrize("path", LAZY_PATHS)
def test_import_loads_only_the_layers_a_caller_uses(path):
    code, unloaded = LAZY_PATHS[path]
    loaded = _fresh(f"import sys, purify; {code}; "
                    "print(' '.join(m[7:] for m in sys.modules if m.startswith('purify.')))")
    assert {"terms", "pretty"} <= set(loaded.split())
    assert set(loaded.split()) & unloaded == set()


# a one-shot command -> exactly what it loads of the layers and ``json``, and
# never ``argparse``; ``None`` is a bare ``import purify.cli``
ON_DEMAND = {"surface", "check", "translate", "semantics", "metrics", "propcheck", "json"}
_PROGRAM = {"surface", "check"}
COMMAND_LAYERS = {
    "import": (None, set()),
    "check": (["check", "FILE"], _PROGRAM),
    **{f"translate {mode}": (["translate", "FILE", "--mode", mode], _PROGRAM | {"translate"})
       for mode in ("opt", "naive", "seq")},
    "translate --normalize": (["translate", "FILE", "--normalize"], _PROGRAM | {"translate"}),
    "analyze --json": (["analyze", "FILE", "--json"], _PROGRAM | {"translate", "metrics", "json"}),
    **{f"run {monad}": (["run", "FILE", "--monad", monad], _PROGRAM | {"semantics", "metrics"})
       for monad in ("option", "state", "writer", "trace", "writer-rtl")},
    "run --config": (["run", "FILE", "--monad", "writer", "--config", "CONFIG"],
                     _PROGRAM | {"semantics", "metrics", "json"}),
    "laws": (["laws", "--monad", "state", "--trials", "5"], {"semantics", "metrics"}),
    "suite": (["suite", "types", "--trials", "5"],
              {"propcheck", "check", "translate", "semantics", "metrics"}),
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_a_command_loads_only_the_layers_it_runs(command, tmp_path):
    argv, layers = COMMAND_LAYERS[command]
    run = "pass"
    if argv is not None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(purify.__file__)))
        config = tmp_path / "config.json"
        config.write_text('{"latency_ms": {"fetch": 10}}')
        files = {"FILE": os.path.join(root, "demos", "programs", "nested_chains.pfy"),
                 "CONFIG": str(config)}
        run = f"assert purify.cli.main({[files.get(a, a) for a in argv]!r}) == 0"
    loaded = _fresh(f"import sys, purify.cli; {run}; "
                    "print(*(m.removeprefix('purify.') for m in sys.modules))").splitlines()[-1]
    assert {"terms", "pretty", "cli"} <= set(loaded.split())
    assert set(loaded.split()) & ON_DEMAND == layers
    assert set(loaded.split()) & {"argparse", "gettext"} == set()  # the table reads argv


# the names ``import purify`` exported when it imported every layer
EXPORTED = """
ABSENT Ap App Arrow COM Const ConstDecl ConstEnv ConstKind DuplicateDecl Each Eff
FreshNames Fst FuelExhausted GenConfig Join Label LabelMismatch Lam LawReport
LetTooEffectful Lit Map MarkUnderLambda MonadDict NotCommon ParseError Prd Prod Pure
PurifyError SRC STR SUITE_NAMES Signature Snd Str SuiteReport SurfaceProgram TGT Term
TraceDag Ty TypeCheckError TypeEnv TypeMismatch UNIT UnboundName Unit UnknownEffect
Unsatisfiable Unt VEff VUNIT Var actions_agree alpha_eq builtin_monads check_laws
dag_iso default_signature dyn_span dyn_work elaborate evaluate gen_term is_effect_free
make_const_env mixed_order_writer naive_translate normalize opt_translate option_monad
parse parse_and_elaborate parse_target_expr pretty pretty_program relabel render_value
run_suite seq_translate shrink simulate_latency size smart_ap smart_join span span_work
state_monad subterms to_dot trace_monad type_name typecheck value_eq_for work
writer_monad
""".split()


def test_every_exported_name_is_its_layers_object():
    assert len(EXPORTED) == 99 and sorted(purify.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(purify))
    for name in EXPORTED:
        layer = importlib.import_module(f"purify.{purify._OWNER[name]}")
        assert getattr(purify, name) is getattr(layer, name), name
    star: dict = {}
    exec("from purify import *", star)
    assert set(star) - {"__builtins__"} == set(EXPORTED)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        purify.no_such_name
    with pytest.raises(ImportError):
        exec("from purify import no_such_name", {})


def test_pretty_is_the_printer_whichever_layer_loads_it_first():
    for first in ("import purify.propcheck", "import purify.pretty",
                  "from purify import default_signature; default_signature()"):
        code = (f"import sys; {first}; import purify; from purify import pretty; "
                "print(pretty is purify.pretty is sys.modules['purify.pretty'].pretty)")
        assert _fresh(code) == "True", first


def test_no_class_in_purify_is_a_dataclass():
    classes = []
    for info in pkgutil.iter_modules(purify.__path__):
        if info.name == "__main__":  # running it runs the CLI
            continue
        mod = importlib.import_module(f"purify.{info.name}")
        classes += [v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == mod.__name__]
    assert len(classes) > 40
    assert [k for k in classes if dataclasses.is_dataclass(k)] == []


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

C = Const("fetch", label=SRC)
REPRS = [
    (Var("x"), "Var(label=<Label.COM: 'com'>, name='x')"),
    (C, "Const(label=<Label.SRC: 'src'>, name='fetch')"),
    (Unt(label=TGT), "Unt(label=<Label.TGT: 'tgt'>)"),
    (Lit('a\n"b'), "Lit(label=<Label.COM: 'com'>, value='a\\n\"b')"),
    (Prd(Lit("a"), Unt()),
     "Prd(label=<Label.COM: 'com'>, fst=Lit(label=<Label.COM: 'com'>, value='a'),"
     " snd=Unt(label=<Label.COM: 'com'>))"),
    (Fst(Var("p")), "Fst(label=<Label.COM: 'com'>, pair=Var(label=<Label.COM: 'com'>, name='p'))"),
    (Snd(Var("p", label=TGT), label=TGT),
     "Snd(label=<Label.TGT: 'tgt'>, pair=Var(label=<Label.TGT: 'tgt'>, name='p'))"),
    (App(C, Lit("a"), label=SRC),
     "App(label=<Label.SRC: 'src'>, fun=Const(label=<Label.SRC: 'src'>, name='fetch'),"
     " arg=Lit(label=<Label.COM: 'com'>, value='a'))"),
    (Lam("x", Var("x"), STR, label=TGT),
     "Lam(label=<Label.TGT: 'tgt'>, param='x', body=Var(label=<Label.COM: 'com'>, name='x'),"
     " param_ty=Str)"),
    (Each(App(C, Lit("a"))),
     "Each(label=<Label.SRC: 'src'>, eff=App(label=<Label.COM: 'com'>,"
     " fun=Const(label=<Label.SRC: 'src'>, name='fetch'), arg=Lit(label=<Label.COM: 'com'>,"
     " value='a')))"),
    (Pure(Lit("a")),
     "Pure(label=<Label.TGT: 'tgt'>, inner=Lit(label=<Label.COM: 'com'>, value='a'))"),
    (Map(Lam("v", Var("v")), Var("a")),
     "Map(label=<Label.TGT: 'tgt'>, fun=Lam(label=<Label.COM: 'com'>, param='v',"
     " body=Var(label=<Label.COM: 'com'>, name='v'), param_ty=None),"
     " arg=Var(label=<Label.COM: 'com'>, name='a'))"),
    (Ap(Var("f"), Var("a")),
     "Ap(label=<Label.TGT: 'tgt'>, fun=Var(label=<Label.COM: 'com'>, name='f'),"
     " arg=Var(label=<Label.COM: 'com'>, name='a'))"),
    (Join(Var("n")),
     "Join(label=<Label.TGT: 'tgt'>, nested=Var(label=<Label.COM: 'com'>, name='n'))"),
]

# suite -> (depth, seed, sha256 over repr() of its first 500 terms)
REPR_DIGESTS = {
    "types": (6, 31, "629777dd704e89d223c6dca75738ca89e00e40da2ed38929280058a490bb80c7"),
    "relabel": (5, 71, "2f1f92b61d6b282589e60bc9970cfdf8e333e7ca7a14a00a4a814ad280940c8b"),
}

X = Var("x")
# kind -> (positional arguments, __match_args__)
KINDS = {
    Var: (("x",), ("name",)),
    Const: (("c",), ("name",)),
    Unt: ((), ()),
    Lit: (("a",), ("value",)),
    Prd: ((X, X), ("fst", "snd")),
    Fst: ((X,), ("pair",)),
    Snd: ((X,), ("pair",)),
    App: ((X, X), ("fun", "arg")),
    Lam: (("x", X), ("param", "body", "param_ty")),
    Each: ((X,), ("eff",)),
    Pure: ((X,), ("inner",)),
    Map: ((X, X), ("fun", "arg")),
    Ap: ((X, X), ("fun", "arg")),
    Join: ((X,), ("nested",)),
}
DEFAULT_LABEL = {Each: SRC, Pure: TGT, Map: TGT, Ap: TGT, Join: TGT}


class _Bare(Term):
    """A node kind with no fields and no constructor of its own."""


def test_every_kind_has_a_recorded_repr():
    assert sorted(type(t).__name__ for t, _ in REPRS) == sorted(k.__name__ for k in KINDS)


@pytest.mark.parametrize("term, text", REPRS, ids=lambda x: type(x).__name__)
def test_repr_is_the_dataclass_repr(term, text):
    assert repr(term) == text


@pytest.mark.parametrize("suite", sorted(REPR_DIGESTS))
def test_generated_term_reprs_are_pinned(suite):
    depth, seed, digest = REPR_DIGESTS[suite]
    label, generate, _ = propcheck._TERM_SUITES[suite]
    sig = default_signature()
    h = hashlib.sha256()
    for i in range(500):
        try:
            term = generate(GenConfig(depth, propcheck._sub_seed(seed, i), sig, label), i)
        except Unsatisfiable:
            h.update(b"unsat\n")
            continue
        h.update(repr(term).encode() + b"\n")
    assert h.hexdigest() == digest


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_node_kind_behaves_as_its_dataclass(kind):
    args, match_args = KINDS[kind]
    node = kind(*args)
    assert kind.__match_args__ == match_args
    assert node.label is DEFAULT_LABEL.get(kind, COM) and node.ty is None
    # == compares class, label and fields, never the type stamps
    assert node == kind(*args, ty=STR) == kind(*args, label=node.label)
    assert node != kind(*args, label=SRC if node.label is not SRC else TGT)
    for i, a in enumerate(args):
        changed = list(args)
        changed[i] = "y" if isinstance(a, str) else Lit("b")
        assert node != kind(*changed)
    assert node != _Bare(label=node.label) and (node == object()) is False
    with pytest.raises(TypeError):
        hash(node)
    stamped = kind(*args, label=SRC, ty=STR)
    for copied in (copy.deepcopy(stamped), pickle.loads(pickle.dumps(stamped))):
        assert copied == stamped and copied is not stamped
        assert copied.label is SRC and copied.ty is STR


def test_lambda_equality_ignores_the_parameter_annotation():
    assert Lam("x", X, STR) == Lam("x", X) == Lam("x", X, UNIT, ty=STR)
    assert copy.deepcopy(Lam("x", X, STR)).param_ty is STR


def test_bare_subclass_of_term():
    node = _Bare(label=SRC)
    assert repr(node) == "_Bare(label=<Label.SRC: 'src'>)"
    assert node == _Bare(label=SRC, ty=STR) and node != _Bare()
    assert _Bare.__match_args__ == () and node.ty is None
    with pytest.raises(TypeError):
        hash(node)


# ---------------------------------------------------------------------------
# Constant declarations
# ---------------------------------------------------------------------------

def test_const_decl_is_an_immutable_value():
    d = ConstDecl("f", STR, ConstKind.PURE)
    assert d == ConstDecl("f", STR, ConstKind.PURE)
    assert d != ConstDecl("f", STR, ConstKind.EFFECTFUL) and d != ("f", STR, ConstKind.PURE)
    assert hash(d) == hash(("f", STR, ConstKind.PURE))
    assert len({d, ConstDecl("f", STR, ConstKind.PURE)}) == 1
    for name in ("name", "ty", "kind", "extra"):
        with pytest.raises(AttributeError):
            setattr(d, name, "g")
    with pytest.raises(AttributeError):
        del d.name
    assert copy.deepcopy(d) == d == pickle.loads(pickle.dumps(d))
    assert repr(d) == "ConstDecl(name='f', ty=Str, kind=<ConstKind.PURE: 'prim'>)"
