"""purify: a direct-style effect language compiled to mixed
applicative/monadic combinators, with executable checks that the
translation preserves types, semantics, span and work.  Each layer below is
imported, and so compiled, at the first use of one of its names (PEP 562)."""

import importlib

# eager: ``pretty`` also names a submodule, whose import would bind it here
from .pretty import pretty, pretty_program

_EXPORTS = {
    "terms": """Ty Unit Str Prod Arrow Eff UNIT STR type_name  Label SRC TGT COM
        Term Var Const Unt Lit Prd Fst Snd App Lam Each Pure Map Ap Join
        Signature ConstDecl ConstKind FreshNames
        relabel is_effect_free alpha_eq subterms size  PurifyError NotCommon""",
    "check": "TypeEnv typecheck TypeCheckError LabelMismatch TypeMismatch",
    "surface": """parse elaborate parse_and_elaborate parse_target_expr SurfaceProgram
        ParseError DuplicateDecl UnboundName MarkUnderLambda LetTooEffectful""",
    "pretty": "pretty pretty_program",
    "translate": """opt_translate naive_translate seq_translate normalize
        smart_ap smart_join FuelExhausted""",
    "semantics": """VEff VUNIT ABSENT
        MonadDict builtin_monads option_monad state_monad writer_monad
        trace_monad mixed_order_writer make_const_env ConstEnv
        evaluate check_laws LawReport value_eq_for actions_agree render_value""",
    "metrics": """span work span_work TraceDag dyn_span dyn_work simulate_latency
        dag_iso to_dot UnknownEffect""",
    "propcheck": """GenConfig gen_term run_suite shrink SuiteReport SUITE_NAMES
        Unsatisfiable default_signature""",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the layer that owns ``name`` and bind the name here."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:  # a layer itself, as ``purify.semantics``
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
