"""purify: a direct-style effect language compiled to mixed
applicative/monadic combinators, with executable checks that the
translation preserves types, semantics, span and work."""

from .terms import (
    Ty, Unit, Str, Prod, Arrow, Eff, UNIT, STR, type_name,
    Label, SRC, TGT, COM,
    Term, Var, Const, Unt, Lit, Prd, Fst, Snd, App, Lam, Each, Pure, Map, Ap, Join,
    Signature, ConstDecl, ConstKind, FreshNames,
    relabel, is_effect_free, alpha_eq, subterms, size,
    PurifyError, NotCommon,
)
from .check import TypeEnv, typecheck, TypeCheckError, LabelMismatch, TypeMismatch
from .surface import (
    parse, elaborate, parse_and_elaborate, parse_target_expr, SurfaceProgram,
    ParseError, DuplicateDecl, UnboundName, MarkUnderLambda, LetTooEffectful,
)
from .pretty import pretty, pretty_program
from .translate import (
    opt_translate, naive_translate, seq_translate, normalize,
    smart_ap, smart_join, FuelExhausted,
)
from .semantics import (
    VEff, VUNIT, ABSENT,
    MonadDict, builtin_monads, option_monad, state_monad, writer_monad,
    trace_monad, mixed_order_writer, make_const_env, ConstEnv,
    evaluate, check_laws, LawReport, value_eq_for, actions_agree, render_value,
)
from .metrics import (
    span, work, span_work, TraceDag, dyn_span, dyn_work, simulate_latency, dag_iso,
    to_dot, UnknownEffect,
)
from .propcheck import (
    GenConfig, gen_term, run_suite, shrink, SuiteReport, SUITE_NAMES,
    Unsatisfiable, default_signature,
)

__version__ = "0.1.0"
