import time

import pytest
from hypothesis import given, strategies as st

from purify.pretty import escape_string, pretty, pretty_program
from purify.propcheck import GenConfig, default_signature, gen_term
from purify.surface import (
    DuplicateDecl, LetTooEffectful, MarkUnderLambda, ParseError, UnboundName,
    parse, parse_and_elaborate, parse_target_expr, tokenize,
)
from purify.check import TypeEnv, typecheck
from purify.terms import (
    App, Arrow, COM, Const, ConstDecl, ConstKind, Each, Lam, Lit, Pure,
    PurifyError, SRC, STR, Signature, TGT, Var, alpha_eq, subterms,
)
from purify.translate import naive_translate, opt_translate, seq_translate


def test_minimal_program():
    sig, body = parse_and_elaborate('effect f : Str -> Eff Str\npurify { f("a")! }')
    assert sig.lookup("f").effectful
    expected = Each(App(Const("f", label=SRC), Lit("a", label=SRC), label=SRC), label=SRC)
    assert body == expected


def test_nested_marks_program():
    text = """
    prim concat : Str -> Str -> Str
    prim xx : Str
    prim yy : Str
    effect fetch : Str -> Eff Str
    purify { (fetch(fetch(xx)!)! ++ fetch(fetch(yy)!)!) }
    """
    sig, body = parse_and_elaborate(text)
    # concat applied to two doubly-nested marked fetches
    assert isinstance(body, App)
    marks = [n for n in subterms(body) if isinstance(n, Each)]
    assert len(marks) == 4


def test_mark_under_lambda_rejected():
    with pytest.raises(MarkUnderLambda):
        parse_and_elaborate('effect f : Str -> Eff Str\npurify { fun x -> f(x)! }')


def test_comments_and_whitespace():
    sig, body = parse_and_elaborate(
        "-- leading comment\nprim a : Str -- trailing\npurify { a }\n"
    )
    assert body == Const("a", label=SRC)


def test_trailing_comment_keeps_column():
    """A comment advances the column like any other text, so the
    end-of-input error after it points where the input ends."""
    line = 'purify { fetch("u")! '
    comment = "-- trailing comment"
    positions = []
    for tail in (comment, " " * len(comment)):
        with pytest.raises(ParseError) as ei:
            parse("effect fetch : Str -> Eff Str\n" + line + tail)
        positions.append((ei.value.line, ei.value.col))
    assert positions[0] == positions[1] == (2, len(line + comment) + 1)


def test_duplicate_decl():
    with pytest.raises(DuplicateDecl):
        parse("prim a : Str\nprim a : Str\npurify { a }")
    sig = Signature([ConstDecl("a", STR, ConstKind.PURE)])
    with pytest.raises(PurifyError) as ei:
        sig.add(ConstDecl("a", STR, ConstKind.PURE))
    assert str(ei.value) == "duplicate constant 'a'"


def test_unbound_name():
    with pytest.raises(UnboundName):
        parse_and_elaborate("purify { ghost }")


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse("purify { (a }")
    assert ei.value.line == 1


def test_let_pure_binding():
    sig, body = parse_and_elaborate(
        'prim shout : Str -> Str\npurify { let x = "a" in shout(x) }'
    )
    # App(Lam x. shout x, "a"), lambda body common
    assert isinstance(body, App)
    assert isinstance(body.fun, Lam)
    assert body.fun.body.label is COM
    assert typecheck(body, SRC, TypeEnv(sig)) == STR


def test_let_single_mark_hoists():
    sig, body = parse_and_elaborate(
        'effect f : Str -> Eff Str\npurify { let x = "a" in f(x)! }'
    )
    expected = Each(
        App(
            Lam("x", App(Const("f", label=COM), Var("x", label=COM), label=COM),
                label=SRC),
            Lit("a", label=SRC),
            label=SRC,
        ),
        label=SRC,
    )
    assert alpha_eq(body, expected)
    assert typecheck(body, SRC, TypeEnv(sig)) == STR


def test_let_effectful_binding_rejected():
    with pytest.raises(LetTooEffectful):
        parse_and_elaborate('effect f : Str -> Eff Str\npurify { let x = f("a")! in x }')


def test_let_multi_mark_continuation_rejected():
    with pytest.raises(LetTooEffectful) as ei:
        parse_and_elaborate(
            'effect f : Str -> Eff Str\n'
            'purify { let x = "a" in (f(x)!, f(x)!) }'
        )
    assert "nested marks" in str(ei.value)


def test_nested_lets_around_one_mark_hoist_at_every_level():
    sig, body = parse_and_elaborate(
        'prim concat : Str -> Str -> Str\neffect f : Str -> Eff Str\n'
        'purify { let x = "a" in let y = "b" in let z = x in f(z ++ y)! }'
    )
    assert pretty(body) == '(fun x -> (fun y -> (fun z -> f(z ++ y))(x))("b"))("a")!'
    assert typecheck(body, SRC, TypeEnv(sig)) == STR


def test_nested_lets_parse_in_linear_time():
    def best(n):
        text = "purify { " + 'let x = "a" in ' * n + "x }"
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            parse_and_elaborate(text)
            times.append(time.perf_counter() - t0)
        return min(times)

    # linear within 2x: 8x the lets may take at most 16x the time
    assert best(800) <= 16 * best(100)


def test_glued_call_parens_bind_tighter_than_mark():
    sig, body = parse_and_elaborate('effect f : Str -> Eff Str\npurify { f("a")! }')
    assert isinstance(body, Each)
    assert isinstance(body.eff, App)


def test_spaced_paren_is_plain_application():
    # f ("a"!) would be ill-typed; use a pure function around a marked arg
    sig, body = parse_and_elaborate(
        'prim shout : Str -> Str\neffect f : Str -> Eff Str\n'
        'purify { shout (f("a")!) }'
    )
    assert isinstance(body, App)
    assert isinstance(body.arg, Each)


def test_postfix_chains():
    sig, body = parse_and_elaborate(
        'prim p : ((Str, Str), Str)\npurify { (((p))).1.2 }'
    )
    from purify.terms import Fst, Snd
    assert isinstance(body, Snd) and isinstance(body.pair, Fst)

    sig, body = parse_and_elaborate(
        'effect pair : Str -> Eff (Str, Str)\nprim q : Str\npurify { pair(q)!.1 }'
    )
    from purify.terms import Fst as FstNode
    assert isinstance(body, FstNode) and isinstance(body.pair, Each)
    assert pretty(body) == "pair(q)!.1"


def test_concat_requires_declaration():
    with pytest.raises(UnboundName):
        parse_and_elaborate('purify { "a" ++ "b" }')


def test_annotation_on_lambda():
    sig, body = parse_and_elaborate("purify { (fun x -> x : Str -> Str) }")
    assert isinstance(body, Lam)
    assert body.param_ty == STR
    assert typecheck(body, SRC, TypeEnv(sig)) == Arrow(STR, STR)


def test_reserved_prefix_rejected_in_programs():
    with pytest.raises(ParseError):
        parse("purify { $x }")
    with pytest.raises(ParseError):
        parse("prim $a : Str\npurify { () }")


def test_elaborate_produces_no_combinators():
    for i in range(100):
        t = gen_term(GenConfig(max_depth=5, seed=9100 + i, label=SRC))
        text = pretty_program(default_signature(), t)
        _, body = parse_and_elaborate(text)
        assert not any(isinstance(n, Pure) for n in subterms(body))


def test_roundtrip_generated_programs():
    sig = default_signature()
    for i in range(300):
        t = gen_term(GenConfig(max_depth=5, seed=8800 + i, label=SRC))
        sig2, back = parse_and_elaborate(pretty_program(sig, t))
        assert alpha_eq(t, back)


def test_roundtrip_translations():
    sig = default_signature()
    env = TypeEnv(sig)
    for i in range(120):
        t = gen_term(GenConfig(max_depth=5, seed=7300 + i, label=SRC))
        for translate in (opt_translate, naive_translate, seq_translate):
            out = translate(t)
            typecheck(out, TGT, env)
            rendered = pretty(out)
            back = parse_target_expr(rendered, sig)
            assert alpha_eq(out, back)
            # pretty is a fixed point of parse . pretty on checked target terms
            typecheck(back, TGT, env)
            assert pretty(back) == rendered


def test_roundtrip_generated_target_terms():
    sig = default_signature()
    env = TypeEnv(sig)
    for i in range(200):
        t = gen_term(GenConfig(max_depth=5, seed=6100 + i, label=TGT))
        typecheck(t, TGT, env)
        rendered = pretty(t)
        back = parse_target_expr(rendered, sig)
        assert alpha_eq(t, back), rendered


def test_pretty_examples():
    from purify.terms import Ap, Unt
    assert pretty(Unt(label=COM)) == "()"
    t = Each(App(Const("fetch", label=SRC), Lit("u", label=SRC), label=SRC), label=SRC)
    assert pretty(t) == 'fetch("u")!'
    t2 = Ap(
        Pure(Lam("x", Var("x", label=COM), label=COM), label=TGT),
        Const("ff", label=TGT),
        label=TGT,
    )
    assert pretty(t2) == "ap (pure (fun x -> x)) ff"


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=30))
def test_string_literal_roundtrip(s):
    toks = tokenize(escape_string(s))
    assert toks[0].kind == "string"
    assert toks[0].text == s


def test_tokenizer_rejects_unterminated_string():
    with pytest.raises(ParseError):
        tokenize('"abc')


# The token stream, or the exact lexer error, of inputs at the lexer's edges:
# line ends and columns, comments, glue, word forms, string escapes and the
# characters no token starts with.  Each entry is (kind, text, line, col, glued).
LEXER_PINS = [
    ('crlf_and_tabs', 'prim a : Str\r\npurify {\ta\r\n}', [
        ('kw', 'prim', 1, 1, False), ('ident', 'a', 1, 6, False), (':', ':', 1, 8, False),
        ('kw', 'Str', 1, 10, False), ('kw', 'purify', 2, 1, False), ('{', '{', 2, 8, False),
        ('ident', 'a', 2, 10, False), ('}', '}', 3, 1, False), ('eof', '', 3, 2, False),
    ]),
    ('tab_columns', '\t\tx\ty', [
        ('ident', 'x', 1, 3, False), ('ident', 'y', 1, 5, False), ('eof', '', 1, 6, False),
    ]),
    ('comment_at_eof', 'purify { a } -- done', [
        ('kw', 'purify', 1, 1, False), ('{', '{', 1, 8, False),
        ('ident', 'a', 1, 10, False), ('}', '}', 1, 12, False), ('eof', '', 1, 21, False),
    ]),
    ('comment_after_token', 'a-- c\n b', [
        ('ident', 'a', 1, 1, False), ('ident', 'b', 2, 2, False), ('eof', '', 2, 3, False),
    ]),
    ('glued_comment_at_eof', 'a--c', [
        ('ident', 'a', 1, 1, False), ('eof', '', 1, 5, False),
    ]),
    ('only_a_comment', '-- only a comment', [
        ('eof', '', 1, 18, False),
    ]),
    ('empty', '', [
        ('eof', '', 1, 1, False),
    ]),
    ('only_blanks', ' \n\t', [
        ('eof', '', 2, 2, False),
    ]),
    ('spaced_paren', 'f ("a")', [
        ('ident', 'f', 1, 1, False), ('(', '(', 1, 3, False), ('string', 'a', 1, 4, True),
        (')', ')', 1, 7, True), ('eof', '', 1, 8, False),
    ]),
    ('glued_paren', 'f("a")', [
        ('ident', 'f', 1, 1, False), ('(', '(', 1, 2, True), ('string', 'a', 1, 3, True),
        (')', ')', 1, 6, True), ('eof', '', 1, 7, False),
    ]),
    ('word_forms', "$ $1 _x x' a_b'2", [
        ('ident', '$', 1, 1, False), ('ident', '$1', 1, 3, False),
        ('ident', '_x', 1, 6, False), ('ident', "x'", 1, 9, False),
        ('ident', "a_b'2", 1, 12, False), ('eof', '', 1, 17, False),
    ]),
    ('projections', 'x.1.2 .1 .2', [
        ('ident', 'x', 1, 1, False), ('.1', '.1', 1, 2, True), ('.2', '.2', 1, 4, True),
        ('.1', '.1', 1, 7, False), ('.2', '.2', 1, 10, False), ('eof', '', 1, 12, False),
    ]),
    ('projection_3', 'x.3', "1:2: expected token (found '.')"),
    ('comment_swallows_arrow', '-->->++', [
        ('eof', '', 1, 8, False),
    ]),
    ('keywords', 'let effect prim purify fun in Unit Str Eff pure map ap join lets', [
        ('kw', 'let', 1, 1, False), ('kw', 'effect', 1, 5, False),
        ('kw', 'prim', 1, 12, False), ('kw', 'purify', 1, 17, False),
        ('kw', 'fun', 1, 24, False), ('kw', 'in', 1, 28, False),
        ('kw', 'Unit', 1, 31, False), ('kw', 'Str', 1, 36, False),
        ('kw', 'Eff', 1, 40, False), ('kw', 'pure', 1, 44, False),
        ('kw', 'map', 1, 49, False), ('kw', 'ap', 1, 53, False),
        ('kw', 'join', 1, 56, False), ('ident', 'lets', 1, 61, False),
        ('eof', '', 1, 65, False),
    ]),
    ('string_escapes', '"" "a\\n\\t\\"\\\\b" "--"', [
        ('string', '', 1, 1, False), ('string', 'a\n\t"\\b', 1, 4, False),
        ('string', '--', 1, 17, False), ('eof', '', 1, 21, False),
    ]),
    ('unterminated_at_eof', '"abc', '1:1: expected closing quote'),
    ('unterminated_at_newline', '"ab\ncd"', '1:1: expected closing quote'),
    ('invalid_escape', 'x "a\\q"', '1:5: expected valid escape (\\n \\t \\" \\\\)'),
    ('backslash_at_eof', '"ab\\', '1:4: expected escape character'),
    ('escaped_newline', '"ab\\\n"', '1:4: expected valid escape (\\n \\t \\" \\\\)'),
    ('lone_minus', 'a - b', "1:3: expected token (found '-')"),
    ('hash', 'a # b', "1:3: expected token (found '#')"),
    ('form_feed', 'a\x0cb', "1:2: expected token (found '\\x0c')"),
    ('no_break_space', 'a\xa0b', "1:2: expected token (found '\\xa0')"),
    ('superscript_start', '²x', "1:1: expected token (found '²')"),
    ('superscript_start_line_2', 'x\r\n\t²', "2:2: expected token (found '²')"),
    ('superscript_inside', 'x²', [
        ('ident', 'x²', 1, 1, False), ('eof', '', 1, 3, False),
    ]),
    ('superscript_before_hash', '²x #', "1:1: expected token (found '²')"),
    ('hash_before_superscript', '# ²x', "1:1: expected token (found '#')"),
    ('escape_before_hash', '"a\\q" #', '1:3: expected valid escape (\\n \\t \\" \\\\)'),
    ('unterminated_after_word', 'x "abc', '1:3: expected closing quote'),
    ('unicode_words', 'été λ', [
        ('ident', 'été', 1, 1, False), ('ident', 'λ', 1, 5, False),
        ('eof', '', 1, 6, False),
    ]),
    ('digit_start', '1x', "1:1: expected token (found '1')"),
    ('quote_start', "'x", '1:1: expected token (found "\'")'),
]


@pytest.mark.parametrize("name, text, expected", LEXER_PINS, ids=[p[0] for p in LEXER_PINS])
def test_lexer_pins(name, text, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as ei:
            tokenize(text)
        assert str(ei.value) == expected
    else:
        toks = tokenize(text)
        assert len(toks) == len(expected)
        assert [(t.kind, t.text, t.line, t.col, t.glued) for t in toks] == expected


def test_lexing_and_diagnostics_take_linear_time():
    """Long strings and comments on many lines, each with an unbound name
    that records a diagnostic, and the position of every token: no
    position is found by rescanning the text."""
    line = 'ghost ++ "' + "s" * 200 + '" -- ' + "c" * 200 + "\n ++ "

    def best(n):
        text = "prim concat : Str -> Str -> Str\npurify {\n" + line * n + '"end" }'
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            with pytest.raises(UnboundName) as ei:
                parse(text)
            last = [(t.line, t.col) for t in tokenize(text)][-1]
            times.append(time.perf_counter() - t0)
        assert str(ei.value) == "3:1: unbound name 'ghost'"
        assert last == (n + 3, 12)
        return min(times)

    # linear within 2x: 8x the text may take at most 16x the time
    assert best(800) <= 16 * best(100)


def test_parse_target_rejects_marks_and_lets():
    sig = Signature()
    with pytest.raises(ParseError):
        parse_target_expr("x!", sig)
    with pytest.raises(ParseError):
        parse_target_expr('let x = "a" in x', sig)


# ---------------------------------------------------------------------------
# Diagnostics: one error per program, with its exact message
# ---------------------------------------------------------------------------

_F = "effect f : Str -> Eff Str\n"

SOURCE_DIAGNOSTICS = [
    ("purify { ghost }", UnboundName, "1:10: unbound name 'ghost'"),
    ('purify { "a" ++ "b" }', UnboundName, "1:14: unbound name 'concat'"),
    (_F + "purify { fun x -> f(x)! }", MarkUnderLambda,
     "2:23: effect mark '!' under a lambda; lambda bodies are pure"),
    (_F + 'purify { let x = f("a")! in x }', LetTooEffectful,
     "2:10: bound expression of let has effect marks; "
     "rewrite with nested marks, e.g. f(g(x)!)!"),
    (_F + 'purify { let x = "a" in (f(x)!, f(x)!) }', LetTooEffectful,
     "2:10: let continuation uses more than one effect mark; "
     "rewrite with nested marks (f(g(x)!)! style)"),
    ("purify { (fun x -> x : Str) }", ParseError, "1:22: expected an arrow type annotation"),
    ("purify { $x }", ParseError, "1:10: expected identifier (prefix '$' is reserved)"),
    ("prim $a : Str\npurify { () }", ParseError,
     "1:6: expected identifier (prefix '$' is reserved)"),
    ("purify { fun $x -> () }", ParseError,
     "1:14: expected identifier (prefix '$' is reserved)"),
    ("effect f : -> Str\npurify { () }", ParseError, "1:12: expected a type"),
]

TARGET_DIAGNOSTICS = [
    ("ghost", UnboundName, "1:1: unbound name 'ghost'"),
    ("pure (pure ())", ParseError,
     "1:7: expected a pure expression (combinator in common position)"),
    ("pure (fun x -> map x x)", ParseError,
     "1:16: expected a pure expression (combinator in common position)"),
    ("map (fun x -> x : Str) (pure ())", ParseError, "1:17: expected an arrow type annotation"),
    ("x!", ParseError, "1:2: expected no effect mark in target terms"),
    ("fun x -> fetch(x)!", ParseError, "1:18: expected no effect mark in target terms"),
    ('let x = "a" in x', ParseError, "1:1: expected no let in target terms"),
]


@pytest.mark.parametrize("text, error, message", SOURCE_DIAGNOSTICS)
def test_source_diagnostic_messages(text, error, message):
    with pytest.raises(error) as ei:
        parse_and_elaborate(text)
    assert str(ei.value) == message


@pytest.mark.parametrize("text, error, message", TARGET_DIAGNOSTICS)
def test_target_diagnostic_messages(text, error, message):
    with pytest.raises(error) as ei:
        parse_target_expr(text, default_signature())
    assert str(ei.value) == message


@pytest.mark.parametrize("text, message", [
    ("purify { (ghost }", "1:17: expected ')' (found '}')"),
    ("purify { (fun x -> ghost!, }", "1:28: expected an expression (found '}')"),
    (_F + 'purify { let x = f("a")! in (x }', "2:32: expected ')' (found '}')"),
    ("effect e : Str\npurify { ( }", "2:12: expected an expression (found '}')"),
])
def test_syntax_error_wins_over_elaboration_errors(text, message):
    with pytest.raises(ParseError) as ei:
        parse_and_elaborate(text)
    assert str(ei.value) == message


def test_unexpected_empty_string_is_not_end_of_input():
    with pytest.raises(ParseError) as ei:
        parse('purify { let x "" in x }')
    assert str(ei.value) == "1:16: expected '=' (found '')"


def test_syntax_error_wins_in_target_terms():
    with pytest.raises(ParseError) as ei:
        parse_target_expr("map (pure (pure ghost)) (", default_signature())
    assert str(ei.value) == "1:26: expected an expression (found 'end of input')"


@pytest.mark.parametrize("text, error, message", [
    ("purify { fun x -> y! }", UnboundName, "1:19: unbound name 'y'"),
    ('purify { ghost ++ "b" }', UnboundName, "1:10: unbound name 'ghost'"),
    (_F + 'purify { let x = g("a")! in x }', UnboundName, "2:18: unbound name 'g'"),
    (_F + 'purify { let x = f("a")! in ghost }', LetTooEffectful,
     "2:10: bound expression of let has effect marks; "
     "rewrite with nested marks, e.g. f(g(x)!)!"),
    (_F + "purify { (fun x -> f(x)!, ghost) }", MarkUnderLambda,
     "2:24: effect mark '!' under a lambda; lambda bodies are pure"),
])
def test_first_elaboration_error_in_source_order_wins(text, error, message):
    with pytest.raises(error) as ei:
        parse_and_elaborate(text)
    assert str(ei.value) == message
