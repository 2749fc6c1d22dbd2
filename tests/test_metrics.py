import itertools
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from purify.check import TypeEnv, typecheck
from purify.metrics import (
    UnknownEffect, dag_iso, dyn_span, dyn_work, empty_dag, parallel_compose,
    sequential_compose, simulate_latency, single_effect, span, span_work, to_dot, work,
)
from purify.propcheck import (
    GenConfig, Unsatisfiable, _gen_plain, _sub_seed, default_signature, gen_term,
)
from purify.semantics import VUNIT, evaluate, make_const_env, trace_monad
from purify.surface import parse_and_elaborate
from purify.terms import (
    App, COM, Const, Each, Lam, Lit, Prd, SRC, TGT, Var, alpha_eq, relabel,
)
from purify.translate import naive_translate, normalize, opt_translate, seq_translate

DEMO = Path(__file__).resolve().parent.parent / "demos" / "programs"


@pytest.fixture
def sig():
    return default_signature()


def _fetch(lit, lab=SRC):
    return App(Const("fetch", label=lab), Lit(lit, label=lab), label=lab)


def test_span_work_two_fetch_pair(sig):
    t = Prd(Each(_fetch("foo"), label=SRC), Each(_fetch("bar"), label=SRC), label=SRC)
    assert span(t, sig) == 1
    assert work(t, sig) == 2


def test_span_work_of_translated_pair(two_fetches):
    sig, body = two_fetches
    out = opt_translate(body)
    typecheck(out, TGT, TypeEnv(sig))
    assert span(out, sig) == 1
    assert work(out, sig) == 2


def test_values_cost_nothing(sig):
    lam = Lam("x", Var("x", label=COM), label=COM)
    assert span(lam, sig) == 0 and work(lam, sig) == 0


def test_two_chain_program_metrics(two_chains):
    sig, body = two_chains
    assert (span(body, sig), work(body, sig)) == (2, 4)
    opt = opt_translate(body)
    naive = naive_translate(body)
    seq = seq_translate(body)
    env = TypeEnv(sig)
    for t in (opt, naive, seq):
        typecheck(t, TGT, env)
    assert (span(opt, sig), work(opt, sig)) == (2, 4)
    assert (span(seq, sig), work(seq, sig)) == (4, 4)


def test_span_le_work_generated(sig):
    for label in (SRC, TGT):
        for i in range(300):
            t = gen_term(GenConfig(max_depth=5, seed=12000 + i, label=label))
            assert span(t, sig) <= work(t, sig)


# ---------------------------------------------------------------------------
# Series-parallel traces
# ---------------------------------------------------------------------------

# A series-parallel term drawn for tests: ("empty",), ("leaf", effect, arg),
# ("seq", a, b) or ("par", a, b).  ``build`` makes the trace with the public
# constructors; ``expand`` makes its graph straight from the definition of
# the trace monad, independently of the trace representation.

@st.composite
def sp_terms(draw, max_leaves):
    """A random series-parallel term with up to ``max_leaves`` effects, some
    of them composed with an empty trace."""
    def go(n):
        if n == 0:
            return ("empty",)
        if n == 1:
            leaf = ("leaf", draw(st.sampled_from("fg")), draw(st.sampled_from(["", "x"])))
            if draw(st.integers(0, 4)) < 4:  # one leaf in five gets an empty partner
                return leaf
            kind, first = draw(st.sampled_from(["seq", "par"])), draw(st.booleans())
            return (kind, leaf, ("empty",)) if first else (kind, ("empty",), leaf)
        k = draw(st.integers(1, n - 1))
        return (draw(st.sampled_from(["seq", "par"])), go(k), go(n - k))

    return go(draw(st.integers(0, max_leaves)))


@st.composite
def reshaped(draw, term):
    """A term with the same graph: par operands swapped, seq/par regrouped."""
    if term[0] not in ("seq", "par"):
        return term
    kind, a, b = term[0], draw(reshaped(term[1])), draw(reshaped(term[2]))
    if kind == "par" and draw(st.booleans()):
        a, b = b, a
    if b[0] == kind and draw(st.booleans()):
        return (kind, (kind, a, b[1]), b[2])
    return (kind, a, b)


def build(term):
    if term[0] == "empty":
        return empty_dag(VUNIT)
    if term[0] == "leaf":
        return single_effect(term[1], term[2], VUNIT)
    compose = sequential_compose if term[0] == "seq" else parallel_compose
    return compose(build(term[1]), build(term[2]), VUNIT)


def expand(term):
    """(labels in construction order, edges) of the trace's dependency graph."""
    labels, edges = [], set()

    def go(t):  # -> (sources, sinks) as leaf indices
        if t[0] == "empty":
            return [], []
        if t[0] == "leaf":
            labels.append((t[1], t[2]))
            return [len(labels) - 1], [len(labels) - 1]
        (src_a, snk_a), (src_b, snk_b) = go(t[1]), go(t[2])
        if t[0] == "par":
            return src_a + src_b, snk_a + snk_b
        edges.update(itertools.product(snk_a, src_b))
        return (src_a or src_b), (snk_b or snk_a)

    go(term)
    return labels, edges


def dot_graph(dot):
    labels, edges = [], set()
    for line in dot.splitlines()[2:-1]:
        if "->" in line:
            a, b = line.strip(" ;").split(" -> ")
            edges.add((int(a[1:]), int(b[1:])))
        else:
            name = line.split('"')[1]
            effect, _, arg = name.partition("(")
            labels.append((effect, arg[:-1]))
    return labels, edges


def brute_force_iso(g1, g2):
    (labels1, edges1), (labels2, edges2) = g1, g2
    if len(labels1) != len(labels2) or len(edges1) != len(edges2):
        return False
    for perm in itertools.permutations(range(len(labels1))):
        if all(labels1[i] == labels2[p] for i, p in enumerate(perm)) and \
                {(perm[a], perm[b]) for a, b in edges1} == edges2:
            return True
    return False


def test_empty_dag():
    d = empty_dag(VUNIT)
    assert dyn_span(d) == 0 and dyn_work(d) == 0
    assert simulate_latency(d, {}) == 0.0


def test_two_independent_nodes():
    d = parallel_compose(single_effect("f", "", VUNIT), single_effect("f", "", VUNIT), VUNIT)
    assert dyn_span(d) == 1 and dyn_work(d) == 2


def test_chain_of_four():
    d = single_effect("f", "0", VUNIT)
    for i in range(3):
        d = sequential_compose(d, single_effect("f", str(i + 1), VUNIT), VUNIT)
    assert dyn_span(d) == 4 and dyn_work(d) == 4
    assert simulate_latency(d, {"f": 100.0}) == 400.0


def test_latency_parallel_vs_sequential():
    two_par = parallel_compose(single_effect("f", "", VUNIT), single_effect("f", "", VUNIT), VUNIT)
    assert simulate_latency(two_par, {"f": 100.0}) == 100.0
    two_seq = sequential_compose(single_effect("f", "", VUNIT), single_effect("f", "", VUNIT), VUNIT)
    assert simulate_latency(two_seq, {"f": 100.0}) == 200.0


def test_unknown_effect():
    d = single_effect("mystery", "", VUNIT)
    with pytest.raises(UnknownEffect):
        simulate_latency(d, {"f": 1.0})


@given(st.data())
def test_expanded_trace_is_acyclic(data):
    term = data.draw(sp_terms(8))
    labels, edges = expand(term)
    dot = to_dot(build(term))
    # to_dot draws exactly the expanded graph: nodes in construction order,
    # sinks of each Seq's first half joined to sources of its second half
    assert dot_graph(dot) == (labels, edges)
    indeg = {i: 0 for i in range(len(labels))}
    for _, b in edges:
        indeg[b] += 1
    ready = [i for i, k in indeg.items() if k == 0]
    removed = 0
    while ready:
        a = ready.pop()
        removed += 1
        for x, b in edges:
            if x == a:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    assert removed == len(labels)  # Kahn's algorithm consumed every node


def test_dag_iso_respects_labels_and_shape():
    a = sequential_compose(single_effect("f", "x", VUNIT), single_effect("g", "y", VUNIT), VUNIT)
    b = sequential_compose(single_effect("f", "x", VUNIT), single_effect("g", "y", VUNIT), VUNIT)
    assert dag_iso(a, b)
    flipped = sequential_compose(single_effect("g", "y", VUNIT), single_effect("f", "x", VUNIT), VUNIT)
    assert not dag_iso(a, flipped)
    par = parallel_compose(single_effect("f", "x", VUNIT), single_effect("g", "y", VUNIT), VUNIT)
    assert not dag_iso(a, par)


def test_dag_iso_par_order_and_nesting_do_not_matter():
    f, g, h = (single_effect(e, "", VUNIT) for e in "fgh")
    left = parallel_compose(parallel_compose(f, g, VUNIT), h, VUNIT)
    right = parallel_compose(h, parallel_compose(g, f, VUNIT), VUNIT)
    assert dag_iso(left, right)
    chain1 = sequential_compose(sequential_compose(f, g, VUNIT), h, VUNIT)
    chain2 = sequential_compose(f, sequential_compose(g, h, VUNIT), VUNIT)
    assert dag_iso(chain1, chain2)
    e = [single_effect("e", str(i), VUNIT) for i in range(5)]
    chain3 = sequential_compose(sequential_compose(e[0], e[1], VUNIT), sequential_compose(
        e[2], sequential_compose(e[3], e[4], VUNIT), VUNIT), VUNIT)
    chain4 = e[0]
    for x in e[1:]:
        chain4 = sequential_compose(chain4, x, VUNIT)
    assert dag_iso(chain3, chain4)
    assert not dag_iso(sequential_compose(f, g, VUNIT), sequential_compose(g, f, VUNIT))
    assert dag_iso(parallel_compose(empty_dag(VUNIT), f, VUNIT), f)
    assert not dag_iso(empty_dag(VUNIT), f)


@given(st.data())
def test_dag_iso_matches_brute_force_isomorphism(data):
    t1 = data.draw(sp_terms(7))
    t2 = data.draw(st.one_of(sp_terms(7), reshaped(t1)))
    assert dag_iso(build(t1), build(t2)) == brute_force_iso(expand(t1), expand(t2))


def test_shared_subtree_counts_each_occurrence():
    # an effect value run twice puts one subtree in two places
    x = sequential_compose(single_effect("f", "", VUNIT), single_effect("g", "", VUNIT), VUNIT)
    d = parallel_compose(x, sequential_compose(x, x, VUNIT), VUNIT)
    assert (dyn_span(d), dyn_work(d)) == (4, 6)
    assert simulate_latency(d, {"f": 1.0, "g": 10.0}) == 22.0
    assert len(d.nodes) == 6 and to_dot(d).count("->") == 4
    assert dag_iso(d, build(
        ("par", ("seq", ("leaf", "f", ""), ("leaf", "g", "")),
         ("seq", ("seq", ("leaf", "f", ""), ("leaf", "g", "")),
          ("seq", ("leaf", "f", ""), ("leaf", "g", ""))))))


def test_dag_iso_equal_profile_traces_are_fast():
    # eight parallel 3-chains of one effect: every node has one of three
    # degree profiles, which made a backtracking matcher exponential
    def leaf():
        return single_effect("f", "", VUNIT)

    def chain(k, nest_left):
        d = leaf()
        for _ in range(k - 1):
            d = sequential_compose(d, leaf(), VUNIT) if nest_left else sequential_compose(leaf(), d, VUNIT)
        return d

    def fan(chains):
        d = chains[0]
        for c in chains[1:]:
            d = parallel_compose(d, c, VUNIT)
        return d

    start = time.perf_counter()
    a = fan([chain(3, True) for _ in range(8)])
    b = parallel_compose(fan([chain(3, False) for _ in range(4)]),
                         fan([chain(3, True) for _ in range(4)]), VUNIT)
    # the edge y->z of one chain x->y->z moved to w->z of another: a 2-chain
    # and a 4-chain, with 24 nodes and 16 edges like the others
    moved = fan([chain(3, True) for _ in range(6)] + [chain(2, True), chain(4, False)])
    assert (dyn_work(a), dyn_work(b), dyn_work(moved)) == (24, 24, 24)
    assert to_dot(moved).count("->") == to_dot(a).count("->") == 16
    assert dag_iso(a, b) and dag_iso(b, a)
    assert not dag_iso(a, moved) and not dag_iso(moved, b)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("compose", [sequential_compose, parallel_compose])
def test_ten_thousand_leaves_without_recursion_error(compose):
    n = 10_000
    left, right = single_effect("f", "0", VUNIT), single_effect("f", str(n - 1), VUNIT)
    for i in range(1, n):
        left = compose(left, single_effect("f", str(i), VUNIT), VUNIT)
        right = compose(single_effect("f", str(n - 1 - i), VUNIT), right, VUNIT)
    chain = compose is sequential_compose
    assert dyn_span(left) == (n if chain else 1) and dyn_work(left) == n
    assert simulate_latency(right, {"f": 2.0}) == (2.0 * n if chain else 2.0)
    assert dag_iso(left, right)
    dot = to_dot(left)
    assert dot.count("[label=") == n and dot.count("->") == (n - 1 if chain else 0)
    assert dot == to_dot(right)


def test_to_dot_deterministic():
    d = sequential_compose(single_effect("f", "u", VUNIT), single_effect("g", "", VUNIT), VUNIT)
    dot = to_dot(d)
    assert 'n0 [label="f(u)"];' in dot
    assert "n0 -> n1;" in dot
    assert dot == to_dot(d)


NESTED_CHAINS_NODES = (
    'digraph trace {\n  graph [v=1];\n'
    '  n0 [label="fetch(urlXX)"];\n  n1 [label="fetch(fetch(urlXX))"];\n'
    '  n2 [label="fetch(urlYY)"];\n  n3 [label="fetch(fetch(urlYY))"];\n'
)


def test_to_dot_nested_chains_demo_pinned():
    sig, body = parse_and_elaborate((DEMO / "nested_chains.pfy").read_text())
    env = TypeEnv(sig)
    typecheck(body, SRC, env)
    m = trace_monad()
    cenv = make_const_env(sig, m)
    opt, seq = opt_translate(body), seq_translate(body)
    for t in (opt, seq):
        typecheck(t, TGT, env)
    two_chains = NESTED_CHAINS_NODES + "  n0 -> n1;\n  n2 -> n3;\n}"
    assert to_dot(evaluate(body, SRC, m, cenv)) == two_chains
    assert to_dot(evaluate(opt, TGT, m, cenv).action) == two_chains
    assert to_dot(evaluate(seq, TGT, m, cenv).action) == (
        NESTED_CHAINS_NODES + "  n0 -> n1;\n  n1 -> n2;\n  n2 -> n3;\n}"
    )


# ---------------------------------------------------------------------------
# Static/dynamic agreement
# ---------------------------------------------------------------------------

def test_static_equals_dynamic_on_source_terms(sig):
    """Static span/work of the source and of every translation equal the
    trace of its run, on the dependency oracle's terms; the optimizing
    translation keeps the source's, normalizing finds no more parallelism
    than it has, and the naive translation normalizes to the same term
    (the smart constructors' collapses are normalizer rules)."""
    m = trace_monad()
    env = make_const_env(sig, m)
    checked = 0
    for depth, seed in [(6, 51), (4, 1)]:
        for i in range(1_500):
            try:
                t = _gen_plain(GenConfig(depth, _sub_seed(seed, i), sig, SRC), i)
            except Unsatisfiable:
                continue
            opt, naive = opt_translate(t), naive_translate(t)
            norm = normalize(opt)
            sides = [("src", t, evaluate(t, SRC, m, env))] + [
                (name, out, evaluate(out, TGT, m, env).action)
                for name, out in (("opt", opt), ("naive", naive),
                                  ("seq", seq_translate(t)), ("normalize", norm))]
            for name, out, d in sides:
                assert span_work(out, sig) == (dyn_span(d), dyn_work(d)), (depth, seed, i, name)
            assert span_work(opt, sig) == span_work(t, sig), (depth, seed, i)
            assert span(norm, sig) == span(opt, sig), (depth, seed, i)
            assert alpha_eq(norm, normalize(naive)), (depth, seed, i)
            checked += 1
    assert checked > 2_800


@given(st.data())
def test_dyn_measures_match_longest_path_random_traces(data):
    term = data.draw(sp_terms(8))
    labels, edges = expand(term)
    latencies = {"f": 3.0, "g": 5.0}
    longest, finish = [], []  # leaf order is a topological order of the edges
    for j, (effect, _) in enumerate(labels):
        preds = [i for i, b in edges if b == j]
        longest.append(1 + max((longest[i] for i in preds), default=0))
        finish.append(latencies[effect] + max((finish[i] for i in preds), default=0.0))
    d = build(term)
    assert dyn_span(d) == max(longest, default=0)
    assert dyn_work(d) == len(labels)
    assert simulate_latency(d, latencies) == max(finish, default=0.0)
    assert dyn_span(d) <= dyn_work(d)


def test_relabelled_common_terms_stay_effect_free(sig):
    for i in range(200):
        t = gen_term(GenConfig(max_depth=5, seed=15000 + i, label=COM))
        typecheck(t, COM, TypeEnv(sig))
        out = relabel(t, TGT)
        assert span(out, sig) == 0 and work(out, sig) == 0
