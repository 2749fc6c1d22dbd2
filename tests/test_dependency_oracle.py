"""The source's span and work, read off the sequential baseline's bind chain.

``seq_translate`` binds one name per effect mark, in evaluation order, and
each payload names the earlier bindings whose results it uses.  Those
dependencies are what ApplicativeDo analyses (Marlow, Peyton Jones, Kmett &
Mokhov, Haskell 2016): the longest chain of them is the span a parallel run
needs, and the number of bindings is the work.  The oracle shares no code
with ``metrics`` or ``semantics``, so it checks their cost of the source
independently.

Its bound is the default signature's: there is no ``prim`` action, which
runs no effect at a mark, and no effect whose result is an action, which a
mark runs after the call.  A binding is then exactly one effect.
"""

import pytest

from purify.metrics import span, work
from purify.propcheck import GenConfig, Unsatisfiable, _gen_plain, _sub_seed, default_signature
from purify.terms import Join, Map, Pure, SRC, Var, subterms
from purify.translate import seq_translate


def _bindings(chain):
    """The ``(name, payload)`` bindings of a bind chain, outermost first."""
    out = []
    while type(chain) is Join:  # join (map (fun name -> rest) payload)
        bind = chain.nested
        out.append((bind.fun.param, bind.arg))
        chain = bind.fun.body
    if type(chain) is Map:  # the innermost: map (fun name -> final) payload
        out.append((chain.fun.param, chain.arg))
    else:
        assert type(chain) is Pure
    return out


def _oracle(term):
    """(longest dependency chain, number of bindings) of ``seq_translate(term)``."""
    depth = {}
    for name, payload in _bindings(seq_translate(term)):
        used = {n.name for n in subterms(payload) if type(n) is Var}
        depth[name] = 1 + max((d for n, d in depth.items() if n in used), default=0)
    return max(depth.values(), default=0), len(depth)


@pytest.mark.parametrize("depth, seed", [(6, 51), (4, 1)])
def test_dependency_chain_is_the_source_span(depth, seed):
    sig = default_signature()
    checked = parallel = 0
    for i in range(1_500):
        try:
            term = _gen_plain(GenConfig(depth, _sub_seed(seed, i), sig, SRC), i)
        except Unsatisfiable:
            continue
        s, w = _oracle(term)
        assert (s, w) == (span(term, sig), work(term, sig)), i
        checked += 1
        parallel += w > s
    assert checked > 1_400 and parallel > 50  # terms where span and work differ
