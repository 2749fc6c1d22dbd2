"""Time one fresh interpreter's set-up for a workload; prints seconds.

Run by run.py with PYTHONPATH pointing at the repository's src: the clock
starts before ``import purify`` and stops after the workload's one-time
preparation (signature, monad dictionaries, constant environments).
"""

import sys
import time

t0 = time.perf_counter()
import purify  # noqa: E402
from purify.semantics import builtin_monads, make_const_env  # noqa: E402

workload = sys.argv[1]
if workload == "gate":
    sig = purify.default_signature()
elif workload == "scale":
    from families import HEADER  # noqa: E402
    sig, _ = purify.parse_and_elaborate(HEADER + 'purify { "" }')
else:
    import purify.cli  # noqa: E402,F401  (main builds its own state per call)
    sig = None
if sig is not None:
    envs = [make_const_env(sig, m) for m in builtin_monads()]
print(time.perf_counter() - t0)
