"""Interpreter start-up hook for traced benchmark passes.

Python imports ``sitecustomize`` from the path at start-up; the benchmark
puts this directory on ``PYTHONPATH`` only for traced passes, and the
variable is inherited by every subprocess the program spawns.
"""

import os

if os.environ.get("BENCH_TRACE_DIR"):
    try:
        import spans

        spans.install(
            os.environ["BENCH_TRACE_DIR"], os.environ.get("BENCH_TRACE_MODE", "spans")
        )
    except BaseException:
        # the site module would print this and carry on untraced; a traced
        # pass that silently measures nothing is worse than a dead one
        import traceback

        traceback.print_exc()
        os._exit(70)
