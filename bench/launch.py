"""Child-side launcher: run ``repro.cli.main`` on a list of argv in one process.

Usage: ``python bench/launch.py '[["fig1", "--workers", "1"], ["fig2"]]'``

The program's own output goes to stdout untouched.  The last stderr line
is ``BENCH-LAUNCH {json}`` with ``perf_counter`` stamps (a system-wide
clock, comparable with the parent's): ``ready`` once ``repro.cli`` is
imported, ``end`` after the last command, each command's exit code, and
the process's peak resident set.  An empty list measures set-up alone.
"""

import json
import resource
import sys
import time


def main() -> int:
    commands = json.loads(sys.argv[1])
    # sys.path[0] is bench/, whose modules must not shadow the program's
    sys.path.pop(0)
    import repro.cli

    ready = time.perf_counter()
    codes = []
    for argv in commands:
        try:
            code = repro.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        codes.append(int(code or 0))
    end = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ready": ready,
        "end": end,
        "codes": codes,
        "rss_mb": rss_kb / 1024.0,
    }
    print("BENCH-LAUNCH " + json.dumps(report), file=sys.stderr, flush=True)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
