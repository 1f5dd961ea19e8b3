#!/usr/bin/env python3
"""Regenerate every figure artifact into out/ (fig3, fig4, fig5).

Equivalent to running `sarlab reproduce figN` three times; exits with the
first nonzero code encountered.  The fig5 sweep, the one recipe that takes
--jobs, uses one worker per CPU this process may run on (results do not
depend on the worker count).
"""

import os
import sys

from sarlab.cli import main


def run(out_dir: str = "out", jobs: int | None = None) -> int:
    if jobs is None:
        jobs = len(os.sched_getaffinity(0))
    for fig in ("fig3", "fig4", "fig5"):
        print(f"== {fig} ==", flush=True)
        code = main(["reproduce", fig, "--out", out_dir]
                    + (["--jobs", str(jobs)] if fig == "fig5" else []))
        if code != 0:
            print(f"{fig} exited {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out"
    sys.exit(run(out))
