#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent <rev> --pr <n> --seeds 2051:2060

Run from the root of a checkout.  Both sides run from fresh copies in
temporary directories, so that neither runs where earlier runs left files:
the parent revision's files exported with ``git archive``, and the working
tree's tracked and untracked files (not the ignored ones).  For each
workload (scalar_oracle, neuron_pipeline) and each seed, ``python3
perfbench/run.py --workload <w> --seed <s> --seconds 30 --trace 0`` runs
once in each copy, the parent first in the
1st, 3rd, 5th, ... pair and the working tree first in the others.  The
metrics each run prints on its last line are summarized per side as medians
and quartiles (statistics.quantiles, n=4), with the change's median over the
parent's (change_over_parent) and the number of pairs in which the change
read better, and written to ``BENCH_<pr>.json``; one line per workload
prints those two figures for each metric.  perfbench/ is only run, never
changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WORKLOADS = ("scalar_oracle", "neuron_pipeline")
SECONDS = 30  # BENCHMARK.json's run_seconds


def better_is_lower() -> dict[str, bool]:
    """End-to-end metric name -> whether a lower value is better, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def summarize(pairs: list[dict], lower_is_better: dict[str, bool]) -> dict:
    """One workload's pairs -> its BENCH_*.json entry.

    Each pair is {"seed", "parent", "change"}; each side is the last line
    perfbench/run.py printed: {"metrics": {name: {"value", "unit"}},
    "attempted", "failed"}.  A pair counts towards change_better_pairs when
    the change's value is strictly better; ties count for neither side.
    change_over_parent is the change's median divided by the parent's (None
    when the parent's median is 0)."""
    def quartiles(values: list[float]) -> dict:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return {"q1": q1, "median": statistics.median(values), "q3": q3}

    metrics = {}
    for name, lower in lower_is_better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        better = sum((c < p) if lower else (c > p)
                     for p, c in zip(values["parent"], values["change"]))
        sides = {side: quartiles(values[side]) for side in SIDES}
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        metrics[name] = {"unit": pairs[0]["parent"]["metrics"][name]["unit"], **sides,
                         "change_over_parent": change / parent if parent else None,
                         "change_better_pairs": better}
    return {
        "seeds": [p["seed"] for p in pairs],
        "pairs": len(pairs),
        "metrics": metrics,
        "failed_checks": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted_checks": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "runs": [{"seed": p["seed"], "first": p["first"],
                  **{side: {name: p[side]["metrics"][name]["value"] for name in lower_is_better}
                     for side in SIDES}}
                 for p in pairs],
    }


def summary_line(workload: str, entry: dict) -> str:
    """One workload's summary entry as one line: per metric, the change's
    median over the parent's and the pairs the change won."""
    def ratio(r):
        return "n/a" if r is None else f"{r:.3f}"

    metrics = ", ".join(f"{name} x{ratio(m['change_over_parent'])} "
                        f"({m['change_better_pairs']}/{entry['pairs']} better)"
                        for name, m in entry["metrics"].items())
    return f"{workload}: change/parent medians: {metrics}"


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in checkout; its last stdout line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(revision: str | None, dest: Path) -> None:
    """The files of revision, or of the working tree when it is None, into dest."""
    if revision is not None:
        archive = subprocess.run(["git", "archive", revision], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        return
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def seed_range(text: str) -> list[int]:
    """'a:b' -> the seeds a..b inclusive."""
    first, last = (int(t) for t in text.split(":"))
    if last < first:
        raise argparse.ArgumentTypeError(f"want first:last with first <= last, got {text!r}")
    return list(range(first, last + 1))


def machine() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pr", required=True, type=int, help="writes BENCH_<pr>.json")
    ap.add_argument("--seeds", required=True, type=seed_range, help="first:last, one pair each")
    args = ap.parse_args(argv)
    revision = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    lower = better_is_lower()
    out = {"pr": args.pr,
           "what": (f"perfbench/run.py --seconds {SECONDS} --trace 0, parent commit "
                    f"{revision} and the working tree, each copied into a fresh directory, "
                    "run in alternating order (the parent first in the 1st, 3rd, 5th, ... "
                    "pair of each workload), one pair per seed; values are the medians and "
                    "quartiles (statistics.quantiles, n=4) over the pairs; runs lists every "
                    "pair's values"),
           "machine": machine(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (revision, None)):
            checkouts[side].mkdir()
            export(rev, checkouts[side])
        for workload in WORKLOADS:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(checkouts[side], workload, seed)
                    values = {k: v["value"] for k, v in pair[side]["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: {json.dumps(values)}", flush=True)
                pairs.append(pair)
            out["workloads"][workload] = summarize(pairs, lower)
            print(summary_line(workload, out["workloads"][workload]), flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
