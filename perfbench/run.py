"""sarlab benchmark: time to a stability verdict.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs every workload in turn.  Run from the root of a
checkout; sarlab is imported from its ``src/``.  Workloads are described in
``workloads.py``.  A run spawns fresh worker processes, so each pass pays
what a fresh ``sarlab`` process pays and no state carries from one pass to
the next:

- ``SETUP_PROBES`` workers that only set up (interpreter, imports, input
  load) and exit;
- then one worker per pass, passes repeated until ``--seconds`` is spent.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the passes run with spans around each layer call and the
line carries the per-layer metrics instead (``trace.run_s`` minus the
untraced ``run_s`` is the tracing overhead).  The machine, every pass's
numbers, the outcomes and, when traced, the spans go to
``.bench_out/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("scalar_oracle", "neuron_pipeline")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "verdict_s_p50": "s",
    "verdict_s_p90": "s",
    "verdicts_per_s": "1/s",
    "time_to_verdict_s": "s",
    "checks_passed_share": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "certify.certify_s": "s",
    "certify.certify_calls": "count",
    "certify.nu_points": "count",
    "certify.capped": "count",
    "certify.eigh_calls": "count",
    "certify.sigma_sweep_s": "s",
    "certify.sweep_child_cpu_s": "s",
    "cli.self_s": "s",
    "certify.linear_necessity_bound_s": "s",
    "morris_lecar.calibrate_iapp_s": "s",
    "morris_lecar.calibrate_runs": "count",
    "morris_lecar.simulate_ml_s": "s",
    "morris_lecar.em_steps_per_s": "1/s",
    "shallow.train_s": "s",
    "shallow.sgd_steps": "count",
    "shallow.sgd_steps_per_s": "1/s",
    "shallow.embed_s": "s",
    "embedding.build_embedding_s": "s",
    "embedding.fit_rms_frac_max": "ratio",
    "sde.simulate_ensemble_s": "s",
    "sde.path_steps_per_s": "1/s",
    "sde.diverged_paths": "count",
    "sde.lowpass_s": "s",
    "shallow.load_embedding_s": "s",
    "trace.run_s": "s",
    "trace.bench_self_s": "s",
}


# ---------------------------------------------------------------------------
# worker side: one fresh process per setup probe or pass


def _import_workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import workloads
    return workloads


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _layer_metrics(tracer, pass_result: dict) -> dict:
    from tracer import layer_times

    t = layer_times(tracer.spans)
    c = tracer.counters
    sim_s = t.get("morris_lecar.simulate_ml", 0.0)
    train_s = t.get("shallow.train", 0.0)
    ens_s = t.get("sde.simulate_ensemble", 0.0)
    calibrations = {s["id"] for s in tracer.spans if s["name"] == "morris_lecar.calibrate_iapp"}
    return {
        "certify.certify_s": t.get("certify.certify", 0.0),
        "certify.certify_calls": c["certify.certify_calls"],
        "certify.nu_points": c["certify.nu_points"],
        "certify.capped": c["certify.capped"],
        "certify.eigh_calls": c["certify.eigh_calls"],
        "certify.sigma_sweep_s": t.get("certify.sigma_sweep", 0.0),
        "certify.sweep_child_cpu_s": pass_result.get("sweep_child_cpu_s", 0.0),
        "cli.self_s": t.get("cli.main", 0.0),
        "certify.linear_necessity_bound_s": t.get("certify.linear_necessity_bound", 0.0),
        "morris_lecar.calibrate_iapp_s": t.get("morris_lecar.calibrate_iapp", 0.0),
        "morris_lecar.calibrate_runs": sum(s["parent"] in calibrations for s in tracer.spans
                                           if s["name"] == "morris_lecar.simulate_ml"),
        "morris_lecar.simulate_ml_s": sim_s,
        "morris_lecar.em_steps_per_s": _rate(c["morris_lecar.em_steps"], sim_s),
        "shallow.train_s": train_s,
        "shallow.sgd_steps": c["shallow.sgd_steps"],
        "shallow.sgd_steps_per_s": _rate(c["shallow.sgd_steps"], train_s),
        "shallow.embed_s": t.get("shallow.embed", 0.0),
        "embedding.build_embedding_s": t.get("embedding.build_embedding", 0.0),
        "embedding.fit_rms_frac_max": c["embedding.fit_rms_frac_max"],
        "sde.simulate_ensemble_s": ens_s,
        "sde.path_steps_per_s": _rate(c["sde.path_steps"], ens_s),
        "sde.diverged_paths": c["sde.diverged_paths"],
        "sde.lowpass_s": t.get("sde.lowpass", 0.0),
        "shallow.load_embedding_s": t.get("shallow.load_embedding", 0.0),
        "trace.run_s": pass_result["run_s"],
        "trace.bench_self_s": t.get("bench.pass", 0.0),
    }


def worker(args) -> int:
    """Set up, run one pass (unless --setup-only) and write its numbers."""
    workloads = _import_workloads()
    sizes = workloads.TINY if args.tiny else workloads.FULL
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{args.pass_index}")
        tracing.install(tracer)
    inputs = workloads.load_inputs(args.workload, args.seed, sizes)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        work = Path(args.result).parent / f"pass{args.pass_index}"
        work.mkdir(parents=True, exist_ok=True)
        span = tracer.start("bench.pass") if tracer else None
        result.update(workloads.run_pass(args.workload, args.seed, sizes, inputs, work))
        if tracer:
            tracer.stop(span)
            result["layers"] = _layer_metrics(tracer, result)
            result["spans"] = tracer.spans
            result["counters"] = dict(tracer.counters)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent side


def _spawn(argv: list[str], timeout: float) -> None:
    """Run a worker to completion in its own process group; on timeout kill
    the whole group (pool workers included) and wait for it."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())] + argv,
                            stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker {argv} exceeded {timeout:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray children of a finished worker
        except ProcessLookupError:
            pass
    if rc != 0:
        raise RuntimeError(f"worker {argv} exited with {rc}")


def _worker_argv(args, extra: list[str]) -> list[str]:
    argv = ["--worker", "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())] + extra
    return argv + (["--tiny"] if args.tiny else [])


def machine() -> dict:
    import numpy
    import scipy

    def blas(cfg) -> str:
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        # as found; the benchmark leaves them as they are
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(setups: list[float], passes: list[dict], trace: bool) -> dict:
    """Metric name -> {"value", "unit"}: end-to-end, or per-layer when traced.
    Timings are medians over passes; verdict percentiles pool every verdict.

    Every workload reports every metric, so some are one measurement under
    two names: on scalar_oracle, time_to_verdict_s (to the last verdict) is
    run_s less the last check; on neuron_pipeline, whose one timed verdict
    per pass is the sigma = 0.85 certificate, verdict_s_p50 and
    verdict_s_p90 equal time_to_verdict_s, and verdicts_per_s is
    (1 + sweep rows) / run_s."""
    if trace:
        return {name: {"value": statistics.median(p["layers"][name] for p in passes),
                       "unit": unit} for name, unit in PER_LAYER.items()}
    latencies = [v for p in passes for v in p["verdict_s"]]
    checks = sum(p["checks"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "verdict_s_p50": _percentile(latencies, 0.5),
        "verdict_s_p90": _percentile(latencies, 0.9),
        "verdicts_per_s": sum(p["verdicts"] for p in passes) / sum(p["run_s"] for p in passes),
        "time_to_verdict_s": statistics.median(p["time_to_verdict_s"] for p in passes),
        "checks_passed_share": (checks - failed) / checks,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def bench(args) -> int:
    if not (SRC / "sarlab" / "__init__.py").is_file():
        print(f"error: no sarlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    tiny = "-tiny" if args.tiny else ""
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{tiny}"
    run_dir.mkdir(parents=True, exist_ok=True)
    result_file = run_dir / "worker.json"

    setups, passes = [], []
    for _ in range(SETUP_PROBES):
        _spawn(_worker_argv(args, ["--setup-only", "--result", str(result_file)]),
               WORKER_TIMEOUT_S)
        setups.append(json.loads(result_file.read_text())["setup_s"])
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        _spawn(_worker_argv(args, ["--pass-index", str(len(passes)),
                                   "--result", str(result_file)]),
               WORKER_TIMEOUT_S)
        passes.append(json.loads(result_file.read_text()))
        setups.append(passes[-1]["setup_s"])
    result_file.unlink()

    metrics = summarize(setups, passes, bool(args.trace))
    attempted = sum(p["checks"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine(),
              "setup_s_samples": setups, "passes": passes, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    for p in passes:
        for failure in p["failures"]:
            print(f"check failed: {failure}")
        print(f"outcomes: {json.dumps(p['outcomes'])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test input sizes")
    # worker-process arguments, set by the parent
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    ap.add_argument("--result", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args)
    if args.workload != "all":
        return bench(args)
    for workload in WORKLOADS:
        args.workload = workload
        print(f"# {workload}")
        if bench(args) != 0:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
