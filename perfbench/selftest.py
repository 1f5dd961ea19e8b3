"""Fast self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload through run.py (untraced and traced) on tiny inputs and
checks that each metric BENCHMARK.json names is printed with its unit, then
flips the scalar verdicts in-process and checks that the oracle counts every
flip as a failed check.  Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# per-layer self times that tile a pass (the sweep solves one sigma, so its
# pool runs one certificate at a time)
SEQUENTIAL_LAYERS_S = ("certify.certify_s", "certify.linear_necessity_bound_s",
                       "certify.sigma_sweep_s", "cli.self_s", "shallow.load_embedding_s",
                       "morris_lecar.calibrate_iapp_s", "morris_lecar.simulate_ml_s",
                       "shallow.train_s", "shallow.embed_s", "embedding.build_embedding_s",
                       "sde.simulate_ensemble_s", "sde.lowpass_s", "trace.bench_self_s")

# layers that only the lifted sweep at the end of neuron_pipeline reaches
SWEEP_LAYERS = ("certify.sigma_sweep_s", "certify.sweep_child_cpu_s", "cli.self_s",
                "shallow.load_embedding_s")


def _declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("check failed:")]


def check_metrics() -> None:
    end_to_end, per_layer = _declared()
    for workload in ("scalar_oracle", "neuron_pipeline"):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            out, failures = _bench(workload, trace)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == declared, f"{workload} trace={trace}: metrics {got} != {declared}"
            assert out["attempted"] >= 1 and out["failed"] == len(failures)
            if workload == "neuron_pipeline":
                # 60 tiny epochs cannot meet criterion 05a's 2% bar; nothing else may fail
                failures = [f for f in failures if "channel RMS" not in f]
            assert not failures, f"{workload}: {failures}"
            values = {name: m["value"] for name, m in out["metrics"].items()}
            if trace == 0:
                share = values["checks_passed_share"]
                assert share == 1.0 - out["failed"] / out["attempted"], f"{workload}: {share}"
            else:
                accounted = sum(values[name] for name in SEQUENTIAL_LAYERS_S)
                assert abs(accounted - values["trace.run_s"]) < 1e-3 * values["trace.run_s"], (
                    f"{workload}: layer self times add up to {accounted}, "
                    f"the traced pass took {values['trace.run_s']}")
                assert values["certify.nu_points"] >= values["certify.certify_calls"] >= 1, values
                if workload == "neuron_pipeline":
                    idle = [name for name in SWEEP_LAYERS if not values[name] > 0]
                    assert not idle, f"sweep layers not measured: {idle}"
        print(f"ok: {workload} prints every declared metric with its unit")


def check_flipped_verdict() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads

    inputs = workloads.load_inputs("scalar_oracle", 3, workloads.TINY)
    honest = workloads.run_pass("scalar_oracle", 3, workloads.TINY, inputs, HERE)
    certify = workloads.cert.certify

    def flipped_certify(problem):
        cert = certify(problem)
        return dataclasses.replace(cert, feasible=not cert.feasible)

    workloads.cert.certify = flipped_certify
    try:
        flipped = workloads.run_pass("scalar_oracle", 3, workloads.TINY, inputs, HERE)
    finally:
        workloads.cert.certify = certify
    for result in (honest, flipped):
        result.update(peak_rss_mb=1.0)
    share = {name: run.summarize([1.0], [r], trace=False)["checks_passed_share"]["value"]
             for name, r in (("honest", honest), ("flipped", flipped))}
    assert share["honest"] == 1.0, share
    assert len(flipped["failures"]) == flipped["checks"] == len(inputs), flipped["failures"]
    assert share["flipped"] == 0.0, share
    print(f"ok: flipping every verdict drops checks_passed_share from 1 to 0 "
          f"({len(inputs)} checks)")


if __name__ == "__main__":
    check_flipped_verdict()
    check_metrics()
