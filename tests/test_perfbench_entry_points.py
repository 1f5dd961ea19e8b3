"""The benchmark's entry points into sarlab.

perfbench calls sarlab by name: SolverOptions(seed=..., allow_nonorthonormal_c=...),
sarlab sweep --seed, cli.parse_range(text, name), cli.load_embedding,
certify._solve_fixed_nu and TrainOptions.batch_size among them.  A traced
tiny run of each workload reaches every one, so deleting one fails here
rather than in the benchmark."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["scalar_oracle", "neuron_pipeline"])
def test_a_traced_tiny_benchmark_run_passes_its_checks(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # 60 tiny epochs cannot meet criterion 05a's 2% channel bar, as perfbench/selftest.py allows
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith("check failed:") and "channel RMS" not in line]
    assert failed == []
