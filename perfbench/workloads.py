"""The benchmark's workloads: inputs drawn from a seed, one timed pass each,
and the oracle checks on every output.

Every call into sarlab goes through a module attribute (``ml.calibrate_iapp``,
``cert.certify``, ...) so that the traced run's wrappers see it.

- ``scalar_oracle``: ``certify`` on 100 scalar systems dx = a x dt + sigma x
  dbeta, one point per cell of a 10 x 10 grid over a in [-1, 1], sigma in
  [0, 1.5].  All work is the solver loop on 2 x 2 matrices; infeasible points
  set the cost.  Oracle: the closed form (stable iff 2a < sigma^2 (1 - nu) at
  some grid nu).
- ``neuron_pipeline``: the paper's demonstration from default Morris-Lecar
  parameters: calibrate the drive, fit and embed 3 nets x 10 units (1500
  epochs, training seed = workload seed), the necessity bound, the
  sigma = 0.85 certificate on the 60 x 60 matrix, then noise-free and
  state-noise neuron paths with their lowpass envelopes and a small
  ensemble of the lifted 30-state system.  The pass ends with the lifted
  sweep: it writes the fitted embedding to JSON and runs ``sarlab sweep
  <embedding.json> --sigma 0.85:0.85:0.1 --jobs <nproc>`` in-process
  through ``cli.main`` on it.
"""

from __future__ import annotations

import csv
import importlib
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sarlab  # noqa: F401  (the benchmark puts the checkout's src/ on sys.path)

ml = importlib.import_module("sarlab.morris_lecar")
emb = importlib.import_module("sarlab.embedding")
shallow = importlib.import_module("sarlab.shallow")
# by module path: the package re-exports a function named certify
cert = importlib.import_module("sarlab.certify")
cli = importlib.import_module("sarlab.cli")
sde = importlib.import_module("sarlab.sde")
lure = importlib.import_module("sarlab.lure")

SIGMA = 0.85
RMS_BAR = 0.02        # criterion 05a: channel RMS at most 2% of the channel's range
TAIL_START = 300.0    # envelope window of criterion 07
FILTER_WINDOW = 101


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, TINY is for the self-test."""

    grid_cells: int = 10
    calibrate: dict = field(default_factory=dict)  # calibrate_iapp keyword arguments
    approximate: dict = field(default_factory=dict)  # fit overrides (EmbeddingConfig keys)
    neuron_t_end: float = 500.0
    noisy_paths: int = 2
    ensemble_paths: int = 8
    ensemble_t_end: float = 20.0
    # sweep --nu-grid: two of the default grid's points, so that the pool
    # worker's run, whose time varies up to tenfold, stays a small part of a pass
    sweep_nu_grid: str = "0.45:0.5:0.05"


FULL = Sizes()
TINY = Sizes(grid_cells=2, calibrate={"grid": [40.0]},
             approximate={"epochs": 60, "n_samples": 2000},
             neuron_t_end=310.0, noisy_paths=1, ensemble_paths=2, ensemble_t_end=1.0,
             sweep_nu_grid="0.5:0.5:0.1")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Checks:
    """Oracle checks of one pass; each failure keeps a message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# inputs


def scalar_points(seed: int, cells: int) -> list[tuple[float, float]]:
    """One (a, sigma) per grid cell.  A point whose closed-form margin
    nu (2a - sigma^2 (1 - nu)) lies within 1e3 tol of zero at some grid nu is
    redrawn: there the verdict is decided by the solver's tol, not by the
    closed form."""
    rng = np.random.default_rng([seed, 2])
    nu = cert.default_nu_grid()
    near = 1e3 * cert.SolverOptions().tol
    a_edges = np.linspace(-1.0, 1.0, cells + 1)
    s_edges = np.linspace(0.0, 1.5, cells + 1)
    points = []
    for i, j in np.ndindex(cells, cells):
        while True:
            a = rng.uniform(a_edges[i], a_edges[i + 1])
            sigma = rng.uniform(s_edges[j], s_edges[j + 1])
            if np.min(np.abs(nu * (2.0 * a - sigma ** 2 * (1.0 - nu)))) > near:
                break
        points.append((float(a), float(sigma)))
    # in seeded random order, so that the cheap feasible verdicts, which set
    # the median, are spread over the whole pass rather than bunched at its
    # start, where one short slow spell of the machine would move them all
    return [points[k] for k in rng.permutation(len(points))]


def scalar_closed_form(a: float, sigma: float) -> bool:
    return bool(np.any(2.0 * a < sigma ** 2 * (1.0 - cert.default_nu_grid())))


def scalar_system(a: float, sigma: float):
    one = np.array([1.0])
    return lure.LureSystem(a=np.array([[a]]), f_gain=np.array([[0.0]]), c=np.array([[1.0]]),
                           sigma=sigma,
                           nonlinearity=lure.get_nonlinearity("tanh_bank", slopes=one),
                           sector_slopes=one, deriv_bounds=one)


def load_inputs(workload: str, seed: int, sizes: Sizes):
    """The program-side input load that counts towards setup_s."""
    if workload == "scalar_oracle":
        points = scalar_points(seed, sizes.grid_cells)
        return [(scalar_system(a, s), scalar_closed_form(a, s)) for a, s in points]
    return ml.MorrisLecarParams()


# ---------------------------------------------------------------------------
# passes


def run_pass(workload: str, seed: int, sizes: Sizes, inputs, work: Path) -> dict:
    """One timed pass.  Returns run_s, the latency of each verdict from the
    moment its inputs were given (a scalar system to certify; the neuron's
    parameters to its sigma = 0.85 certificate), the verdict count, the
    time to the last of those verdicts, check counts and the outcomes
    (design-time findings that are reported, not failed)."""
    checks = Checks()
    start = time.perf_counter()
    if workload == "scalar_oracle":
        out = _scalar(inputs, checks, start)
    else:
        out = _neuron(seed, sizes, inputs, checks, start, work)
    out["run_s"] = time.perf_counter() - start
    out["checks"] = checks.attempted
    out["failures"] = checks.failures
    return out


def _scalar(inputs, checks: Checks, start: float) -> dict:
    latencies = []
    for system, closed in inputs:
        t0 = time.perf_counter()
        verdict = cert.certify(cert.CertProblem(system)).feasible
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        checks.expect(verdict == closed,
                      f"a={system.a[0, 0]:.6g} sigma={system.sigma:.6g}: certify says "
                      f"{verdict}, closed form says {closed}")
    infeasible = sum(not closed for _, closed in inputs)
    return {"verdict_s": latencies, "verdicts": len(latencies), "time_to_verdict_s": t1 - start,
            "outcomes": {"infeasible_share": infeasible / len(inputs)}}


def _neuron(seed: int, sizes: Sizes, params, checks: Checks, start: float, work: Path) -> dict:
    p = params.with_iapp(ml.calibrate_iapp(params, **sizes.calibrate))
    cfg = emb.EmbeddingConfig(seed=seed, i_app=p.i_app, **sizes.approximate)
    report = emb.build_embedding(p, cfg)
    system = report.embedding.system
    _, floor = cert.linear_necessity_bound(system)
    problem = cert.CertProblem(system.with_sigma(SIGMA),
                               options=cert.SolverOptions(seed=seed, allow_nonorthonormal_c=True))
    certificate = cert.certify(problem)
    time_to_verdict = time.perf_counter() - start

    checks.expect(not report.diverged, "training diverged")
    for name, rms, rng in zip(emb.CHANNELS, report.channel_rms, report.channel_range):
        checks.expect(rms <= RMS_BAR * rng,
                      f"{name} channel RMS is {100 * rms / rng:.3g}% of range (bar 2%)")
    checks.expect(not (certificate.feasible and SIGMA < floor),
                  f"feasible at sigma={SIGMA} below the necessity floor {floor:.4g}: unsound")
    recomputed = cert.recompute_margin(problem.sys, certificate)
    checks.expect(abs(recomputed - certificate.margin) <= 1e-9 * max(1.0, abs(certificate.margin)),
                  f"recompute_margin gives {recomputed!r}, certificate says {certificate.margin!r}")

    # simulation side at sigma = 0.85
    sim = sde.SimConfig(t_end=sizes.neuron_t_end, dt=5e-3, seed=seed, record_stride=10)
    base = ml.simulate_ml(p, ml.DEFAULT_INIT, sim)
    checks.expect(not base.diverged, "noise-free neuron path diverged")
    tail = base.times >= TAIL_START
    base_ptp = float(np.ptp(sde.lowpass(base.states, FILTER_WINDOW)[tail, 0]))
    noisy_ptps = []
    for k in range(sizes.noisy_paths):
        noisy = ml.simulate_ml(p, ml.DEFAULT_INIT, sim, sigma=SIGMA, noise_mode="state",
                               path_index=k)
        checks.expect(not noisy.diverged, f"state-noise neuron path {k} diverged")
        noisy_ptps.append(float(np.ptp(sde.lowpass(noisy.states, FILTER_WINDOW)[tail, 0])))

    z0 = np.zeros(system.n)
    z0[:2] = ml.DEFAULT_INIT - report.x_star
    ensemble = sde.simulate_ensemble(
        system.with_sigma(SIGMA), z0,
        sde.SimConfig(t_end=sizes.ensemble_t_end, dt=1e-3, n_paths=sizes.ensemble_paths,
                      seed=seed, record_stride=100))

    sweep = _sweep(seed, sizes, report.embedding, floor, checks, work)
    return {
        "verdict_s": [time_to_verdict],
        "verdicts": 1 + len(sweep["margins"]),
        "time_to_verdict_s": time_to_verdict,
        "sweep_child_cpu_s": sweep.pop("child_cpu_s"),
        "outcomes": {
            "i_app": p.i_app,
            "channel_rms_pct_of_range": (100.0 * report.channel_rms
                                         / report.channel_range).tolist(),
            "margin_at_0.85": certificate.margin,
            "feasible_at_0.85": certificate.feasible,
            "sigma_floor": floor,
            "envelope_ratio": base_ptp / float(np.median(noisy_ptps)),
            "lifted_diverged_paths": sum(path.diverged for path in ensemble),
            "sweep": sweep,
        },
    }


def _sweep(seed: int, sizes: Sizes, embedding, floor: float, checks: Checks,
           work: Path) -> dict:
    """``sarlab sweep`` on the embedding just fitted, as a user would run it
    on the JSON that ``sarlab approximate`` writes."""
    path = work / "embedding.json"
    shallow.save_embedding(embedding, path)
    # one fixed level: drawn from 0.2..1.0, the sweep took 0.4 to 12 s
    # between fits, which set the pass's spread
    sigmas = f"{SIGMA}:{SIGMA}:0.1"
    argv = ["sweep", str(path), "--sigma", sigmas, "--nu-grid", sizes.sweep_nu_grid,
            "--jobs", str(nproc()), "--seed", str(seed), "--out", str(work)]
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    sweep_s = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)

    checks.expect(rc == 0, f"sarlab sweep exited with {rc}")
    expected = cli.parse_range(sigmas, "sigma")
    rows = []
    try:
        with open(work / "sweep.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                rows.append((float(row["sigma"]), float(row["margin"]), int(row["feasible"])))
    except (OSError, KeyError, ValueError) as exc:
        checks.expect(False, f"sweep.csv does not parse: {exc}")
    checks.expect(len(rows) == expected.size
                  and np.allclose([r[0] for r in rows], expected, rtol=0, atol=1e-12)
                  and all(np.isfinite(r[1]) and r[2] in (0, 1) for r in rows),
                  f"sweep.csv rows {rows} do not match the grid {expected.tolist()}")
    for sigma, margin, feasible in rows:
        checks.expect(not (feasible and sigma < floor),
                      f"feasible row at sigma={sigma:g} below the necessity floor {floor:.4g}")
    return {"sigmas": sigmas, "margins": [r[1] for r in rows], "sweep_s": sweep_s,
            "child_cpu_s": child_cpu}
