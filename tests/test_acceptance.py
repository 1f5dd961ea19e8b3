"""Acceptance gate: one test per shipped guarantee, run at the stated
tolerance and time budget.

Each test prints a single pass/fail line under `pytest -v`.  Failure
messages carry the measured values so a red line documents exactly what
the implementation does, not just that it missed the target.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sarlab import cli
from sarlab import morris_lecar as ml
from sarlab.certify import (CertProblem, certificate_matrix,
                            certify, default_nu_grid, linear_necessity_bound,
                            max_eigenvalue, sigma_sweep)
from sarlab.embedding import simulate_embedded
from sarlab.sde import SimConfig, ensemble_moments, lowpass, simulate_ensemble
from sarlab.shallow import ShallowNet, loss_and_grad

from conftest import make_scalar


# -- 1: simulator second moment vs closed form --------------------------------

def test_criterion_01_scalar_second_moment_matches_closed_form():
    a, sigma, x0, t_end = 0.1, 1.0, 1.0, 5.0
    cfg = SimConfig(t_end=t_end, dt=1e-3, n_paths=10_000, seed=2026,
                    record_stride=1000)
    t0 = time.monotonic()
    paths = simulate_ensemble(make_scalar(a=a, sigma=sigma), [x0], cfg)
    times, mean, se = ensemble_moments(paths, order=2)
    elapsed = time.monotonic() - t0

    exact = x0 ** 2 * math.exp((2.0 * a + sigma ** 2) * t_end)
    err = abs(mean[-1, 0] - exact)
    assert err <= 3.0 * se[-1, 0], (
        f"E[x^2](t={t_end}) = {mean[-1, 0]:.4f} vs exact {exact:.4f}: "
        f"|err| = {err:.4f} exceeds 3 SE = {3.0 * se[-1, 0]:.4f}")
    assert elapsed < 30.0, f"ensemble run took {elapsed:.1f} s (budget 30 s)"


# -- 2: scalar certificate vs closed-form feasibility --------------------------

def test_criterion_02_scalar_certificate_matches_closed_form_grid():
    nu = default_nu_grid()
    t0 = time.monotonic()
    mismatches = []
    for a in np.linspace(-1.0, 1.0, 10):
        for sigma in np.linspace(0.0, 1.5, 10):
            cert = certify(CertProblem(make_scalar(a=a, sigma=sigma)))
            closed = bool(np.any(2.0 * a < sigma ** 2 * (1.0 - nu)))
            if cert.feasible != closed:
                mismatches.append((round(a, 4), round(sigma, 4),
                                   cert.feasible, closed))
    elapsed = time.monotonic() - t0
    assert not mismatches, f"solver/closed-form disagreements: {mismatches}"
    assert elapsed < 10.0, f"100-point grid took {elapsed:.1f} s (budget 10 s)"


# -- 3: block matrix hand value ------------------------------------------------

def test_criterion_03_block_matrix_hand_value():
    sysm = make_scalar(a=-1.0, sigma=1.0, f=0.5)
    n_mat = certificate_matrix(sysm, nu=0.5, lam=np.array([1.0]),
                               tau=np.array([1.0]))
    np.testing.assert_allclose(
        n_mat, [[-0.25, -0.125], [-0.125, -1.0]], atol=1e-12)
    eig = max_eigenvalue(n_mat)
    assert abs(eig - (-0.22971529247895254)) < 1e-6, (
        f"top eigenvalue {eig:.12f} off the frozen value by "
        f"{abs(eig + 0.22971529247895254):.2e}")


# -- 4: sector exactness of the trained bank -----------------------------------

def test_criterion_04_embedding_units_respect_their_sectors(embedding_report):
    sysm = embedding_report.embedding.system
    nl = sysm.nonlinearity
    s = sysm.sector_slopes
    delta = sysm.deriv_bounds
    y = np.linspace(-5.0, 5.0, 10_000)[:, None] * np.ones((1, sysm.m))
    f = nl(y)

    lower = float((y * f).min())
    upper = float((y * f - s[None, :] * y * y).max())
    assert lower >= -1e-12, f"y*f(y) dips to {lower:.3e} below zero"
    assert upper <= 1e-12, f"y*f(y) - s*y^2 peaks at {upper:.3e} above zero"

    h = 1e-6
    fp = (nl(y + h) - nl(y - h)) / (2.0 * h)
    worst = ((fp - delta[None, :]) / delta[None, :]).max()
    assert worst <= 1e-6, (
        f"sampled slope exceeds its bound by a relative {worst:.3e}")


# -- 5: network fidelity (fit RMS, then trajectory tracking) --------------------

def test_criterion_05a_channel_fit_rms_under_two_percent(embedding_report):
    pct = 100.0 * embedding_report.channel_rms / embedding_report.channel_range
    assert (pct < 2.0).all(), (
        f"channel RMS as % of range = {np.array2string(pct, precision=3)}; "
        "the 2% bar is missed")


def test_criterion_05b_embedded_trajectory_tracks_true_voltage(embedding_report):
    cfg = SimConfig(t_end=100.0, dt=1e-3, seed=0, record_stride=10)
    true_path = ml.simulate_ml(embedding_report.params, ml.DEFAULT_INIT, cfg)
    model_path = simulate_embedded(embedding_report, ml.DEFAULT_INIT, cfg)
    assert not true_path.diverged and not model_path.diverged
    err = float(np.abs(model_path.states[:, 0] - true_path.states[:, 0]).max())
    true_spikes = ml.spike_times(true_path.times, true_path.states[:, 0])
    model_spikes = ml.spike_times(model_path.times, model_path.states[:, 0])
    assert err < 2.0, (
        f"max |V| gap over [0, 100] is {err:.2f} mV (target < 2 mV). Upward "
        f"0 mV crossings: {true_spikes.size} on the true neuron "
        f"(at t = {np.array2string(true_spikes, precision=1)}), "
        f"{model_spikes.size} on the lifted model "
        f"(at t = {np.array2string(model_spikes, precision=1)}); final V "
        f"{true_path.states[-1, 0]:.2f} vs {model_path.states[-1, 0]:.2f} mV. "
        "The calibrated drive is the first grid current that spikes, just past "
        "the onset of spiking, where the fit's drift error (under 1% of range "
        "per channel over the training box) decides whether the lifted model "
        "spikes at all.")


# -- 6: sustained spiking at the calibrated drive -------------------------------

def test_criterion_06_calibrated_drive_sustains_spiking(base_params, calibrated_iapp):
    p = base_params.with_iapp(calibrated_iapp)
    cfg = SimConfig(t_end=500.0, dt=5e-3, seed=0, record_stride=10)
    path = ml.simulate_ml(p, ml.DEFAULT_INIT, cfg)
    assert not path.diverged
    v = path.states[:, 0]
    spikes = ml.spike_times(path.times, v)
    assert spikes.size >= 3, f"only {spikes.size} spikes in 500 time units"
    assert np.ptp(v) > 40.0, f"peak-to-peak V = {np.ptp(v):.1f} mV (need > 40)"


# -- 7: noise-induced quieting of the voltage envelope ---------------------------

def test_criterion_07_state_noise_quiets_filtered_voltage(base_params, calibrated_iapp):
    p = base_params.with_iapp(calibrated_iapp)
    cfg = SimConfig(t_end=500.0, dt=5e-3, seed=0, record_stride=10)
    window = 101
    t0 = time.monotonic()

    base = ml.simulate_ml(p, ml.DEFAULT_INIT, cfg)
    tail = base.times >= 300.0
    base_ptp = float(np.ptp(lowpass(base.states, window)[tail, 0]))

    noisy_ptps = []
    for seed in range(20):
        run = ml.simulate_ml(p, ml.DEFAULT_INIT, replace(cfg, seed=seed),
                             sigma=0.85, noise_mode="state")
        assert not run.diverged, f"noise-injected run (seed {seed}) diverged"
        noisy_ptps.append(float(np.ptp(lowpass(run.states, window)[tail, 0])))
    elapsed = time.monotonic() - t0

    median_ptp = float(np.median(noisy_ptps))
    ratio = base_ptp / median_ptp
    assert elapsed < 300.0, f"ensemble took {elapsed:.0f} s (budget 300 s)"
    assert ratio >= 5.0, (
        f"filtered peak-to-peak over t in [300, 500]: {base_ptp:.2f} mV "
        f"noise-free vs {median_ptp:.2f} mV median across 20 seeds at "
        f"sigma=0.85, a {ratio:.2f}x reduction (target >= 5x). With the "
        "noise amplitude sigma*V/cap applied to the voltage row only, the "
        "injected power near the operating point is an order of magnitude "
        "short of what the linearization needs to change sign, so the "
        "envelope barely moves.")


# -- 8: certificate sweep on the embedded neuron --------------------------------

def test_criterion_08_embedded_sweep_certifies_some_noise_level(embedding_report):
    sysm = embedding_report.embedding.system
    sigmas = np.round(np.arange(0.2, 2.0001, 0.2), 10)
    results = sigma_sweep(sysm, sigmas, jobs=2)
    feasible = [s for s, cert in results if cert.feasible]
    if feasible:
        return
    rate, floor = linear_necessity_bound(sysm)
    proven = [s for s, c in results if c.witness == "necessity"]
    searched = ", ".join(f"{s:.1f}: {c.margin:+.3f}" for s, c in results
                         if c.witness != "necessity")
    pytest.fail(
        "no noise level in (0, 2] certifies the embedded neuron. "
        f"The sector class contains linear feedbacks whose best growth rate is "
        f"{rate:.4f}, so any sound certificate needs sigma >= {floor:.2f}; "
        f"the necessity witness proves {len(proven)} of the {len(results)} grid "
        f"sigmas ({', '.join(f'{s:.1f}' for s in proven)}) infeasible without a search"
        + (f". Searched margins (sigma: top eigenvalue, negative = certified): {searched}"
           if searched else ", which is every sigma on the grid")
        + ". This matches the companion simulation check, where sigma = 0.85 "
        "produced no envelope reduction.")


# -- 9: backprop gradients vs central differences --------------------------------

def _flatten(net: ShallowNet) -> np.ndarray:
    return np.concatenate([net.w1.ravel(), net.b1.ravel(),
                           net.w2.ravel(), net.b2.ravel()])


def _rebuild(template: ShallowNet, flat: np.ndarray) -> ShallowNet:
    shapes = [template.w1.shape, template.b1.shape,
              template.w2.shape, template.b2.shape]
    parts, k = [], 0
    for shp in shapes:
        size = int(np.prod(shp))
        parts.append(flat[k:k + size].reshape(shp))
        k += size
    return ShallowNet(*parts)


def test_criterion_09_backprop_matches_central_differences():
    rng = np.random.default_rng(4)
    net = ShallowNet(w1=rng.normal(size=(6, 2)), b1=rng.normal(size=6),
                     w2=rng.normal(size=(2, 6)), b2=rng.normal(size=2))
    theta = _flatten(net)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=(1, 2))
        t = rng.normal(size=(1, 2))
        _, grad = loss_and_grad(net, x, t)
        g = _flatten(grad)
        fd = np.empty_like(g)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            lo, _ = loss_and_grad(_rebuild(net, theta - bump), x, t)
            hi, _ = loss_and_grad(_rebuild(net, theta + bump), x, t)
            fd[i] = (hi - lo) / (2.0 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g),
                                           np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"


# -- 10: byte-identical replay ----------------------------------------------------

def test_criterion_10_replay_is_byte_identical(tmp_path):
    # fig4 is the recipe that draws noise
    for sub in ("r1", "r2"):
        for fig in ("fig3", "fig4"):
            assert cli.main(["reproduce", fig, "--out", str(tmp_path / sub)]) == 0
    csvs = sorted(str(f.relative_to(tmp_path / "r1")) for f in (tmp_path / "r1").glob("*/*.csv"))
    assert csvs == ["fig3/traj.csv", "fig4/traj_sigma0.csv", "fig4/traj_sigma085.csv"]
    for name in csvs:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes(), \
            f"two runs of the same recipe produced different bytes in {name}"
