"""Integrator tests: stepping, path streams, ensembles, filtering, CSV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scalar
from sarlab.cli import write_csv
from sarlab.lure import LureSystem
from sarlab.sde import (SimConfig, ensemble_moments, lowpass, path_stream, simulate,
                        simulate_ensemble)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, dt=2.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, record_stride=0)
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be > 0"):
            SimConfig(t_end=1.0, dt=dt)
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        SimConfig(t_end=1.0, n_paths=0)
    assert SimConfig(t_end=1.0, dt=1e-3).n_steps == 1000


def test_simulate_one_step_deterministic():
    # x=1, a=-1, no feedback, dt=0.1, no noise -> 0.9
    sys = make_scalar(-1.0, 0.0)
    path = simulate(sys, np.array([1.0]), SimConfig(t_end=0.1, dt=0.1, record_stride=1))
    assert path.states[-1, 0] == pytest.approx(0.9, abs=0.0)


def test_simulate_one_step_noise_term():
    sys = make_scalar(0.0, 2.0)  # pure noise: dx = sigma x dw
    path = simulate(sys, np.array([1.0]), SimConfig(t_end=0.1, dt=0.1, seed=5, record_stride=1))
    dw = path_stream(5, 0).standard_normal(1)[0] * np.sqrt(0.1)
    assert path.states[-1, 0] == 1.0 + 2.0 * dw


def test_simulate_deterministic_decay():
    sys = make_scalar(-1.0, 0.0)
    cfg = SimConfig(t_end=1.0, dt=1e-4, record_stride=100)
    path = simulate(sys, np.array([1.0]), cfg)
    assert path.times[-1] == pytest.approx(1.0)
    assert path.states[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-3)
    assert not path.diverged


def test_sigma_zero_is_seed_independent():
    sys = make_scalar(-0.5, 0.0, f=0.3)
    cfg_a = SimConfig(t_end=0.5, dt=1e-3, seed=1)
    cfg_b = SimConfig(t_end=0.5, dt=1e-3, seed=99)
    pa = simulate(sys, np.array([0.7]), cfg_a)
    pb = simulate(sys, np.array([0.7]), cfg_b)
    np.testing.assert_array_equal(pa.states, pb.states)


def test_same_seed_bit_identical_with_noise():
    sys = make_scalar(-0.5, 0.7)
    cfg = SimConfig(t_end=0.5, dt=1e-3, seed=42)
    pa = simulate(sys, np.array([1.0]), cfg)
    pb = simulate(sys, np.array([1.0]), cfg)
    np.testing.assert_array_equal(pa.states, pb.states)


def test_ensemble_matches_per_path_simulate():
    sys = make_scalar(-0.2, 0.9)
    cfg = SimConfig(t_end=0.2, dt=1e-3, n_paths=4, seed=7)
    ens = simulate_ensemble(sys, np.array([1.0]), cfg)
    for i, p in enumerate(ens):
        solo = simulate(sys, np.array([1.0]), cfg, path_index=i)
        np.testing.assert_array_equal(p.states, solo.states)
        assert p.path_index == i


def test_noise_free_path_ends_at_an_exact_fixed_point(monkeypatch):
    # x decays into the subnormals, where x + drift(x) dt rounds back to x;
    # the kernel ends the run there, and the record must still equal the
    # loop that steps all the way to t_end
    sys = make_scalar(-0.5, 0.0, f=0.3)
    cfg = SimConfig(t_end=10_000.0, dt=0.5, record_stride=7)
    calls = []
    drift = LureSystem.drift

    def counted(self, x):
        calls.append(None)
        return drift(self, x)

    monkeypatch.setattr(LureSystem, "drift", counted)
    path = simulate(sys, np.array([0.7]), cfg)
    assert len(calls) < cfg.n_steps // 2
    x = np.array([[0.7]])
    states = [x[0]]
    for k in range(1, cfg.n_steps + 1):
        x = x + drift(sys, x) * cfg.dt
        if k % cfg.record_stride == 0:
            states.append(x[0])
    times = np.arange(0, cfg.n_steps + 1, cfg.record_stride) * cfg.dt
    assert path.times.tobytes() == times.tobytes()
    assert path.states.tobytes() == np.array(states).tobytes()


def test_path_stream_keying():
    # xor keying: (seed, index) and (seed^index, 0) give the same stream
    a = path_stream(12, 5).standard_normal(8)
    b = path_stream(12 ^ 5, 0).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_philox_normals_do_not_depend_on_chunking():
    # the integrator draws increments chunk by chunk; paths must not see the chunk size
    small = path_stream(3, 1)
    large = path_stream(3, 1)
    a = np.concatenate([small.standard_normal(2048) for _ in range(8)])
    b = np.concatenate([large.standard_normal(8192) for _ in range(2)])
    np.testing.assert_array_equal(a, b)


def test_wiener_increment_statistics():
    g = path_stream(0, 0)
    dt = 1e-2
    draws = g.standard_normal(200_000) * np.sqrt(dt)
    assert abs(draws.mean()) < 4 * np.sqrt(dt / draws.size)
    assert draws.var() == pytest.approx(dt, rel=2e-2)


def test_divergence_truncates_and_flags():
    sys = make_scalar(1e6, 0.0)  # overflows float64 within ~60 steps
    cfg = SimConfig(t_end=100.0, dt=0.5, record_stride=1)
    path = simulate(sys, np.array([1.0]), cfg)
    assert path.diverged
    assert path.times.size < cfg.n_steps + 1
    assert np.isfinite(path.states).all()


def test_ensemble_moments_mean_and_se():
    sys = make_scalar(0.0, 0.0)
    cfg = SimConfig(t_end=0.01, dt=0.01, n_paths=3, seed=0)
    paths = simulate_ensemble(sys, np.array([2.0]), cfg)
    times, mean, se = ensemble_moments(paths, order=1)
    assert times.shape[0] == mean.shape[0]
    np.testing.assert_allclose(mean, 2.0, atol=0)
    np.testing.assert_allclose(se, 0.0, atol=0)
    _, m2, _ = ensemble_moments(paths, order=2)
    np.testing.assert_allclose(m2, 4.0, atol=0)
    with pytest.raises(ValueError):
        ensemble_moments([])
    with pytest.raises(ValueError):
        ensemble_moments(paths, order=3)


def test_lowpass_identity_and_constant():
    x = np.arange(10.0)
    np.testing.assert_array_equal(lowpass(x, 1), x)
    np.testing.assert_allclose(lowpass(np.full(50, 3.0), 11), 3.0, atol=1e-14)


def test_lowpass_smooths_impulse():
    x = np.zeros(21)
    x[10] = 1.0
    y = lowpass(x, 5)
    assert y[10] == pytest.approx(0.2)
    assert y.sum() == pytest.approx(1.0)  # reflection preserves mass away from edges


def test_lowpass_rejects_even_window():
    with pytest.raises(ValueError):
        lowpass(np.zeros(5), 4)


def test_lowpass_window_may_reach_the_series_ends():
    # window 9 reflects 4 samples at each end of a 5-sample series; 11 cannot
    x = np.arange(5.0)
    expected = np.convolve(np.pad(x, 4, mode="reflect"), np.full(9, 1.0 / 9), mode="valid")
    np.testing.assert_allclose(lowpass(x, 9), expected, rtol=0, atol=0)
    with pytest.raises(ValueError, match="too long"):
        lowpass(x, 11)


def test_lowpass_2d_along_time_axis():
    x = np.column_stack([np.zeros(30), np.ones(30), np.sin(np.arange(30.0))])
    y = lowpass(x, 7)
    np.testing.assert_allclose(y[:, 1], 1.0, atol=1e-14)
    for j in range(x.shape[1]):
        np.testing.assert_array_equal(y[:, j], lowpass(x[:, j], 7))


def test_path_to_csv_roundtrip_precision(tmp_path):
    sys = make_scalar(-0.3, 0.4)
    path = simulate(sys, np.array([1.0]), SimConfig(t_end=0.05, dt=1e-3, seed=3))
    f = tmp_path / "p.csv"
    write_csv(f, ["t", "v"], [path.times, path.states[:, 0]])
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "t,v"
    parsed = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], path.times)
    np.testing.assert_array_equal(parsed[:, 1], path.states[:, 0])  # %.17g is lossless


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), idx=st.integers(0, 64))
def test_philox_streams_are_reproducible(seed, idx):
    a = path_stream(seed, idx).standard_normal(4)
    b = path_stream(seed, idx).standard_normal(4)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(x0=st.floats(-2.0, 2.0), scale=st.floats(0.1, 3.0))
def test_linear_sigma_zero_flow_is_homogeneous(x0, scale):
    # with f_gain = 0 and sigma = 0 the flow is linear in the initial state
    sys = make_scalar(-0.7, 0.0)
    cfg = SimConfig(t_end=0.3, dt=1e-3)
    base = simulate(sys, np.array([x0]), cfg).states
    scaled = simulate(sys, np.array([x0 * scale]), cfg).states
    np.testing.assert_allclose(scaled, base * scale, atol=1e-12)
