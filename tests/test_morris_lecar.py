"""Neuron-model tests: gating oracles, channel currents, equilibria,
simulation invariants, calibration, training sets, parameter JSON."""

import json
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarlab import lure
from sarlab import morris_lecar as ml
from sarlab.sde import _CHUNK, SimConfig, path_stream


@pytest.fixture(scope="module")
def p():
    return ml.MorrisLecarParams()


def test_default_parameter_values(p):
    assert (p.cap, p.v1, p.v3, p.v4) == (5.0, -1.2, 12.0, 17.4)
    assert (p.phi, p.v_l, p.v_ca, p.v_k) == (1.0 / 15.0, -60.0, 120.0, -80.0)
    assert (p.g_ca, p.g_k, p.g_l) == (4.0, 8.0, 2.0)
    assert p.v2 == 18.0  # not part of the published set; calibrated default


def test_param_validation():
    with pytest.raises(ValueError):
        ml.MorrisLecarParams(cap=0.0)
    with pytest.raises(ValueError):
        ml.MorrisLecarParams(v2=0.0)
    with pytest.raises(ValueError):
        ml.MorrisLecarParams(phi=-1.0)


def test_gating_midpoints_and_timescale(p):
    assert ml.m_ss(p.v1, p) == pytest.approx(0.5, abs=0.0)
    assert ml.n_ss(p.v3, p) == pytest.approx(0.5, abs=0.0)
    assert ml.tau_n(p.v3, p) == pytest.approx(15.0, abs=1e-12)


def test_gating_asymptotics(p):
    assert ml.m_ss(1e4, p) == pytest.approx(1.0, abs=1e-12)
    assert ml.n_ss(1e4, p) == pytest.approx(1.0, abs=1e-12)
    assert ml.tau_n(1e3, p) < 1e-10


def test_channels_vanish_at_reversal(p):
    assert ml.leak_current(p.v_l, p) == 0.0
    assert ml.ca_current(p.v_ca, p) == 0.0
    assert ml.k_current(p.v_k, 0.7, p) == 0.0
    assert ml.k_current(-20.0, 0.0, p) == 0.0


def test_channel_stack_matches_components(p):
    v, n = -30.0, 0.4
    stack = ml.channel_currents(v, n, p)
    np.testing.assert_allclose(
        stack, [ml.leak_current(v, p), ml.ca_current(v, p), ml.k_current(v, n, p)],
        atol=1e-15)


def test_rhs_degenerate_params_zero_drift():
    q = ml.MorrisLecarParams(v_l=0.0, v_ca=0.0, v_k=0.0, i_app=0.0)
    out = ml.rhs(np.array([0.0, ml.n_ss(0.0, q)]), q)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.0, abs=1e-15)


def test_recovery_rate_sign(p):
    v = -20.0
    below = ml.n_ss(v, p) - 0.2
    assert ml.recovery_rate(v, below, p) > 0.0
    above = ml.n_ss(v, p) + 0.2
    assert ml.recovery_rate(v, above, p) < 0.0


def test_recovery_jacobian_matches_finite_differences(p):
    v, n = -25.0, 0.3
    jac = ml.recovery_jacobian(v, n, p)
    h = 1e-6
    dv = (ml.recovery_rate(v + h, n, p) - ml.recovery_rate(v - h, n, p)) / (2 * h)
    dn = (ml.recovery_rate(v, n + h, p) - ml.recovery_rate(v, n - h, p)) / (2 * h)
    assert jac[0] == pytest.approx(dv, rel=1e-6)
    assert jac[1] == pytest.approx(dn, rel=1e-8)


def test_equilibrium_is_a_root(p):
    q = p.with_iapp(40.0)
    roots = ml.equilibria(q)
    assert len(roots) == 1
    eq = roots[0]
    res = ml.rhs(eq, q)
    assert np.abs(res).max() < 1e-10


def test_equilibrium_conserved_with_zero_noise(p):
    q = p.with_iapp(40.0)
    [eq] = ml.equilibria(q)
    path = ml.simulate_ml(q, eq, SimConfig(t_end=100.0, dt=1e-3, record_stride=100))
    drift = np.linalg.norm(path.states - eq, axis=1).max()
    assert drift < 1e-6


def test_rest_convergence_without_current(p):
    q = p.with_iapp(0.0)
    path = ml.simulate_ml(q, ml.DEFAULT_INIT, SimConfig(t_end=500.0, dt=5e-3,
                                                        record_stride=10))
    v = path.states[:, 0]
    tail = path.times >= 400.0
    assert np.ptp(v[tail]) < 1.0  # mV


def test_noise_modes_bit_identical_at_sigma_zero(p):
    q = p.with_iapp(40.0)
    cfg = SimConfig(t_end=20.0, dt=5e-3, seed=5)
    a = ml.simulate_ml(q, ml.DEFAULT_INIT, cfg, sigma=0.0, noise_mode="state")
    b = ml.simulate_ml(q, ml.DEFAULT_INIT, cfg, sigma=0.0, noise_mode="current")
    np.testing.assert_array_equal(a.states, b.states)


def test_noise_seed_determinism(p):
    q = p.with_iapp(40.0)
    cfg = SimConfig(t_end=20.0, dt=5e-3, seed=5)
    a = ml.simulate_ml(q, ml.DEFAULT_INIT, cfg, sigma=0.85)
    b = ml.simulate_ml(q, ml.DEFAULT_INIT, cfg, sigma=0.85)
    np.testing.assert_array_equal(a.states, b.states)
    c = ml.simulate_ml(q, ml.DEFAULT_INIT, cfg, sigma=0.85, path_index=1)
    assert not np.array_equal(a.states, c.states)


def test_noise_mode_rejected(p):
    with pytest.raises(ValueError):
        ml.simulate_ml(p, ml.DEFAULT_INIT, SimConfig(t_end=1.0), noise_mode="bogus")


def test_dt_refinement_first_order(p):
    q = p.with_iapp(0.0)
    coarse = ml.simulate_ml(q, ml.DEFAULT_INIT,
                            SimConfig(t_end=100.0, dt=2e-3, record_stride=50000))
    fine = ml.simulate_ml(q, ml.DEFAULT_INIT,
                          SimConfig(t_end=100.0, dt=1e-3, record_stride=100000))
    end_c = coarse.states[-1]
    end_f = fine.states[-1]
    rel = np.linalg.norm(end_c - end_f) / np.linalg.norm(end_f)
    assert rel < 1e-3


def test_recovery_band_warning(p):
    q = p.with_iapp(0.0)
    with pytest.warns(RuntimeWarning, match="recovery"):
        ml.simulate_ml(q, np.array([-52.14, 2.0]), SimConfig(t_end=1.0, dt=1e-3))


def reference_simulate_ml(p, x0, cfg, sigma, noise_mode, path_index=0):
    """The per-step neuron loop that simulate_ml replaced, kept as its oracle."""
    n_steps = cfg.n_steps
    dt = cfg.dt
    sqdt = np.sqrt(dt)
    rng = path_stream(cfg.seed, path_index)
    rec_idx = np.arange(0, n_steps + 1, cfg.record_stride)
    rec = np.empty((rec_idx.size, 2))
    x = np.asarray(x0, dtype=float).copy()
    rec[0] = x
    nrec = 1
    k = 0
    while k < n_steps:
        todo = min(8192, n_steps - k)
        dw = rng.standard_normal(todo) * sqdt
        for j in range(todo):
            drift = ml.rhs(x, p)
            amp = sigma * (x[0] if noise_mode == "state" else p.i_app) / p.cap
            x = x + drift * dt + np.array([amp * dw[j], 0.0])
            k += 1
            if nrec < rec_idx.size and k == rec_idx[nrec]:
                rec[nrec] = x
                nrec += 1
    return rec_idx * dt, rec


@pytest.mark.parametrize("sigma, noise_mode, cfg, path_index", [
    (0.85, "state", SimConfig(t_end=20.0, dt=5e-3, seed=4, record_stride=10), 2),
    (0.85, "current", SimConfig(t_end=20.0, dt=5e-3, seed=4, record_stride=10), 2),
    (0.0, "state", SimConfig(t_end=20.0, dt=5e-3, seed=4, record_stride=10), 2),
    # goes non-finite after t = 37.65
    (40.0, "state", SimConfig(t_end=50.0, dt=5e-3, seed=3, record_stride=10), 0),
], ids=["state", "current", "noise-free", "diverging"])
def test_simulate_ml_matches_reference_loop(spiking_params, sigma, noise_mode, cfg,
                                            path_index):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the recovery-band warning
        path = ml.simulate_ml(spiking_params, ml.DEFAULT_INIT, cfg, sigma=sigma,
                              noise_mode=noise_mode, path_index=path_index)
    with np.errstate(all="ignore"):
        times, states = reference_simulate_ml(spiking_params, ml.DEFAULT_INIT, cfg, sigma,
                                              noise_mode, path_index=path_index)
    finite = np.isfinite(states).all(axis=1)
    cut = finite.size if finite.all() else int(np.argmin(finite))
    assert path.diverged == (cut < finite.size) == (sigma == 40.0)
    np.testing.assert_array_equal(path.times, times[:cut])
    np.testing.assert_array_equal(path.states, states[:cut])


def test_scalar_field_equals_rhs_bit_for_bit(p, monkeypatch):
    # simulate_ml steps the bound field on Python floats, the reference loop
    # steps rhs on arrays; both must give the same bits (a libm tanh or cosh
    # would not, nor a Python division by the 0.0 that tau_n gives once cosh
    # overflows)
    calls = _count_field_calls(monkeypatch)
    ml.simulate_ml(p, ml.DEFAULT_INIT, SimConfig(t_end=0.05, dt=0.01), sigma=0.85)
    assert calls == [(float, float)] * 5  # the function the step calls, on floats
    monkeypatch.undo()
    states = _field_states()
    field = ml._field_of(p)
    with np.errstate(all="ignore"):
        expected = ml.rhs(states, p)
        fields = [field(float(v), float(n)) for v, n in states]
    assert {type(x) for field in fields for x in field} == {float}
    assert np.isinf(expected).any()  # cosh overflows far outside the box
    np.testing.assert_array_equal(np.array(fields), expected)


def _field_states():
    """States inside the training box, beyond it, far enough out that cosh
    overflows, and overflowing states on the saturated n_ss (0 / 0) or at an
    infinite voltage."""
    rng = np.random.default_rng(8)
    inside = rng.uniform((-80.0, 0.0), (120.0, 1.0), size=(5000, 2))
    beyond = rng.uniform((-600.0, -3.0), (600.0, 4.0), size=(4000, 2))
    far = rng.uniform((-4e4, -3.0), (4e4, 4.0), size=(1000, 2))
    edges = [(4e4, 1.0), (-4e4, 0.0), (np.inf, 0.5), (-np.inf, 0.5)]
    return np.concatenate([inside, beyond, far, edges])


@pytest.mark.parametrize("params", ["default", "spiking"])
def test_bound_field_is_the_named_curves_bit_for_bit(p, spiking_params, params):
    # _field_of binds p's constants once; its field must still be the
    # composition of the named currents and recovery_rate, bit for bit
    q = p if params == "default" else spiking_params
    field = ml._field_of(q)
    states = _field_states()
    v, n = states[:, 0], states[:, 1]
    with np.errstate(all="ignore"):
        expected = np.stack([
            (q.i_app + ml.leak_current(v, q) + ml.ca_current(v, q) + ml.k_current(v, n, q))
            / q.cap,
            ml.recovery_rate(v, n, q)], axis=-1)
        on_arrays = np.stack(field(v, n), axis=-1)
        on_floats = np.array([field(float(a), float(b)) for a, b in states])
    assert np.isinf(expected).any() and np.isnan(expected).any()  # cosh overflows
    assert on_arrays.tobytes() == expected.tobytes()
    assert on_floats.tobytes() == expected.tobytes()


def test_diverging_path_warns_only_about_the_recovery_band(spiking_params):
    cfg = SimConfig(t_end=50.0, dt=5e-3, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = ml.simulate_ml(spiking_params, ml.DEFAULT_INIT, cfg, sigma=40.0)
    assert path.diverged
    assert [str(w.message) for w in caught] == [
        "recovery variable left [-0.1, 1.1]; values reported unclamped"]


def _count_field_calls(monkeypatch):
    """Record the argument types of every call of the bound vector field
    that simulate_ml's step makes."""
    calls = []
    field_of = ml._field_of

    def counted_field_of(p):
        field = field_of(p)

        def counted(v, n):
            calls.append((type(v), type(n)))
            return field(v, n)

        return counted

    monkeypatch.setattr(ml, "_field_of", counted_field_of)
    return calls


def test_noise_free_path_ends_at_an_exact_fixed_point(p, monkeypatch):
    # at i_app = 0 the neuron settles onto a state that its Euler step maps
    # onto itself bit for bit; the kernel ends the run there, and the record
    # must still equal the loop that steps all the way to t_end
    q = p.with_iapp(0.0)
    cfg = SimConfig(t_end=300.0, dt=0.01, record_stride=5)
    calls = _count_field_calls(monkeypatch)
    path = ml.simulate_ml(q, ml.DEFAULT_INIT, cfg)
    # a run ends only at a chunk boundary: fewer calls than a chunk would
    # mean the counter missed the field the step calls
    assert _CHUNK < len(calls) < cfg.n_steps // 2
    assert set(calls) == {(float, float)}
    times, states = reference_simulate_ml(q, ml.DEFAULT_INIT, cfg, 0.0, "state")
    assert path.times.tobytes() == times.tobytes()
    assert path.states.tobytes() == states.tobytes()


def test_noisy_path_never_takes_the_fixed_point_exit(p, monkeypatch):
    # start on the noise-free fixed point: noise moves the path off it, and
    # the kernel probes nothing (a probe would be a step without noise)
    q = p.with_iapp(0.0)
    rest = ml.simulate_ml(q, ml.DEFAULT_INIT, SimConfig(t_end=300.0, dt=0.01)).states[-1]
    cfg = SimConfig(t_end=50.0, dt=0.01, seed=6, record_stride=5)
    calls = _count_field_calls(monkeypatch)
    path = ml.simulate_ml(q, rest, cfg, sigma=0.85)
    assert calls == [(float, float)] * cfg.n_steps
    times, states = reference_simulate_ml(q, rest, cfg, 0.85, "state")
    np.testing.assert_array_equal(path.times, times)
    np.testing.assert_array_equal(path.states, states)
    assert np.ptp(path.states[:, 0]) > 0.0


def test_calibration_matches_per_current_runs(p):
    # the first spiking current is not the first grid entry
    grid = [0.0, 30.0, 35.0, 40.0, 45.0, 50.0]
    kw = dict(t_end=300.0, dt=0.02, min_spikes=2)
    cfg = SimConfig(t_end=kw["t_end"], dt=kw["dt"], record_stride=5)
    expected = None
    for i_app in grid:
        path = ml.simulate_ml(p.with_iapp(i_app), ml.DEFAULT_INIT, cfg)
        tail = path.times >= (2.0 / 3.0) * kw["t_end"]
        if ml.spike_times(path.times[tail], path.states[tail, 0]).size >= kw["min_spikes"]:
            expected = i_app
            break
    assert expected not in (None, grid[0])
    assert ml.calibrate_iapp(p, grid=grid, **kw) == expected
    # the grid is scanned in ascending order whatever order it comes in
    assert ml.calibrate_iapp(p, grid=grid[::-1], **kw) == expected


def test_calibration_scan_stops_at_the_first_spiking_current(p, monkeypatch):
    # the serial scan, in this process: on one usable core no pool starts
    monkeypatch.setattr(lure, "_usable_cores", lambda: 1)
    simulated = []
    simulate = ml.simulate_ml

    def counted(q, *args, **kwargs):
        simulated.append(q.i_app)
        return simulate(q, *args, **kwargs)

    monkeypatch.setattr(ml, "simulate_ml", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ml.calibrate_iapp(ml.MorrisLecarParams()) == 40.0
    assert simulated == [5.0 * k for k in range(9)]


# a grid whose first spiking current comes late: 36 silent currents, then 40
LATE_GRID = [float(i) for i in range(36)] + [40.0]


@pytest.mark.parametrize("grid", [None, LATE_GRID], ids=["default", "late"])
def test_forked_scan_returns_the_serial_current(p, grid, pools, monkeypatch):
    forked = [ml.calibrate_iapp(p, grid=grid)]
    if grid is not None:
        forked.append(ml.calibrate_iapp(p, grid=grid[::-1]))
    assert pools == ([lure._usable_cores()] * len(forked) if lure._usable_cores() > 1 else [])
    # it returns mid-grid, with the workers still running stopped
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(lure, "_usable_cores", lambda: 1)
    assert forked == [ml.calibrate_iapp(p, grid=grid)] * len(forked) == [40.0] * len(forked)


def test_one_current_grid_starts_no_pool(p, pools):
    assert ml.calibrate_iapp(p, grid=[40.0]) == 40.0
    assert pools == []


def test_calibration_rejects_silent_grid(p, pools):
    with pytest.raises(ValueError, match="no sustained oscillation"):
        ml.calibrate_iapp(p, grid=[0.0, 5.0], t_end=60.0)
    assert pools == ([2] if lure._usable_cores() > 1 else [])
    assert multiprocessing.active_children() == []


def test_spike_times_interpolation():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([-1.0, 1.0, -1.0, 3.0])
    st_ = ml.spike_times(t, v, threshold=0.0)
    np.testing.assert_allclose(st_, [0.5, 2.25], atol=1e-12)


def test_spiking_at_calibrated_current(spiking_params):
    path = ml.simulate_ml(spiking_params, ml.DEFAULT_INIT,
                          SimConfig(t_end=500.0, dt=5e-3, record_stride=10))
    spikes = ml.spike_times(path.times, path.states[:, 0])
    assert spikes.size >= 3
    assert np.ptp(path.states[:, 0]) > 40.0


def test_calibration_finds_smallest_grid_current(calibrated_iapp):
    assert calibrated_iapp == pytest.approx(40.0)


def test_make_training_set_exact_targets(p):
    x, targets = ml.make_training_set(p, n_samples=128, seed=3)
    assert x.shape == (128, 2) and targets.shape == (128, 3)
    np.testing.assert_array_equal(targets,
                                  ml.channel_currents(x[:, 0], x[:, 1], p))
    again, _ = ml.make_training_set(p, n_samples=128, seed=3)
    np.testing.assert_array_equal(x, again)


def test_make_training_set_empty_and_collapsed(p):
    x, targets = ml.make_training_set(p, n_samples=0)
    assert x.shape == (0, 2) and targets.shape == (0, 3)
    x, targets = ml.make_training_set(p, box=((-10.0, 0.5), (-10.0, 0.5)),
                                      n_samples=16)
    assert np.ptp(targets, axis=0).max() == 0.0


def test_params_json_keys(p):
    # the dict is what a CLI config's "params" block holds; it survives JSON
    doc = json.loads(json.dumps(ml.params_to_dict(p.with_iapp(40.0))))
    assert set(doc) == {"cap", "gL", "vL", "gCa", "vCa", "gK", "vK",
                        "v1", "v2", "v3", "v4", "phi", "i_app"}
    assert doc["vK"] == -80.0 and doc["gCa"] == 4.0
    back = ml.params_from_dict(doc)
    assert back == p.with_iapp(40.0)


@settings(max_examples=50, deadline=None)
@given(v=st.floats(-250.0, 250.0))
def test_gating_bounds_hold_everywhere(v):
    # strict bounds hold for all finite v; double precision saturates the
    # tanh to exactly 1.0 past |v| ~ 350, so probe below that
    p = ml.MorrisLecarParams()
    m, n, tau = ml.m_ss(v, p), ml.n_ss(v, p), ml.tau_n(v, p)
    assert 0.0 < m < 1.0
    assert 0.0 < n < 1.0
    assert tau > 0.0


@settings(max_examples=30, deadline=None)
@given(v=st.floats(-120.0, 60.0), n=st.floats(0.0, 1.0))
def test_rhs_recovery_sign_property(v, n):
    p = ml.MorrisLecarParams()
    out = ml.rhs(np.array([v, n]), p)
    gap = ml.n_ss(v, p) - n
    assert out[1] * gap >= 0.0
