"""Pipeline tests for the neuron embedding: structure, exactness of the
assembled model, fit quality, and reconstruction."""

from dataclasses import replace

import numpy as np
import pytest

from sarlab import morris_lecar as ml
from sarlab.certify import c_defect, paper_form
from sarlab.embedding import EmbeddingConfig, build_embedding, model_rhs, simulate_embedded
from sarlab.sde import SimConfig, simulate


def test_report_structure(embedding_report):
    # the neuron's 2 states fed back through 30 units, each reading a unit
    # direction of the deviation
    sys = embedding_report.embedding.system
    assert sys.n == 2 and sys.m == 30
    np.testing.assert_allclose(np.linalg.norm(sys.c, axis=1), 1.0, atol=1e-12)
    # the paper's form has an orthogonal output map, and every unit feeds
    # only the physical states
    square = paper_form(sys)
    assert square.n == square.m == 30
    np.testing.assert_allclose(square.c.T @ square.c, np.eye(30), atol=1e-12)
    assert np.all(square.f_gain[2:] == 0.0)
    assert not embedding_report.diverged


def test_offset_is_negligible(embedding_report):
    # output biases are corrected post-training, so the assembled model's
    # drift at the equilibrium is zero to root-finder precision
    assert np.linalg.norm(embedding_report.embedding.offset) < 1e-9


def test_linear_block_is_recovery_jacobian(embedding_report):
    rep = embedding_report
    jac = ml.recovery_jacobian(rep.x_star[0], rep.x_star[1], rep.params)
    a = rep.embedding.system.a
    np.testing.assert_allclose(a[1], jac, atol=1e-12)
    assert np.all(a[0] == 0.0)  # V-row dynamics all flow through nets


def test_embedded_system_passes_validation(embedding_report):
    # built anew from its own data, the embedded system passes the
    # constructor's model-class rules, and its paper form meets C^T C = I
    sys = embedding_report.embedding.system
    np.testing.assert_array_equal(replace(sys).a, sys.a)
    assert c_defect(paper_form(sys)) <= 1e-12


def test_sector_data_consistency(embedding_report):
    sys = embedding_report.embedding.system
    np.testing.assert_array_equal(sys.sector_slopes, sys.deriv_bounds)
    assert np.all(sys.sector_slopes > 0.0)


def test_channel_fit_quality(embedding_report):
    rel = embedding_report.channel_rms / embedding_report.channel_range
    assert np.all(rel < 0.02)


def test_model_rhs_matches_augmented_drift(embedding_report):
    # the system's drift at z = x - x*, and the paper form's on [R z; 0]
    # mapped back through R^-1, must both equal the reduced model
    rep = embedding_report
    sys = rep.embedding.system
    square = paper_form(sys)
    r = square.c[:, :2].T @ sys.c  # C = Q[:, :2] R
    rng = np.random.default_rng(0)
    for _ in range(5):
        x_raw = np.array([rng.uniform(-60.0, 30.0), rng.uniform(0.0, 0.6)])
        reduced = model_rhs(rep, x_raw)
        np.testing.assert_allclose(sys.drift(x_raw - rep.x_star), reduced, atol=1e-10)
        z = np.zeros(square.n)
        z[:2] = r @ (x_raw - rep.x_star)
        full = np.linalg.solve(r, square.drift(z)[:2])
        np.testing.assert_allclose(full, reduced, atol=1e-10)
        assert np.abs(square.drift(z)[2:]).max() < 1e-12  # fictitious rows stay put


def test_model_rhs_is_close_to_true_rhs_at_start(embedding_report):
    x0 = ml.DEFAULT_INIT
    approx = model_rhs(embedding_report, x0)
    true = ml.rhs(x0, embedding_report.params)
    assert np.abs(approx - true).max() < 1.5  # raw units; fit-level agreement


def test_simulate_embedded_short_horizon_tracks(embedding_report):
    cfg = SimConfig(t_end=5.0, dt=1e-3, record_stride=10)
    emb_path = simulate_embedded(embedding_report, ml.DEFAULT_INIT, cfg)
    ref = ml.simulate_ml(embedding_report.params, ml.DEFAULT_INIT, cfg)
    err = np.abs(emb_path.states[:, 0] - ref.states[:, 0]).max()
    assert err < 2.0  # mV over a spike-free window


@pytest.mark.parametrize("sigma", [0.0, 0.85])
def test_paper_form_path_matches_the_physical_path(embedding_report, sigma):
    # the paper form changes coordinates only: from [R z0; 0] its path,
    # mapped back through R^-1, is the physical (V, N) path, and the
    # fictitious states stay exactly 0
    emb = replace(embedding_report.embedding,
                  system=embedding_report.embedding.system.with_sigma(sigma))
    rep = replace(embedding_report, embedding=emb)
    cfg = SimConfig(t_end=100.0, dt=5e-3, seed=3, record_stride=10)
    path = simulate_embedded(rep, ml.DEFAULT_INIT, cfg)
    square = paper_form(emb.system)
    r = square.c[:, :2].T @ emb.system.c
    z0 = np.zeros(square.n)
    z0[:2] = r @ (ml.DEFAULT_INIT - rep.x_star)
    lifted = simulate(square, z0, cfg)
    assert not path.diverged and not lifted.diverged
    assert np.all(lifted.states[:, 2:] == 0.0)
    np.testing.assert_allclose(path.states,
                               np.linalg.solve(r, lifted.states[:, :2].T).T + rep.x_star,
                               rtol=0, atol=1e-10)


def test_training_is_seed_deterministic(spiking_params, calibrated_iapp):
    cfg = EmbeddingConfig(hidden=3, epochs=30, n_samples=500, seed=7,
                          i_app=calibrated_iapp)
    a = build_embedding(spiking_params, cfg)
    b = build_embedding(spiking_params, cfg)
    for na, nb in zip(a.nets, b.nets):
        np.testing.assert_array_equal(na.w1, nb.w1)
        np.testing.assert_array_equal(na.b2, nb.b2)
    np.testing.assert_array_equal(a.embedding.system.f_gain,
                                  b.embedding.system.f_gain)


def test_small_width_embedding_has_one_fictitious_state(spiking_params, calibrated_iapp):
    cfg = EmbeddingConfig(hidden=1, epochs=20, n_samples=400, seed=1,
                          i_app=calibrated_iapp)
    rep = build_embedding(spiking_params, cfg)
    sys = rep.embedding.system
    assert (sys.n, sys.m) == (2, 3)
    assert paper_form(sys).n == 3  # one fictitious state


def test_build_embedding_without_a_current_fits_at_the_params_own(base_params, monkeypatch):
    # i_app=None fits at p.i_app; the pipeline never calibrates behind the caller
    def no_calibration(*args, **kwargs):
        raise AssertionError("build_embedding calibrated the current")

    monkeypatch.setattr(ml, "calibrate_iapp", no_calibration)
    p = base_params.with_iapp(30.0)
    report = build_embedding(p, EmbeddingConfig(hidden=3, n_samples=400, epochs=20))
    assert report.params == p
    np.testing.assert_array_equal(report.x_star, ml.equilibria(p)[-1])


@pytest.mark.parametrize("field, value, message", [
    ("sigma", -0.5, "sigma must be finite and >= 0"),
    ("sigma", float("nan"), "sigma must be finite and >= 0"),
    ("sigma", float("inf"), "sigma must be finite and >= 0")])
def test_embedding_config_refuses_bad_values_when_built(field, value, message):
    # so build_embedding never fits nets for a config embed would refuse
    with pytest.raises(ValueError, match=message):
        EmbeddingConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        replace(EmbeddingConfig(), **{field: value})
