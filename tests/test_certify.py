"""Certificate tests: the frozen hand oracle, the scalar closed form,
solver invariants and sweeps."""

import itertools
import json
import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarlab.certify as certify_module
from conftest import make_scalar
from sarlab.certify import (CertProblem, SolverOptions, _affine_parts, _dual_lower_bound,
                            _solve_fixed_nu, certificate_matrix, certify, default_nu_grid,
                            linear_necessity_bound, load_certificate,
                            max_eigenvalue, recompute_margin, save_certificate,
                            sigma_sweep)
from sarlab.cli import write_sweep
from sarlab.lure import LureSystem, TanhBank, _usable_cores

# frozen by hand before implementation: n=1, a=-1, F=0.5, c=1, s=delta=1,
# sigma=1, nu=0.5, lambda=tau=1 assembles to [[-0.25,-0.125],[-0.125,-1]]
HAND_N = np.array([[-0.25, -0.125], [-0.125, -1.0]])
HAND_EIG = -0.22971529247895254


def hand_system():
    return make_scalar(-1.0, 1.0, f=0.5)


def test_certificate_matrix_hand_oracle():
    mat = certificate_matrix(hand_system(), 0.5, np.ones(1), np.ones(1))
    np.testing.assert_allclose(mat, HAND_N, atol=1e-12)


def test_max_eigenvalue_hand_oracle():
    mat = certificate_matrix(hand_system(), 0.5, np.ones(1), np.ones(1))
    assert max_eigenvalue(mat) == pytest.approx(HAND_EIG, abs=1e-6)


def test_certificate_matrix_validation():
    sys = hand_system()
    with pytest.raises(ValueError):
        certificate_matrix(sys, 0.0, np.ones(1), np.ones(1))
    with pytest.raises(ValueError):
        certificate_matrix(sys, 1.0, np.ones(1), np.ones(1))
    with pytest.raises(ValueError):
        certificate_matrix(sys, 0.5, -np.ones(1), np.ones(1))
    with pytest.raises(ValueError):
        certificate_matrix(sys, 0.5, np.ones(2), np.ones(1))


def test_certificate_matrix_needs_square_feedback():
    wide = LureSystem(a=-np.eye(1), f_gain=np.zeros((1, 2)),
                      c=np.array([[1.0], [1.0]]), sigma=0.0,
                      nonlinearity=TanhBank(np.ones(2)),
                      sector_slopes=np.ones(2), deriv_bounds=np.ones(2))
    with pytest.raises(ValueError):
        certificate_matrix(wide, 0.5, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="certify needs a square system"):
        certify(CertProblem(wide))


def random_system(rng, n):
    """A square n-state system with random data (C^T C != I)."""
    s = rng.uniform(0.1, 3.0, size=n)
    return LureSystem(a=rng.normal(size=(n, n)), f_gain=rng.normal(size=(n, n)),
                      c=rng.normal(size=(n, n)), sigma=float(rng.uniform(0.0, 2.0)),
                      nonlinearity=TanhBank(s), sector_slopes=s,
                      deriv_bounds=s * rng.uniform(0.5, 2.0, size=n))


def assert_stack_matches_calls(sys, nus, lams, taus):
    """certificate_matrix on stacks equals the per-member calls byte for byte."""
    stack = certificate_matrix(sys, nus, lams, taus)
    nus, lams, taus = np.broadcast_arrays(nus[..., None], lams, taus)
    assert stack.shape == nus.shape[:-1] + (2 * sys.n, 2 * sys.n)
    for idx in np.ndindex(stack.shape[:-2]):
        one = certificate_matrix(sys, float(nus[idx][0]), lams[idx], taus[idx])
        assert stack[idx].tobytes() == one.tobytes(), idx


def test_stacked_certificate_matrix_keeps_every_bit(embedding_report):
    rng = np.random.default_rng(15)
    systems = [random_system(rng, n) for n in range(1, 9) for _ in range(3)]
    systems.append(embedding_report.embedding.system.with_sigma(20.0))
    for sys in systems:
        n = sys.n
        nus = rng.uniform(0.01, 0.99, size=7)
        theta = rng.exponential(size=(2, n)) * rng.integers(0, 2, size=(2, n))
        # a nu stack at one theta
        assert_stack_matches_calls(sys, nus, theta[0], theta[1])
        # a theta stack at one nu: zero, the unit vectors and random points
        lams = np.vstack([np.zeros(n), np.eye(n), np.zeros((n, n)), rng.exponential(size=(3, n))])
        taus = np.vstack([np.zeros(n), np.zeros((n, n)), np.eye(n), rng.exponential(size=(3, n))])
        assert_stack_matches_calls(sys, np.array(float(nus[0])), lams, taus)
        # both at once, on two leading axes
        assert_stack_matches_calls(sys, nus[:3, None], lams[None, :4], taus[None, :4])


def test_stacked_certificate_matrix_validates_every_member():
    sys = random_system(np.random.default_rng(16), 3)
    ones = np.ones(3)
    for bad in (0.0, 1.0, -0.5, np.nan):
        with pytest.raises(ValueError, match=r"nu must lie in \(0, 1\)"):
            certificate_matrix(sys, bad, ones, ones)
        with pytest.raises(ValueError, match=r"nu must lie in \(0, 1\)"):
            certificate_matrix(sys, np.array([0.2, bad, 0.7]), ones, ones)
    thetas = np.ones((4, 3))
    thetas[2, 1] = -1e-300
    for lam, tau in ((thetas, ones), (ones, thetas), (thetas[2], ones)):
        with pytest.raises(ValueError, match="lambda and tau must be >= 0"):
            certificate_matrix(sys, 0.5, lam, tau)
        with pytest.raises(ValueError, match="lambda and tau must be >= 0"):
            certificate_matrix(sys, np.array([0.3, 0.6]), lam, tau)
    with pytest.raises(ValueError, match="lambda and tau must have length n"):
        certificate_matrix(hand_system(), np.array([0.3, 0.6]), np.ones((2, 2)), np.ones((2, 1)))


def test_max_eigenvalue_rejects_asymmetric():
    with pytest.raises(ValueError):
        max_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_max_eigenvalue_diag():
    assert max_eigenvalue(np.diag([-3.0, 2.0, 0.5])) == pytest.approx(2.0, abs=1e-14)


def scalar_closed_form(a, sigma, nu_grid=None):
    grid = default_nu_grid() if nu_grid is None else nu_grid
    return bool(np.any(2 * a < sigma ** 2 * (1 - grid)))


@pytest.mark.parametrize("a,sigma", [(0.1, 0.7), (0.1, 0.3), (-0.5, 0.0), (0.9, 1.4)])
def test_scalar_feasibility_matches_closed_form(a, sigma):
    cert = certify(CertProblem(make_scalar(a, sigma)))
    assert cert.feasible == scalar_closed_form(a, sigma)


def test_margin_reconstruction_contract():
    cert = certify(CertProblem(make_scalar(0.1, 0.7)))
    assert recompute_margin(make_scalar(0.1, 0.7), cert) == pytest.approx(
        cert.margin, abs=1e-10)


def test_certify_stops_at_first_feasible_nu():
    cert = certify(CertProblem(make_scalar(-1.0, 0.0)))
    assert cert.feasible
    assert cert.nu == pytest.approx(default_nu_grid()[0])


def test_infeasible_scalar_point_reports_closed_form_optimum():
    # 2a >= sigma^2 (1 - nu) on the whole grid; the optimum over the cone
    # is nu (2a - sigma^2 (1 - nu)) at lambda = tau = 0, smallest at nu = 0.05
    cert = certify(CertProblem(make_scalar(1.0, 0.5)))
    assert not cert.feasible and not cert.capped
    assert cert.witness == "necessity"  # sigma^2/2 <= a: even the linear class is unstable
    assert cert.nu == default_nu_grid()[0]
    assert cert.margin == pytest.approx(0.088125, abs=1e-15)
    np.testing.assert_array_equal(cert.lam, [0.0])
    np.testing.assert_array_equal(cert.tau, [0.0])


def test_dual_lower_bound_is_sound():
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(1, 5))
        sys = LureSystem(a=rng.normal(size=(n, n)), f_gain=rng.normal(size=(n, n)),
                         c=rng.normal(size=(n, n)),  # C^T C != I
                         sigma=float(rng.uniform(0.0, 2.0)),
                         nonlinearity=TanhBank(np.ones(n)),
                         sector_slopes=rng.uniform(0.1, 3.0, size=n),
                         deriv_bounds=rng.uniform(0.1, 3.0, size=n))
        nu = float(rng.uniform(0.01, 0.99))
        top = float(np.linalg.eigvalsh(sys.a + sys.a.T)[-1])
        bound = _dual_lower_bound(sys, nu, top)
        lam = rng.exponential(size=n) * rng.integers(0, 2, size=n)
        tau = rng.exponential(size=n) * rng.integers(0, 2, size=n)
        mat = certificate_matrix(sys, nu, lam, tau)
        assert bound <= max_eigenvalue(mat) + 1e-12 * np.linalg.norm(mat)


def test_dual_lower_bound_is_attained_at_infeasible_scalar_points():
    for a in np.linspace(0.0, 1.0, 6):
        for sigma in np.linspace(0.0, 1.5, 6):
            sys = make_scalar(a, sigma)
            for nu in default_nu_grid():
                if 2.0 * a < sigma ** 2 * (1.0 - nu):
                    continue
                top = max_eigenvalue(certificate_matrix(sys, nu, [0.0], [0.0]))
                assert _dual_lower_bound(sys, nu, 2.0 * a) == pytest.approx(top, abs=1e-15)


def test_certify_rejects_bad_nu_grid():
    sys = make_scalar(0.0, 0.5)
    with pytest.raises(ValueError):
        certify(CertProblem(sys, nu_grid=np.array([0.0, 0.5])))
    with pytest.raises(ValueError):
        certify(CertProblem(sys, nu_grid=np.array([])))


def test_nonorthonormal_c_needs_flag():
    sys = make_scalar(-1.0, 0.5, c=2.0)  # C^T C = 4
    with pytest.raises(ValueError):
        certify(CertProblem(sys))
    cert = certify(CertProblem(
        sys, options=SolverOptions(allow_nonorthonormal_c=True)))
    assert isinstance(cert.feasible, bool)
    assert cert.c_defect == 3.0  # the certificate records that it is outside the theorem


def test_certificate_records_c_defect(tmp_path, embedding_report):
    sys = embedding_report.embedding.system.with_sigma(0.85)
    cert = certify(CertProblem(sys))
    assert cert.c_defect <= 1e-12
    f = tmp_path / "cert.json"
    save_certificate(cert, f)
    assert load_certificate(f).c_defect == cert.c_defect
    doc = json.loads(f.read_text())
    del doc["c_defect"]  # a file written before certificates recorded it
    f.write_text(json.dumps(doc))
    with pytest.raises(KeyError, match="c_defect"):
        load_certificate(f)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)


def test_linear_necessity_bound_no_feedback():
    # F = 0: the only linear realization is dx = a x dt + sigma x dW
    sys = make_scalar(0.3, 0.0)
    rate, sigma_floor = linear_necessity_bound(sys)
    assert rate == pytest.approx(0.3, abs=1e-12)
    assert sigma_floor == pytest.approx(np.sqrt(0.6), abs=1e-12)


def test_linear_necessity_bound_picks_destabilizing_corner():
    # f = +0.5 through slope-1 sector: worst linear feedback is theta = 1
    sys = make_scalar(-1.0, 0.0, f=0.5)
    rate, _ = linear_necessity_bound(sys)
    assert rate == pytest.approx(-0.5, abs=1e-12)
    stable = make_scalar(-1.0, 0.0, f=-0.5)  # feedback only helps; theta = 0
    rate2, floor2 = linear_necessity_bound(stable)
    assert rate2 == pytest.approx(-1.0, abs=1e-12)
    assert floor2 == 0.0


def test_linear_necessity_bound_tries_every_corner_for_small_m():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        s = rng.uniform(0.1, 3.0, size=m)
        delta = s * rng.uniform(0.5, 2.0, size=m)
        sys = LureSystem(a=rng.normal(size=(n, n)), f_gain=rng.normal(size=(n, m)),
                         c=rng.normal(size=(m, n)), sigma=0.0,
                         nonlinearity=TanhBank(np.minimum(s, delta)),
                         sector_slopes=s, deriv_bounds=delta)
        # the linear members of the class have slopes theta_j min(s_j, delta_j)
        fk = sys.f_gain * np.minimum(s, delta)
        brute = max(np.linalg.eigvals(sys.a + (fk * np.array(theta)) @ sys.c).real.max()
                    for theta in itertools.product((0.0, 1.0), repeat=m))
        rate, floor = linear_necessity_bound(sys)
        assert rate == brute
        assert floor == np.sqrt(2.0 * max(brute, 0.0))


def test_necessity_exit_is_sound_when_c_is_orthonormal():
    # with C^T C = I the matrix inequality is a sound certificate, so where
    # the necessity witness settles a noise level, the multiplier search
    # must not find a feasible point at any grid nu either
    rng = np.random.default_rng(12)
    nu_grid = np.array([0.3, 0.7])
    opts = SolverOptions()
    settled = 0
    for k in range(200):
        n = int(rng.integers(1, 5))
        c, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s = rng.uniform(0.1, 3.0, size=n)
        delta = s * rng.uniform(0.5, 2.0, size=n)
        sys = LureSystem(a=rng.normal(size=(n, n)), f_gain=rng.normal(size=(n, n)), c=c,
                         sigma=0.0, nonlinearity=TanhBank(np.minimum(s, delta)),
                         sector_slopes=s, deriv_bounds=delta)
        rate, floor = linear_necessity_bound(sys)
        if rate <= 0.0:
            continue
        # every other system sits just below its floor, the hardest level
        at = sys.with_sigma(floor * ((1.0 - 1e-9) if k % 2 else rng.uniform(0.0, 1.0)))
        cert = certify(CertProblem(at, nu_grid))
        assert cert.witness == "necessity" and not cert.feasible
        top = float(np.linalg.eigvalsh(at.a + at.a.T)[-1])
        for nu in nu_grid:
            n0, basis = _affine_parts(at, float(nu))
            margin, _, _ = _solve_fixed_nu(n0, basis, opts, _dual_lower_bound(at, float(nu), top))
            assert margin >= -opts.tol, (k, at.sigma, floor, nu, margin)
        settled += 1
    assert settled >= 150, settled


def test_embedding_certificate_below_the_floor_has_a_necessity_witness(embedding_report):
    sys = embedding_report.embedding.system.with_sigma(0.85)
    cert = certify(CertProblem(sys))
    assert not cert.feasible and not cert.capped
    assert cert.witness == "necessity"
    assert recompute_margin(sys, cert) == cert.margin
    np.testing.assert_array_equal(cert.lam, 0.0)
    np.testing.assert_array_equal(cert.tau, 0.0)
    zeros = np.zeros(sys.n)
    margins = [max_eigenvalue(certificate_matrix(sys, nu, zeros, zeros))
               for nu in default_nu_grid()]
    assert cert.margin == min(margins) and cert.nu == default_nu_grid()[np.argmin(margins)]


def test_necessity_exit_scores_each_nu_like_max_eigenvalue():
    # the stacked eigvalsh over the nu grid picks the same margin and nu, to the
    # bit, as lambda_max of each N(nu, 0, 0) on its own
    rng = np.random.default_rng(17)
    systems = [make_scalar(a, sigma) for a in (0.3, 1.0, 2.5) for sigma in (0.0, 0.4, 0.7)]
    for n in range(1, 7):
        for _ in range(4):
            c, _ = np.linalg.qr(rng.normal(size=(n, n)))
            s = rng.uniform(0.1, 3.0, size=n)
            sys = LureSystem(a=rng.normal(size=(n, n)) + np.eye(n), f_gain=rng.normal(size=(n, n)),
                             c=c, sigma=0.0, nonlinearity=TanhBank(s), sector_slopes=s,
                             deriv_bounds=s)
            systems.append(sys.with_sigma(0.9 * linear_necessity_bound(sys)[1]))
    grids = (default_nu_grid(), np.array([0.5]), np.array([0.9, 0.1, 0.4]))
    exits = 0
    for sys in systems:
        for grid in grids:
            cert = certify(CertProblem(sys, grid))
            if cert.witness != "necessity":
                continue
            zeros = np.zeros(sys.n)
            margins = [max_eigenvalue(certificate_matrix(sys, nu, zeros, zeros)) for nu in grid]
            assert cert.margin == min(margins) and cert.nu == grid[np.argmin(margins)]
            assert type(cert.margin) is float
            exits += 1
    assert exits >= 60, exits


def test_feasible_certificate_has_a_search_witness():
    cert = certify(CertProblem(make_scalar(0.1, 0.7)))
    assert cert.feasible and cert.witness == "search"


def search_system(sigma=0.81):
    # two states, C an exact reflection; at sigma = 0.81 no probe point is
    # feasible at any grid nu, so only the smoothed search can certify it
    s, delta = 1.38, 1.78
    return LureSystem(a=np.array([[-2.05, 1.72], [0.6, -0.7]]),
                      f_gain=np.array([[0.45, -0.33], [-0.03, -0.39]]),
                      c=np.array([[-0.936, -0.352], [-0.352, 0.936]]), sigma=sigma,
                      nonlinearity=TanhBank(np.full(2, s)), sector_slopes=np.full(2, s),
                      deriv_bounds=np.full(2, delta))


def test_search_certifies_a_system_no_probe_settles(monkeypatch):
    sys = search_system()

    def no_search(*args, **kwargs):
        raise AssertionError("search reached")

    with monkeypatch.context() as m:
        m.setattr("sarlab.certify.minimize", no_search)
        with pytest.raises(AssertionError, match="search reached"):
            certify(CertProblem(sys))
    cert = certify(CertProblem(sys))
    assert cert.feasible and cert.witness == "search" and not cert.capped
    assert recompute_margin(sys, cert) == cert.margin


def test_search_is_deterministic():
    sys = search_system()
    a = certify(CertProblem(sys, options=SolverOptions(seed=0)))
    b = certify(CertProblem(sys, options=SolverOptions(seed=12345)))
    assert (a.nu, a.margin) == (b.nu, b.margin)
    np.testing.assert_array_equal(a.lam, b.lam)
    np.testing.assert_array_equal(a.tau, b.tau)
    sigmas = [0.2, 0.6, 0.81]
    seq = sigma_sweep(sys, sigmas, jobs=1)
    par = sigma_sweep(sys, sigmas, jobs=2)
    assert [c.margin for _, c in seq] == [c.margin for _, c in par]
    assert all(c.feasible and c.witness == "search" for _, c in seq)


def test_sigma_sweep_requires_ascending():
    with pytest.raises(ValueError):
        sigma_sweep(make_scalar(0.1, 0.0), [0.5, 0.4])
    with pytest.raises(ValueError, match="sigma grid is empty"):
        sigma_sweep(make_scalar(0.1, 0.0), [])
    with pytest.raises(ValueError, match="sigma values must be >= 0"):
        sigma_sweep(make_scalar(0.1, 0.0), [-0.1, 0.4])


def test_sigma_sweep_matches_closed_form_and_jobs_invariant():
    sys = make_scalar(0.1, 0.0)
    sigmas = np.round(np.arange(0.0, 1.0001, 0.1), 12)
    seq = sigma_sweep(sys, sigmas, jobs=1)
    par = sigma_sweep(sys, sigmas, jobs=3)
    for (s1, c1), (s2, c2) in zip(seq, par):
        assert s1 == s2
        assert c1.feasible == c2.feasible
        assert c1.margin == pytest.approx(c2.margin, abs=0.0)
        assert c1.feasible == scalar_closed_form(0.1, s1)
    # the known boundary for a = 0.1 sits between 0.4 and 0.5
    feas = [s for s, c in seq if c.feasible]
    assert 0.4 < feas[0] <= 0.5


def test_one_sigma_sweep_starts_no_pool(pools):
    sys = search_system()
    seq = sigma_sweep(sys, [0.81], jobs=1)
    par = sigma_sweep(sys, [0.81], jobs=4)
    assert pools == []
    (s1, c1), = seq
    (s2, c2), = par
    assert s1 == s2 and c1.margin == c2.margin and c1.nu == c2.nu
    np.testing.assert_array_equal(c1.lam, c2.lam)
    np.testing.assert_array_equal(c1.tau, c2.tau)
    sigma_sweep(sys, [0.6, 0.81], jobs=4)  # one worker per sigma
    assert pools == ([2] if _usable_cores() > 1 else [])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_jobs_below_one(jobs, pools):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        sigma_sweep(make_scalar(0.1, 0.0), [0.2, 0.6], jobs=jobs)
    assert pools == []


def test_sweep_pool_is_capped_at_the_usable_cores(monkeypatch, pools):
    # 4 sigmas and jobs=8 on (what the sweep takes for) 2 usable cores: 2 workers
    monkeypatch.setattr(certify_module, "_usable_cores", lambda: 2)
    sys = make_scalar(0.1, 0.0)
    par = sigma_sweep(sys, [0.2, 0.4, 0.6, 0.8], jobs=8)
    assert pools == ([2] if _usable_cores() > 1 else [])
    assert [c.margin for _, c in par] == [c.margin for _, c in
                                          sigma_sweep(sys, [0.2, 0.4, 0.6, 0.8], jobs=1)]
    assert multiprocessing.active_children() == []


def test_a_raising_sweep_worker_reaches_the_caller(monkeypatch, pools):
    def failing(problem):
        if problem.sys.sigma == 0.6:
            raise FloatingPointError("the sigma = 0.6 certificate failed")
        return certify(problem)

    monkeypatch.setattr(certify_module, "certify", failing)
    with pytest.raises(FloatingPointError, match="sigma = 0.6"):
        sigma_sweep(make_scalar(0.1, 0.0), [0.2, 0.6, 1.0], jobs=2)
    assert pools == ([2] if _usable_cores() > 1 else [])
    assert multiprocessing.active_children() == []


def test_cert_problem_pickles_with_its_drift():
    # process-pool sweeps send pickled problems; the bank must arrive intact
    rng = np.random.default_rng(6)
    slopes = rng.uniform(0.5, 2.0, 3)
    sys = LureSystem(a=-np.eye(3), f_gain=rng.standard_normal((3, 3)), c=np.eye(3),
                     sigma=0.5, nonlinearity=TanhBank(slopes, rng.standard_normal(3)),
                     sector_slopes=slopes, deriv_bounds=slopes)
    problem = CertProblem(sys, np.array([0.3, 0.6]), SolverOptions(seed=3))
    back = pickle.loads(pickle.dumps(problem))
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(back.sys.drift(x), sys.drift(x))
    np.testing.assert_array_equal(back.nu_grid, problem.nu_grid)
    assert back.options == problem.options
    assert certify(back).margin == certify(problem).margin


def test_sarlab_certify_is_the_module():
    import sys

    import sarlab.certify as m
    assert m is sys.modules["sarlab.certify"]


def test_sweep_to_csv_format(tmp_path):
    sys = make_scalar(0.1, 0.0)
    res = sigma_sweep(sys, [0.0, 0.7])
    assert write_sweep(tmp_path, res) == 0.7
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "sigma,margin,feasible"
    assert lines[1].startswith("0,") and lines[1].endswith(",0")
    assert lines[2].endswith(",1")
    assert "set arrow from 0.69999999999999996, graph 0" in (tmp_path / "sweep.plt").read_text()


def test_certificate_roundtrip(tmp_path):
    cert = certify(CertProblem(make_scalar(0.1, 0.7)))
    f = tmp_path / "cert.json"
    save_certificate(cert, f)
    back = load_certificate(f)
    assert back.sigma == cert.sigma
    assert back.margin == cert.margin
    assert back.feasible == cert.feasible
    np.testing.assert_array_equal(back.lam, cert.lam)


def test_certificate_witness_roundtrip(tmp_path):
    cert = certify(CertProblem(make_scalar(1.0, 0.5)))
    f = tmp_path / "cert.json"
    save_certificate(cert, f)
    doc = json.loads(f.read_text())
    assert doc["witness"] == "necessity"
    assert load_certificate(f).witness == "necessity"
    for key in ("witness", "capped"):  # a file written before the field existed
        old = dict(doc)
        del old[key]
        f.write_text(json.dumps(old))
        with pytest.raises(KeyError, match=key):
            load_certificate(f)


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(0.05, 0.95), l1=st.floats(0.0, 3.0), l2=st.floats(0.0, 3.0),
       t1=st.floats(0.0, 3.0), t2=st.floats(0.0, 3.0))
def test_certificate_matrix_is_affine_in_multipliers(nu, l1, l2, t1, t2):
    sys = hand_system()
    n0 = certificate_matrix(sys, nu, [0.0], [0.0])
    na = certificate_matrix(sys, nu, [l1], [t1])
    nb = certificate_matrix(sys, nu, [l2], [t2])
    nsum = certificate_matrix(sys, nu, [l1 + l2], [t1 + t2])
    np.testing.assert_allclose(nsum, na + nb - n0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-1.0, 1.0), sigma=st.floats(0.0, 1.5))
def test_feasible_flag_is_consistent_with_margin(a, sigma):
    opts = SolverOptions()
    cert = certify(CertProblem(make_scalar(a, sigma), options=opts))
    assert cert.feasible == (cert.margin < -opts.tol)
