"""Certificate tests: the frozen hand oracle, the scalar closed form,
solver invariants and sweeps."""

import itertools
import json
import math
import multiprocessing
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarlab.certify as certify_module
from conftest import make_scalar
from sarlab.certify import (C_DEFECT_TOL, CertProblem, SolverOptions, _affine_parts,
                            _dual_lower_bound, _frobenius, _pencil, _probe_stack,
                            _scalar_pencil, _solve_fixed_nu, _top_eigs, _unit_stack, c_defect,
                            certificate_matrix, certify, default_nu_grid,
                            linear_necessity_bound, load_certificate,
                            max_eigenvalue, paper_form, recompute_margin,
                            save_certificate, sigma_sweep)
from sarlab.cli import _Run, write_sweep
from sarlab.lure import LureSystem, TanhBank, _usable_cores
from test_certificate_bits import certificate_digest, one_state

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
    with pytest.raises(ValueError, match="square system.*see paper_form"):
        certificate_matrix(wide, 0.5, np.ones(2), np.ones(2))
    # certify takes a wide system in its paper form, and no narrow one
    assert certify(CertProblem(wide)).lam.shape == (2,)
    narrow = LureSystem(a=-np.eye(2), f_gain=np.zeros((2, 1)), c=np.ones((1, 2)), sigma=0.0,
                        nonlinearity=TanhBank(np.ones(1)), sector_slopes=np.ones(1),
                        deriv_bounds=np.ones(1))
    with pytest.raises(ValueError, match=r"need at least as many nonlinearities as states"):
        certify(CertProblem(narrow))


def wide_system(rng, n, m, sigma):
    """An n-state system with m > n units and random data."""
    s = rng.uniform(0.1, 3.0, size=m)
    return LureSystem(a=rng.normal(size=(n, n)), f_gain=rng.normal(size=(n, m)),
                      c=rng.normal(size=(m, n)), sigma=sigma, nonlinearity=TanhBank(s),
                      sector_slopes=s, deriv_bounds=s)


def test_certify_solves_the_paper_form_of_a_wide_system(embedding_report):
    # the certificate of a wide system is the one of its paper form, bit for
    # bit, and recompute_margin rebuilds it from either
    rng = np.random.default_rng(27)
    systems = [wide_system(rng, 2, 4, sigma) for sigma in (0.5, 1.5, 3.0)]
    systems.append(embedding_report.embedding.system.with_sigma(0.85))
    for sys in systems:
        got, want = certify(CertProblem(sys)), certify(CertProblem(paper_form(sys)))
        for field in ("sigma", "nu", "margin", "feasible", "capped", "witness", "c_defect"):
            assert repr(getattr(got, field)) == repr(getattr(want, field)), field
        assert got.lam.tobytes() == want.lam.tobytes()
        assert got.tau.tobytes() == want.tau.tobytes()
        assert recompute_margin(sys, got) == recompute_margin(paper_form(sys), got)


def random_system(rng, n, orthonormal=False):
    """A square n-state system with random data (C^T C != I unless orthonormal)."""
    s = rng.uniform(0.1, 3.0, size=n)
    a, f, c = rng.normal(size=(n, n)), rng.normal(size=(n, n)), rng.normal(size=(n, n))
    if orthonormal:
        c = np.linalg.qr(c)[0]
    sigma = float(rng.uniform(0.0, 2.0))
    delta = s * rng.uniform(0.5, 2.0, size=n)
    return LureSystem(a=a, f_gain=f, c=c, sigma=sigma, nonlinearity=TanhBank(np.minimum(s, delta)),
                      sector_slopes=s, deriv_bounds=delta)


def unit_stack(n):
    """theta = 0, then each unit lambda_i, then each unit tau_i, as certify builds it."""
    return np.vstack([np.zeros((1, 2 * n)), np.eye(2 * n)])


def affine_parts(sys, nu):
    """The (N0, basis) that certify solves at nu."""
    return _affine_parts(_pencil(sys), unit_stack(sys.n), nu)


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
    systems.append(paper_form(embedding_report.embedding.system.with_sigma(20.0)))
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
    # anything but a non-empty square matrix is refused, its shape named
    for bad in (np.ones(2), np.float64(1.0), np.ones((0, 0)), np.ones((2, 2, 2)),
                np.ones((2, 3))):
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
            max_eigenvalue(bad)


@pytest.mark.parametrize("x", [1e200, -1e200, 1e300, -1e300])
def test_max_eigenvalue_judges_a_matrix_whose_norm_overflows(x):
    # ||M||_F overflows past about 1.3e154, and with it a tolerance relative to it
    with np.errstate(over="ignore"):
        for asym in (x, 1e-5 * x):
            with pytest.raises(ValueError, match="not symmetric"):
                max_eigenvalue(np.array([[x, asym], [-asym, 0.0]]))
        sym = np.array([[x, x / 3.0], [x / 3.0, -x]])
        assert max_eigenvalue(sym) == float(_top_eigs(sym))
        # the top eigenvalue is that of M / max |M_ij|, scaled back: near the
        # largest float, M + M^T overflows where the top eigenvalue does not
        big, phi = math.copysign(1e308, x), (1.0 + math.sqrt(5.0)) / 2.0
        assert max_eigenvalue(np.array([[big, big], [big, 0.0]])) == pytest.approx(
            max(big * phi, big * (1.0 - phi)), rel=1e-15)
        # a non-finite entry makes the norm non-finite too; it is refused
        for bad in ([[np.nan, x], [x, 0.0]], [[np.inf, 0.0], [0.0, x]], np.diag([x, np.nan, 1.0])):
            with pytest.raises(ValueError, match="non-finite entry"):
                max_eigenvalue(np.array(bad))


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
        a, f = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        c = rng.normal(size=(n, n))  # C^T C != I
        sigma = float(rng.uniform(0.0, 2.0))
        s, delta = rng.uniform(0.1, 3.0, size=n), rng.uniform(0.1, 3.0, size=n)
        sys = LureSystem(a=a, f_gain=f, c=c, sigma=sigma,
                         nonlinearity=TanhBank(np.minimum(s, delta)),
                         sector_slopes=s, deriv_bounds=delta)
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
    with pytest.raises(ValueError):
        certify(CertProblem(sys, nu_grid=np.array([0.5, np.nan])))


def test_the_default_nu_grid_is_shared_read_only():
    problem = CertProblem(make_scalar(0.0, 0.5))
    assert not problem.nu_grid.flags.writeable
    assert CertProblem(make_scalar(0.1, 0.2)).nu_grid is problem.nu_grid
    grid = default_nu_grid()
    assert grid.flags.writeable
    assert grid.tobytes() == problem.nu_grid.tobytes() == np.linspace(0.05, 0.95, 19).tobytes()
    grid[0] = 0.5  # a caller's copy is its own
    assert problem.nu_grid[0] == 0.05 and default_nu_grid()[0] == 0.05


def test_nonorthonormal_c_is_lifted_not_refused():
    sys = make_scalar(-1.0, 0.5, c=2.0)  # C^T C = 4
    assert c_defect(sys) == 3.0
    cert = certify(CertProblem(sys))
    assert cert.feasible and cert.c_defect <= 1e-12  # the lift meets the hypothesis


def test_paper_form_keeps_a_system_already_in_form():
    for sys in (make_scalar(-1.0, 0.5), make_scalar(0.3, 1.0, c=-1.0),
                random_system(np.random.default_rng(31), 3, orthonormal=True)):
        assert paper_form(sys) is sys


@pytest.mark.parametrize("c", [2.0, -0.5, 3.0])
def test_an_off_form_scalar_is_lifted_to_the_closed_form_verdict(c):
    # y = c x is a change of coordinates: criterion 02's grid keeps its verdicts
    for a in np.linspace(-1.0, 1.0, 10):
        for sigma in np.linspace(0.0, 1.5, 10):
            cert = certify(CertProblem(make_scalar(a, sigma, c=c)))
            assert cert.feasible == scalar_closed_form(a, sigma), (c, a, sigma)
            assert cert.c_defect <= 1e-12


def test_an_off_form_square_system_is_certified_in_its_paper_form():
    # certify lifts a square system with C^T C != I, and what the lift
    # certifies is sound: nothing at or below the linear necessity floor
    rng = np.random.default_rng(31)
    feasible = 0
    for _ in range(200):
        sys = random_system(rng, int(rng.integers(2, 4))).with_sigma(rng.uniform(0.0, 3.0))
        got, want = certify(CertProblem(sys)), certify(CertProblem(paper_form(sys)))
        assert certificate_digest([got]) == certificate_digest([want])
        assert recompute_margin(sys, got) == got.margin
        assert got.c_defect <= C_DEFECT_TOL < c_defect(sys)
        if got.feasible:
            assert sys.sigma > linear_necessity_bound(sys)[1]
            feasible += 1
    assert feasible >= 15, feasible  # 19 of the 200


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
            n0, basis = affine_parts(at, float(nu))
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
    square = paper_form(sys)
    zeros = np.zeros(square.n)
    margins = [max_eigenvalue(certificate_matrix(square, nu, zeros, zeros))
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


def test_sigma_sweep_requires_ascending(pools):
    with pytest.raises(ValueError):
        sigma_sweep(make_scalar(0.1, 0.0), [0.5, 0.4])
    with pytest.raises(ValueError, match="sigma grid is empty"):
        sigma_sweep(make_scalar(0.1, 0.0), [])
    with pytest.raises(ValueError, match="sigma_negative"):
        sigma_sweep(make_scalar(0.1, 0.0), [-0.5, 0.2], jobs=2)
    assert pools == []  # the system is built, and refused, before any pool starts


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
    run = _Run(tmp_path, ("write_s",))
    assert write_sweep(run, res) == 0.7
    assert run.outputs == ["sweep.csv", "sweep.plt"]
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


# -- the pencil and the probe stack -------------------------------------------

def test_affine_parts_from_the_pencil_keep_every_bit(embedding_report):
    # the unchecked pencil against the checked certificate_matrix, at the
    # unit stack certify solves with
    rng = np.random.default_rng(21)
    systems = [random_system(rng, n) for n in range(1, 9) for _ in range(2)]
    systems.append(paper_form(embedding_report.embedding.system.with_sigma(20.0)))
    for sys in systems:
        units = unit_stack(sys.n)
        for nu in (0.05, float(rng.uniform(0.01, 0.99)), 0.95):
            mats = certificate_matrix(sys, nu, units[:, :sys.n], units[:, sys.n:])
            n0, basis = mats[0], mats[1:] - mats[0]
            n0, basis = 0.5 * (n0 + n0.T), 0.5 * (basis + np.transpose(basis, (0, 2, 1)))
            got = affine_parts(sys, nu)
            assert got[0].tobytes() == n0.tobytes() and got[1].tobytes() == basis.tobytes()


def test_the_float_pencil_of_a_one_state_system_keeps_the_pencils_bytes():
    # bytes, not values, so that a -0.0 where the pencil has +0.0 counts
    rng = np.random.default_rng(33)
    systems = [make_scalar(-1.0, 1.0, f=0.5), make_scalar(0.3, 0.0, f=-0.0, c=-1.0),
               make_scalar(-0.0, 0.0, f=-0.0, c=-1.0),
               make_scalar(0.0, 2.0, f=0.0, s=0.5, delta=2.0, c=-1.0)]
    for k in range(60):
        a, f, s, delta, sigma = rng.normal(size=2).tolist() + rng.uniform(0.1, 3.0, size=3).tolist()
        c = (1.0, -1.0, rng.uniform(-4.0, 4.0))[k % 3]  # the last is lifted
        systems.append(paper_form(one_state(a, f, c, s, delta, sigma)))
    units = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-0.0, 0.0)]
    for sys in systems:
        parts, matrix = _scalar_pencil(sys)
        pencil = _pencil(sys)
        nus = [0.05, 0.95, *rng.uniform(0.0, 1.0, size=3).tolist()]
        scaled = rng.uniform(0.0, 10.0, size=(4, 2)) * 10.0 ** rng.integers(-6, 3, size=(4, 2))
        points = units + [tuple(point) for point in scaled.tolist()]
        for nu in nus:
            for lam, tau in points:
                lam, tau = np.array([lam]), np.array([tau])
                assert matrix(nu, lam, tau).tobytes() == pencil(nu, lam, tau).tobytes(), \
                    (sys, nu, lam, tau)
            got, want = parts(nu), _affine_parts(pencil, _unit_stack(1), nu)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        cert = certify(CertProblem(sys))
        if cert.witness == "search":  # the float path's margin, rebuilt by the pencil
            assert np.float64(recompute_margin(sys, cert)).tobytes() == \
                np.float64(cert.margin).tobytes()


def top_eig_of_one(sym):
    """The largest eigenvalue of one symmetric matrix: the closed form at
    2x2, else eigvalsh of that matrix alone."""
    if sym.shape[0] == 2:
        a, b, d = sym[0, 0], sym[0, 1], sym[1, 1]
        return float(0.5 * ((a + d) + np.hypot(a - d, 2.0 * b)))
    return float(np.linalg.eigvalsh(sym)[-1])


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_top_eigs_of_a_stack_match_each_matrix(n):
    rng = np.random.default_rng(n)
    mats = rng.normal(size=(16, 2 * n, 2 * n)) * 10.0 ** rng.integers(-8, 3, size=(16, 1, 1))
    mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    tops = _top_eigs(mats)
    assert tops.shape == (16,)
    for top, sym in zip(tops.tolist(), mats):
        assert top == top_eig_of_one(sym)
        if n > 1:
            assert top == np.linalg.eigvalsh(sym)[-1]


def test_top_eigs_of_1x1_matrices_is_what_lapack_returns():
    # LAPACK's dsyevd returns W(1) = A(1,1) for N = 1, signed zeros and
    # subnormals included
    values = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -1e-160, 1e160, -1e160,
                       1e300, -1e300])
    mats = values[:, None, None]
    want = np.linalg.eigvalsh(mats)[..., -1]
    assert _top_eigs(mats).tobytes() == want.tobytes() == values.tobytes()
    for mat, top in zip(mats, want):
        assert np.asarray(_top_eigs(mat)).tobytes() == top.tobytes()
        with np.errstate(over="ignore"):  # the symmetry check's norm of 1e300 is inf
            assert np.float64(max_eigenvalue(mat)).tobytes() == top.tobytes()


@pytest.mark.parametrize("shape", [(9,), (2, 2), (60, 60)])
def test_frobenius_is_numpys_norm(shape):
    rng = np.random.default_rng(shape[0])
    for _ in range(20):
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-100.0, 100.0, size=shape)
        assert _frobenius(x) == float(np.linalg.norm(x))
        assert _frobenius(x.T) == float(np.linalg.norm(x.T))  # not C-contiguous
        if x.ndim == 2:  # the search's basis row norms
            assert np.sqrt(np.add.reduce(x * x, axis=1)).tobytes() == \
                np.linalg.norm(x, axis=1).tobytes()


def probe_stack(nparams):
    """theta = 0, then for each eps the tau family, both, the lambda family."""
    half, rows = nparams // 2, [np.zeros(nparams)]
    for eps in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        for family in (slice(half, None), slice(None), slice(0, half)):
            rows.append(np.zeros(nparams))
            rows[-1][family] = eps
    return np.array(rows)


@pytest.mark.parametrize("n", [1, 2, 30])
def test_the_cached_stacks_are_read_only_fresh_builds(n):
    units, probes = _unit_stack(n), _probe_stack(2 * n)
    assert units is _unit_stack(n) and probes is _probe_stack(2 * n)
    assert not units.flags.writeable and not probes.flags.writeable
    assert units.tobytes() == unit_stack(n).tobytes()
    assert probes.shape == (16, 2 * n) and probes.tobytes() == probe_stack(2 * n).tobytes()


@pytest.mark.parametrize("size", [2, 60])
def test_max_eigenvalue_necessity_exit_and_probe_score_agree(size, embedding_report):
    # the three places certify takes a top eigenvalue all go through
    # _top_eigs, so on one matrix N(nu, 0, 0) they agree bit for bit
    if size == 2:
        sys = make_scalar(0.3, 0.2, f=0.7)
    else:
        sys = paper_form(embedding_report.embedding.system.with_sigma(0.85))
    nu = 0.35
    zeros = np.zeros(sys.n)
    mat = certificate_matrix(sys, nu, zeros, zeros)
    assert mat.shape == (size, size)
    top = max_eigenvalue(mat)
    cert = certify(CertProblem(sys, np.array([nu])))
    assert cert.witness == "necessity"
    # an infinite lower bound makes the scan return theta = 0's score
    n0, basis = affine_parts(sys, nu)
    score, theta, _ = _solve_fixed_nu(n0, basis, SolverOptions(), np.inf)
    assert not theta.any()
    assert top == cert.margin == score


def sequential_scan(n0, basis, opts, lower_bound):
    """theta = 0 and the probes scored and scanned one point at a time.
    Returns (value, theta, index of the exiting point or None when none
    exits, the incumbent in scaled coordinates)."""
    nparams = basis.shape[0]
    ref = float(np.linalg.norm(n0)) + 1e-12
    scale = ref / np.maximum(np.linalg.norm(basis.reshape(nparams, -1), axis=1), 1e-12 * ref)
    flat = (basis * scale[:, None, None]).reshape(nparams, -1)

    def value(phi):
        mat = n0 + (phi @ flat).reshape(n0.shape)
        return top_eig_of_one(0.5 * (mat + mat.T))

    exit_level = max(-10.0 * opts.tol, lower_bound + 1e-12 * ref)
    best_g, best_phi = value(np.zeros(nparams)), np.zeros(nparams)
    if best_g < exit_level:
        return best_g, best_phi * scale, 0, best_phi
    index, half = 0, nparams // 2
    for eps in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        for family in (slice(half, None), slice(None), slice(0, half)):
            index += 1
            phi = np.zeros(nparams)
            phi[family] = eps
            g = value(phi)
            if g < best_g:
                best_g, best_phi = g, phi
            if best_g < exit_level:
                return best_g, best_phi * scale, index, best_phi
    return best_g, best_phi * scale, None, best_phi


def solver_inputs(sys):
    """(N0, basis, lower bound) at each grid nu of sys."""
    top = float(np.linalg.eigvalsh(sys.a + sys.a.T)[-1])
    return [(*affine_parts(sys, nu), float(_dual_lower_bound(sys, nu, top)))
            for nu in default_nu_grid().tolist()]


def test_probe_stack_exits_where_the_sequential_scan_exits():
    opts = SolverOptions()
    exits = set()
    systems = [make_scalar(0.5, 0.3), make_scalar(-1.0, 0.75), make_scalar(-1.0, 0.0, f=0.5),
               make_scalar(0.1, 0.7), random_system(np.random.default_rng(22), 3)]
    for sys in systems:
        for n0, basis, bound in solver_inputs(sys):
            value, theta, index, _ = sequential_scan(n0, basis, opts, bound)
            if index is None:
                continue
            got = _solve_fixed_nu(n0, basis, opts, bound)
            assert got[0] == value and got[1].tobytes() == theta.tobytes() and not got[2]
            exits.add(index)
    assert 0 in exits  # theta = 0 exits
    assert exits & set(range(1, 15))  # a middle probe is the first to cross


@pytest.mark.parametrize("sys", [
    (search_system(0.81), None),  # no probe exits, so L-BFGS-B starts from the best probe
    # with no lower bound, later probes tie theta = 0's value: the incumbent
    # stays the first of the tied points
    (make_scalar(0.2, 0.0), -np.inf)])
def test_probe_stack_hands_the_search_the_sequential_incumbent(sys, monkeypatch):
    sys, lower_bound = sys
    opts = SolverOptions()
    starts = []

    def stopped(fun, x0, **kwargs):  # the search stops where it starts
        starts.append(np.array(x0))
        return type("Result", (), {"x": np.array(x0), "nit": 0})()

    monkeypatch.setattr(certify_module, "minimize", stopped)
    for n0, basis, bound in solver_inputs(sys):
        bound = bound if lower_bound is None else lower_bound
        value, theta, index, phi = sequential_scan(n0, basis, opts, bound)
        assert index is None
        starts.clear()
        got = _solve_fixed_nu(n0, basis, opts, bound)
        assert len(starts) == 4 and all(x.tobytes() == phi.tobytes() for x in starts)
        assert got[0] == value and got[1].tobytes() == theta.tobytes()


@pytest.mark.parametrize("theta", [np.array([-1e-3, 0.5]), np.array([0.5, 0.5, 0.5])])
def test_the_stored_point_is_checked_before_its_margin(theta, monkeypatch):
    monkeypatch.setattr(certify_module, "_solve_fixed_nu",
                        lambda n0, basis, opts, bound: (-1.0, theta, False))
    with pytest.raises(ValueError, match="outside the multiplier cone"):
        certify(CertProblem(make_scalar(-1.0, 0.75)))


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_a_non_finite_sigma_is_an_error(sigma):
    sys = make_scalar(0.1, 0.5)
    with pytest.raises(ValueError, match="non_finite: sigma"):
        sys.with_sigma(sigma)
    with pytest.raises(ValueError, match="non_finite: sigma"):
        sigma_sweep(sys, [sigma])
    with pytest.raises(ValueError, match="non_finite: sigma"):
        sigma_sweep(sys, [0.2, sigma])


def test_a_sweep_to_a_sigma_whose_square_overflows_does_no_work(pools, monkeypatch):
    def no_matrix(sys):
        raise AssertionError("built a certificate matrix")

    monkeypatch.setattr(certify_module, "_pencil", no_matrix)
    with pytest.raises(ValueError, match="sigma_overflow: sigma"):
        sigma_sweep(make_scalar(0.1, 0.5), [0.0, 5e199, 1e200], jobs=2)
    assert pools == []
