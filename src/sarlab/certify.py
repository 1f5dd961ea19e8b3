"""Stability certificate for Lur'e systems with state-multiplicative noise.

Feasibility of the block matrix inequality N(nu, Lambda, T) < 0 certifies
almost-sure asymptotic stability of the origin, where

    N11 = nu (A^T + A - sigma^2 (1 - nu) I) + sigma^2 C^T Lambda Delta C
    N12 = nu F + (A - (sigma^2/2)(1 - nu/2) I)^T C^T Lambda + S C^T T
    N22 = -2 T + Lambda C F + F^T C^T Lambda

with Lambda = diag(lambda) >= 0 and T = diag(tau) >= 0 free multipliers,
S = diag(sector_slopes), Delta = diag(deriv_bounds), and nu in (0, 1) a
scalar exponent searched on a grid.  For fixed nu the largest eigenvalue of
N is convex in (lambda, tau); the solver tries a fixed set of probes,
then minimizes a log-sum-exp smoothing of it by L-BFGS-B under the bounds
lambda, tau >= 0, with the smoothing shrunk over four levels.  The search
draws no random numbers.  It stops early once its incumbent meets a dual
lower bound (see `_dual_lower_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsyevd
from scipy.optimize import minimize

from .lure import (C_DEFECT_TOL, LureSystem, _fork_map, _one_blas_thread, _usable_cores,
                   c_defect, read_json, write_json)

__all__ = [
    "SolverOptions",
    "CertProblem",
    "Certificate",
    "default_nu_grid",
    "certificate_matrix",
    "max_eigenvalue",
    "certify",
    "recompute_margin",
    "sigma_sweep",
    "save_certificate",
    "load_certificate",
]


def default_nu_grid() -> np.ndarray:
    return np.linspace(0.05, 0.95, 19)


_MAX_ITERS = 5000            # L-BFGS-B iterations per smoothing level
_FEASIBLE_EXIT_FACTOR = 10.0  # a search exits once its margin drops below -factor * tol
_ASYM_TOL = 1e-8             # relative asymmetry max_eigenvalue accepts
_NECESSITY_CORNERS = 200     # random theta corners linear_necessity_bound tries


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the feasibility search.  The search is deterministic:
    `seed` is accepted for compatibility and ignored."""

    tol: float = 1e-8           # feasible iff margin < -tol (absolute)
    seed: int = 0
    allow_nonorthonormal_c: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True, eq=False)
class CertProblem:
    sys: LureSystem
    nu_grid: np.ndarray = field(default_factory=default_nu_grid)
    options: SolverOptions = field(default_factory=SolverOptions)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of a certification run: the best (nu, lambda, tau) found,
    the achieved margin = lambda_max(N), and the feasibility verdict, with
    the witness that settled it: "search" or "necessity" (see certify)."""

    sigma: float
    nu: float
    lam: np.ndarray
    tau: np.ndarray
    margin: float
    feasible: bool
    capped: bool
    witness: str
    c_defect: float  # ||C^T C - I||_F; above C_DEFECT_TOL, outside the theorem


def certificate_matrix(sys: LureSystem, nu, lam, tau) -> np.ndarray:
    """Assemble the 2n x 2n block matrix N(nu, Lambda, T) for a square
    system (m == n; augment first if needed).

    Broadcasts over leading axes: nu of shape (...) and lam, tau of shape
    (..., n) (or scalars) give a (..., 2n, 2n) stack, each member equal bit
    for bit to its own call."""
    n = sys.n
    if sys.m != n:
        raise ValueError(f"certificate needs a square system (m == n), got n={n}, m={sys.m}")
    nu = np.asarray(nu, dtype=float)
    if not np.all((nu > 0.0) & (nu < 1.0)):
        raise ValueError("nu must lie in (0, 1)")
    lam = np.asarray(lam, dtype=float) * np.ones(n)
    tau = np.asarray(tau, dtype=float) * np.ones(n)
    if lam.shape[-1:] != (n,) or tau.shape[-1:] != (n,):
        raise ValueError("lambda and tau must have length n")
    if np.any(lam < 0) or np.any(tau < 0):
        raise ValueError("lambda and tau must be >= 0")

    a, f, c = sys.a, sys.f_gain, sys.c
    s2 = sys.sigma ** 2
    s = sys.sector_slopes
    delta = sys.deriv_bounds
    eye = np.eye(n)
    nu = nu[..., None, None]
    cf = c @ f

    # C^T Lambda Delta C with diagonal Lambda, Delta
    ctld_c = c.T @ ((lam * delta)[..., :, None] * c)
    n11 = nu * (a.T + a - s2 * (1.0 - nu) * eye) + s2 * ctld_c
    shift_t = np.swapaxes(a - (s2 / 2.0) * (1.0 - nu / 2.0) * eye, -1, -2)
    n12 = nu * f + shift_t @ (c.T * lam[..., None, :]) + (s[:, None] * c).T * tau[..., None, :]
    diag_tau = np.zeros(tau.shape + (n,))
    diag_tau[..., np.arange(n), np.arange(n)] = tau
    n22 = -2.0 * diag_tau + (lam[..., :, None] * cf) + cf.T * lam[..., None, :]
    n11, n12, n22 = np.broadcast_arrays(n11, n12, n22)
    return np.concatenate([np.concatenate([n11, n12], axis=-1),
                           np.concatenate([np.swapaxes(n12, -1, -2), n22], axis=-1)], axis=-2)


def max_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix; the input is symmetrized
    as (M + M^T)/2 first and rejected if the asymmetry exceeds 1e-8
    relative to its norm."""
    mat = np.asarray(mat, dtype=float)
    scale = max(1.0, float(np.linalg.norm(mat)))
    if float(np.linalg.norm(mat - mat.T)) > _ASYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = 0.5 * (mat + mat.T)
    return float(np.linalg.eigvalsh(sym)[-1])


# ---------------------------------------------------------------------------
# solver


def _affine_parts(sys: LureSystem, nu: float):
    """N(theta) = N0 + sum_p theta_p B_p with theta = (lambda, tau)."""
    n = sys.n
    # one stack: theta = 0, then each unit lambda_i, then each unit tau_i
    units = np.vstack([np.zeros((1, 2 * n)), np.eye(2 * n)])
    mats = certificate_matrix(sys, nu, units[:, :n], units[:, n:])
    n0 = mats[0]
    basis = mats[1:] - n0
    n0 = 0.5 * (n0 + n0.T)
    basis = 0.5 * (basis + np.transpose(basis, (0, 2, 1)))
    return n0, basis


def _top_eig(mat: np.ndarray) -> float:
    if mat.shape[0] == 2:
        # closed form keeps scalar demos cheap
        a, b, d = mat[0, 0], mat[0, 1], mat[1, 1]
        return float(0.5 * ((a + d) + np.hypot(a - d, 2.0 * b)))
    return float(np.linalg.eigh(mat)[0][-1])


def _dual_lower_bound(sys: LureSystem, nu: float, top_sym_a: float) -> float:
    """Lower bound on min over lambda, tau >= 0 of lambda_max(N(nu, .)).

    Z = [v v^T 0; 0 0], with v the top eigenvector of A + A^T, is PSD with
    unit trace, so lambda_max(N) >= <Z, N> = nu (v^T (A + A^T) v
    - sigma^2 (1 - nu)) + sigma^2 v^T C^T Lambda Delta C v, and the last
    term is >= 0 whenever Delta >= 0.  No C^T C = I is needed.  In the
    scalar case theta = 0 attains the bound at every infeasible nu.
    top_sym_a is lambda_max(A + A^T); the bound is -inf if some
    deriv_bound is negative.
    """
    if np.any(sys.deriv_bounds < 0):
        return -np.inf
    return nu * (top_sym_a - sys.sigma ** 2 * (1.0 - nu))


def _solve_fixed_nu(n0: np.ndarray, basis: np.ndarray, opts: SolverOptions,
                    lower_bound: float = -np.inf):
    """min over theta >= 0 of lambda_max(N0 + theta . B), best-effort.

    Returns (best value, best theta, hit_cap); hit_cap is set when some
    smoothing level ran into _MAX_ITERS.  Parameters are rescaled so a unit
    step in each scaled coordinate moves N by about ||N0||.  The search
    returns as soon as the incumbent is feasible or lies within 1e-12 ||N0||
    of lower_bound, a proven lower bound on the minimum.
    """
    nparams = basis.shape[0]
    ref = float(np.linalg.norm(n0)) + 1e-12
    bnorm = np.linalg.norm(basis.reshape(nparams, -1), axis=1)
    scale = ref / np.maximum(bnorm, 1e-12 * ref)
    sbasis = basis * scale[:, None, None]
    flat = sbasis.reshape(nparams, -1)

    def value(phi):
        mat = n0 + (phi @ flat).reshape(n0.shape)
        return _top_eig(0.5 * (mat + mat.T))

    exit_level = max(-_FEASIBLE_EXIT_FACTOR * opts.tol, lower_bound + 1e-12 * ref)

    best_phi = np.zeros(nparams)
    best_g = value(best_phi)
    if best_g < exit_level:
        return best_g, best_phi * scale, False

    # deterministic probes: small multipliers of either family
    half = nparams // 2
    for eps in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        for mask in ((slice(half, None),), (slice(None),), (slice(0, half),)):
            phi = np.zeros(nparams)
            phi[mask[0]] = eps
            g = value(phi)
            if g < best_g:
                best_g, best_phi = g, phi
            if best_g < exit_level:
                return best_g, best_phi * scale, False

    # continuation on the log-sum-exp smoothing of lambda_max (Nesterov 2007):
    # f_mu = lambda_1 + mu log sum_k exp((lambda_k - lambda_1) / mu) is smooth,
    # convex and within mu log(2n) of lambda_max; it is divided by ||N0|| so
    # that L-BFGS-B's absolute tolerances act relative to the problem's scale
    def smoothed(phi, mu):
        # SciPy's dsyevd, not np.linalg.eigh: at one BLAS thread both cost the
        # same, but NumPy ships another OpenBLAS build whose eigenvectors differ
        # in the last bits, which moves the search and its margins
        w, v, info = dsyevd(n0 + (phi @ flat).reshape(n0.shape))
        if info:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        weights = np.exp((w - w[-1]) / mu)
        total = weights.sum()
        grad = flat @ ((v * (weights / total)) @ v.T).ravel()
        return (w[-1] + mu * np.log(total)) / ref, grad / ref

    hit_cap = False
    phi = best_phi
    # both OpenBLAS copies at one thread: their idle workers would otherwise
    # spin against each other between the small BLAS calls of each step
    with _one_blas_thread():
        for mu in (1e-1, 1e-2, 1e-3, 1e-4):
            res = minimize(smoothed, phi, args=(mu * ref,), method="L-BFGS-B", jac=True,
                           bounds=[(0.0, None)] * nparams, options={"maxiter": _MAX_ITERS})
            hit_cap = hit_cap or res.nit >= _MAX_ITERS
            phi = res.x
            g = value(phi)
            if g < best_g:
                best_g, best_phi = g, phi
            if best_g < exit_level:
                break
    return best_g, best_phi * scale, hit_cap


def certify(problem: CertProblem) -> Certificate:
    """Grid-search nu, minimizing lambda_max(N) over the multiplier cone at
    each grid point; feasible iff some margin drops below -tol.  Scanning
    stops at the first feasible nu.  A noise level with sigma^2/2 at most
    the growth rate of `linear_necessity_bound` is infeasible without a
    search (witness "necessity"; lambda = tau = 0 at the best grid nu)."""
    sys = problem.sys
    opts = problem.options
    n = sys.n
    if sys.m != n:
        raise ValueError("certify needs a square system; use augment/embed first")
    nu_grid = np.atleast_1d(np.asarray(problem.nu_grid, dtype=float))
    if nu_grid.size == 0 or np.any(nu_grid <= 0.0) or np.any(nu_grid >= 1.0):
        raise ValueError("nu grid must be non-empty and lie strictly inside (0, 1)")

    defect = c_defect(sys)
    if defect > C_DEFECT_TOL and not opts.allow_nonorthonormal_c:
        raise ValueError(
            f"C^T C deviates from identity by {defect:.3g} (Frobenius); the certificate "
            "hypothesis does not hold. Pass SolverOptions(allow_nonorthonormal_c=True) "
            "to proceed anyway.")

    top_sym_a = float(np.linalg.eigvalsh(sys.a + sys.a.T)[-1])
    # no linear member grows faster than this ceiling; above it the bound cannot settle sigma
    ceiling = top_sym_a / 2.0 + float(np.linalg.norm(_linear_gain(sys)) * np.linalg.norm(sys.c))
    half_s2 = sys.sigma ** 2 / 2.0
    if half_s2 <= ceiling and half_s2 <= linear_necessity_bound(sys)[0]:
        zeros = np.zeros(n)
        # N(nu, 0, 0) is exactly symmetric, so eigvalsh needs no symmetrizing
        margins = np.linalg.eigvalsh(certificate_matrix(sys, nu_grid, zeros, zeros))[:, -1]
        best = int(np.argmin(margins))
        return Certificate(sigma=sys.sigma, nu=float(nu_grid[best]), lam=zeros, tau=zeros.copy(),
                           margin=float(margins[best]), feasible=False, capped=False,
                           witness="necessity", c_defect=defect)

    best = None  # (margin, nu, theta)
    capped = False
    for nu in nu_grid:
        n0, basis = _affine_parts(sys, float(nu))
        bound = _dual_lower_bound(sys, float(nu), top_sym_a)
        margin, theta, hit_cap = _solve_fixed_nu(n0, basis, opts, bound)
        capped = capped or hit_cap
        if best is None or margin < best[0]:
            best = (margin, float(nu), theta)
        if margin < -opts.tol:
            break

    margin, nu, theta = best
    lam, tau = theta[:n].copy(), theta[n:].copy()
    # report the margin of the stored point exactly (reconstruction contract)
    margin = max_eigenvalue(certificate_matrix(sys, nu, lam, tau))
    return Certificate(sigma=sys.sigma, nu=nu, lam=lam, tau=tau,
                       margin=margin, feasible=bool(margin < -opts.tol), capped=capped,
                       witness="search", c_defect=defect)


def recompute_margin(sys: LureSystem, cert: Certificate) -> float:
    """lambda_max of N rebuilt from a certificate's stored point."""
    return max_eigenvalue(certificate_matrix(sys.with_sigma(cert.sigma), cert.nu,
                                             cert.lam, cert.tau))


def _linear_gain(sys: LureSystem) -> np.ndarray:
    """F K with K = diag(min(s, delta)): the class's steepest linear feedbacks."""
    return sys.f_gain * np.minimum(sys.sector_slopes, sys.deriv_bounds)[None, :]


def linear_necessity_bound(sys: LureSystem):
    """Lower bound on the noise any sound certificate must demand.

    The sector class contains the linear feedbacks f_j(u) = theta_j k_j u
    with theta_j in [0, 1] and k_j = min(s_j, delta_j), so a certificate at
    noise level sigma also asserts almost-sure stability of
    dx = (A + F Theta K C) x dt + sigma x dbeta, which for this noise
    structure holds iff max Re eig(A + F Theta K C) < sigma^2 / 2.
    Searching theta over corners yields a growth rate `rate`; no sigma
    with sigma^2/2 <= rate can be soundly certified.  All 2^m corners are
    tried while 2^m <= 2 + m + _NECESSITY_CORNERS, else all-off, all-on,
    unit and random corners, then greedy flips.  Returns (rate, sigma_floor =
    sqrt(2 * max(rate, 0))).
    """
    m = sys.m
    fk = _linear_gain(sys)

    def growth(thetas):  # (corners, m) -> (corners,)
        mats = sys.a + (fk * thetas[:, None, :]) @ sys.c
        return np.linalg.eigvals(mats).real.max(axis=1)

    exhaustive = 2 ** m <= 2 + m + _NECESSITY_CORNERS
    if exhaustive:
        corners = ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1).astype(float)
    else:
        rng = np.random.Generator(np.random.Philox(key=0))
        corners = np.vstack([np.zeros(m), np.ones(m), np.eye(m),
                             rng.integers(0, 2, size=(_NECESSITY_CORNERS, m)).astype(float)])
    rates = growth(corners)
    i = int(np.argmax(rates))
    best, best_theta = float(rates[i]), corners[i]
    improved = not exhaustive  # no flip can beat the best of every corner
    while improved:  # greedy bit flips from the incumbent corner
        improved = False
        for j in range(m):
            cand = best_theta.copy()
            cand[j] = 1.0 - cand[j]
            g = float(growth(cand[None])[0])
            if g > best + 1e-12:
                best, best_theta = g, cand
                improved = True
    return best, float(np.sqrt(2.0 * max(best, 0.0)))


# ---------------------------------------------------------------------------
# sweeps


def sigma_sweep(sys: LureSystem, sigmas, nu_grid=None, options: SolverOptions | None = None,
                jobs: int = 1) -> list[tuple[float, Certificate]]:
    """Certify a template system at each noise level of an ascending grid.

    Each sigma is solved independently (results do not depend on jobs).
    The sigmas are solved on a forked process pool of at most jobs workers,
    one per sigma and one per usable core at most
    (:func:`sarlab.lure._fork_map`); a one-sigma grid, jobs=1 or a single
    usable core solves them in this process.  An
    exception in any worker is raised here, and no worker outlives the call.
    jobs must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sigmas.size == 0:
        raise ValueError("sigma grid is empty")
    if np.any(sigmas < 0):
        raise ValueError("sigma values must be >= 0")
    if np.any(np.diff(sigmas) <= 0) and sigmas.size > 1:
        raise ValueError("sigma grid must be strictly ascending")
    if nu_grid is None:
        nu_grid = default_nu_grid()
    if options is None:
        options = SolverOptions()

    problems = [CertProblem(sys.with_sigma(float(s)), np.asarray(nu_grid), options)
                for s in sigmas]
    certs = list(_fork_map(certify, problems, min(jobs, _usable_cores())))
    return [(float(s), c) for s, c in zip(sigmas, certs)]


# ---------------------------------------------------------------------------
# serialization


def save_certificate(cert: Certificate, path) -> None:
    doc = {
        "sigma": cert.sigma,
        "nu": cert.nu,
        "lambda": cert.lam.tolist(),
        "tau": cert.tau.tolist(),
        "margin": cert.margin,
        "feasible": bool(cert.feasible),
        "capped": bool(cert.capped),
        "witness": cert.witness,
        "c_defect": cert.c_defect,
    }
    write_json(path, doc)


def load_certificate(path) -> Certificate:
    """The certificate of a :func:`save_certificate` file; a missing key is
    a KeyError."""
    d = read_json(path)
    return Certificate(sigma=float(d["sigma"]), nu=float(d["nu"]),
                       lam=np.asarray(d["lambda"], dtype=float),
                       tau=np.asarray(d["tau"], dtype=float),
                       margin=float(d["margin"]), feasible=bool(d["feasible"]),
                       capped=bool(d["capped"]), witness=str(d["witness"]),
                       c_defect=float(d["c_defect"]))
