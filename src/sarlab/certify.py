"""Stability certificate for Lur'e systems with state-multiplicative noise.

Feasibility of the block matrix inequality N(nu, Lambda, T) < 0 certifies
almost-sure asymptotic stability of the origin, where

    N11 = nu (A^T + A - sigma^2 (1 - nu) I) + sigma^2 C^T Lambda Delta C
    N12 = nu F + (A - (sigma^2/2)(1 - nu/2) I)^T C^T Lambda + S C^T T
    N22 = -2 T + Lambda C F + F^T C^T Lambda

with Lambda = diag(lambda) >= 0 and T = diag(tau) >= 0 free multipliers,
S = diag(sector_slopes), Delta = diag(deriv_bounds), and nu in (0, 1) a
scalar exponent searched on a grid.  For fixed nu the largest eigenvalue of
N is convex in (lambda, tau); the solver scores theta = 0 and a fixed set
of probes as one stack of matrices, then minimizes a log-sum-exp smoothing
of it by L-BFGS-B under the bounds lambda, tau >= 0, with the smoothing
shrunk over four levels.  The search draws no random numbers.  It stops
early once its incumbent meets a dual lower bound (see `_dual_lower_bound`).

N is written once, in `_pencil`, which binds a system's constants and
builds N without checking its arguments; `certificate_matrix` is its
checks plus the pencil.  `certify` checks its inputs once, at the
boundary, and then builds every N through one pencil per call.  N needs a
square system with C^T C = I: `certify` solves every system in its
`paper_form`, which meets that hypothesis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .lure import LureSystem, _fork_map, _one_blas_thread, _usable_cores, read_json, write_json

__all__ = [
    "SolverOptions",
    "CertProblem",
    "Certificate",
    "default_nu_grid",
    "c_defect",
    "paper_form",
    "certificate_matrix",
    "max_eigenvalue",
    "certify",
    "recompute_margin",
    "sigma_sweep",
    "save_certificate",
    "load_certificate",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# the default nu grid, shared read-only by every CertProblem that does not name one
_NU_GRID = _read_only(np.linspace(0.05, 0.95, 19))


def default_nu_grid() -> np.ndarray:
    """The default nu grid, linspace(0.05, 0.95, 19), as a fresh writable array."""
    return _NU_GRID.copy()


_MAX_ITERS = 5000            # L-BFGS-B iterations per smoothing level
_FEASIBLE_EXIT_FACTOR = 10.0  # a search exits once its margin drops below -factor * tol
_ASYM_TOL = 1e-8             # relative asymmetry max_eigenvalue accepts
_NECESSITY_CORNERS = 200     # random theta corners linear_necessity_bound tries
KAPPA = 1.0                  # decay rate of the fictitious states paper_form adds
# the certificate hypothesis C^T C = I holds when ||C^T C - I||_F is at most this
C_DEFECT_TOL = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the feasibility search.  `seed` and
    `allow_nonorthonormal_c` are accepted for compatibility and ignored: the
    search draws no random numbers, and certify lifts every system outside
    C^T C = I into its paper_form."""

    tol: float = 1e-8           # feasible iff margin < -tol (absolute)
    seed: int = 0
    allow_nonorthonormal_c: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


_DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class CertProblem:
    sys: LureSystem
    nu_grid: np.ndarray = field(default_factory=lambda: _NU_GRID)  # read-only when defaulted
    options: SolverOptions = _DEFAULT_OPTIONS


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
    c_defect: float  # ||C^T C - I||_F of the paper_form certified


def _frobenius(x: np.ndarray) -> float:
    """||x||_F of a float array: the computation np.linalg.norm(x) does
    (sqrt of the dot of x, flattened in memory order, with itself), without
    its Python wrapper."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def c_defect(sys: LureSystem) -> float:
    """||C^T C - I||_F, the distance from the certificate hypothesis."""
    return _frobenius(sys.c.T @ sys.c - np.eye(sys.n))


def paper_form(sys: LureSystem) -> LureSystem:
    """The paper's square form (C^T C = I) of a system with m >= n units of
    rank n: sys itself when square with c_defect at most C_DEFECT_TOL, else
    its lift to the state [R z; 0]: m - n fictitious states decaying at
    -KAPPA, with zero rows of F, and, with sys.c = Q[:, :n] R a complete QR,
    C = Q and the physical blocks R A R^-1 and R F.  Each unit reads
    C [R z; 0] = sys.c z, and the fictitious states stay 0; a square system
    gains none, and y = R z keeps its sector data and its noise."""
    return _paper_form(sys)[0]


def _paper_form(sys: LureSystem) -> tuple[LureSystem, float]:
    """paper_form(sys) and its c_defect, computed once."""
    n, m = sys.n, sys.m
    if m == n:
        defect = c_defect(sys)
        if defect <= C_DEFECT_TOL:
            return sys, defect
    if m < n:
        raise ValueError(f"need at least as many nonlinearities as states (m={m} < n={n})")
    if np.linalg.matrix_rank(sys.c) < n:
        raise ValueError(f"the unit directions span fewer than {n} dimensions")
    q, r = np.linalg.qr(sys.c, mode="complete")
    r = r[:n]
    a_bar = np.diag(np.full(m, -KAPPA))
    a_bar[:n, :n] = np.linalg.solve(r.T, (r @ sys.a).T).T
    f_bar = np.zeros((m, m))
    f_bar[:n] = r @ sys.f_gain
    lifted = LureSystem(a=a_bar, f_gain=f_bar, c=q, sigma=sys.sigma,
                        nonlinearity=sys.nonlinearity, sector_slopes=sys.sector_slopes,
                        deriv_bounds=sys.deriv_bounds)
    return lifted, c_defect(lifted)


def certificate_matrix(sys: LureSystem, nu, lam, tau) -> np.ndarray:
    """Assemble the 2n x 2n block matrix N(nu, Lambda, T) for a square
    system (m == n; see paper_form).

    Broadcasts over leading axes: nu of shape (...) and lam, tau of shape
    (..., n) (or scalars) give a (..., 2n, 2n) stack, each member equal bit
    for bit to its own call.  This is the checked entry point: it checks its
    inputs, then builds N with :func:`_pencil`."""
    n = sys.n
    if sys.m != n:
        raise ValueError(f"certificate needs a square system, got n={n}, m={sys.m}: see paper_form")
    nu = np.asarray(nu, dtype=float)
    if not np.all((nu > 0.0) & (nu < 1.0)):
        raise ValueError("nu must lie in (0, 1)")
    lam = np.asarray(lam, dtype=float) * np.ones(n)
    tau = np.asarray(tau, dtype=float) * np.ones(n)
    if lam.shape[-1:] != (n,) or tau.shape[-1:] != (n,):
        raise ValueError("lambda and tau must have length n")
    if np.any(lam < 0) or np.any(tau < 0):
        raise ValueError("lambda and tau must be >= 0")
    return _pencil(sys)(nu, lam, tau)


def _pencil(sys: LureSystem):
    """N(nu, Lambda, T) of a square system as a function matrix(nu, lam,
    tau), with the system's constants bound once.

    matrix takes nu as a float or an array of shape (...) and lam, tau as
    float arrays of shape (..., n), and checks none of them (see
    certificate_matrix).  It performs the operations of the module
    docstring's formulas in their order and writes the four blocks into one
    (..., 2n, 2n) array.
    """
    n = sys.n
    a, f, c = sys.a, sys.f_gain, sys.c
    sym_a, cf, ct = a.T + a, c @ f, c.T
    cft = cf.T
    sct = (sys.sector_slopes[:, None] * c).T
    eye = np.eye(n)
    # N22's diagonal (n + i, n + i), i < n, in the flattened (..., 4 n^2) output
    diag22 = slice(n * (2 * n + 1), None, 2 * n + 1)
    s2 = sys.sigma ** 2
    delta = sys.deriv_bounds

    def matrix(nu, lam, tau) -> np.ndarray:
        if not isinstance(nu, float):  # a float broadcasts as it is, with the same bits
            nu = np.asarray(nu)[..., None, None]
        # C^T Lambda Delta C with diagonal Lambda, Delta
        ctld_c = ct @ ((lam * delta)[..., :, None] * c)
        n11 = nu * (sym_a - s2 * (1.0 - nu) * eye) + s2 * ctld_c
        shift_t = (a - (s2 / 2.0) * (1.0 - nu / 2.0) * eye).swapaxes(-1, -2)
        # n12 carries every leading axis of nu, lam and tau
        n12 = nu * f + shift_t @ (ct * lam[..., None, :]) + sct * tau[..., None, :]
        out = np.empty(n12.shape[:-2] + (2 * n, 2 * n))
        out[..., :n, :n] = n11
        out[..., :n, n:] = n12
        out[..., n:, :n] = n12.swapaxes(-1, -2)
        # N22 = (-2 T + Lambda C F) + F^T C^T Lambda: -2 tau_i joins the
        # diagonal in place (x + -2 tau_i = -2 tau_i + x, and -0.0 + x = x off it)
        n22 = out[..., n:, n:]
        n22[...] = lam[..., :, None] * cf
        out.reshape(out.shape[:-2] + (-1,))[..., diag22] += -2.0 * tau
        n22 += cft * lam[..., None, :]
        return out

    return matrix


def max_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix; the input is symmetrized
    as (M + M^T)/2 first and rejected if the asymmetry exceeds 1e-8
    relative to its norm."""
    mat = np.asarray(mat, dtype=float)
    judged, norm = mat, _frobenius(mat)
    if not math.isfinite(norm):  # the norm overflowed: judge M / max |M_ij| instead
        judged = mat / np.abs(mat).max()
        norm = _frobenius(judged)
    if _frobenius(judged - judged.T) > _ASYM_TOL * max(1.0, norm):
        raise ValueError("matrix is not symmetric within tolerance")
    return float(_top_eigs(0.5 * (mat + mat.T)))


# ---------------------------------------------------------------------------
# solver


@functools.cache
def _unit_stack(n: int) -> np.ndarray:
    """theta = 0, then each unit lambda_i, then each unit tau_i: the rows of
    a read-only (2n + 1, 2n) array, built once per n."""
    return _read_only(np.vstack([np.zeros((1, 2 * n)), np.eye(2 * n)]))


@functools.cache
def _probe_stack(nparams: int) -> np.ndarray:
    """theta = 0, then for each eps: eps on the tau family, on both, on the
    lambda family; the rows of a read-only (16, nparams) array, built once
    per size."""
    half = nparams // 2
    families = np.zeros((3, nparams))
    families[0, half:] = families[1] = families[2, :half] = 1.0
    eps = np.array([1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    return _read_only(np.vstack([np.zeros((1, nparams)),
                                 (eps[:, None, None] * families).reshape(-1, nparams)]))


def _affine_parts(matrix, units: np.ndarray, nu: float):
    """N(theta) = N0 + sum_p theta_p B_p with theta = (lambda, tau), from a
    system's :func:`_pencil` and its :func:`_unit_stack`."""
    n = units.shape[1] // 2
    mats = matrix(nu, units[:, :n], units[:, n:])
    n0 = mats[0]
    basis = mats[1:] - n0
    n0 = 0.5 * (n0 + n0.T)
    basis = 0.5 * (basis + basis.transpose(0, 2, 1))
    return n0, basis


def _top_eigs(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix of a (..., d, d) stack,
    unchecked: the certificate's one top-eigenvalue routine."""
    if mats.shape[-1] == 1:
        # LAPACK's dsyevd returns W(1) = A(1,1) for N = 1
        return mats[..., 0, 0]
    if mats.shape[-1] == 2:
        # closed form keeps scalar demos cheap
        a, b, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        return 0.5 * ((a + d) + np.hypot(a - d, 2.0 * b))
    return np.linalg.eigvalsh(mats)[..., -1]


def _dual_lower_bound(sys: LureSystem, nu, top_sym_a: float):
    """Lower bound on min over lambda, tau >= 0 of lambda_max(N(nu, .)), at
    a nu or at each nu of a grid.

    Z = [v v^T 0; 0 0], with v the top eigenvector of A + A^T, is PSD with
    unit trace, so lambda_max(N) >= <Z, N> = nu (v^T (A + A^T) v
    - sigma^2 (1 - nu)) + sigma^2 v^T C^T Lambda Delta C v, and the last
    term is >= 0, since a LureSystem's Delta is positive.  No C^T C = I is
    needed.  In the scalar case theta = 0 attains the bound at every
    infeasible nu.  top_sym_a is lambda_max(A + A^T).
    """
    return nu * (top_sym_a - sys.sigma ** 2 * (1.0 - nu))


def _solve_fixed_nu(n0: np.ndarray, basis: np.ndarray, opts: SolverOptions,
                    lower_bound: float = -np.inf):
    """min over theta >= 0 of lambda_max(N0 + theta . B), best-effort.

    Returns (best value, best theta, hit_cap); hit_cap is set when some
    smoothing level ran into _MAX_ITERS.  Parameters are rescaled so a unit
    step in each scaled coordinate moves N by about ||N0||.  theta = 0 and
    15 fixed probes are scored as one stack, then scanned in order;
    the search returns at the first point whose incumbent is feasible or
    lies within 1e-12 ||N0|| of lower_bound, a proven lower bound on the
    minimum.
    """
    nparams = basis.shape[0]
    ref = _frobenius(n0) + 1e-12
    rows = basis.reshape(nparams, -1)
    bnorm = np.sqrt(np.add.reduce(rows * rows, axis=1))  # np.linalg.norm(rows, axis=1)
    scale = ref / np.maximum(bnorm, 1e-12 * ref)
    sbasis = basis * scale[:, None, None]
    flat = sbasis.reshape(nparams, -1)

    def values(phis):
        # one (1, p) @ (p, d*d) product per row, as for a single phi
        mats = n0 + (phis[:, None, :] @ flat).reshape((-1,) + n0.shape)
        return _top_eigs(0.5 * (mats + mats.swapaxes(-1, -2))).tolist()

    exit_level = max(-_FEASIBLE_EXIT_FACTOR * opts.tol, lower_bound + 1e-12 * ref)

    probes = _probe_stack(nparams)
    scores = values(probes)
    best = 0
    for k, g in enumerate(scores):
        if g < scores[best]:
            best = k
        if scores[best] < exit_level:
            return scores[best], probes[best] * scale, False
    best_g, best_phi = scores[best], probes[best]

    # continuation on the log-sum-exp smoothing of lambda_max (Nesterov 2007):
    # f_mu = lambda_1 + mu log sum_k exp((lambda_k - lambda_1) / mu) is smooth,
    # convex and within mu log(2n) of lambda_max; it is divided by ||N0|| so
    # that L-BFGS-B's absolute tolerances act relative to the problem's scale
    def smoothed(phi, mu):
        # from the upper triangle: LAPACK's answer from the lower one differs
        # in the last bits, which moves the search and its margins
        w, v = np.linalg.eigh(n0 + (phi @ flat).reshape(n0.shape), UPLO="U")
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
            g = values(phi[None])[0]
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
    search (witness "necessity"; lambda = tau = 0 at the best grid nu).
    Every system is certified, c_defect included, in its paper_form."""
    sys, defect = _paper_form(problem.sys)
    opts = problem.options
    n = sys.n
    nu_grid = problem.nu_grid
    if nu_grid is not _NU_GRID:  # the shared default needs no check
        nu_grid = np.atleast_1d(np.asarray(nu_grid, dtype=float))
        if nu_grid.size == 0 or not ((nu_grid > 0.0) & (nu_grid < 1.0)).all():
            raise ValueError("nu grid must be non-empty and lie strictly inside (0, 1)")

    # the inputs are checked: from here on N is built through the unchecked pencil
    matrix = _pencil(sys)
    top_sym_a = float(_top_eigs(sys.a + sys.a.T))
    # no linear member grows faster than this ceiling; above it the bound cannot settle sigma
    ceiling = top_sym_a / 2.0 + _frobenius(_linear_gain(sys)) * _frobenius(sys.c)
    half_s2 = sys.sigma ** 2 / 2.0
    if half_s2 <= ceiling and half_s2 <= linear_necessity_bound(sys)[0]:
        zeros = np.zeros(n)
        # N(nu, 0, 0) is exactly symmetric, so _top_eigs needs no symmetrizing
        margins = _top_eigs(matrix(nu_grid, zeros, zeros))
        best = int(np.argmin(margins))
        return Certificate(sigma=sys.sigma, nu=float(nu_grid[best]), lam=zeros, tau=zeros.copy(),
                           margin=float(margins[best]), feasible=False, capped=False,
                           witness="necessity", c_defect=defect)

    units = _unit_stack(n)
    best = None  # (margin, nu, theta)
    capped = False
    for nu in nu_grid.tolist():
        n0, basis = _affine_parts(matrix, units, nu)
        margin, theta, hit_cap = _solve_fixed_nu(n0, basis, opts,
                                                 _dual_lower_bound(sys, nu, top_sym_a))
        capped = capped or hit_cap
        if best is None or margin < best[0]:
            best = (margin, nu, theta)
        if margin < -opts.tol:
            break

    margin, nu, theta = best
    # the one check of the point whose matrix the certificate reports
    if theta.shape != (2 * n,) or (theta < 0).any():
        raise ValueError(f"the search returned a point outside the multiplier cone: {theta}")
    lam, tau = theta[:n].copy(), theta[n:].copy()
    # report the margin of the stored point exactly (reconstruction contract)
    margin = max_eigenvalue(matrix(nu, lam, tau))
    return Certificate(sigma=sys.sigma, nu=nu, lam=lam, tau=tau,
                       margin=margin, feasible=bool(margin < -opts.tol), capped=capped,
                       witness="search", c_defect=defect)


def recompute_margin(sys: LureSystem, cert: Certificate) -> float:
    """lambda_max of N rebuilt from a certificate's stored point, as certify built it."""
    return max_eigenvalue(certificate_matrix(paper_form(sys).with_sigma(cert.sigma), cert.nu,
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


def sigma_sweep(sys: LureSystem, sigmas, nu_grid=None,
                jobs: int = 1) -> list[tuple[float, Certificate]]:
    """Certify a template system at each noise level of an ascending grid,
    with the default SolverOptions.

    Each sigma is solved independently (results do not depend on jobs).
    The sigmas are solved on a forked process pool of at most jobs workers,
    one per sigma and one per usable core at most
    (:func:`sarlab.lure._fork_map`); a one-sigma grid, jobs=1 or a single
    usable core solves them in this process.  An
    exception in any worker is raised here, and no worker outlives the call.
    jobs must be at least 1.  A negative or non-finite sigma, or one whose
    square overflows, raises the ValueError of LureSystem's constructor
    before any pool starts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sigmas.size == 0:
        raise ValueError("sigma grid is empty")
    if np.any(np.diff(sigmas) <= 0) and sigmas.size > 1:
        raise ValueError("sigma grid must be strictly ascending")
    if nu_grid is None:
        nu_grid = _NU_GRID

    problems = [CertProblem(sys.with_sigma(float(s)), np.asarray(nu_grid)) for s in sigmas]
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
