"""Shallow tanh networks and their sector embeddings.

A net y = W2 tanh(W1 x + b1) + b2 trained to approximate a smooth map
doubles as a bank of scalar sector nonlinearities: unit j, recentred at a
reference point x*, is

    g_j(u) = tanh(s_j u + c_j) - tanh(c_j),    s_j = ||W1 row j||,
    c_j = W1_j . x* + b1_j,

which vanishes at 0, lies in the sector [0, s_j], and has slope at most
s_j.  :func:`embed` assembles a square augmented Lur'e system from several
nets plus output combiners so the certificate machinery applies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize

from .lure import (LureSystem, TanhBank, _fork_map, _one_blas_thread, _usable_cores,
                   augment, read_json, system_from_dict, system_to_dict, write_json)

__all__ = [
    "ShallowNet",
    "TrainOptions",
    "TrainResult",
    "BankBounds",
    "SectorEmbedding",
    "train",
    "loss_and_grad",
    "extract_bounds",
    "embed",
    "save_net",
    "load_net",
    "embedding_to_dict",
    "save_embedding",
    "load_embedding",
]


@dataclass(frozen=True, eq=False)
class ShallowNet:
    """One hidden tanh layer; w1: (h, d), b1: (h,), w2: (q, h), b2: (q,)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w1", np.atleast_2d(np.asarray(self.w1, dtype=float)))
        object.__setattr__(self, "b1", np.atleast_1d(np.asarray(self.b1, dtype=float)))
        object.__setattr__(self, "w2", np.atleast_2d(np.asarray(self.w2, dtype=float)))
        object.__setattr__(self, "b2", np.atleast_1d(np.asarray(self.b2, dtype=float)))
        h, d = self.w1.shape
        q = self.w2.shape[0]
        if self.b1.shape != (h,) or self.w2.shape != (q, h) or self.b2.shape != (q,):
            raise ValueError("inconsistent layer shapes")

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def q_out(self) -> int:
        return self.w2.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x2 = np.atleast_2d(x)
        y = np.tanh(x2 @ self.w1.T + self.b1) @ self.w2.T + self.b2
        return y[0] if squeeze else y


_PRUNE_TOL = 1e-12  # units with ||w1 row|| below this (relative) are dropped


@dataclass(frozen=True)
class TrainOptions:
    epochs: int = 300   # L-BFGS iteration cap per net
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    @property
    def batch_size(self) -> int:
        """Training is full-batch: every iteration sees the whole set."""
        return np.iinfo(np.intp).max


@dataclass(frozen=True, eq=False)
class TrainResult:
    """A stack of k nets fitted to the same inputs; every field has a
    leading net axis."""

    nets: tuple[ShallowNet, ...]
    loss_history: np.ndarray  # (k, iterations run): full-set MSE in normalized units
    final_rms: np.ndarray     # (k, q): raw-unit RMS error per output on the training set
    diverged: np.ndarray      # (k,) bool


def _views(flat: np.ndarray, h: int, d: int, q: int):
    """w1 (h, d), b1 (h,), w2 (q, h), b2 (q,) views of a flat parameter vector."""
    o1, o2 = h * d, h * d + h
    o3 = o2 + q * h
    return flat[:o1].reshape(h, d), flat[o1:o2], flat[o2:o3].reshape(q, h), flat[o3:]


def _workspace(n: int, h: int, q: int):
    """Buffers for :func:`_loss_grad`: a1, dz (h, n), r (q, n) and ones (n,)."""
    return np.empty((h, n)), np.empty((h, n)), np.empty((q, n)), np.ones(n)


def _loss_grad(params, xt, tt, grads, work) -> float:
    """0.5 * mean_i ||y_i - t_i||^2 of one net (w1, b1, w2, b2) on samples
    stored as columns, xt (d, n) and tt (q, n); the gradient is written into
    grads, arrays shaped like params.  Everything of the sample size lives in
    work (from :func:`_workspace`), so a call allocates none of it."""
    w1, b1, w2, b2 = params
    a1, dz, r, ones = work
    np.matmul(w1, xt, out=a1)
    a1 += b1[:, None]
    np.tanh(a1, out=a1)
    np.matmul(w2, a1, out=r)
    r += b2[:, None]
    r -= tt
    loss = 0.5 * float(np.einsum("ij,ij->", r, r)) / xt.shape[1]
    r /= xt.shape[1]
    np.matmul(r, ones, out=grads[3])
    np.matmul(r, a1.T, out=grads[2])
    np.multiply(a1, a1, out=a1)
    np.subtract(1.0, a1, out=a1)  # tanh' = 1 - a1^2
    np.matmul(w2.T, r, out=dz)
    dz *= a1
    np.matmul(dz, ones, out=grads[1])
    np.matmul(dz, xt.T, out=grads[0])
    return loss


def loss_and_grad(net: ShallowNet, x, targets):
    """Mean-squared loss of a net on (x, targets) and its gradient, packed
    as a ShallowNet of the same shapes (for finite-difference checks)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    h, d, q = net.hidden, net.d_in, net.q_out
    grad = np.empty(h * (d + q) + h + q)
    grads = _views(grad, h, d, q)
    loss = _loss_grad((net.w1, net.b1, net.w2, net.b2), np.ascontiguousarray(x.T),
                      np.ascontiguousarray(t.T), grads, _workspace(x.shape[0], h, q))
    return loss, ShallowNet(*grads)


def train(x, targets, hidden: int, options: TrainOptions | None = None) -> TrainResult:
    """Fit k one-hidden-layer tanh nets on shared inputs by full-batch
    L-BFGS (scipy's L-BFGS-B without bounds), one run per net, at most
    options.epochs iterations each.  The runs go concurrently on a forked
    process pool (:func:`sarlab.lure._fork_map`), one worker per net up to
    one more than the usable cores, forked with OpenBLAS held to one thread;
    a single net, or a single usable core, fits in this process.  An
    exception in any run is raised here, and no worker outlives the call.

    targets is (k, n, q), one target set per net; a 2-D (n, q) target is a
    stack of one.  Net i draws its initial weights from
    default_rng(options.seed + i) and has its own buffers, so it ends with
    the same bits as when trained alone, whichever run finishes first.
    Inputs and targets are rescaled internally to the unit box / unit
    range; the returned nets act on the raw coordinates.
    loss_history row i holds the loss after each of net i's iterations,
    then repeats its final loss if other nets ran longer.  A net whose
    final loss is not finite is flagged as diverged.
    """
    opts = options or TrainOptions()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(targets, dtype=float)
    t = np.atleast_2d(t)[None] if t.ndim < 3 else t
    if t.ndim != 3 or t.shape[1] != x.shape[0]:
        raise ValueError("x and targets must have the same number of rows")
    if x.shape[0] == 0:
        raise ValueError("need at least one training sample")
    n, d = x.shape
    k, _, q = t.shape
    h = int(hidden)
    if h < 1:
        raise ValueError("hidden must be >= 1")

    n_params = h * (d + q) + h + q
    if n < 10 * n_params:
        warnings.warn(f"only {n} samples for {n_params} parameters; fit may be loose",
                      stacklevel=2)

    # center / half-width scaling of both sides
    x_mu = 0.5 * (x.min(axis=0) + x.max(axis=0))
    x_half = np.maximum(0.5 * (x.max(axis=0) - x.min(axis=0)), 1e-12)
    t_mu = 0.5 * (t.min(axis=1) + t.max(axis=1))
    t_half = np.maximum(0.5 * (t.max(axis=1) - t.min(axis=1)), 1e-12)
    # samples as columns, the layout _loss_grad works in
    xt = np.ascontiguousarray(((x - x_mu) / x_half).T)
    tt = np.ascontiguousarray(((t - t_mu[:, None, :]) / t_half[:, None, :]).transpose(0, 2, 1))

    def fit(i):
        work = _workspace(n, h, q)

        def objective(theta):
            grad = np.empty(n_params)
            loss = _loss_grad(_views(theta, h, d, q), xt, tt[i], _views(grad, h, d, q), work)
            return loss, grad

        rng = np.random.default_rng(opts.seed + i)
        theta = np.concatenate([rng.uniform(-1, 1, size=h * d) / np.sqrt(d),
                                rng.uniform(-1, 1, size=h) / np.sqrt(d),
                                rng.uniform(-1, 1, size=q * h) / np.sqrt(h), np.zeros(q)])
        history = []
        res = minimize(objective, theta, jac=True, method="L-BFGS-B",
                       options={"maxiter": opts.epochs},
                       callback=lambda intermediate_result: history.append(
                           intermediate_result.fun))
        return res, history

    # One worker more than the cores: the processes time-share the cores, so
    # three fits on two cores end together instead of the third running alone
    # on one core.  The workers fork with OpenBLAS at one thread, so no idle
    # BLAS thread spins on a core another fit can use; the count changes no
    # bits of any matmul.
    with _one_blas_thread():
        fits = list(_fork_map(fit, range(k), _usable_cores() + 1))

    nets, rms, histories, finals = [], [], [], []
    for i, (res, history) in enumerate(fits):
        histories.append(history)
        finals.append(float(res.fun))
        # fold the scaling back so the net acts on raw coordinates
        w1, b1, w2, b2 = _views(res.x, h, d, q)
        net = ShallowNet(w1 / x_half[None, :], b1 - w1 @ (x_mu / x_half),
                         t_half[i][:, None] * w2, t_mu[i] + t_half[i] * b2)
        nets.append(net)
        rms.append(np.sqrt(np.mean((net(x) - t[i]) ** 2, axis=0)))

    ran = max(map(len, histories))
    loss_history = np.array([hist + [final] * (ran - len(hist))
                             for hist, final in zip(histories, finals)]).reshape(k, ran)
    diverged = ~np.isfinite(finals)
    for i in np.flatnonzero(diverged):
        warnings.warn(f"net {i} diverged: its final loss is not finite", stacklevel=2)
    return TrainResult(nets=tuple(nets), loss_history=loss_history,
                       final_rms=np.array(rms), diverged=diverged)


class BankBounds(NamedTuple):
    """Sector data read off a net's first layer (zero rows pruned)."""

    slopes: np.ndarray      # s_j = ||w1 row j||, also the derivative bound
    directions: np.ndarray  # unit input directions, one row per kept unit
    biases: np.ndarray      # raw first-layer biases of kept units
    kept: np.ndarray        # indices of kept rows in the original net


def extract_bounds(net: ShallowNet) -> BankBounds:
    norms = np.linalg.norm(net.w1, axis=1)
    keep = norms > _PRUNE_TOL * max(1.0, float(norms.max(initial=0.0)))
    kept = np.nonzero(keep)[0]
    slopes = norms[keep]
    dirs = net.w1[keep] / slopes[:, None]
    return BankBounds(slopes, dirs, net.b1[keep].copy(), kept)


@dataclass(frozen=True, eq=False)
class SectorEmbedding:
    """Square Lur'e system built from tanh-net units around a reference
    point, plus the residual drift the model assigns to the origin."""

    system: LureSystem
    offset: np.ndarray
    kappa: float
    n_phys: int
    lift: np.ndarray  # R: the system's state is [R (x - x*); 0], see _orthonormal_lift


def embed(nets: Sequence[ShallowNet], combiners: Sequence[np.ndarray], a_phys,
          kappa: float, x_star=None, sigma: float = 0.0, const_drift=None,
          offset_tol: float = 1e-3) -> SectorEmbedding:
    """Assemble the augmented system whose feedback bank is the union of
    the nets' recentred hidden units.

    combiners[i] is the (n_phys, q_i) matrix mapping net i's outputs into
    physical drift contributions, so the physical block of F picks up
    column combiners[i] @ w2[:, j] for each unit j.  a_phys is the linear
    drift of the physical block in deviation coordinates z = x - x_star
    (x_star defaults to 0).  const_drift holds the model's constant terms
    that are not net-mediated (e.g. an applied current); the reported
    offset = const_drift + sum_i combiners[i] @ nets[i](x_star) is the
    drift the assembled model assigns to z = 0, and it must stay below
    offset_tol * max(1, |x_star|_inf) for the origin-equilibrium form to
    apply (pruned constant units are included automatically through the
    net evaluations).  The system comes in the coordinates of
    :func:`_orthonormal_lift`, so C^T C = I.
    """
    a_phys = np.atleast_2d(np.asarray(a_phys, dtype=float))
    n_phys = a_phys.shape[0]
    if a_phys.shape != (n_phys, n_phys):
        raise ValueError("a_phys must be square")
    x_star = (np.zeros(n_phys) if x_star is None
              else np.atleast_1d(np.asarray(x_star, dtype=float)))
    if x_star.shape != (n_phys,):
        raise ValueError("x_star must have one entry per physical state")
    if len(nets) != len(combiners):
        raise ValueError("need one combiner per net")

    offset = (np.zeros(n_phys) if const_drift is None
              else np.atleast_1d(np.asarray(const_drift, dtype=float)).copy())
    slopes, dirs, biases, cols = [], [], [], []
    for net, comb in zip(nets, combiners):
        comb = np.atleast_2d(np.asarray(comb, dtype=float))
        if comb.shape != (n_phys, net.q_out):
            raise ValueError(f"combiner must be ({n_phys}, {net.q_out}), got {comb.shape}")
        if net.d_in != n_phys:
            raise ValueError("net input dimension must match the physical state")
        offset += comb @ net(x_star)
        bounds = extract_bounds(net)
        slopes.append(bounds.slopes)
        dirs.append(bounds.directions)
        biases.append(bounds.biases + bounds.directions @ x_star * bounds.slopes)
        cols.append(comb @ net.w2[:, bounds.kept])

    slopes = np.concatenate(slopes)
    dirs = np.vstack(dirs)
    biases = np.concatenate(biases)
    f_phys = np.hstack(cols)
    a_bar, f_bar = augment(a_phys, f_phys, kappa)
    m = slopes.size
    c_bar = np.zeros((m, m))
    c_bar[:, :n_phys] = dirs

    scale = max(1.0, float(np.max(np.abs(x_star), initial=0.0)))
    if float(np.linalg.norm(offset)) > offset_tol * scale:
        raise ValueError(
            f"constant drift residue |offset| = {np.linalg.norm(offset):.3g} exceeds "
            f"{offset_tol:g} * {scale:g}; the origin is not an equilibrium of the "
            "assembled model (recenter the nets or pass a larger offset_tol)")

    system, lift = _orthonormal_lift(LureSystem(
        a=a_bar, f_gain=f_bar, c=c_bar, sigma=sigma, nonlinearity=TanhBank(slopes, biases),
        sector_slopes=slopes, deriv_bounds=slopes), n_phys)
    return SectorEmbedding(system=system, offset=offset, kappa=float(kappa), n_phys=n_phys,
                           lift=lift)


def _orthonormal_lift(system: LureSystem, n_phys: int) -> tuple[LureSystem, np.ndarray]:
    """(system', R) for a system laid out as C = [D 0], A = blockdiag(A_phys,
    -kappa I), F = [F_phys; 0], in the state [R z; 0] with D = Q[:, :n_phys] R
    (complete QR): C' = Q, A_phys' = R A_phys R^-1 and F_phys' = R F_phys.
    Each unit still reads C'[R z; 0] = D z, and the fictitious states stay 0."""
    d = system.c[:, :n_phys]
    if np.linalg.matrix_rank(d) < n_phys:
        raise ValueError(f"the unit directions span fewer than {n_phys} dimensions")
    q, r = np.linalg.qr(d, mode="complete")
    r = r[:n_phys]
    a, f = system.a.copy(), system.f_gain.copy()
    a[:n_phys, :n_phys] = np.linalg.solve(r.T, (r @ a[:n_phys, :n_phys]).T).T
    f[:n_phys] = r @ f[:n_phys]
    return replace(system, a=a, f_gain=f, c=q), r


# ---------------------------------------------------------------------------
# serialization


def save_net(net: ShallowNet, path) -> None:
    doc = {"w1": net.w1.tolist(), "b1": net.b1.tolist(),
           "w2": net.w2.tolist(), "b2": net.b2.tolist()}
    write_json(path, doc)


def load_net(path) -> ShallowNet:
    d = read_json(path)
    return ShallowNet(d["w1"], d["b1"], d["w2"], d["b2"])


def embedding_to_dict(e: SectorEmbedding) -> dict:
    doc = system_to_dict(e.system)
    doc["offset"] = np.asarray(e.offset).tolist()
    doc["kappa"] = e.kappa
    doc["n_phys"] = e.n_phys
    doc["lift"] = e.lift.tolist()
    return doc


def save_embedding(e: SectorEmbedding, path) -> None:
    write_json(path, embedding_to_dict(e))


def load_embedding(path) -> SectorEmbedding:
    """Rebuild an embedding from JSON, with the drift it was saved with."""
    d = read_json(path)
    return SectorEmbedding(system=system_from_dict(d), offset=np.asarray(d["offset"], dtype=float),
                           kappa=float(d["kappa"]), n_phys=int(d["n_phys"]),
                           lift=np.asarray(d["lift"], dtype=float))
