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

import json
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .lure import LureSystem, augment, system_from_dict, system_to_dict, tanh_bank

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

    @property
    def n_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x2 = np.atleast_2d(x)
        y = np.tanh(x2 @ self.w1.T + self.b1) @ self.w2.T + self.b2
        return y[0] if squeeze else y


@dataclass(frozen=True)
class TrainOptions:
    epochs: int = 300
    batch_size: int = 64
    lr: float = 1e-2
    momentum: float = 0.9
    lr_decay: float = 0.01   # lr_t = lr / (1 + lr_decay * epoch)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class TrainResult:
    net: ShallowNet
    loss_history: np.ndarray  # full-set MSE in normalized units, per epoch
    final_rms: np.ndarray     # raw-unit RMS error per output on the training set
    diverged: bool = False


def _mse_and_grads(w1, b1, w2, b2, x, t):
    """0.5 * mean_i ||y_i - t_i||^2 and its gradients (plain backprop)."""
    n = x.shape[0]
    a1 = np.tanh(x @ w1.T + b1)
    r = a1 @ w2.T + b2 - t
    loss = 0.5 * float(np.sum(r * r)) / n
    rn = r / n
    g_b2 = rn.sum(axis=0)
    g_w2 = rn.T @ a1
    dz1 = (rn @ w2) * (1.0 - a1 * a1)
    g_b1 = dz1.sum(axis=0)
    g_w1 = dz1.T @ x
    return loss, g_w1, g_b1, g_w2, g_b2


def loss_and_grad(net: ShallowNet, x, targets):
    """Mean-squared loss of a net on (x, targets) and its gradient, packed
    as a ShallowNet of the same shapes (for finite-difference checks)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    loss, g_w1, g_b1, g_w2, g_b2 = _mse_and_grads(net.w1, net.b1, net.w2, net.b2, x, t)
    return loss, ShallowNet(g_w1, g_b1, g_w2, g_b2)


def train(x, targets, hidden: int, options: TrainOptions | None = None) -> TrainResult:
    """Fit a one-hidden-layer tanh net by minibatch SGD with momentum.

    Inputs and targets are rescaled internally to the unit box / unit range;
    the returned net acts on the raw coordinates (scaling folded back into
    the weights).  A non-finite loss aborts training and returns the last
    finite iterate flagged as diverged.
    """
    opts = options or TrainOptions()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    if t.shape[0] != x.shape[0]:
        raise ValueError("x and targets must have the same number of rows")
    if x.shape[0] == 0:
        raise ValueError("need at least one training sample")
    n, d = x.shape
    q = t.shape[1]
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
    t_mu = 0.5 * (t.min(axis=0) + t.max(axis=0))
    t_half = np.maximum(0.5 * (t.max(axis=0) - t.min(axis=0)), 1e-12)
    xn = (x - x_mu) / x_half
    tn = (t - t_mu) / t_half

    rng = np.random.default_rng(opts.seed)
    w1 = rng.uniform(-1, 1, size=(h, d)) / np.sqrt(d)
    b1 = rng.uniform(-1, 1, size=h) / np.sqrt(d)
    w2 = rng.uniform(-1, 1, size=(q, h)) / np.sqrt(h)
    b2 = np.zeros(q)
    vel = [np.zeros_like(p) for p in (w1, b1, w2, b2)]

    def full_loss():
        a1 = np.tanh(xn @ w1.T + b1)
        r = a1 @ w2.T + b2 - tn
        return 0.5 * float(np.sum(r * r)) / n

    history = []
    last_good = (w1.copy(), b1.copy(), w2.copy(), b2.copy())
    diverged = False
    # runaway steps overflow before the finite check catches them; that is
    # the expected signal here, not a warning condition
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(opts.epochs):
            lr = opts.lr / (1.0 + opts.lr_decay * epoch)
            order = rng.permutation(n)
            for start in range(0, n, opts.batch_size):
                idx = order[start:start + opts.batch_size]
                _, g_w1, g_b1, g_w2, g_b2 = _mse_and_grads(w1, b1, w2, b2, xn[idx], tn[idx])
                for p, v, g in zip((w1, b1, w2, b2), vel, (g_w1, g_b1, g_w2, g_b2)):
                    v *= opts.momentum
                    v -= lr * g
                    p += v
            loss = full_loss()
            if not np.isfinite(loss):
                w1, b1, w2, b2 = last_good
                diverged = True
                warnings.warn("training diverged; keeping the last finite iterate",
                              stacklevel=2)
                break
            history.append(loss)
            last_good = (w1.copy(), b1.copy(), w2.copy(), b2.copy())

    # fold the scaling back so the net acts on raw coordinates
    w1_raw = w1 / x_half[None, :]
    b1_raw = b1 - w1 @ (x_mu / x_half)
    w2_raw = t_half[:, None] * w2
    b2_raw = t_mu + t_half * b2
    net = ShallowNet(w1_raw, b1_raw, w2_raw, b2_raw)
    # a diverged iterate can square to inf here; report that quietly
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean((net(x) - t) ** 2, axis=0))
    return TrainResult(net=net, loss_history=np.asarray(history),
                       final_rms=rms, diverged=diverged)


class BankBounds(NamedTuple):
    """Sector data read off a net's first layer (zero rows pruned)."""

    slopes: np.ndarray      # s_j = ||w1 row j||, also the derivative bound
    directions: np.ndarray  # unit input directions, one row per kept unit
    biases: np.ndarray      # raw first-layer biases of kept units
    kept: np.ndarray        # indices of kept rows in the original net


def extract_bounds(net: ShallowNet, prune_tol: float = 1e-12) -> BankBounds:
    norms = np.linalg.norm(net.w1, axis=1)
    keep = norms > prune_tol * max(1.0, float(norms.max(initial=0.0)))
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

    @property
    def p(self) -> int:
        return self.system.n - self.n_phys

    @property
    def c_rows(self) -> np.ndarray:
        """Unit input directions on the physical coordinates."""
        return self.system.c[:, :self.n_phys]

    @property
    def f_phys(self) -> np.ndarray:
        """Physical block of the feedback gain (n_phys x units)."""
        return self.system.f_gain[:self.n_phys]


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
    net evaluations).
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
    skel = augment(a_phys, f_phys, kappa)
    m = slopes.size
    c_bar = np.zeros((m, m))
    c_bar[:, :n_phys] = dirs

    scale = max(1.0, float(np.max(np.abs(x_star), initial=0.0)))
    if float(np.linalg.norm(offset)) > offset_tol * scale:
        raise ValueError(
            f"constant drift residue |offset| = {np.linalg.norm(offset):.3g} exceeds "
            f"{offset_tol:g} * {scale:g}; the origin is not an equilibrium of the "
            "assembled model (recenter the nets or pass a larger offset_tol)")

    system = LureSystem(a=skel.a_bar, f_gain=skel.f_bar, c=c_bar, sigma=sigma,
                        nonlinearity=tanh_bank(slopes, biases), sector_slopes=slopes,
                        deriv_bounds=slopes)
    return SectorEmbedding(system=system, offset=offset, kappa=float(kappa), n_phys=n_phys)


# ---------------------------------------------------------------------------
# serialization


def save_net(net: ShallowNet, path) -> None:
    doc = {"w1": net.w1.tolist(), "b1": net.b1.tolist(),
           "w2": net.w2.tolist(), "b2": net.b2.tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_net(path) -> ShallowNet:
    with open(path) as fh:
        d = json.load(fh)
    return ShallowNet(d["w1"], d["b1"], d["w2"], d["b2"])


def embedding_to_dict(e: SectorEmbedding) -> dict:
    doc = system_to_dict(e.system)
    doc["offset"] = np.asarray(e.offset).tolist()
    doc["kappa"] = e.kappa
    doc["n_phys"] = e.n_phys
    return doc


def save_embedding(e: SectorEmbedding, path) -> None:
    with open(path, "w") as fh:
        json.dump(embedding_to_dict(e), fh, indent=2)
        fh.write("\n")


def load_embedding(path) -> SectorEmbedding:
    """Rebuild an embedding from JSON, with the drift it was saved with."""
    with open(path) as fh:
        d = json.load(fh)
    sys = system_from_dict(d)
    return SectorEmbedding(system=sys, offset=np.asarray(d["offset"], dtype=float),
                           kappa=float(d["kappa"]), n_phys=int(d["n_phys"]))
