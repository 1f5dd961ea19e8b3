"""End-to-end Morris-Lecar sector-embedding pipeline.

Three width-10 tanh nets are trained on the training box, one per channel
current (leak, calcium, potassium), each by full-batch L-BFGS; the three
fits run concurrently (see :func:`sarlab.shallow.train`).  Each net
has two outputs: output 0 fits its channel current; the three output-1
heads jointly fit the nonlinear residue of the recovery equation (one
third each), i.e. h(V,N) - grad h(x*) . (x - x*) with h = (n_ss - N)/tau_n.
After training, output biases are shifted so every net is exact at the
rest state x*, which makes the assembled model's origin offset vanish
identically.  The union of the 30 hidden units then forms the feedback
bank of a Lur'e system on the neuron's 2 states in the deviation x - x*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import morris_lecar as ml
from .sde import SimConfig, SdePath, simulate
from .shallow import SectorEmbedding, ShallowNet, TrainOptions, embed, train

__all__ = [
    "EmbeddingConfig",
    "EmbeddingReport",
    "recovery_residue",
    "build_embedding",
    "model_rhs",
    "simulate_embedded",
]

CHANNELS = ("leak", "calcium", "potassium")


@dataclass(frozen=True)
class EmbeddingConfig:
    hidden: int = 10
    box: tuple = ((-80.0, 0.0), (120.0, 1.0))
    n_samples: int = 10000
    epochs: int = 700   # L-BFGS iteration cap per net
    seed: int = 0
    sigma: float = 0.0
    i_app: float | None = None  # None -> p's own i_app

    def __post_init__(self):
        # checked when built, so no calibration or fit runs for values the fit
        # would refuse or score as an infinite error: the probe range is a
        # peak-to-peak over n_samples points of the box
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        for name, least in (("hidden", 1), ("epochs", 1), ("n_samples", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        lo, hi = np.asarray(self.box, dtype=float)
        if not (np.isfinite([lo, hi]).all() and (lo < hi).all()):
            raise ValueError(f"box must be finite with lo < hi in each coordinate, "
                             f"got {self.box!r}")


@dataclass(frozen=True, eq=False)
class EmbeddingReport:
    """Everything the pipeline produced, plus fit diagnostics."""

    embedding: SectorEmbedding
    nets: list[ShallowNet]
    params: ml.MorrisLecarParams   # with the applied current actually used
    x_star: np.ndarray
    combiners: list[np.ndarray]
    channel_rms: np.ndarray        # RMS fit error per channel, raw units
    channel_range: np.ndarray      # peak-to-peak of each channel over the box
    recovery_rms: float            # RMS error of the reconstructed recovery rate
    recovery_max: float
    loss_histories: np.ndarray     # (3, iterations run), one row per channel net
    diverged: bool


def recovery_residue(x, p: ml.MorrisLecarParams, x_star, jac) -> np.ndarray:
    """Recovery rate minus its linearization at x_star."""
    x = np.asarray(x, dtype=float)
    lin = (x - x_star) @ jac
    return ml.recovery_rate(x[..., 0], x[..., 1], p) - lin


def build_embedding(p: ml.MorrisLecarParams, cfg: EmbeddingConfig | None = None) -> EmbeddingReport:
    cfg = cfg or EmbeddingConfig()
    if cfg.i_app is not None:
        p = p.with_iapp(cfg.i_app)

    roots = ml.equilibria(p)
    if not roots:
        raise ValueError("no rest state found; cannot center the embedding")
    x_star = roots[-1]  # in multi-equilibrium regimes use the depolarized branch
    jac = ml.recovery_jacobian(x_star[0], x_star[1], p)
    a_phys = np.array([[0.0, 0.0], jac])

    x, currents = ml.make_training_set(p, cfg.box, cfg.n_samples, cfg.seed)
    res = recovery_residue(x, p, x_star, jac)

    opts = TrainOptions(epochs=cfg.epochs, seed=cfg.seed)
    targets = np.stack([np.column_stack([cur, res / 3.0]) for cur in currents.T])
    result = train(x, targets, cfg.hidden, opts)  # net i trains on seed cfg.seed + i
    # pin each net at the rest state so the assembled origin drift vanishes
    # (x_star goes in as a (1, 2) batch, which fixes the pinned biases' bits)
    star = x_star[None, :]
    star_currents = ml.channel_currents(star[:, 0], star[:, 1], p)[0]
    nets = [replace(net, b2=net.b2 - (net(x_star) - np.array([cur, 0.0])))
            for cur, net in zip(star_currents, result.nets)]

    comb = np.array([[1.0 / p.cap, 0.0], [0.0, 1.0]])
    combiners = [comb] * 3
    emb = embed(nets, combiners, a_phys, x_star=x_star, sigma=cfg.sigma,
                const_drift=np.array([p.i_app / p.cap, 0.0]))

    # fit quality on a fresh sample
    probe, probe_currents = ml.make_training_set(p, cfg.box, cfg.n_samples, cfg.seed + 7919)
    chan_rms, chan_rng = [], []
    for truth, net in zip(probe_currents.T, nets):
        chan_rms.append(float(np.sqrt(np.mean((net(probe)[:, 0] - truth) ** 2))))
        chan_rng.append(float(np.ptp(truth)))
    h_true = ml.recovery_rate(probe[:, 0], probe[:, 1], p)
    h_model = (probe - x_star) @ jac + sum(net(probe)[:, 1] for net in nets)
    h_err = h_model - h_true
    return EmbeddingReport(
        embedding=emb, nets=nets, params=p, x_star=x_star, combiners=combiners,
        channel_rms=np.asarray(chan_rms), channel_range=np.asarray(chan_rng),
        recovery_rms=float(np.sqrt(np.mean(h_err ** 2))),
        recovery_max=float(np.max(np.abs(h_err))),
        loss_histories=result.loss_history, diverged=bool(result.diverged.any()))


def model_rhs(report: EmbeddingReport, x) -> np.ndarray:
    """Right-hand side of the assembled physical model in raw coordinates:
    linear part plus combined net outputs plus the applied current."""
    x = np.asarray(x, dtype=float)
    z = x - report.x_star
    out = z @ report.embedding.system.a.T
    out = out + np.array([report.params.i_app / report.params.cap, 0.0])
    for net, comb in zip(report.nets, report.combiners):
        out = out + net(x) @ comb.T
    return out


def simulate_embedded(report: EmbeddingReport, x0_raw, cfg: SimConfig,
                      path_index: int = 0) -> SdePath:
    """Integrate the embedded system from a raw (V, N) initial condition
    and return the path in raw coordinates."""
    path = simulate(report.embedding.system, np.asarray(x0_raw, dtype=float) - report.x_star,
                    cfg, path_index=path_index)
    return replace(path, states=path.states + report.x_star)
