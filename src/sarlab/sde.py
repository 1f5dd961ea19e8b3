"""Euler-Maruyama simulation of SDEs dx = f(x) dt + g(x) dbeta.

One kernel, _euler_maruyama, steps every model in the package: Lur'e
paths and ensembles here, and the Morris-Lecar neuron's paths in
:mod:`sarlab.morris_lecar`.  The kernel owns the whole path: the time
grid, each path's random stream, the Wiener increments, the record and
the SdePaths it returns.  Each model supplies one function
step(x, dw) -> next x that applies its own Euler-Maruyama update for one
increment dw (None in a noise-free run).  So a batch steps as arrays, and
a single neuron path steps as a pair of Python floats, without the
per-call cost of small-array ufuncs or of NumPy scalar arithmetic.  For a
Lur'e system the Ito discretization uses a single scalar Wiener increment
shared by all states of a path:

    x_{k+1} = x_k + (A x_k + F f(C x_k)) dt + sigma * x_k * dW_k,
    dW_k ~ Normal(0, dt).

Each path draws its increments from its own counter-based stream (Philox
keyed by seed XOR path_index), so ensembles are reproducible independently
of scheduling order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lure import LureSystem

__all__ = [
    "SimConfig",
    "SdePath",
    "path_stream",
    "simulate",
    "simulate_ensemble",
    "ensemble_moments",
    "lowpass",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 2048  # increments are drawn in chunks to bound memory


@dataclass(frozen=True)
class SimConfig:
    """Integration grid and ensemble bookkeeping.

    Recorded samples are every record_stride-th step starting at t=0;
    the recorded count is floor(t_end/dt/record_stride) + 1.
    """

    t_end: float
    dt: float = 1e-3
    n_paths: int = 1
    seed: int = 0
    record_stride: int = 10

    def __post_init__(self):
        if not np.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end!r}")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(np.floor(self.t_end / self.dt + 1e-12))


@dataclass(frozen=True, eq=False)
class SdePath:
    """One recorded trajectory.  If the integration produced a non-finite
    state the path is truncated at the last finite sample and flagged."""

    times: np.ndarray
    states: np.ndarray
    seed: int
    sigma: float
    path_index: int = 0
    diverged: bool = False


def path_stream(seed: int, path_index: int = 0) -> np.random.Generator:
    """Counter-based stream for one path: Philox keyed by seed XOR index."""
    key = (int(seed) ^ int(path_index)) & _MASK64
    return np.random.Generator(np.random.Philox(key=key))


def _euler_maruyama(step, x0, cfg: SimConfig, sigma: float, path_indices) -> list[SdePath]:
    """The one Euler-Maruyama loop: x <- step(x, dW), once per time step.

    x0 has shape batch + (n,): an array for a batch, or a plain sequence
    of n scalars for one path, whichever step takes and returns.  Batch
    entry i (in row-major order) is path path_indices[i]; when sigma != 0
    it draws one scalar dW ~ Normal(0, dt) per step from
    path_stream(cfg.seed, path_indices[i]), and step receives them as dw of
    shape batch (Python floats in a one-path run, batch ()).  At sigma == 0
    nothing is drawn and step gets dw=None.  step must be a pure function
    of (x, dw): it reads no clock, counter or other state.  So in a
    noise-free run a state that step maps onto itself bit for bit stays
    there, and the run ends at such a fixed point (probed once per chunk)
    with the rest of the record filled by it.  Every record_stride-th state
    is recorded; one SdePath per batch entry is returned (_recorded_paths).
    """
    batch = np.shape(x0)[:-1]
    n_steps = cfg.n_steps
    stride = cfg.record_stride
    dt = cfg.dt
    sqdt = np.sqrt(dt)
    streams = [path_stream(cfg.seed, i) for i in path_indices] if sigma != 0.0 else []
    try:
        # the time stamp of row k is (k * stride) * dt, rounded once
        times = np.arange(0, n_steps + 1, stride) * dt
        rec = np.empty((times.size,) + np.shape(x0))
    except MemoryError:
        raise ValueError(f"t_end={cfg.t_end:g} at dt={dt:g} records {n_steps // stride + 1} "
                         "samples, more than memory can hold") from None
    rec[0] = x0

    # a non-finite state propagates through the arithmetic on its own, so
    # divergence needs no masking here and raises no warning; the
    # diverged flag of _recorded_paths reports it
    x = x0
    done = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while done < n_steps:
            todo = min(_CHUNK, n_steps - done)
            if streams:
                # Philox normals do not depend on the chunking, so neither do paths
                dws = np.stack([g.standard_normal(todo) for g in streams], axis=-1)
                dws = dws.reshape((todo,) + batch) * sqdt
                if not batch:
                    dws = dws.tolist()  # one path steps on Python floats
            else:
                dws = itertools.repeat(None, todo)
            for dw in dws:
                x = step(x, dw)
                done += 1
                if done % stride == 0:
                    rec[done // stride] = x
            # bytes, not ==: -0.0 == 0.0, yet the two can step differently
            if not streams and np.asarray(step(x, None)).tobytes() == np.asarray(x).tobytes():
                rec[done // stride + 1:] = x
                break
    return _recorded_paths(times, rec, cfg.seed, sigma, path_indices)


def _recorded_paths(times, rec, seed: int, sigma: float, path_indices) -> list[SdePath]:
    """One SdePath per batch entry of a kernel record, each truncated at
    its first non-finite row and then flagged diverged."""
    rec = rec.reshape(rec.shape[0], len(path_indices), rec.shape[-1])
    paths = []
    for i, pidx in enumerate(path_indices):
        states = rec[:, i]
        finite = np.isfinite(states).all(axis=1)
        cut = finite.size if finite.all() else int(np.argmin(finite))
        paths.append(SdePath(times[:cut].copy(), states[:cut].copy(), seed, sigma, pidx,
                             cut < finite.size))
    return paths


def _lure_paths(sys: LureSystem, x0, cfg: SimConfig, path_indices: list[int]) -> list[SdePath]:
    x0 = np.tile(np.asarray(x0, dtype=float).reshape(1, sys.n), (len(path_indices), 1))
    sigma, drift, dt = sys.sigma, sys.drift, cfg.dt
    # drift returns a fresh array, and each step finishes x + drift(x) dt
    # (+ sigma dW x) in it, in that order of operations
    if sigma == 0.0:
        def step(x, dw):
            d = drift(x)
            d *= dt
            d += x
            return d
    else:
        def step(x, dw):
            d = drift(x)
            d *= dt
            d += x
            d += (sigma * dw)[..., None] * x
            return d
    return _euler_maruyama(step, x0, cfg, sigma, path_indices)


def simulate(sys: LureSystem, x0, cfg: SimConfig, path_index: int = 0) -> SdePath:
    """Integrate one path.  Divergence (non-finite state) truncates the
    recorded path and sets diverged=True."""
    return _lure_paths(sys, x0, cfg, [path_index])[0]


def simulate_ensemble(sys: LureSystem, x0, cfg: SimConfig) -> list[SdePath]:
    """Integrate cfg.n_paths paths; path i uses the stream keyed seed XOR i.
    Results are identical to calling simulate() per index."""
    return _lure_paths(sys, x0, cfg, list(range(cfg.n_paths)))


def ensemble_moments(paths: list[SdePath], order: int = 1):
    """Componentwise ensemble moments across paths on a shared time grid.

    order=1: mean and standard error of x_i(t); order=2: same for x_i(t)^2.
    Paths must share the time grid (mismatched grids are an error).
    """
    if not paths:
        raise ValueError("need at least one path")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    t0 = paths[0].times
    for p in paths[1:]:
        if p.times.shape != t0.shape or not np.array_equal(p.times, t0):
            raise ValueError("paths have mismatched time grids")
    stack = np.stack([p.states for p in paths])  # (P, k, n)
    if order == 2:
        stack = stack * stack
    mean = stack.mean(axis=0)
    if stack.shape[0] > 1:
        se = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    else:
        se = np.zeros_like(mean)
    return t0.copy(), mean, se


def lowpass(x, window: int) -> np.ndarray:
    """Centered moving average with reflected boundaries.

    window must be odd; output has the input's length; window=1 is the
    identity.  Applies along axis 0 for 2-D input.
    """
    x = np.asarray(x, dtype=float)
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    npts = x.shape[0]
    if window == 1:
        return x.copy()
    half = (window - 1) // 2
    if half > npts - 1:
        raise ValueError(f"window {window} too long to reflect a series of {npts} samples")
    kernel = np.full(window, 1.0 / window)
    cols = x.reshape(npts, -1)
    out = np.empty_like(cols)
    for j in range(cols.shape[1]):
        out[:, j] = np.convolve(np.pad(cols[:, j], half, mode="reflect"), kernel, mode="valid")
    return out.reshape(x.shape)
