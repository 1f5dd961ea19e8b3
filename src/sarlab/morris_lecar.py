"""Morris-Lecar neuron: channel currents, gating curves, SDE simulation.

Voltage equation (channel currents carry their reversal-potential signs)

    cap * dV/dt = i_app + L(V) + Ca(V) + K(V, N),

with leak L = -g_l (V - v_l), calcium Ca = -g_ca m_ss(V) (V - v_ca),
potassium K = -g_k N (V - v_k); the recovery variable relaxes as
dN/dt = (n_ss(V) - N) / tau_n(V).  Noise enters the voltage equation
either as state-multiplicative (sigma * V dW / cap) or as a fluctuating
applied current (sigma * i_app dW / cap).  A path steps as a pair of
Python floats through the shared Euler-Maruyama kernel of
:mod:`sarlab.sde`; the vector field is written once, in _field_of, which
binds the parameters' constants once per path.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .lure import _fork_map
from .sde import SimConfig, SdePath, _euler_maruyama

__all__ = [
    "MorrisLecarParams",
    "DEFAULT_INIT",
    "m_ss",
    "n_ss",
    "tau_n",
    "leak_current",
    "ca_current",
    "k_current",
    "channel_currents",
    "recovery_rate",
    "recovery_jacobian",
    "rhs",
    "equilibria",
    "simulate_ml",
    "spike_times",
    "calibrate_iapp",
    "make_training_set",
    "params_to_dict",
    "params_from_dict",
]

DEFAULT_INIT = np.array([-52.14, 0.02])


@dataclass(frozen=True)
class MorrisLecarParams:
    cap: float = 5.0
    g_l: float = 2.0
    v_l: float = -60.0
    g_ca: float = 4.0
    v_ca: float = 120.0
    g_k: float = 8.0
    v_k: float = -80.0
    v1: float = -1.2
    v2: float = 18.0
    v3: float = 12.0
    v4: float = 17.4
    phi: float = 1.0 / 15.0
    i_app: float = 40.0

    def __post_init__(self):
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.v2 == 0 or self.v4 == 0:
            raise ValueError("activation slopes v2 and v4 must be nonzero")
        if self.phi <= 0:
            raise ValueError("phi must be positive")

    def with_iapp(self, i_app: float) -> "MorrisLecarParams":
        return replace(self, i_app=float(i_app))


def m_ss(v, p: MorrisLecarParams):
    return 0.5 * (1.0 + np.tanh((v - p.v1) / p.v2))


def n_ss(v, p: MorrisLecarParams):
    return 0.5 * (1.0 + np.tanh((v - p.v3) / p.v4))


def tau_n(v, p: MorrisLecarParams):
    return 1.0 / (p.phi * np.cosh((v - p.v3) / (2.0 * p.v4)))


def leak_current(v, p: MorrisLecarParams):
    return -p.g_l * (v - p.v_l)


def ca_current(v, p: MorrisLecarParams):
    return -p.g_ca * m_ss(v, p) * (v - p.v_ca)


def k_current(v, n, p: MorrisLecarParams):
    return -p.g_k * n * (v - p.v_k)


def channel_currents(v, n, p: MorrisLecarParams) -> np.ndarray:
    """Stack (leak, calcium, potassium) along the last axis."""
    v = np.asarray(v, dtype=float)
    n = np.asarray(n, dtype=float)
    return np.stack(np.broadcast_arrays(
        leak_current(v, p), ca_current(v, p), k_current(v, n, p)), axis=-1)


def recovery_rate(v, n, p: MorrisLecarParams):
    return (n_ss(v, p) - n) / tau_n(v, p)


def recovery_jacobian(v, n, p: MorrisLecarParams) -> np.ndarray:
    """Gradient of (n_ss(V) - N)/tau_n(V) with respect to (V, N)."""
    u = (v - p.v3) / (2.0 * p.v4)
    nss_slope = 1.0 / (2.0 * p.v4 * np.cosh((v - p.v3) / p.v4) ** 2)
    dh_dv = p.phi * (nss_slope * np.cosh(u) + (n_ss(v, p) - n) * np.sinh(u) / (2.0 * p.v4))
    dh_dn = -p.phi * np.cosh(u)
    return np.array([dh_dv, dh_dn])


def _field_of(p: MorrisLecarParams):
    """The vector field (dV/dt, dN/dt) of p as a function field(V, N) of
    scalars or arrays, with p's constants bound once.

    field performs the operations of (i_app + leak + Ca + K) / cap and
    recovery_rate in their order, so it gives their bits.  On Python floats
    it returns Python floats: the arithmetic of a step costs about half what
    it costs on NumPy scalars and gives the same IEEE bits.  np.tanh and
    np.cosh stay, since libm's math.tanh and math.cosh differ from them in
    the last bit.
    """
    i_app, cap, phi = p.i_app, p.cap, p.phi
    neg_g_l, v_l = -p.g_l, p.v_l
    neg_g_ca, v_ca, v1, v2 = -p.g_ca, p.v_ca, p.v1, p.v2
    neg_g_k, v_k = -p.g_k, p.v_k
    v3, v4, two_v4 = p.v3, p.v4, 2.0 * p.v4
    tanh, cosh, float64 = np.tanh, np.cosh, np.float64

    def field(v, n):
        tm = tanh((v - v1) / v2)
        tn = tanh((v - v3) / v4)
        c = cosh((v - v3) / two_v4)
        if type(c) is float64:  # a scalar state: step on Python floats
            tm, tn, c = float(tm), float(tn), float(c)
        dv = (i_app + neg_g_l * (v - v_l) + neg_g_ca * (0.5 * (1.0 + tm)) * (v - v_ca)
              + neg_g_k * n * (v - v_k)) / cap
        gap = 0.5 * (1.0 + tn) - n
        tau = 1.0 / (phi * c)
        try:
            return dv, gap / tau
        except ZeroDivisionError:
            # cosh overflowed (|V - v3| beyond ~710 * 2 v4), so tau is 0.0: a
            # Python float raises where NumPy gives the same +-inf or nan
            return dv, float(float64(gap) / tau)

    return field


def rhs(state, p: MorrisLecarParams) -> np.ndarray:
    """Deterministic vector field; state is (2,) or (..., 2)."""
    state = np.asarray(state, dtype=float)
    return np.stack(_field_of(p)(state[..., 0], state[..., 1]), axis=-1)


def equilibria(p: MorrisLecarParams, v_window=(-80.0, 120.0), scan_points: int = 2001) -> list[np.ndarray]:
    """All rest states in the window, found by substituting N = n_ss(V)
    into the current balance and bracketing sign changes of the residual."""

    def residual(v):
        return p.i_app + leak_current(v, p) + ca_current(v, p) + k_current(v, n_ss(v, p), p)

    grid = np.linspace(v_window[0], v_window[1], scan_points)
    vals = residual(grid)
    out = []
    for lo, hi, a, b in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if a == 0.0:
            out.append(float(lo))
        elif a * b < 0.0:
            out.append(float(brentq(residual, lo, hi, xtol=1e-12)))
    if vals[-1] == 0.0:
        out.append(float(grid[-1]))
    return [np.array([v, float(n_ss(v, p))]) for v in out]


def simulate_ml(p: MorrisLecarParams, x0, cfg: SimConfig, sigma: float = 0.0,
                noise_mode: str = "state", path_index: int = 0) -> SdePath:
    """Euler-Maruyama path of the noisy neuron.

    noise_mode "state" perturbs the voltage row by sigma * V dW / cap;
    "current" by sigma * i_app dW / cap.  The recovery row is noise-free.
    Non-finite blowups truncate the recorded path and set diverged.
    """
    if noise_mode not in ("state", "current"):
        raise ValueError("noise_mode must be 'state' or 'current'")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError("x0 must be (V, N)")
    # one path steps as a pair of Python floats: on (2,) arrays every
    # operation of the field would be a small-array ufunc call, and on NumPy
    # scalars each one costs about twice what it costs on a float
    dt = cfg.dt
    field = _field_of(p)
    if sigma == 0.0:
        def step(x, dw):
            v, n = x
            dv, dn = field(v, n)
            return v + dv * dt, n + dn * dt
    else:
        state_noise, cap = noise_mode == "state", p.cap
        current_amp = sigma * p.i_app / cap

        def step(x, dw):
            v, n = x
            dv, dn = field(v, n)
            amp = sigma * v / cap if state_noise else current_amp
            # + 0.0 is the recovery row's zero noise term (it turns -0.0 into 0.0)
            return v + dv * dt + amp * dw, n + dn * dt + 0.0
    path = _euler_maruyama(step, (float(x0[0]), float(x0[1])), cfg, float(sigma),
                           [path_index])[0]
    # recovery variable is nominally a gating fraction; flag excursions
    n = path.states[:, 1]
    if n.size and (np.nanmin(n) < -0.1 or np.nanmax(n) > 1.1):
        warnings.warn("recovery variable left [-0.1, 1.1]; values reported unclamped",
                      RuntimeWarning, stacklevel=2)
    return path


def spike_times(times, v, threshold: float = 0.0) -> np.ndarray:
    """Times of upward threshold crossings (linear interpolation)."""
    times = np.asarray(times, dtype=float)
    v = np.asarray(v, dtype=float)
    below = v[:-1] < threshold
    above = v[1:] >= threshold
    idx = np.nonzero(below & above)[0]
    frac = (threshold - v[idx]) / (v[idx + 1] - v[idx])
    return times[idx] + frac * (times[idx + 1] - times[idx])


def calibrate_iapp(p: MorrisLecarParams, grid=None, t_end: float = 600.0,
                   dt: float = 0.01, min_spikes: int = 3) -> float:
    """Smallest applied current on the grid giving sustained spiking.

    Sustained means at least min_spikes upward crossings of 0 mV in the
    last third of a noise-free run started from DEFAULT_INIT that stays
    finite.  The grid is scanned in ascending order, one simulate_ml path
    per current, and the scan stops at the first current that spikes.  The
    paths run on a forked process pool, one worker per usable core
    (:func:`sarlab.lure._fork_map`), whose results are read in grid order,
    so the answer is the serial scan's; the workers still running when it
    is found are stopped.  A one-current grid runs in this process.
    """
    if grid is None:
        grid = np.arange(0.0, 300.0 + 1e-9, 5.0)
    cfg = SimConfig(t_end=t_end, dt=dt, record_stride=5)

    def sustained(i_app) -> bool:
        path = simulate_ml(p.with_iapp(i_app), DEFAULT_INIT, cfg)
        tail = path.times >= (2.0 / 3.0) * t_end
        return (not path.diverged
                and spike_times(path.times[tail], path.states[tail, 0]).size >= min_spikes)

    currents = np.sort(np.asarray(grid, dtype=float))
    with contextlib.closing(_fork_map(sustained, currents)) as spiking:
        for i_app, spikes in zip(currents, spiking):
            if spikes:
                return float(i_app)
    raise ValueError("no sustained oscillation found on the grid")


def make_training_set(p: MorrisLecarParams, box=((-80.0, 0.0), (120.0, 1.0)),
                      n_samples: int = 10000, seed: int = 0):
    """Uniform (V, N) samples on the box with exact channel targets.

    Returns (x, targets) with x of shape (n_samples, 2) and targets of
    shape (n_samples, 3) holding (L, Ca, K) columns.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=(int(n_samples), 2))
    targets = channel_currents(x[:, 0], x[:, 1], p)
    return x, targets


# ---------------------------------------------------------------------------
# serialization (JSON keys follow the conventional parameter names)

_JSON_KEYS = {
    "cap": "cap", "gL": "g_l", "vL": "v_l", "gCa": "g_ca", "vCa": "v_ca",
    "gK": "g_k", "vK": "v_k", "v1": "v1", "v2": "v2", "v3": "v3", "v4": "v4",
    "phi": "phi", "i_app": "i_app",
}


def params_to_dict(p: MorrisLecarParams) -> dict:
    return {key: getattr(p, attr) for key, attr in _JSON_KEYS.items()}


def params_from_dict(d: dict) -> MorrisLecarParams:
    """The parameters a JSON block names, the defaults for those it omits;
    a key that is not one of the conventional names raises ValueError."""
    unknown = [key for key in d if key not in _JSON_KEYS]
    if unknown:
        raise ValueError(f"unknown parameter keys {unknown}; known: {list(_JSON_KEYS)}")
    base = MorrisLecarParams()
    kwargs = {attr: float(d.get(key, getattr(base, attr)))
              for key, attr in _JSON_KEYS.items()}
    return MorrisLecarParams(**kwargs)
