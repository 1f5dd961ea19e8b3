"""Sector-bounded Lur'e models with state-multiplicative noise.

The model class is

    dx = A x dt + F f(y) dt + sigma * x dbeta,    y = C x,

where beta is a single scalar Wiener process shared by all states, and the
feedback nonlinearity acts componentwise: f(y)_i = f_i(y_i).  Each component
is confined to the sector

    0 <= y_i f_i(y_i) <= s_i y_i^2      (equivalently f_i (f_i - s_i y_i) <= 0)

and has a bounded slope f_i' < delta_i.  The certificate machinery in
:mod:`sarlab.certify` consumes only (A, F, C, sigma, s, delta); the bank of
tanh units is needed for simulation.  The module also holds the BLAS
thread scope that the L-BFGS-B fits of :mod:`sarlab.shallow` and
:mod:`sarlab.certify` run in, and the package's one process pool,
:func:`_fork_map`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import multiprocessing
import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "LureSystem",
    "Violation",
    "TanhBank",
    "get_nonlinearity",
    "validate",
    "augment",
    "save_system",
    "load_system",
    "system_to_dict",
    "system_from_dict",
    "read_json",
    "write_json",
]


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _reduce_through_init(self):
    """Unpickle through the constructor: restoring __dict__ would skip the
    __post_init__ that makes the arrays read-only."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, eq=False)
class TanhBank:
    """Bank of centered tanh units, f_i(y) = tanh(s_i y + b_i) - tanh(b_i).

    Each unit vanishes at 0, lies in the sector [0, s_i] and has slope
    bounded by s_i, so a system using this bank with sector_slopes =
    deriv_bounds = slopes is exactly sector-consistent.  The bank is plain
    data: it pickles, and system JSON stores its slopes and biases.
    """

    slopes: np.ndarray
    biases: np.ndarray | None = None  # None -> zeros
    _tanh_biases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = _frozen(np.atleast_1d(self.slopes))
        b = _frozen(np.zeros_like(s) if self.biases is None else self.biases)
        if b.shape != s.shape:
            raise ValueError("biases shape must match slopes")
        object.__setattr__(self, "slopes", s)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "_tanh_biases", np.tanh(b))

    __reduce__ = _reduce_through_init

    def __call__(self, y) -> np.ndarray:
        # one fresh array, updated in place: the bits of
        # tanh(s * y + b) - tanh(b) without its temporaries
        u = self.slopes * np.asarray(y, dtype=float)
        u += self.biases
        np.tanh(u, out=u)
        u -= self._tanh_biases
        return u


def get_nonlinearity(name: str, slopes=None, biases=None) -> TanhBank:
    """The bank a system JSON names, built from its slopes and (optional)
    biases; "tanh_bank" is the one name."""
    if name != "tanh_bank":
        raise KeyError(f"unknown nonlinearity {name!r}; known: ['tanh_bank']")
    return TanhBank(slopes, biases)


@dataclass(frozen=True, eq=False)
class LureSystem:
    """Immutable value object holding the model data.

    a: (n, n) drift matrix, f_gain: (n, m) feedback gain, c: (m, n) output
    map, sigma >= 0 noise level, nonlinearity: the TanhBank of feedback
    units, sector_slopes s and deriv_bounds delta: length-m positive vectors.
    """

    a: np.ndarray
    f_gain: np.ndarray
    c: np.ndarray
    sigma: float
    nonlinearity: TanhBank
    sector_slopes: np.ndarray
    deriv_bounds: np.ndarray

    def __post_init__(self):
        if not isinstance(self.nonlinearity, TanhBank):
            raise TypeError(f"nonlinearity must be a TanhBank, not "
                            f"{type(self.nonlinearity).__name__} {self.nonlinearity!r}")
        object.__setattr__(self, "a", _frozen(np.atleast_2d(self.a)))
        object.__setattr__(self, "f_gain", _frozen(np.atleast_2d(self.f_gain)))
        object.__setattr__(self, "c", _frozen(np.atleast_2d(self.c)))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "sector_slopes", _frozen(np.atleast_1d(self.sector_slopes)))
        object.__setattr__(self, "deriv_bounds", _frozen(np.atleast_1d(self.deriv_bounds)))

    __reduce__ = _reduce_through_init

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.c.shape[0]

    def with_sigma(self, sigma: float) -> "LureSystem":
        """Copy with a different noise level (used by sweeps)."""
        return LureSystem(self.a, self.f_gain, self.c, sigma,
                          self.nonlinearity, self.sector_slopes, self.deriv_bounds)

    def drift(self, x: np.ndarray) -> np.ndarray:
        """A x + F f(C x) evaluated at one state (or a stack of states)."""
        d = x @ self.a.T  # a fresh array, which the sum reuses
        d += self.nonlinearity(x @ self.c.T) @ self.f_gain.T
        return d


@dataclass(frozen=True)
class Violation:
    severity: str  # "error" | "warning"
    code: str
    message: str
    value: float | None = None


# the certificate hypothesis C^T C = I holds when ||C^T C - I||_F is at most this
C_DEFECT_TOL = 1e-9


def c_defect(sys: LureSystem) -> float:
    """||C^T C - I||_F, the distance from the certificate hypothesis."""
    return float(np.linalg.norm(sys.c.T @ sys.c - np.eye(sys.n)))


def validate(sys: LureSystem) -> list[Violation]:
    """Structural checks.  Dimension errors, non-finite data, nonpositive
    bounds and tanh units steeper than their sector slope or derivative
    bound are errors; a defect ||C^T C - I||_F > C_DEFECT_TOL is a warning:
    the certificate hypothesis wants C^T C = I, which `embed` meets."""
    out: list[Violation] = []
    n, m = sys.n, sys.m

    if sys.a.shape != (n, n):
        out.append(Violation("error", "dim_a", f"a must be square, got {sys.a.shape}"))
    if sys.f_gain.shape != (n, m):
        out.append(Violation("error", "dim_f_gain",
                             f"f_gain must be ({n}, {m}), got {sys.f_gain.shape}"))
    if sys.c.shape != (m, n):
        out.append(Violation("error", "dim_c", f"c must be ({m}, {n}), got {sys.c.shape}"))
    if sys.sector_slopes.shape != (m,):
        out.append(Violation("error", "dim_sector_slopes",
                             f"sector_slopes must have length {m}"))
    if sys.deriv_bounds.shape != (m,):
        out.append(Violation("error", "dim_deriv_bounds",
                             f"deriv_bounds must have length {m}"))
    bank = sys.nonlinearity
    if bank.slopes.shape != (m,):
        out.append(Violation("error", "dim_bank", f"the tanh bank must have {m} units"))
    if out:
        return out

    data = {"a": sys.a, "f_gain": sys.f_gain, "c": sys.c, "sigma": sys.sigma,
            "sector_slopes": sys.sector_slopes, "deriv_bounds": sys.deriv_bounds,
            "unit slopes": bank.slopes, "unit biases": bank.biases}
    for name, value in data.items():
        if not np.isfinite(value).all():
            out.append(Violation("error", "non_finite", f"{name} has non-finite entries"))
    if sys.sigma < 0:
        out.append(Violation("error", "sigma_negative", "sigma must be >= 0", sys.sigma))
    for i, s in enumerate(sys.sector_slopes):
        if not s > 0:
            out.append(Violation("error", "bad_sector_slope",
                                 f"sector slope s[{i}] must be > 0", float(s)))
    for i, d in enumerate(sys.deriv_bounds):
        if not d > 0:
            out.append(Violation("error", "bad_deriv_bound",
                                 f"derivative bound delta[{i}] must be > 0", float(d)))
    # a unit of slope s_i lies in the sector [0, s_i] with slopes up to s_i, and no tighter
    for i in np.nonzero((bank.slopes > sys.sector_slopes) | (bank.slopes > sys.deriv_bounds))[0]:
        out.append(Violation("error", "bank_outside_sector",
                             f"tanh unit {i} has slope {bank.slopes[i]:g}, above its "
                             "sector slope or derivative bound", float(bank.slopes[i])))

    defect = c_defect(sys)
    if defect > C_DEFECT_TOL:
        out.append(Violation("warning", "c_not_orthonormal",
                             f"||C^T C - I||_F = {defect:.6g} exceeds {C_DEFECT_TOL:g}; "
                             "the certificate hypothesis C^T C = I does not hold",
                             defect))

    return out


def augment(a_phys, f_phys, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Pad an (n, m) system with p = m - n fictitious states decaying at
    -kappa, so the feedback gain becomes square; returns (A_bar, F_bar):

        A_bar = [[A, 0], [0, -kappa I_p]],   F_bar = [[F], [0]].
    """
    a_phys = np.atleast_2d(np.asarray(a_phys, dtype=float))
    f_phys = np.atleast_2d(np.asarray(f_phys, dtype=float))
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    n = a_phys.shape[0]
    if a_phys.shape != (n, n):
        raise ValueError("a_phys must be square")
    if f_phys.shape[0] != n:
        raise ValueError("f_phys must have one row per physical state")
    m = f_phys.shape[1]
    if m < n:
        raise ValueError(f"need at least as many nonlinearities as states (m={m} < n={n})")
    p = m - n

    a_bar = np.zeros((m, m))
    a_bar[:n, :n] = a_phys
    if p:
        a_bar[n:, n:] = -kappa * np.eye(p)
    f_bar = np.zeros((m, m))
    f_bar[:n, :] = f_phys
    return a_bar, f_bar


# ---------------------------------------------------------------------------
# serialization


def system_to_dict(sys: LureSystem) -> dict:
    bank = sys.nonlinearity
    return {
        "a": sys.a.tolist(),
        "f_gain": sys.f_gain.tolist(),
        "c": sys.c.tolist(),
        "sigma": sys.sigma,
        "sector_slopes": sys.sector_slopes.tolist(),
        "deriv_bounds": sys.deriv_bounds.tolist(),
        "nonlinearity": "tanh_bank",
        "unit_slopes": bank.slopes.tolist(),
        "biases": bank.biases.tolist(),
    }


def system_from_dict(d: dict) -> LureSystem:
    """The system of a :func:`system_to_dict` document; a missing key is a
    KeyError."""
    bank = get_nonlinearity(d["nonlinearity"], slopes=d["unit_slopes"], biases=d["biases"])
    return LureSystem(
        a=np.asarray(d["a"], dtype=float),
        f_gain=np.asarray(d["f_gain"], dtype=float),
        c=np.asarray(d["c"], dtype=float),
        sigma=float(d["sigma"]),
        nonlinearity=bank,
        sector_slopes=np.asarray(d["sector_slopes"], dtype=float),
        deriv_bounds=np.asarray(d["deriv_bounds"], dtype=float),
    )


def read_json(path) -> dict:
    """The package's one JSON reader: the object a file holds.  Malformed
    JSON, or a document that is not an object, raises ValueError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def write_json(path, doc: dict) -> None:
    """The package's one JSON writer: doc indented by 2, then a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_system(sys: LureSystem, path) -> None:
    write_json(path, system_to_dict(sys))


def load_system(path) -> LureSystem:
    return system_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# BLAS threads

_PROC_MAPS = "/proc/self/maps"
# (get, set) thread-count symbols of the OpenBLAS builds NumPy's (64-bit
# integer) and SciPy's wheels ship
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this
    process at the first call (shallow and certify import SciPy, and so
    both copies, before they call it); empty where the memory map cannot be
    read or names none."""
    try:
        with open(_PROC_MAPS) as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS to one thread inside the block, then
    restore each library's previous count, also when the block raises.

    Between the BLAS calls of an L-BFGS-B iteration, OpenBLAS's idle worker
    spins on the second core; at one thread it does not, so concurrent fits
    get that core.  The count is process-wide, and pool workers forked
    inside the block keep it.  Without an OpenBLAS, or without /proc, this
    does nothing."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


# ---------------------------------------------------------------------------
# process pool


def _usable_cores() -> int:
    """Cores this process may run on; every worker count derives from it."""
    return len(os.sched_getaffinity(0))


_POOL_TASK = None  # (fn, items) of the _fork_map call a pool worker serves
_POOL_POLL_S = 1.0  # how often a wait for a result checks that no worker died


def _serve(fn, items) -> None:
    global _POOL_TASK
    _POOL_TASK = (fn, items)


def _run_task(i: int):
    """fn(items[i]) in a pool worker, with the warnings it raised that the
    filters the worker inherited let through."""
    fn, items = _POOL_TASK
    with warnings.catch_warnings(record=True) as caught:
        result = fn(items[i])
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _next_result(results, processes):
    """The next result of a pool's imap.  A worker that died (killed, say)
    would be replaced and its task waited for forever, so that raises."""
    while True:
        try:
            return results.next(timeout=_POOL_POLL_S)
        except multiprocessing.TimeoutError:
            codes = [p.exitcode for p in processes if p.exitcode is not None]
            if codes:
                raise RuntimeError(f"a pool worker died with exit code {codes[0]}") from None


def _fork_map(fn, items, workers: int | None = None):
    """Yield fn(item) for each item, in input order.

    The calls run on a fork-context multiprocessing pool of min(workers,
    len(items)) processes (workers defaults to the usable cores).  The
    workers inherit fn and items through the fork, so fn may be a closure
    and only results travel back, pickled; the warnings a call raised are
    raised again here.  No pool starts for one item, one worker or one
    usable core, nor in a daemonic process such as a pool worker, which
    may not have children: the calls then run here, one per item taken.
    The pool's workers are terminated and joined when the caller stops
    early (closes or drops this generator) and when a call raises, whose
    exception is raised here, or a worker dies, which raises RuntimeError.
    """
    items = list(items)
    workers = min(_usable_cores() if workers is None else workers, len(items))
    if workers < 2 or _usable_cores() < 2 or multiprocessing.current_process().daemon:
        yield from map(fn, items)
        return
    pool = multiprocessing.get_context("fork").Pool(workers, _serve, (fn, items))
    processes = list(pool._pool)
    try:
        results = pool.imap(_run_task, range(len(items)))
        for _ in items:
            result, caught = _next_result(results, processes)
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            yield result
    finally:
        pool.terminate()
        pool.join()
