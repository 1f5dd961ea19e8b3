"""Shared fixtures.  The expensive pipeline pieces (current calibration,
net training + embedding) run once per session and are reused by the unit
tests and the acceptance suite."""

import multiprocessing.pool

import numpy as np
import pytest

from sarlab import morris_lecar as ml
from sarlab.embedding import EmbeddingConfig, build_embedding
from sarlab.lure import LureSystem, get_nonlinearity, system_to_dict


def make_scalar(a: float, sigma: float, f: float = 0.0, s: float = 1.0,
                delta: float = 1.0, c: float = 1.0) -> LureSystem:
    """1-state, 1-unit system with a zero-bias tanh unit of slope s."""
    return LureSystem(
        a=np.array([[a]]), f_gain=np.array([[f]]), c=np.array([[c]]),
        sigma=sigma, nonlinearity=get_nonlinearity("tanh_bank", slopes=np.array([s])),
        sector_slopes=np.array([s]), deriv_bounds=np.array([delta]))


def parent_layout(emb) -> LureSystem:
    """An embedding's system in the layout embed built before it lifted the
    physical state to R (x - x*): C = [D 0] with D = C'[:, :n] R,
    A_phys = R^-1 A'_phys R and F_phys = R^-1 F'_phys, on the state
    [x - x*; 0]."""
    n, r = emb.n_phys, emb.lift
    sys = emb.system
    a, f, c = sys.a.copy(), sys.f_gain.copy(), np.zeros_like(sys.c)
    a[:n, :n] = np.linalg.solve(r, sys.a[:n, :n] @ r)
    f[:n] = np.linalg.solve(r, sys.f_gain[:n])
    c[:, :n] = sys.c[:, :n] @ r
    return LureSystem(a=a, f_gain=f, c=c, sigma=sys.sigma, nonlinearity=sys.nonlinearity,
                      sector_slopes=sys.sector_slopes, deriv_bounds=sys.deriv_bounds)


def parent_layout_doc(emb) -> dict:
    """The embedding JSON of :func:`parent_layout`: C = [D 0] and no lift."""
    doc = system_to_dict(parent_layout(emb))
    doc.update(offset=emb.offset.tolist(), kappa=emb.kappa, n_phys=emb.n_phys)
    return doc


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started while the test runs."""
    started = []

    # a subclass, because the pool module reaches its own statics through the
    # module's name Pool
    class Counted(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            started.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", Counted)
    return started


@pytest.fixture(scope="session")
def base_params():
    return ml.MorrisLecarParams()


@pytest.fixture(scope="session")
def calibrated_iapp(base_params):
    return ml.calibrate_iapp(base_params)


@pytest.fixture(scope="session")
def spiking_params(base_params, calibrated_iapp):
    return base_params.with_iapp(calibrated_iapp)


@pytest.fixture(scope="session")
def embedding_report(spiking_params, calibrated_iapp):
    return build_embedding(spiking_params,
                           EmbeddingConfig(seed=0, i_app=calibrated_iapp))
