"""Shared fixtures.  The expensive pipeline pieces (current calibration,
net training + embedding) run once per session and are reused by the unit
tests and the acceptance suite."""

import multiprocessing.pool

import numpy as np
import pytest

from sarlab import morris_lecar as ml
from sarlab.embedding import EmbeddingConfig, build_embedding
from sarlab.lure import LureSystem, get_nonlinearity


def make_scalar(a: float, sigma: float, f: float = 0.0, s: float = 1.0,
                delta: float = 1.0, c: float = 1.0) -> LureSystem:
    """1-state, 1-unit system with a zero-bias tanh unit of slope s."""
    return LureSystem(
        a=np.array([[a]]), f_gain=np.array([[f]]), c=np.array([[c]]),
        sigma=sigma, nonlinearity=get_nonlinearity("tanh_bank", slopes=np.array([s])),
        sector_slopes=np.array([s]), deriv_bounds=np.array([delta]))


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
