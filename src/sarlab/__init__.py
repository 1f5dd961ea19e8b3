"""Noise-induced stabilization toolkit.

Sector-bounded Lur'e models driven by state-multiplicative noise, a
matrix-inequality stability certificate for them, an Euler-Maruyama
simulator, a tanh-network sector-bounding pipeline, and a Morris-Lecar
neuron demonstration.
"""

__version__ = "0.1.0"

from .lure import LureSystem
from .sde import SimConfig, SdePath, simulate, simulate_ensemble, ensemble_moments, lowpass
# certify() is not re-exported: the name sarlab.certify stays the module
from .certify import (CertProblem, Certificate, SolverOptions, certificate_matrix,
                      max_eigenvalue, paper_form, sigma_sweep)
from .shallow import ShallowNet, TrainOptions, SectorEmbedding, train, extract_bounds, embed
from .morris_lecar import MorrisLecarParams, simulate_ml, calibrate_iapp
from .embedding import EmbeddingConfig, EmbeddingReport, build_embedding

__all__ = [
    "__version__",
    "LureSystem",
    "SimConfig",
    "SdePath",
    "simulate",
    "simulate_ensemble",
    "ensemble_moments",
    "lowpass",
    "CertProblem",
    "Certificate",
    "SolverOptions",
    "certificate_matrix",
    "max_eigenvalue",
    "paper_form",
    "sigma_sweep",
    "ShallowNet",
    "TrainOptions",
    "SectorEmbedding",
    "train",
    "extract_bounds",
    "embed",
    "MorrisLecarParams",
    "simulate_ml",
    "calibrate_iapp",
    "EmbeddingConfig",
    "EmbeddingReport",
    "build_embedding",
]
