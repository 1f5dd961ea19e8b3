"""A pin on the certificate's bits: a speed change to the certificate code
must leave every field of every certificate here as it was, byte for byte.

DIGEST was recorded on the code before the certificate's NumPy wrappers
were trimmed (the default grid shared read-only, the 1x1 top eigenvalue
read off, the probe and unit stacks cached, the Frobenius norms computed
directly).  A change that moves a bit on purpose records a new digest and
says which certificates moved."""

import dataclasses
import hashlib
import struct

import numpy as np

from conftest import make_scalar
from sarlab.certify import Certificate, CertProblem, SolverOptions, certify
from sarlab.lure import LureSystem, TanhBank

DIGEST = "2dd3b49985720135217a704e6efd3625cf07dd19203aab6c47d6daccb314399f"


def field_bytes(value) -> bytes:
    """One Certificate field as bytes: an array as its dtype and data, a
    float as its IEEE double, a bool or str as its repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    if isinstance(value, (bool, str)):
        return repr(value).encode()
    if isinstance(value, float):
        return struct.pack("<d", value)
    raise TypeError(f"no byte form for {type(value).__name__}")


def certificate_digest(certs) -> str:
    """SHA-256 over every field of every certificate, with each field's name."""
    h = hashlib.sha256()
    for cert in certs:
        for f in dataclasses.fields(Certificate):
            h.update(f.name.encode() + b"=" + field_bytes(getattr(cert, f.name)) + b";")
    return h.hexdigest()


def pinned_problems():
    """Criterion 02's 10 x 10 scalar grid, then 20 seeded random systems of
    2 and 3 states, every third with an orthonormal C."""
    problems = [CertProblem(make_scalar(a=a, sigma=sigma))
                for a in np.linspace(-1.0, 1.0, 10) for sigma in np.linspace(0.0, 1.5, 10)]
    rng = np.random.default_rng(30)
    for k in range(20):
        n = 2 + k % 2
        s = rng.uniform(0.1, 3.0, size=n)
        a, f, c = rng.normal(size=(n, n)), rng.normal(size=(n, n)), rng.normal(size=(n, n))
        if k % 3 == 0:
            c = np.linalg.qr(c)[0]
        delta = s * rng.uniform(0.5, 2.0, size=n)
        sys = LureSystem(a=a, f_gain=f, c=c, sigma=float(rng.uniform(0.0, 3.0)),
                         nonlinearity=TanhBank(np.minimum(s, delta)), sector_slopes=s,
                         deriv_bounds=delta)
        problems.append(CertProblem(sys, options=SolverOptions(allow_nonorthonormal_c=True)))
    return problems


def test_certificates_keep_their_recorded_bits():
    certs = [certify(problem) for problem in pinned_problems()]
    witnesses = {cert.witness for cert in certs}
    assert witnesses == {"search", "necessity"}  # both exits are pinned
    assert certificate_digest(certs) == DIGEST
