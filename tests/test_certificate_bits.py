"""A pin on the certificate's bits: a speed change to the certificate code
must leave every field of every certificate here as it was, byte for byte.

DIGEST was recorded on the code before the certificate's NumPy wrappers
were trimmed (the default grid shared read-only, the 1x1 top eigenvalue
read off, the probe and unit stacks cached, the Frobenius norms computed
directly).  A change that moves a bit on purpose records a new digest and
says which certificates moved: the digest was re-recorded when certify
began to lift a square system with C^T C != I into its paper_form instead
of searching it as given, which moved the 13 random systems of that kind
and kept the bits of the other 107."""

import dataclasses
import hashlib
import struct

import numpy as np

from conftest import make_scalar
from sarlab.certify import Certificate, CertProblem, SolverOptions, certify
from sarlab.lure import LureSystem, TanhBank

DIGEST = "79abde92491ac69a07c527285cf29d3be19fc30e164167ae5f80f237d7d4ab5b"


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


def pinned_problems(options=SolverOptions()):
    """Criterion 02's 10 x 10 scalar grid, then 20 seeded random systems of
    2 and 3 states, every third with an orthonormal C."""
    problems = [CertProblem(make_scalar(a=a, sigma=sigma), options=options)
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
        problems.append(CertProblem(sys, options=options))
    return problems


def test_certificates_keep_their_recorded_bits():
    certs = [certify(problem) for problem in pinned_problems()]
    witnesses = {cert.witness for cert in certs}
    assert witnesses == {"search", "necessity"}  # both exits are pinned
    assert certificate_digest(certs) == DIGEST


def test_the_ignored_c_option_moves_no_bit():
    # allow_nonorthonormal_c is accepted and ignored: every system is lifted
    options = SolverOptions(allow_nonorthonormal_c=True)
    assert certificate_digest(certify(p) for p in pinned_problems(options)) == DIGEST
