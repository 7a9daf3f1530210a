"""Dense complex-matrix helpers: dimension cap, spectra, trace distance.

Operators are numpy arrays of complex128 (trace_norm keeps real input real).
Matrices are kept small (the working dimension is capped, default 2**12)
because every quantity in this package is computed exactly, not sampled.
"""
from __future__ import annotations

import os

import numpy as np

__all__ = [
    "DimensionCapError",
    "DEFAULT_DIM_CAP",
    "dim_cap",
    "check_dim",
    "is_hermitian",
    "trace_norm",
    "trace_distance",
]

DEFAULT_DIM_CAP = 1 << 12

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10


class DimensionCapError(ValueError):
    """Raised when an operation would exceed the configured dimension cap."""


def dim_cap() -> int:
    """Current dimension cap; the QPKE_DIM_CAP env var overrides the default."""
    raw = os.environ.get("QPKE_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    cap = int(raw)
    if cap < 2:
        raise ValueError(f"QPKE_DIM_CAP must be >= 2, got {cap}")
    return cap


def check_dim(dim: int) -> int:
    if dim > dim_cap():
        raise DimensionCapError(f"dimension {dim} exceeds cap {dim_cap()}")
    return dim


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return (a.ndim == 2 and a.shape[0] == a.shape[1]
            and np.max(np.abs(a - a.conj().T)) <= HERMITIAN_TOL)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm tr|A| = sum of singular values.

    Hermitian inputs take the exact route sum|eig(A)|, summed from the
    largest eigenvalue down; squaring through A^dag A would cost half the
    significant digits. Everything else goes through the spectrum of
    A^dag A. Real input stays real (real eigvalsh).
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    if is_hermitian(a):
        return float(np.sum(np.abs(np.linalg.eigvalsh(a)[::-1])))
    gram_eigs = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sum(np.sqrt(np.clip(gram_eigs, 0.0, None))))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance D(rho, sigma) = (1/2) sum |eigenvalues of rho - sigma|.

    Both inputs must be Hermitian with unit trace; the difference is
    diagonalized exactly, so the result is accurate to machine precision.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("operators must share a dimension")
    for op in (rho, sigma):
        if not is_hermitian(op):
            raise ValueError("trace_distance expects Hermitian operators")
        if abs(np.trace(op).real - 1.0) > TRACE_TOL or abs(np.trace(op).imag) > TRACE_TOL:
            raise ValueError("trace_distance expects unit-trace operators")
    return 0.5 * trace_norm(rho - sigma)
