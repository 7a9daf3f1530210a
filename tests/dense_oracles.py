"""Dense reference implementations used only by the tests.

The package computes the distinguishing game in closed form and never
checks density operators at run time; these dense routes are the tests'
independent cross-checks: a full eigendecomposition for the optimal
two-hypothesis (Helstrom) measurement, and a spectrum check for density
operators.
"""
import numpy as np

from qpke import qmat

PSD_TOL = 1e-9
ZERO_EIG_TOL = 1e-12


def assert_density_operator(rho: np.ndarray) -> None:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Eigenvalues with magnitude below 1e-12 count as zero; anything below
    -1e-9 fails the PSD check.
    """
    rho = np.asarray(rho, dtype=complex)
    if not qmat.is_hermitian(rho):
        raise ValueError("density operator must be Hermitian")
    tr = np.trace(rho)
    if abs(tr.real - 1.0) > qmat.TRACE_TOL or abs(tr.imag) > qmat.TRACE_TOL:
        raise ValueError(f"density operator must have unit trace, got {tr}")
    eigs = np.linalg.eigvalsh(rho)
    low = float(np.min(eigs))
    if abs(low) < ZERO_EIG_TOL:
        low = 0.0
    if low < -PSD_TOL:
        raise ValueError(f"density operator has negative eigenvalue {low}")


def helstrom_projector(rho0: np.ndarray, rho1: np.ndarray) -> np.ndarray:
    """Projector onto the non-negative eigenspace of rho0 - rho1 (ties count
    toward hypothesis 0)."""
    delta = np.asarray(rho0, dtype=complex) - np.asarray(rho1, dtype=complex)
    if not qmat.is_hermitian(delta):
        raise ValueError("hypotheses must be Hermitian")
    eigvals, eigvecs = np.linalg.eigh(delta)
    keep = eigvecs[:, eigvals >= -1e-12]
    return keep @ keep.conj().T


def helstrom_advantage(rho0: np.ndarray, rho1: np.ndarray, samples: int = 0,
                       rng: np.random.Generator | None = None):
    """Analytic optimal success probability 1/2 + D(rho0, rho1)/2, plus an
    empirical success rate from `samples` labeled draws measured with the
    optimal projector (omitted when samples == 0)."""
    analytic = 0.5 + 0.5 * qmat.trace_distance(rho0, rho1)
    if samples == 0:
        return analytic, None
    if rng is None:
        raise ValueError("need an rng to sample")
    proj = helstrom_projector(rho0, rho1)
    p_guess0 = (
        float(np.trace(proj @ rho0).real),
        float(np.trace(proj @ rho1).real),
    )
    labels = rng.integers(0, 2, size=samples)
    probs = np.where(labels == 0, p_guess0[0], p_guess0[1])
    guessed0 = rng.random(samples) < probs
    success = np.where(labels == 0, guessed0, ~guessed0)
    return analytic, float(np.mean(success))
