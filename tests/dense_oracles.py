"""Reference implementations used only by the tests.

The package computes the distinguishing game in closed form, never checks
density operators at run time, and draws the collision baseline's trials in
bulk; these direct routes are the tests' independent cross-checks: a full
eigendecomposition for the optimal two-hypothesis (Helstrom) measurement,
a spectrum check for density operators, the collision baseline's loop that
draws one value at a time, and the shared-label multicopy distance summed
over every key draw.
"""
import numpy as np

from qpke import analysis, bits, qmat
from qpke.boolfn import RandomOracle

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


def owt_inversion_baseline(n: int, trials: int, rng: np.random.Generator) -> float:
    """The collision baseline drawn one value at a time: a fresh RandomOracle
    per trial, x_j, x_i (redrawn while equal to x_j), then o(x_i), o(x_j)."""
    if n < 1 or n > 20:
        raise ValueError("n must be between 1 and 20")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = 2 * n
    hits = 0
    for _ in range(trials):
        oracle = RandomOracle(m, n, rng)
        x_j = bits.rand_bits(rng, m)
        x_i = bits.rand_bits(rng, m)
        while x_i == x_j:
            x_i = bits.rand_bits(rng, m)
        hits += oracle(x_i) == oracle(x_j)
    rate = hits / trials
    p = 0.5 ** n
    sigma = np.sqrt(p * (1 - p) / trials)
    if abs(rate - p) > 3 * sigma:
        raise AssertionError(
            f"collision rate {rate} deviates from {p} by more than 3 sigma")
    return rate


def shared_s_multicopy_distance(n: int, t: int) -> float:
    """multicopy_distance(n, t, reuse="shared_s") under uniform_k, summed
    densely: the joint states of dimension 2^(n(t+1)) over all 2^(n+1)
    equally weighted (k, p) pairs, then half the trace norm of their
    difference, which is real."""
    w = 1.0 / (1 << (n + 1))
    pairs = [((k, p), w) for k in range(1 << n) for p in (0, 1)]
    delta = analysis._joint_state(n, t, 0, pairs) - analysis._joint_state(n, t, 1, pairs)
    assert not np.any(delta.imag)
    return 0.5 * qmat.trace_norm(delta.real)
