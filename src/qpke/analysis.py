"""Exact density-operator analysis of the encryption schemes.

Everything here is computed by explicit enumeration: ciphertext and
public-key ensembles are averaged over all key draws (the random-oracle
model replaces F(s) by a uniform k), so the resulting operators are exact
up to floating point. Trace-distance bounds are then checked against the
closed forms (sqrt(2)/2)^n, sqrt(1/2^(n-t+1)) and sqrt(1/2^(n-t-1)).

Every mixture is a uniform average of conjugate-coding product states
Y_j H_k |i> over some index set. `kets` builds those states in one batch
from a single-qubit table read off `qsym.GATE_ACTIONS`, and `ensemble` sums
their projectors in one matrix product. The scheme-a ciphertext mixture has
two routes through them: the formula kets H_w|v> (parity-b values v, all
bases w) and the protocol kets Y_j H_k|i> (even i, parity-b masks j, all k);
they are compared entrywise whenever a mixture is built (small n). The
tests hold `kets` to the per-state qsym pipeline, bit for bit, as the
independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bits, qmat
from .boolfn import generate_balanced_f2, generate_random
from .qsym import Z0, Z1, QubitSymbol
from .schemes import SchemeId

__all__ = [
    "SecurityReport",
    "MixtureSpec",
    "CSV_HEADER",
    "reports_to_csv",
    "report_ok",
    "sigma_b",
    "sigma_bound_report",
    "cipher_mixture_A",
    "cipher_mixture_A_sampled",
    "cipher_mixture_uniform",
    "pubkey_mixture_fixed_k",
    "pubkey_mixture_A",
    "pubkey_mixture_B",
    "channel_e1",
    "channel_e2",
    "channel_identity_report",
    "cipher_distance_report",
    "multicopy_distance",
    "pan10_rho_k",
    "pan10_mixture_distance",
    "helstrom_projector",
    "helstrom_advantage",
]

CSV_HEADER = "quantity,scheme,n,t,key_model,reuse,computed,bound,margin,seed"

_H1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_U_PI4 = np.array([[1, -1], [1, 1]], dtype=complex) * (np.sqrt(2) / 2)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SecurityReport:
    """One computed security quantity next to its analytic bound.

    mode "le" means computed must not exceed bound + tol, "eq" means the two
    must agree within tol; a missing bound marks an informational row.
    """

    quantity: str
    scheme: str | None
    n: int
    t: int | None
    key_model: str
    reuse: str | None
    computed: float
    bound: float | None
    seed: int | None = None
    mode: str = "le"
    tol: float = 1e-9

    @property
    def margin(self) -> float | None:
        return None if self.bound is None else self.bound - self.computed

    def to_csv_row(self) -> str:
        cells = [
            self.quantity,
            self.scheme or "",
            str(self.n),
            "" if self.t is None else str(self.t),
            self.key_model,
            self.reuse or "",
            _fmt(self.computed),
            "" if self.bound is None else _fmt(self.bound),
            "" if self.margin is None else _fmt(self.margin),
            "" if self.seed is None else str(self.seed),
        ]
        return ",".join(cells)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def report_ok(r: SecurityReport) -> bool:
    """Does the computed value satisfy its bound (if it has one)?"""
    if r.bound is None:
        return True
    if r.mode == "eq":
        return abs(r.computed - r.bound) <= r.tol
    return r.computed <= r.bound + r.tol


def reports_to_csv(reports, provenance: dict | None = None) -> str:
    lines = []
    if provenance:
        for key in sorted(provenance):
            lines.append(f"# {key}={provenance[key]}")
    lines.append(CSV_HEADER)
    lines.extend(r.to_csv_row() for r in reports)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Elementary states and ensembles.

# Single-qubit kets Y^j H^k |i>, row 4i + 2k + j, read off the gate table.
_QUBIT_KETS = np.array([
    QubitSymbol(Z1 if i else Z0).apply("H" if k else "I").apply("Y" if j else "I").to_vector()
    for i in (0, 1) for k in (0, 1) for j in (0, 1)])


def kets(n: int, i, k=0, j=0) -> np.ndarray:
    """One row Y_j H_k |i> per entry of the int arrays i, k, j, which must
    broadcast together; qubit 0 is the most significant factor, and every
    row equals ProductState.from_bits(i, n).apply_hk(k).apply_yj(j).to_vector()."""
    qmat.check_dim(1 << n)
    i, k, j = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in (i, k, j)))

    def factor(a: int) -> np.ndarray:
        s = n - 1 - a
        code = ((i >> s) & 1) << 2 | ((k >> s) & 1) << 1 | ((j >> s) & 1)
        return _QUBIT_KETS[code.ravel()]

    out = factor(0)
    for a in range(1, n):
        out = (out[:, :, None] * factor(a)[:, None, :]).reshape(len(out), -1)
    return out


def ensemble(vecs: np.ndarray, weight) -> np.ndarray:
    """sum_r weight |v_r><v_r| over the rows v_r of vecs."""
    return vecs.T @ (weight * vecs.conj())


def identity_mixture(n: int) -> np.ndarray:
    return np.eye(1 << n, dtype=complex) / (1 << n)


@lru_cache(maxsize=None)
def _hk_dense(n: int, k: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for a in range(n):
        out = np.kron(out, _H1 if bits.bit_at(k, a, n) else _I2)
    return out


def hk_matrix(n: int, k: int) -> np.ndarray:
    """Dense H_k on n qubits."""
    qmat.check_dim(1 << n)
    return _hk_dense(n, k)


def _parity_class(n: int, b: int):
    return [v for v in range(1 << n) if bits.parity(v) == b]


def sigma_b(n: int, b: int) -> np.ndarray:
    """Uniform mixture of basis-only products |phi_{j_1}> ... |phi_{j_n}>
    (phi_0 = |0>, phi_1 = |+>) over the parity-b basis strings j."""
    qmat.check_dim(1 << n)
    return ensemble(kets(n, 0, _parity_class(n, b)), 1.0 / (1 << (n - 1)))


def sigma_bound_report(n: int) -> SecurityReport:
    """D(sigma_0, sigma_1) against its closed form (sqrt(2)/2)^n."""
    d = qmat.trace_distance(sigma_b(n, 0), sigma_b(n, 1))
    return SecurityReport("sigma_distance", None, n, None, "uniform_k", None,
                          d, (np.sqrt(2) / 2) ** n, mode="eq", tol=1e-10)


# ---------------------------------------------------------------------------
# Ciphertext mixtures.

def _protocol_cipher_average(n: int, i_values, j_values) -> np.ndarray:
    """Average of Y_j H_k |i> over all k and the given i and j sets, one
    batch of |i|*|j| kets per k."""
    qmat.check_dim(1 << n)
    i = np.asarray(i_values)[:, None]
    weight = 1.0 / (len(i_values) * len(j_values) * (1 << n))
    return sum(ensemble(kets(n, i, k, j_values), weight) for k in range(1 << n))


def cipher_mixture_A(n: int, b: int, cross_check: bool | None = None) -> np.ndarray:
    """Ciphertext ensemble of the parity scheme for message bit b:
    (1/2^(2n-1)) sum over parity-b value strings v and all basis strings w of
    the product of signal states psi_{v_a w_a} = H^{w_a} |v_a>.

    With cross_check (default for n <= 5) the same operator is rebuilt by
    averaging protocol-simulated states over (k, i, j) and both routes must
    agree entrywise to 1e-10.
    """
    qmat.check_dim(1 << n)
    values = _parity_class(n, b)
    weight = 1.0 / (1 << (2 * n - 1))
    rho = sum(ensemble(kets(n, values, w), weight) for w in range(1 << n))
    if cross_check is None:
        cross_check = n <= 5
    if cross_check:
        sim = _protocol_cipher_average(n, _parity_class(n, 0), _parity_class(n, b))
        dev = float(np.max(np.abs(rho - sim)))
        if dev > 1e-10:
            raise AssertionError(f"formula and protocol mixtures disagree by {dev}")
    return rho


def cipher_mixture_A_sampled(n: int, b: int, num_samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Finite-sample route: draw explicit ANF keys instead of averaging over
    a uniform k. Converges to cipher_mixture_A as samples grow."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    m = 2 * n
    kij = []
    for _ in range(num_samples):
        f = generate_random(m, n, rng)
        k = f.evaluate(bits.rand_bits(rng, m))
        i = bits.rand_parity_bits(rng, n, 0)
        j = bits.rand_parity_bits(rng, n, b)
        kij.append((k, i, j))
    k, i, j = np.array(kij).T
    return ensemble(kets(n, i, k, j), 1.0 / num_samples)


def cipher_mixture_uniform(scheme: SchemeId, n: int, message: int) -> np.ndarray:
    """Ciphertext ensemble for the schemes whose encoded value i is uniform
    over all n-bit strings (b, m1, m2). Built by protocol enumeration; the
    closed form is the maximally mixed state."""
    scheme = SchemeId(scheme)
    all_i = range(1 << n)
    if scheme == SchemeId.B:
        if message not in (0, 1):
            raise ValueError("scheme b carries one-bit messages")
        return _protocol_cipher_average(n, all_i, _parity_class(n, message))
    if scheme in (SchemeId.M1, SchemeId.M2):
        if not 0 <= message < (1 << n):
            raise ValueError("message out of range")
        return _protocol_cipher_average(n, all_i, [message])
    raise ValueError(f"no uniform cipher mixture for scheme {scheme}")


# ---------------------------------------------------------------------------
# Public-key mixtures.

def pubkey_mixture_fixed_k(n: int, k: int) -> np.ndarray:
    """Average public-key state H_k |i><i| H_k over uniform i, k fixed."""
    qmat.check_dim(1 << n)
    return ensemble(kets(n, np.arange(1 << n), k), 1.0 / (1 << n))


def pubkey_mixture_A(n: int) -> SecurityReport:
    """How far the parity-restricted public-key ensemble sits from maximally
    mixed: D(avg over k of H_k (even-parity mixture) H_k, I/2^n). There is no
    closed-form target; the row is informational."""
    rho = _protocol_cipher_average(n, _parity_class(n, 0), [0])
    d = qmat.trace_distance(rho, identity_mixture(n))
    return SecurityReport("pubkey_leakage", "a", n, None, "uniform_k", None, d, None)


def pubkey_mixture_B(n: int) -> SecurityReport:
    """Same computation with both parity sectors weighted equally (the
    balanced F2 makes the encoded value uniform); the ensemble collapses to
    I/2^n exactly."""
    rho = _protocol_cipher_average(n, range(1 << n), [0])
    d = qmat.trace_distance(rho, identity_mixture(n))
    return SecurityReport("pubkey_leakage", "b", n, None, "uniform_k", None,
                          d, 0.0, tol=1e-10)


# ---------------------------------------------------------------------------
# The two channels connecting sigma_b to the ciphertext mixture.

def channel_e1(rho: np.ndarray) -> np.ndarray:
    """Conjugation by the n-fold pi/4 rotation U = (sqrt(2)/2) [[1,-1],[1,1]]."""
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0].bit_length() - 1
    u = qmat.kron_all([_U_PI4] * n)
    return u @ rho @ u.conj().T


def channel_e2(rho: np.ndarray) -> np.ndarray:
    """Uniform Hadamard-mask twirl: (1/2^n) sum_k H_k rho H_k."""
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0].bit_length() - 1
    acc = np.zeros_like(rho)
    for k in range(1 << n):
        hk = hk_matrix(n, k)
        acc += hk @ rho @ hk
    return acc / (1 << n)


def channel_identity_report(n: int) -> SecurityReport:
    """Entrywise deviation of E2(E1(sigma_b)) from the ciphertext mixture,
    maximized over both message bits."""
    dev = 0.0
    for b in (0, 1):
        lhs = channel_e2(channel_e1(sigma_b(n, b)))
        rhs = cipher_mixture_A(n, b, cross_check=False)
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return SecurityReport("channel_identity_dev", "a", n, None, "uniform_k", None,
                          dev, 0.0, tol=1e-10)


def cipher_distance_report(scheme: SchemeId, n: int) -> SecurityReport:
    """Trace distance between the two message ensembles of a one-bit scheme,
    or between a fixed-message ensemble and I/2^n for the n-bit schemes."""
    scheme = SchemeId(scheme)
    if scheme == SchemeId.A:
        d = qmat.trace_distance(cipher_mixture_A(n, 0, cross_check=False),
                                cipher_mixture_A(n, 1, cross_check=False))
        return SecurityReport("cipher_distance", "a", n, None, "uniform_k", None,
                              d, (np.sqrt(2) / 2) ** n, tol=1e-9)
    if scheme == SchemeId.B:
        d = qmat.trace_distance(cipher_mixture_uniform(scheme, n, 0),
                                cipher_mixture_uniform(scheme, n, 1))
    elif scheme in (SchemeId.M1, SchemeId.M2):
        # Two fixed plaintexts; both ensembles are maximally mixed.
        d = qmat.trace_distance(cipher_mixture_uniform(scheme, n, 0),
                                cipher_mixture_uniform(scheme, n, (1 << n) - 1))
    else:
        raise ValueError(f"no cipher distance defined for scheme {scheme}")
    return SecurityReport("cipher_distance", scheme.value, n, None, "uniform_k",
                          None, d, 0.0, tol=1e-10)


# ---------------------------------------------------------------------------
# Multi-copy joint states (scheme b with public-key reuse).

@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of a multi-copy joint-state computation: one ciphertext
    plus `copies` extra public-key copies, with s either fresh per copy or
    shared across all of them."""

    scheme: SchemeId
    n: int
    copies: int
    key_model: str = "uniform_k"
    reuse: str = "fresh_s"
    anf_samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.scheme != SchemeId.B:
            raise ValueError("multi-copy analysis is defined for scheme b")
        if self.reuse not in ("fresh_s", "shared_s"):
            raise ValueError(f"unknown reuse mode {self.reuse!r}")
        if self.key_model not in ("uniform_k", "sampled_anf"):
            raise ValueError(f"unknown key model {self.key_model!r}")
        if self.copies < 0:
            raise ValueError("copies must be >= 0")
        if self.n * (self.copies + 1) > 10:
            raise ValueError("n*(copies+1) must stay <= 10 to keep matrices small")


def _b_cipher_state(n: int, k: int, p: int, b: int) -> np.ndarray:
    """Scheme-b ciphertext mixture for fixed key material (k, p = F2(s))."""
    i = np.asarray(_parity_class(n, p))[:, None]
    return ensemble(kets(n, i, k, _parity_class(n, b)), 1.0 / (1 << (2 * n - 2)))


def _b_pubkey_state(n: int, k: int, p: int) -> np.ndarray:
    return ensemble(kets(n, _parity_class(n, p), k), 1.0 / (1 << (n - 1)))


def _joint_state(n: int, t: int, b: int, pairs_and_weights) -> np.ndarray:
    dim = 1 << (n * (t + 1))
    qmat.check_dim(dim)
    acc = np.zeros((dim, dim), dtype=complex)
    for (k, p), w in pairs_and_weights:
        block = _b_cipher_state(n, k, p, b)
        tau = _b_pubkey_state(n, k, p)
        for _ in range(t):
            block = np.kron(block, tau)
        acc += w * block
    return acc


def multicopy_distance(spec: MixtureSpec,
                       rng: np.random.Generator | None = None) -> SecurityReport:
    """Trace distance between the b=0 and b=1 joint states of one ciphertext
    plus spec.copies public-key copies.

    fresh_s: every copy carries an independent s, so averaging over the key
    family factorizes each slot to I/2^n and the distance vanishes.
    shared_s: all copies reuse one s, so one (k, p) pair is shared; the
    joint states stay correlated and the distance is strictly positive
    (recorded as informational, no closed-form target).
    """
    n, t = spec.n, spec.copies
    if spec.key_model == "sampled_anf":
        if rng is None or spec.anf_samples < 1:
            raise ValueError("sampled_anf needs an rng and a positive sample count")
        pairs = []
        m = 2 * n
        w = 1.0 / spec.anf_samples
        for _ in range(spec.anf_samples):
            f1 = generate_random(m, n, rng)
            f2 = generate_balanced_f2(m, rng)
            s = bits.rand_bits(rng, m)
            pairs.append(((f1.evaluate(s), f2.evaluate(s)), w))
    else:
        w = 1.0 / (1 << (n + 1))
        pairs = [((k, p), w) for k in range(1 << n) for p in (0, 1)]

    if spec.reuse == "shared_s":
        rho0 = _joint_state(n, t, 0, pairs)
        rho1 = _joint_state(n, t, 1, pairs)
    else:
        # Independent s per slot: average each tensor factor separately.
        def avg(builder):
            acc = np.zeros((1 << n, 1 << n), dtype=complex)
            for (k, p), weight in pairs:
                acc += weight * builder(k, p)
            return acc

        tau = avg(lambda k, p: _b_pubkey_state(n, k, p))
        rho0 = avg(lambda k, p: _b_cipher_state(n, k, p, 0))
        rho1 = avg(lambda k, p: _b_cipher_state(n, k, p, 1))
        for _ in range(t):
            rho0 = qmat.kron(rho0, tau)
            rho1 = qmat.kron(rho1, tau)

    d = qmat.trace_distance(rho0, rho1)
    bound = 0.0 if spec.reuse == "fresh_s" and spec.key_model == "uniform_k" else None
    return SecurityReport("multicopy_distance", "b", n, t, spec.key_model,
                          spec.reuse, d, bound, seed=spec.seed, tol=1e-10)


# ---------------------------------------------------------------------------
# Superposition-key scheme: t-copy indistinguishability bounds.

def pan10_rho_k(n: int, k: int, b: int = 0) -> np.ndarray:
    """Average over i of the published two-term states for fixed odd k:
    (1/2^n) sum_i sum_x (+-1)^{bx} |i><i xor xk|."""
    if not 0 < k < (1 << n):
        raise ValueError("k must be a nonzero n-bit string")
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    sign = -1.0 if b else 1.0
    for i in range(dim):
        mat[i, i] += 1.0
        mat[i, i ^ k] += sign
    return mat / dim


def _odd_keys(n: int):
    return [k for k in range(1 << n) if bits.parity(k) == 1]


def pan10_mixture_distance(n: int, t: int) -> list[SecurityReport]:
    """Both t-copy security quantities of the superposition-key scheme, as
    trace distances (half the trace norm, the distinguishing advantage).

    per-term:  D( avg over odd k of (rho_k^0)^(x)t , (I/2^n)^(x)t ),
               bounded by sqrt(1/2^(n-t+1));
    combined:  (1/2) || avg over odd k of (rho_k^0 - rho_k^1) (x) (rho_k^0)^(x)(t-1) ||_tr,
               bounded by sqrt(1/2^(n-t-1)).

    The bounds follow from a Cauchy-Schwarz estimate on the XOR-shift
    operators: the exact per-term distance is at most
    (1/2) sqrt((2^t - 1)/2^(n-1)), which is strictly below the stated bound;
    the combined bound is twice the per-term one by the triangle inequality.
    (For the unnormalized trace norm the per-term bound would fail, e.g. at
    n=3, t=2 where the norm is exactly 42/64.)

    t = 0 is the empty product; both computed values are 0 by convention.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if n * max(t, 1) > 10:
        raise ValueError("n*t must stay <= 10 to keep matrices small")
    per_bound = float(np.sqrt(1.0 / (1 << (n - t + 1)))) if n - t + 1 >= 0 \
        else float(np.sqrt(float(2 ** (t - 1 - n))))
    comb_bound = float(np.sqrt(float(2.0 ** (t + 1 - n))))
    if t == 0:
        per, comb = 0.0, 0.0
    else:
        odd = _odd_keys(n)
        dim = 1 << (n * t)
        qmat.check_dim(dim)
        acc_per = np.zeros((dim, dim), dtype=complex)
        acc_comb = np.zeros((dim, dim), dtype=complex)
        for k in odd:
            r0 = pan10_rho_k(n, k, 0)
            tail = np.array([[1.0 + 0j]])
            for _ in range(t - 1):
                tail = np.kron(tail, r0)
            acc_per += np.kron(r0, tail)
            acc_comb += np.kron(r0 - pan10_rho_k(n, k, 1), tail)
        acc_per /= len(odd)
        acc_comb /= len(odd)
        eye = np.eye(dim, dtype=complex) / dim
        per = 0.5 * qmat.trace_norm(acc_per - eye)
        comb = 0.5 * qmat.trace_norm(acc_comb)
    return [
        SecurityReport("pan10_per_term", "pan10", n, t, "uniform_k", "shared_s",
                       per, per_bound),
        SecurityReport("pan10_combined", "pan10", n, t, "uniform_k", "shared_s",
                       comb, comb_bound),
    ]


# ---------------------------------------------------------------------------
# Optimal two-hypothesis measurement.

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
