"""Exact density-operator analysis of the encryption schemes.

Ciphertext and public-key ensembles are averaged over all key draws (the
random-oracle model replaces F(s) by a uniform k), in closed form rather
than state by state, so the resulting operators are exact up to floating
point. Trace-distance bounds are then checked against the closed forms
(sqrt(2)/2)^n, sqrt(1/2^(n-t+1)) and sqrt(1/2^(n-t-1)). Two families build
no joint operator, and the tests keep a dense build of each as its
cross-check. The superposition-key (pan10) distances are counted exactly.
The uniform-k shared-label multicopy rows split the 2^(n(t+1))-dimensional
difference, qubit column by column, into X_0 blocks of dimension 2^(n*t),
one per number w of columns in the X_0 = -1 sector, weighted C(n, w);
every block has the same trace norm, so one real block gives the distance
(`_shared_s_distance`).

Every mixture is a uniform average, over the strings v of one parity p or
over all strings, of products of 2x2 operators A_a(v_a) built from the
signal states S_wv = H^w |v><v| H^w (read off `qsym.GATE_ACTIONS`). It
factors qubit by qubit: the sum over parity-p v of (x)_a A_a(v_a) is
(1/2) [(x)_a (A_a0 + A_a1) + (-1)^p (x)_a (A_a0 - A_a1)]. `_sector_mixture`
builds sigma_b, every ciphertext and public-key mixture and scheme b's
fixed-k public key this way. As Y_j H_k |i> is H_k |i xor j> up to a phase,
averaging over all k puts (S_0v + S_1v)/2 on each qubit, v = i xor j.

The channels E1 and E2 are the second, independent route: dense maps
applied one qubit at a time, so the channel identity E2(E1(sigma_b)) =
rho_b compares the two. The tests hold the sector sums to the per-state
qsym pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import bits, qmat, schemes
from .qsym import Z0, Z1, QubitSymbol
from .schemes import SchemeId, message_width

__all__ = [
    "SecurityReport",
    "CSV_HEADER",
    "csv_cell",
    "reports_to_csv",
    "report_ok",
    "sigma_b",
    "sigma_bound_report",
    "cipher_mixture",
    "pubkey_mixture_A",
    "pubkey_mixture_B",
    "channel_e1",
    "channel_e2",
    "channel_identity_report",
    "cipher_distance_report",
    "multicopy_distance",
    "pan10_mixture_distance",
]

def csv_cell(value) -> str:
    """One CSV cell: None is empty, a bool lower case, a float to 12
    significant digits, anything else its str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value).lower() if isinstance(value, bool) else str(value)


@dataclass(frozen=True)
class SecurityReport:
    """One computed security quantity next to its analytic bound.

    mode "le" means computed must not exceed bound + tol, "eq" means the two
    must agree within tol; a missing bound marks an informational row.
    FIELDS are the columns of its CSV row and the keys of its JSON row.
    """

    FIELDS = ("quantity", "scheme", "n", "t", "key_model", "reuse",
              "computed", "bound", "margin", "seed")

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
        return ",".join(csv_cell(getattr(self, name)) for name in self.FIELDS)


CSV_HEADER = ",".join(SecurityReport.FIELDS)


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

def _gate(*gates: str) -> np.ndarray:
    """2x2 matrix of the gates applied in turn, read off the gate table
    column by column."""
    return np.array([reduce(QubitSymbol.apply, gates, QubitSymbol(z)).to_vector()
                     for z in (Z0, Z1)]).T


# Signal-state projectors S[w][v] = H^w |v><v| H^w, and the per-qubit
# average over the Hadamard mask, (S[0][v] + S[1][v]) / 2, as a pair over v.
_SIGNAL = [[np.outer(ket, ket.conj()) for ket in _gate("H" if w else "I").T]
           for w in (0, 1)]
_TWIRLED = tuple((_SIGNAL[0][v] + _SIGNAL[1][v]) / 2 for v in (0, 1))
# Kraus operators of the channels: E1 conjugates by U = HZ, E2 by I and H.
_E1_OPS, _E2_OPS = [_gate("Z", "H")], [_gate("I"), _gate("H")]


def _sector_mixture(pairs, parity=None) -> np.ndarray:
    """Uniform average of (x)_a pairs[a][v_a] over the n-bit strings v of
    the given parity (over all of them when parity is None), qubit 0 the
    most significant factor: (P + (-1)^parity M) / 2^n with
    P = (x)_a (A_a0 + A_a1) and M = (x)_a (A_a0 - A_a1), or P / 2^n."""
    n = len(pairs)
    if n < 1:
        raise ValueError("n must be >= 1")
    qmat.check_dim(1 << n)
    total = reduce(np.kron, [a0 + a1 for a0, a1 in pairs])
    if parity is not None:
        diff = reduce(np.kron, [a0 - a1 for a0, a1 in pairs])
        total = total + diff if parity == 0 else total - diff
    return total / (1 << n)


def identity_mixture(n: int) -> np.ndarray:
    qmat.check_dim(1 << n)
    return np.eye(1 << n, dtype=complex) / (1 << n)


def sigma_b(n: int, b: int) -> np.ndarray:
    """Uniform mixture of basis-only products |phi_{j_1}> ... |phi_{j_n}>
    (phi_0 = |0>, phi_1 = |+>) over the parity-b basis strings j."""
    return _sector_mixture([(_SIGNAL[0][0], _SIGNAL[1][0])] * n, b)


def sigma_bound_report(n: int) -> SecurityReport:
    """D(sigma_0, sigma_1) against its closed form (sqrt(2)/2)^n."""
    d = qmat.trace_distance(sigma_b(n, 0), sigma_b(n, 1))
    return SecurityReport("sigma_distance", None, n, None, "uniform_k", None,
                          d, (np.sqrt(2) / 2) ** n, mode="eq", tol=1e-10)


# ---------------------------------------------------------------------------
# Ciphertext mixtures.

def cipher_mixture(scheme: SchemeId, n: int, message: int) -> np.ndarray:
    """Ciphertext ensemble of a scheme with a distinguishing game: Y_j H_k |i>
    averaged over every k, the i the scheme encodes and the j that carries
    the message. Scheme a puts the parity-message strings v = i xor j under
    (S_0v + S_1v)/2 on every qubit; for b, m1 and m2, i is uniform over all
    n-bit strings, so i xor j is too whatever the message, and the ensemble
    is the maximally mixed state."""
    scheme = SchemeId(scheme)
    if scheme not in (SchemeId.A, SchemeId.B, SchemeId.M1, SchemeId.M2):
        raise ValueError(f"no cipher mixture for scheme {scheme.value}")
    if not 0 <= message < (1 << message_width(scheme, n)):
        raise ValueError(f"message {message} out of range for scheme {scheme.value}")
    return _sector_mixture([_TWIRLED] * n, message if scheme == SchemeId.A else None)


# ---------------------------------------------------------------------------
# Public-key mixtures.

def pubkey_mixture_A(n: int) -> SecurityReport:
    """How far the parity-restricted public-key ensemble sits from maximally
    mixed: D(avg over k of H_k (even-parity mixture) H_k, I/2^n). There is no
    closed-form target; the row is informational."""
    rho = _sector_mixture([_TWIRLED] * n, 0)
    d = qmat.trace_distance(rho, identity_mixture(n))
    return SecurityReport("pubkey_leakage", "a", n, None, "uniform_k", None, d, None)


def pubkey_mixture_B(n: int) -> SecurityReport:
    """Same computation with both parity sectors weighted equally (the
    balanced F2 makes the encoded value uniform); the ensemble collapses to
    I/2^n exactly."""
    rho = _sector_mixture([_TWIRLED] * n)
    d = qmat.trace_distance(rho, identity_mixture(n))
    return SecurityReport("pubkey_leakage", "b", n, None, "uniform_k", None,
                          d, 0.0, tol=1e-10)


# ---------------------------------------------------------------------------
# The two channels connecting sigma_b to the ciphertext mixture. Both act on
# each qubit alike, so they are applied one qubit at a time.

def _qubitwise(rho: np.ndarray, ops, weight: float = 1.0) -> np.ndarray:
    """rho after the single-qubit channel sum_K weight K (.) K^dag over the
    2x2 ops, applied to every qubit in turn (a reshape per qubit)."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    for a in range(dim.bit_length() - 1):
        view = rho.reshape(2 * (1 << a, 2, dim >> (a + 1)))
        rho = weight * sum(np.einsum("xy,aybczd,wz->axbcwd", op, view, op.conj())
                           for op in ops).reshape(dim, dim)
    return rho


def channel_e1(rho: np.ndarray) -> np.ndarray:
    """Conjugation by the n-fold pi/4 rotation U = HZ = (sqrt(2)/2) [[1,-1],[1,1]]."""
    return _qubitwise(rho, _E1_OPS)


def channel_e2(rho: np.ndarray) -> np.ndarray:
    """Uniform Hadamard-mask twirl (1/2^n) sum_k H_k rho H_k, which is
    rho -> (rho + H rho H)/2 on every qubit."""
    return _qubitwise(rho, _E2_OPS, 0.5)


def channel_identity_report(n: int) -> SecurityReport:
    """Entrywise deviation of E2(E1(sigma_b)) from the ciphertext mixture,
    maximized over both message bits."""
    dev = 0.0
    for b in (0, 1):
        lhs = channel_e2(channel_e1(sigma_b(n, b)))
        rhs = cipher_mixture(SchemeId.A, n, b)
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return SecurityReport("channel_identity_dev", "a", n, None, "uniform_k", None,
                          dev, 0.0, tol=1e-10)


def cipher_distance_report(scheme: SchemeId, n: int) -> SecurityReport:
    """Trace distance between the ciphertext ensembles of the messages 0 and
    2^width - 1: both messages of a one-bit scheme, two fixed plaintexts of
    m1/m2. Scheme a is bounded by (sqrt(2)/2)^n; the others are all
    maximally mixed."""
    scheme = SchemeId(scheme)
    last = (1 << message_width(scheme, n)) - 1
    d = qmat.trace_distance(cipher_mixture(scheme, n, 0), cipher_mixture(scheme, n, last))
    a = scheme == SchemeId.A
    return SecurityReport("cipher_distance", scheme.value, n, None, "uniform_k", None, d,
                          (np.sqrt(2) / 2) ** n if a else 0.0, tol=1e-9 if a else 1e-10)


# ---------------------------------------------------------------------------
# Multi-copy joint states (scheme b with public-key reuse).

def _b_pubkey_state(n: int, k: int, p: int | None) -> np.ndarray:
    """H_k (uniform mixture of parity-p strings, of all strings when p is
    None) H_k: the scheme-b public key for key material (k, p = F2(s)).
    Masking its i with a parity-b j leaves i xor j uniform on parity p xor b,
    so the ciphertext of bit b is this state at parity p ^ b."""
    return _sector_mixture([_SIGNAL[bits.bit_at(k, a, n)] for a in range(n)], p)


def _joint_state(n: int, t: int, b: int, pairs_and_weights) -> np.ndarray:
    """Ciphertext of bit b followed by t public-key copies with its label s,
    averaged over the weighted (k, p) pairs that the slots share."""
    qmat.check_dim(1 << (n * (t + 1)))
    return sum(w * reduce(np.kron, [_b_pubkey_state(n, k, p ^ b)]
                          + [_b_pubkey_state(n, k, p)] * t)
               for (k, p), w in pairs_and_weights)


def _shared_s_distance(n: int, t: int) -> float:
    """D(rho_0, rho_1) for a scheme-b ciphertext and t >= 1 public keys with
    its label s, averaged over a uniform (k, p), from one real block.

    Column c holds qubit c of every slot, slot 0 the ciphertext. Averaged
    over (k, p), rho_0 - rho_1 = 2^(1-n(t+1)) sum_S C_S^(x)n over the
    even-size S that hold slot 0, with C_S = (Z^S + X^S)/2 on one column.
    Conjugating each column by the CNOT fan from slot 0 maps C_S,
    S = {0} u T with |T| odd, to (Z^T + X_0 X^([t]-T))/2, so X_0 commutes
    with every term and the operator splits by the X_0 sign lam_c of each
    column. Permuting the columns maps blocks with the same number w of
    lam_c = -1 onto each other, so D = 2^(-n(t+1)) sum_w C(n, w) ||B_w||_1
    for the real symmetric B_w = sum_T (x)_c (Z^T + lam_c X^([t]-T))/2 on
    slots 1..t. X (t odd) or Z (t even) on every slot of one column flips
    its lam_c and at most the sign of the block, so every B_w has the norm
    of B_0 and D = 2^(-nt) ||B_0||_1. Expanding each column's sum, with A
    the columns that take X, and regrouping the qubits by slot turns the
    sum over odd T into a parity sector of n-qubit slot operators:
    2^(n+1) B_0 = sum_A [(X^A + Z^(not A))^(x)t - (X^A - Z^(not A))^(x)t].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    qmat.check_dim(1 << (n * t))
    z, x, i = (_gate(g).real for g in ("Z", "X", "I"))
    block = 0.0
    for a in range(1 << n):
        za = reduce(np.kron, [i if a >> c & 1 else z for c in range(n)])
        xa = reduce(np.kron, [x if a >> c & 1 else i for c in range(n)])
        block = block + reduce(np.kron, [xa + za] * t) - reduce(np.kron, [xa - za] * t)
    return qmat.trace_norm(block) / (1 << (n * (t + 1) + 1))


def multicopy_distance(n: int, copies: int, *, reuse: str = "fresh_s",
                       key_model: str = "uniform_k", samples: int = 0,
                       rng: np.random.Generator | None = None,
                       seed: int | None = None) -> SecurityReport:
    """Trace distance between the b=0 and b=1 joint states of one scheme-b
    ciphertext plus `copies` public-key copies.

    shared_s: every copy is a public key with the ciphertext's label s, so
    the slots share one (k, p) pair and each draws its own i (they are not
    copies of one key, which would share i too). The joint states stay
    correlated; the row is informational, with no closed-form target. Under
    uniform_k the average over (k, p) is a sum of tensor powers over the
    n qubit columns, and `_shared_s_distance` takes it apart into n + 1
    X_0 blocks of dimension 2^(n*copies), weighted C(n, w), that share one
    trace norm; the tests keep the dense sum over all 2^(n+1) pairs as the
    cross-check.
    fresh_s: every copy has its own s, so rho_b = c_b (x) tau^(x)copies for
    the averaged ciphertext c_b and public key tau. As ||X (x) tau||_1 =
    ||X||_1 for a density operator tau, the distance is D(c_0, c_1): the
    shared_s route at no copies. Under uniform_k, c_0 = c_1 = I/2^n and it
    is 0. sampled_anf replaces the uniform (k, p) by F1(s), F2(s) of
    `samples` scheme-b keys drawn by schemes.keygen from rng, each at its
    own uniform s, and sums the dense joint states; seed is recorded in the
    report.
    """
    if reuse not in ("fresh_s", "shared_s"):
        raise ValueError(f"unknown reuse mode {reuse!r}")
    if key_model not in ("uniform_k", "sampled_anf"):
        raise ValueError(f"unknown key model {key_model!r}")
    if copies < 0:
        raise ValueError("copies must be >= 0")
    joint = copies if reuse == "shared_s" else 0
    if n * (joint + 1) > 10:
        raise ValueError("n*(copies+1) must stay <= 10 under shared_s, and n <= 10 "
                         "under fresh_s, to keep matrices small")
    if key_model == "sampled_anf":
        if rng is None or samples < 1:
            raise ValueError("sampled_anf needs an rng and a positive sample count")
        pairs = []
        w = 1.0 / samples
        for _ in range(samples):
            sk, _ = schemes.keygen(SchemeId.B, n, rng, count=0)
            s = bits.rand_bits(rng, sk.m)
            pairs.append(((schemes._basis_key(sk, s), schemes._offset(sk, s)), w))
        d = qmat.trace_distance(*(_joint_state(n, joint, b, pairs) for b in (0, 1)))
    elif joint == 0:
        # With no copy to share k, the average over k factors qubit by qubit.
        d = qmat.trace_distance(*(cipher_mixture(SchemeId.B, n, b) for b in (0, 1)))
    else:
        d = _shared_s_distance(n, joint)

    bound = 0.0 if reuse == "fresh_s" and key_model == "uniform_k" else None
    return SecurityReport("multicopy_distance", "b", n, copies, key_model,
                          reuse, d, bound, seed=seed, tol=1e-10)


# ---------------------------------------------------------------------------
# Superposition-key scheme: t-copy indistinguishability bounds.

def _spanning_tuples(t: int, r: int) -> int:
    """Number of t-tuples over F_2 that span a given r-dimensional space:
    prod_{i<r} (2^t - 2^i), which is 0 when r > t."""
    count = 1
    for i in range(r):
        count *= (1 << t) - (1 << i)
    return count


def _subspaces(n: int, r: int) -> int:
    """Gaussian binomial [n r]_2, the number of r-dimensional subspaces of
    F_2^n; 0 when r < 0 or r > n."""
    if r < 0:
        return 0
    return _spanning_tuples(n, r) // _spanning_tuples(r, r)


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

    Both values are exact, by counting subspaces. In the Hadamard basis
    rho_k^0 = diag 2^(1-n) [y.k = 0] and rho_k^0 - rho_k^1 = diag
    2^(1-n) (-1)^(y.k), so both t-copy operators are diagonal in the tuples
    (y_1..y_t). Averaged over odd k, the per-term entry is 2^(t(1-n)-r) when
    the all-ones vector 1 lies outside V = span(y_1..y_t) of rank r, and 0
    when it lies inside. The combined entry has magnitude 2^(t(1-n)-r') when
    1 lies outside V' = span(y_2..y_t) of rank r' and y_1 lies in V' + <1>,
    and is 0 otherwise. N(t, r) = prod_{i<r} (2^t - 2^i) tuples span each
    r-dimensional space; there are [n r]_2 such spaces (a Gaussian
    binomial), and [n-1 r-1]_2 of them contain 1. Hence

      D_per  = (1/2) sum_r N(t,r) ( ([n r]_2 - [n-1 r-1]_2) |2^(t(1-n)-r) - 2^(-nt)|
                                    + [n-1 r-1]_2 2^(-nt) ),
      D_comb = 2^(t(1-n)) sum_{r'<t} N(t-1,r') ([n r']_2 - [n-1 r'-1]_2).

    Each sum runs in Python integers over one common denominator, and one
    int/int division rounds it correctly, so any n and t are allowed.
    The tests build both operators densely and hold this route to them
    (n*t <= 10).

    t = 0 is the empty product; both computed values are 0 by convention.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    per_bound = float(np.sqrt(2.0 ** -(n - t + 1)))
    comb_bound = float(np.sqrt(2.0 ** (t + 1 - n)))
    if t == 0:
        per, comb = 0.0, 0.0
    else:
        # outside[r]: the r-dimensional subspaces that miss the all-ones vector.
        # Both sums are scaled by 2^(nt): per over 2^(nt+1), comb over 2^(nt-t).
        outside = [_subspaces(n, r) - _subspaces(n - 1, r - 1) for r in range(min(n, t) + 1)]
        per_num = sum(_spanning_tuples(t, r)
                      * (free * ((1 << (t - r)) - 1) + _subspaces(n - 1, r - 1))
                      for r, free in enumerate(outside))
        comb_num = sum(_spanning_tuples(t - 1, r) * free for r, free in enumerate(outside))
        per = per_num / (1 << (n * t + 1))
        comb = comb_num / (1 << (n * t - t))
    return [
        SecurityReport("pan10_per_term", "pan10", n, t, "uniform_k", "shared_s",
                       per, per_bound),
        SecurityReport("pan10_combined", "pan10", n, t, "uniform_k", "shared_s",
                       comb, comb_bound),
    ]
