"""Concrete attacks and baselines run against the schemes.

The superposition-key attack is simulated exactly: a Hadamard-basis outcome
of a two-term state is uniform over a hyperplane (or over all strings), so
it is sampled in closed form at any n, never approximated. Statistical
baselines (output-collision rate, optimal distinguishing) report empirical
rates next to their analytic values.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from . import bits
from .analysis import csv_cell
from .boolfn import RandomOracle, gf2_insert, gf2_nullspace
from .qsym import TwoTermState
from .schemes import SCHEMES, SchemeId, copy_public_key, keygen, message_width

__all__ = [
    "AttackOutcome",
    "DistinguisherOutcome",
    "GAME_SCHEMES",
    "pan10_shared_key_stream",
    "pan10_measure_equation",
    "pan10_key_recovery",
    "owt_inversion_baseline",
    "ciphertext_distinguisher",
]


class _Outcome:
    """One emitter for the outcome records: JSON is `dataclasses.asdict`,
    and the CSV header and row both come from CSV_FIELDS."""

    CSV_FIELDS: tuple[str, ...] = ()

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)

    def to_json(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> str:
        return ",".join(csv_cell(getattr(self, name)) for name in self.CSV_FIELDS)


@dataclass
class AttackOutcome(_Outcome):
    """Result of one key-recovery run.

    success requires a recovered key that is nonzero and orthogonal to every
    measured equation; both are checked at construction time.
    """

    CSV_FIELDS = ("target", "n", "copies_used", "success", "seed")

    target: str
    n: int
    success: bool
    copies_used: int
    recovered: int | None
    equations: list[int] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self):
        if self.success:
            if self.recovered is None or self.recovered == 0:
                raise ValueError("a successful attack must recover a nonzero key")
            for y in self.equations:
                if bits.dot(y, self.recovered):
                    raise ValueError("recovered key contradicts a measured equation")

    def to_json(self) -> dict:
        recovered = None if self.recovered is None else bits.to_str(self.recovered, self.n)
        return {**asdict(self), "recovered": recovered,
                "equations": [bits.to_str(y, self.n) for y in self.equations]}


@dataclass(frozen=True)
class DistinguisherOutcome(_Outcome):
    """Result of an indistinguishability game: empirical success rate of the
    optimal measurement against its analytic ceiling 1/2 + D/2."""

    CSV_FIELDS = ("target", "n", "samples", "success", "seed")

    target: str
    scheme: str
    n: int
    samples: int
    empirical: float
    analytic: float
    sigma: float
    success: bool
    seed: int | None = None


def pan10_shared_key_stream(n: int, rng: np.random.Generator, m: int | None = None):
    """Endless copies of one published superposition key (same s, k, i),
    which is exactly what a many-copy public-key registry hands out."""
    _, pks = keygen(SchemeId.PAN10, n, rng, m=m, count=1)
    pk = pks[0]
    while True:
        yield copy_public_key(pk)


def pan10_measure_equation(state: TwoTermState, rng: np.random.Generator) -> int:
    """Apply H on every qubit of a two-term state and measure.

    H^(x)n sends (|i> + i^p |i xor k>)/sqrt(2) to amplitudes proportional to
    (-1)^(i.y) (1 + i^p (-1)^(y.k)), so the outcome is uniform over the
    hyperplane y.k = p/2 for even p (for a published key, p = 0: each
    outcome is one linear equation about k) and uniform over all n-bit
    strings for odd p. Sampled in closed form: r is uniform on the free
    bits, its top 53 bits taken from one rng.random() and any further low
    bits from bits.rand_bits; for even p the bit at c, the position of k's
    lowest set bit, is then inserted so that y lands on the hyperplane.
    That insertion is monotone in r, because no bit of k lies below c, so y
    is exactly the outcome that inverting the cumulative distribution of
    the dense amplitudes at the same rng.random() gives.
    """
    n, k = state.n, state.k
    even = state.rel_phase % 2 == 0
    width = n - 1 if even else n
    r = int(rng.random() * (1 << 53)) >> max(53 - width, 0)
    if width > 53:
        r = (r << (width - 53)) | bits.rand_bits(rng, width - 53)
    if not even:
        return r
    c = (k & -k).bit_length() - 1
    low = r & ((1 << c) - 1)
    y = ((r ^ low) << 1) | low
    return y | (bits.dot(y, k) ^ (state.rel_phase >> 1)) << c


def pan10_key_recovery(pk_stream, max_copies: int, rng: np.random.Generator,
                       seed: int | None = None) -> AttackOutcome:
    """Recover the basis key k of the superposition scheme from copies of one
    public key: measure each copy in the Hadamard basis, collect the linear
    equations y . k = 0, and stop once their GF(2) nullspace is a single
    line. That line must be k, because every outcome is orthogonal to k and
    k is nonzero by construction. Each equation is inserted into one
    reduced echelon basis, so the nullspace is a line at rank n - 1."""
    equations: list[int] = []
    pivots: dict[int, int] = {}
    true_k = None
    n = None
    copies = 0
    for pk in islice(pk_stream, max_copies):
        state = pk.quantum
        if not isinstance(state, TwoTermState):
            raise ValueError("key recovery expects superposition public keys")
        n = state.n
        true_k = state.k  # ground truth, used only for the verdict
        copies += 1
        equations.append(pan10_measure_equation(state, rng))
        gf2_insert(pivots, equations[-1], n)
        if len(pivots) == n:
            raise RuntimeError("equations became contradictory; impossible for honest keys")
        if len(pivots) == n - 1:
            recovered, = gf2_nullspace(pivots.values(), n)
            return AttackOutcome("pan10-key", n, recovered == true_k, copies,
                                 recovered, equations, seed)
    if n is None:
        raise ValueError("empty public-key stream")
    return AttackOutcome("pan10-key", n, False, copies, None, equations, seed)


_OWT_BLOCK = 1024  # trials per bulk draw: bounds the word arrays, and so the peak memory


def _collision_block(words: np.ndarray, n: int, want: int) -> tuple[int, int, int]:
    """(trials, collisions, words used) of the first `want` whole trials,
    or as many as fit, read off consecutive 32-bit words in draw order."""
    x = words >> np.uint64(32 - 2 * n)
    out = words >> np.uint64(32 - n)
    # nxt[s] is the first index after s whose input differs from x[s]: the
    # x_i of a trial whose x_j is word s. nxt[len(words)] is a sentinel.
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    nxt = np.append(change, len(words))[
        np.searchsorted(change, np.arange(len(words) + 1), side="right")].tolist()
    last = len(words) - 3  # o(x_j) of a trial with x_i at t is word t + 2
    x_i = []
    s = 0
    while len(x_i) < want and nxt[s] <= last:
        x_i.append(nxt[s])
        s = nxt[s] + 3
    at = np.array(x_i, dtype=np.intp)
    return len(x_i), int(np.count_nonzero(out[at + 1] == out[at + 2])), s


def _random_oracle_collisions(n: int, trials: int, rng: np.random.Generator) -> int:
    """Collisions of the scalar loop with a fresh RandomOracle per trial, at
    2n <= 32, with the same draws. Each scalar rng.integers(0, 2^k), k <= 32,
    uses one 32-bit word and returns its top k bits (Lemire's method, which
    never rejects a power-of-two bound). So a block draws words in bulk,
    reads its trials off them, restores the generator state and redraws
    exactly the words used: the generator ends where the scalar loop ends."""
    bitgen = rng.bit_generator
    hits = done = extra = 0
    while done < trials:
        want = min(_OWT_BLOCK, trials - done)
        state = bitgen.state
        words = rng.integers(0, 1 << 32, size=4 * want + extra, dtype=np.uint64)
        got, block_hits, used = _collision_block(words, n, want)
        bitgen.state = state
        rng.integers(0, 1 << 32, size=used, dtype=np.uint64)
        extra = 0 if got else 2 * extra + 4  # x_i repeats past the block's words
        done += got
        hits += block_hits
    return hits


def owt_inversion_baseline(n: int, trials: int, rng: np.random.Generator) -> float:
    """Output-collision rate of independent input pairs.

    For each trial a fresh uniformly random function {0,1}^(2n) -> {0,1}^n is
    queried on two distinct inputs; the collision probability is exactly
    2^-n, and the observed rate is required to sit within 3 binomial standard
    deviations of it.

    Each trial draws, in this order: the input x_j, the input x_i, a fresh
    x_i again while x_i == x_j, then the outputs f(x_i) and f(x_j). At
    n <= 16 the trials are drawn in bulk with exactly these draws, so the
    rate and the final generator state are those of drawing them one at a
    time; n = 17..20 draws one at a time.
    """
    if n < 1 or n > 20:
        raise ValueError("n must be between 1 and 20")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = 2 * n
    if m <= 32:
        hits = _random_oracle_collisions(n, trials, rng)
    else:
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
        raise AssertionError(f"collision rate {rate} deviates from {p} by more than 3 sigma")
    return rate


# Schemes with a two-message distinguishing game: a, b, and m2.
GAME_SCHEMES = (SchemeId.A, SchemeId.B, SchemeId.M2)


def ciphertext_distinguisher(scheme: SchemeId, n: int, samples: int,
                             rng: np.random.Generator,
                             seed: int | None = None) -> DistinguisherOutcome:
    """Play the two-message distinguishing game with the optimal measurement.

    The messages are 0 and 2^width - 1. Each sampled ciphertext is measured
    with the Helstrom projector P of the two ciphertext mixtures rho_0 and
    rho_1, and the empirical success rate must match the ceiling
    1/2 + D(rho_0, rho_1)/2 within three binomial standard deviations.

    Both are closed forms, so no operator is built and any n runs. For a,
    rho_0 - rho_1 = 2^(1-3n/2) H^(x)n, so P = (I + H^(x)n)/2 and
    D = (sqrt(2)/2)^n; for b and m2, rho_0 = rho_1 = I/2^n, so D = 0 and
    P = I (ties count toward message 0). The tests hold both to the dense
    mixtures and projector (tests/dense_oracles.py).

    Each sample draws the message index b, a protocol ciphertext Y_j H_k |i>
    in the uniform-k key model (k, i, j), then the measurement's
    rng.random(). Every ciphertext v of message b passes P with the same
    probability tr(P rho_b): 1/2 +- D/2 for a, as <v|H^(x)n|v> =
    (-1)^b 2^(-n/2) for every H_k |i xor j>, and 1 for b and m2. So v is
    never densified.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    scheme = SchemeId(scheme)
    if scheme not in GAME_SCHEMES:
        raise ValueError(f"distinguishing game not defined for scheme {scheme}")
    if n < 1:
        raise ValueError("n must be >= 1")
    messages = (0, (1 << message_width(scheme, n)) - 1)
    if scheme == SchemeId.A:
        d = math.sqrt(0.5) ** n
        accept, analytic = (0.5 + 0.5 * d, 0.5 - 0.5 * d), 0.5 + 0.5 * d
    else:
        accept, analytic = (1.0, 1.0), 0.5
    wide = SCHEMES[scheme].wide
    wins = 0
    for _ in range(samples):
        b = bits.rand_bits(rng, 1)
        # k, i and j move no verdict but are still drawn: the seeded stream is the gate.
        bits.rand_bits(rng, n)
        if scheme == SchemeId.A:
            bits.rand_parity_bits(rng, n, 0)
        else:
            bits.rand_bits(rng, n)
        if not wide:
            bits.rand_parity_bits(rng, n, messages[b])
        wins += (rng.random() < accept[b]) == (b == 0)
    empirical = wins / samples
    sigma = math.sqrt(analytic * (1 - analytic) / samples)
    success = abs(empirical - analytic) <= 3 * sigma
    return DistinguisherOutcome("distinguish", scheme.value, n, samples,
                                empirical, analytic, sigma, success, seed)
