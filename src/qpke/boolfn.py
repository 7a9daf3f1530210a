"""Random Boolean functions in algebraic normal form, plus GF(2) linear algebra.

An ANF is an XOR of monomials; a monomial is stored as an m-bit mask over the
input variables (mask bit for s_1 is the most significant). Inputs and
outputs are ints, handled MSB-first like everywhere else in this package.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

import numpy as np

from . import bits

__all__ = [
    "GenerationError",
    "AnfFunction",
    "generate_random",
    "generate_balanced_f2",
    "gf2_insert",
    "gf2_nullspace",
    "RandomOracle",
]

BALANCE_ATTEMPTS = 10_000
BALANCED_MAX_M = 20  # the balance check enumerates all 2^m inputs
_WORD = (1 << 64) - 1  # evaluation splits masks and inputs into uint64 words
_BLOCK = 4096  # masks converted per bytes block: bounds the transient objects


class GenerationError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True)
class AnfFunction:
    """A function {0,1}^m -> {0,1}^n_out given by one ANF per output bit.

    terms[b] is the set of monomial masks of output bit b (output bit 0 is
    the most significant output bit); constants holds the n_out constant
    terms as one integer.
    """

    m: int
    n_out: int
    terms: tuple[frozenset[int], ...]
    constants: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n_out < 1:
            raise ValueError("m and n_out must be >= 1")
        if len(self.terms) != self.n_out:
            raise ValueError("need one term set per output bit")
        if not 0 <= self.constants < (1 << self.n_out):
            raise ValueError("constants out of range")
        # the table is the range check: a negative mask, or one past its words,
        # fails to convert, and one of 2^m or more sets a bit >= m in the top word
        try:
            words, owner = self._build_table()
        except (OverflowError, AttributeError):
            self._name_bad_mask()
            raise
        if words.shape[1] and int(words[-1].max()) >> (self.m - 64 * (len(words) - 1)):
            self._name_bad_mask()
        # The truth table, padded to a word per output bit, replaces the masks
        # wherever it is no larger; then m <= 64, since 2^m <= 64 * words.size.
        truth = None
        if self.n_out << max(self.m, 6) <= 64 * words.size:
            coeffs = np.zeros((self.n_out, 1 << self.m), dtype=np.uint8)
            coeffs[owner, words[0]] = 1
            # the constant term is the coefficient of the empty monomial
            coeffs[:, 0] ^= np.array([self.constants >> (self.n_out - 1 - b) & 1
                                      for b in range(self.n_out)], dtype=np.uint8)
            truth = np.ascontiguousarray(_truth_tables(coeffs, self.m).T)
        object.__setattr__(self, "_truth", truth)
        object.__setattr__(self, "_table", None if truth is not None else (words, owner))

    def _name_bad_mask(self) -> None:
        for mask in chain.from_iterable(self.terms):
            if not 0 <= operator.index(mask) < (1 << self.m):
                raise ValueError(f"monomial mask {mask} out of range")

    def _build_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every monomial mask as a column of uint64 words, least significant
        word first, and the output bit that owns each monomial."""
        lens = [len(tset) for tset in self.terms]
        count = sum(lens)
        masks = chain.from_iterable(self.terms)
        if self.m <= 64:  # one word: the masks convert unsplit, about 3x faster
            # operator.index refuses a float or a string, which fromiter would cast
            words = np.fromiter(map(operator.index, masks), dtype=np.uint64,
                                count=count)[np.newaxis]
        else:  # little-endian bytes split a mask into its words in one call
            nwords = (self.m + 63) // 64
            words = np.empty((nwords, count), dtype=np.uint64)
            for start in range(0, count, _BLOCK):
                raw = b"".join(mask.to_bytes(8 * nwords, "little")
                               for mask in islice(masks, _BLOCK))
                words[:, start:start + _BLOCK] = np.frombuffer(raw, "<u8").reshape(-1, nwords).T
        owner = np.repeat(np.arange(self.n_out, dtype=np.min_scalar_type(self.n_out)), lens)
        return words, owner

    def evaluate(self, s: int) -> int:
        """Value at input s, as an n_out-bit integer. With a truth table, row
        s // 64 holds bit s % 64 of every output bit. Otherwise a monomial
        fires at s exactly when mask & ~s == 0; all monomials are tested at
        once, a 64-bit word at a time."""
        s = int(s)
        if not 0 <= s < (1 << self.m):
            raise ValueError(f"input {s} out of range for m={self.m}")
        if self._truth is not None:
            out, shift = 0, s & 63
            for word in self._truth[s >> 6].tolist():
                out = out << 1 | word >> shift & 1
            return out
        words, owner = self._table
        missing = words[0] & np.uint64(~s & _WORD)
        for w in range(1, len(words)):
            missing |= words[w] & np.uint64(~(s >> (64 * w)) & _WORD)
        out = self.constants
        # one XOR per firing monomial: a sparse ANF fires few at a random s
        for b in owner[missing == 0].tolist():
            out ^= 1 << (self.n_out - 1 - b)
        return out

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n_out": self.n_out,
            "constants": bits.to_str(self.constants, self.n_out),
            "terms": [sorted(bits.to_str(mask, self.m) for mask in tset)
                      for tset in self.terms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AnfFunction":
        """Inverse of to_json. Every term must be an m-bit string, and no
        output bit may list a monomial twice: a shorter string would alias a
        mask, and a repeated one would cancel under XOR."""
        m, n_out = obj["m"], obj["n_out"]
        if not (type(m) is int and type(n_out) is int):
            raise ValueError(f"m, n_out: expected integers, got m={m!r}, n_out={n_out!r}")
        terms = []
        for b, strings in enumerate(obj["terms"]):
            masks = [bits.from_str(t) for t in strings]
            if any(width != m for _, width in masks):
                raise ValueError(f"terms of output bit {b}: expected {m}-bit strings")
            tset = frozenset(mask for mask, _ in masks)
            if len(tset) < len(masks):
                raise ValueError(f"terms of output bit {b}: a monomial is repeated")
            terms.append(tset)
        constants, width = bits.from_str(obj["constants"])
        if width != n_out:
            raise ValueError("constants width does not match n_out")
        return cls(m, n_out, tuple(terms), constants)


def generate_random(m: int, n_out: int, rng: np.random.Generator,
                    terms_per_output: int | None = None,
                    random_constants: bool = False) -> AnfFunction:
    """Random ANF built from coin tosses: each of the terms_per_output
    monomials of each output bit is drawn by m independent coin tosses
    (the toss for s_a decides whether s_a appears in the monomial).
    Duplicate monomials cancel in pairs, matching XOR algebra. All masks
    come from one bits.rand_bits_many call, output bit 0's first.
    """
    t = m if terms_per_output is None else terms_per_output
    masks = bits.rand_bits_many(rng, m, n_out * t)
    term_sets = []
    for b in range(n_out):
        row = masks[b * t:(b + 1) * t]
        tset = frozenset(row)
        if len(tset) < len(row):  # keep the masks drawn an odd number of times
            tset = frozenset(mask for mask, c in Counter(row).items() if c & 1)
        term_sets.append(tset)
    constants = bits.rand_bits(rng, n_out) if random_constants else 0
    return AnfFunction(m, n_out, tuple(term_sets), constants)


# In-word Moebius passes: bit x of a word takes in bit x - 2^d wherever bit d
# of x is set, for d = 0..5.
_IN_WORD = tuple((np.uint64(1 << d), np.uint64(sum(1 << x for x in range(64) if x >> d & 1)))
                 for d in range(6))


def _truth_tables(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Truth tables over all 2^m inputs of the ANFs whose monomial
    coefficient vectors are the rows of coeffs (coeffs[i, mask] = 1 iff row
    i holds the monomial with variable set `mask`), one row each: input x is
    bit x % 64 of uint64 word x // 64, zero-padded to one word. Subset-XOR
    (Moebius) transform on the packed rows: the low six index bits are
    shifted within words, the rest are whole-word XORs."""
    if m < 6:
        padded = np.zeros((len(coeffs), 64), dtype=np.uint8)
        padded[:, :1 << m] = coeffs
        coeffs = padded
    words = np.packbits(coeffs, axis=1, bitorder="little").view("<u8")
    for shift, mask in _IN_WORD[:m]:
        words ^= (words << shift) & mask
    for d in range(6, m):
        view = words.reshape(len(words), -1, 2, 1 << (d - 6))
        view[:, :, 1, :] ^= view[:, :, 0, :]
    return words


def _anf_weights(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Hamming weights of the truth tables of the rows of coeffs."""
    return np.bitwise_count(_truth_tables(coeffs, m)).sum(axis=1)


def generate_balanced_f2(m: int, rng: np.random.Generator) -> AnfFunction:
    """Single-output random ANF, rejection-sampled until balanced, then one
    extra coin toss as its constant term. The family is therefore closed
    under complement and the two constants are equally likely.

    Candidates are uniform over all single-output ANFs: every one of the 2^m
    monomial coefficients is an independent coin toss. (A sparse ANF of ~m
    random monomials has expected weight about m*2^(m/2), far below 2^(m-1),
    so it is almost never balanced once m grows past ~10; the uniform draw
    keeps the acceptance rate near sqrt(2/(pi*2^m)) at every width.)

    Candidates are drawn and tested in blocks: for m >= 2 a candidate's 2^m
    coin bytes take exactly 2^(m-2) 32-bit words, so a block of K is the
    bytes of K single draws. If the first balanced candidate is not the
    block's last, the generator is restored and redraws up to it, so a seed
    gives the same function and final state as one candidate at a time.

    Balance is verified exhaustively over all 2^m inputs, so m is limited
    to 20 variables.
    """
    if m > BALANCED_MAX_M:
        raise ValueError(f"balance check enumerates 2^m inputs; m must be <= {BALANCED_MAX_M}")
    target = 1 << (m - 1)
    size = 1 << m
    # K <= the expected need, ~1.25 * 2^(m/2), and <= 2^15 coefficient bytes;
    # at m = 1 a candidate is half a 32-bit word, so it is drawn alone
    block = 1 if m < 2 else min(1 << (m // 2), max(1, (1 << 15) >> m))
    for start in range(0, BALANCE_ATTEMPTS, block):
        k = min(block, BALANCE_ATTEMPTS - start)
        state = rng.bit_generator.state if k > 1 else None
        coeffs = rng.integers(0, 2, size=k * size, dtype=np.uint8).reshape(k, size)
        weights = _anf_weights(coeffs, m).tolist()
        if target in weights:
            h = weights.index(target)
            if h < k - 1:
                rng.bit_generator.state = state
                rng.integers(0, 2, size=(h + 1) * size, dtype=np.uint8)
            term_set = frozenset(np.flatnonzero(coeffs[h]).tolist())
            return AnfFunction(m, 1, (term_set,), bits.rand_bits(rng, 1))
    raise GenerationError(f"no balanced function found in {BALANCE_ATTEMPTS} attempts")


def gf2_insert(pivots: dict[int, int], row: int, n: int) -> None:
    """Add an n-bit row to a reduced echelon basis over GF(2), kept as
    {leading column: row} with every row clear of the other leading
    columns; a row already in the span leaves the basis as it is."""
    if row >= (1 << n) or row < 0:
        raise ValueError(f"row {row} out of range for n={n}")
    for c, prow in pivots.items():
        if (row >> c) & 1:
            row ^= prow
    if not row:
        return
    c = row.bit_length() - 1
    for c2, prow in pivots.items():
        if (prow >> c) & 1:
            pivots[c2] = prow ^ row
    pivots[c] = row


def gf2_nullspace(rows: Iterable[int], n: int) -> list[int]:
    """Basis of {v : r . v = 0 for every r in rows} over GF(2).

    Rows and basis vectors are n-bit ints. With no rows the standard basis
    comes back. Gaussian elimination on int bitsets, one gf2_insert a row.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        gf2_insert(pivots, r, n)
    basis = []
    for free in range(n - 1, -1, -1):
        if free in pivots:
            continue
        v = 1 << free
        for c, prow in pivots.items():
            if (prow >> free) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


class RandomOracle:
    """Lazily sampled uniform function {0,1}^m -> {0,1}^n_out.

    Each fresh input gets an independent uniform output, memoized so repeat
    queries agree. Single-threaded use only.
    """

    def __init__(self, m: int, n_out: int, rng: np.random.Generator):
        self.m = m
        self.n_out = n_out
        self._rng = rng
        self._memo: dict[int, int] = {}

    def __call__(self, s: int) -> int:
        if not 0 <= s < (1 << self.m):
            raise ValueError(f"input {s} out of range for m={self.m}")
        if s not in self._memo:
            self._memo[s] = bits.rand_bits(self._rng, self.n_out)
        return self._memo[s]
