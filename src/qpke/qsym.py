"""Exact symbolic simulation of conjugate-coding states.

Every state handled by the protocols lives in a tiny closed family: each
qubit is one of |0>, |1>, |+>, |-> and the only phases that ever appear are
the fourth roots of unity. The gate set {I, X, Y, Z, H} permutes the four
basis symbols and kicks the phase by a power of i, so n-qubit protocol
states can be evolved exactly with a lookup table instead of matrix algebra.
Phases are tracked as integer exponents of i (mod 4), never as floats.

Superpositions of two computational terms, (|i> + i^r |i xor k>)/sqrt(2),
get their own compact representation (TwoTermState); the phase-flip
encryption Z^(x)n acts on it in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import bits, qmat

__all__ = [
    "Z0",
    "Z1",
    "XP",
    "XM",
    "BASIS_CODES",
    "GATE_ACTIONS",
    "QubitSymbol",
    "ProductState",
    "TwoTermState",
]

# Basis symbol codes; these strings are also the serialization format.
Z0 = "Z0"
Z1 = "Z1"
XP = "X+"
XM = "X-"
BASIS_CODES = (Z0, Z1, XP, XM)

# gate -> basis -> (new basis, phase kick as an exponent of i).
# Derived column by column from the matrices; e.g. Y|1> = -i|0> gives
# ("Z0", 3) because -i = i^3.
GATE_ACTIONS: dict[str, dict[str, tuple[str, int]]] = {
    "I": {Z0: (Z0, 0), Z1: (Z1, 0), XP: (XP, 0), XM: (XM, 0)},
    "X": {Z0: (Z1, 0), Z1: (Z0, 0), XP: (XP, 0), XM: (XM, 2)},
    "Y": {Z0: (Z1, 1), Z1: (Z0, 3), XP: (XM, 3), XM: (XP, 1)},
    "Z": {Z0: (Z0, 0), Z1: (Z1, 2), XP: (XM, 0), XM: (XP, 0)},
    "H": {Z0: (XP, 0), Z1: (XM, 0), XP: (Z0, 0), XM: (Z1, 0)},
}

_SQ2 = np.sqrt(0.5)
_BASIS_VECTORS = {
    Z0: np.array([1.0, 0.0], dtype=complex),
    Z1: np.array([0.0, 1.0], dtype=complex),
    XP: np.array([_SQ2, _SQ2], dtype=complex),
    XM: np.array([_SQ2, -_SQ2], dtype=complex),
}

_I_POW = (1, 1j, -1, -1j)


def _json_phase(value, name: str) -> int:
    """A phase exponent read from JSON: an int, not a float or a bool."""
    if type(value) is not int:
        raise ValueError(f"{name}: expected an integer exponent of i, got {value!r}")
    return value


@dataclass(frozen=True)
class QubitSymbol:
    """One qubit: a basis symbol times i**phase."""

    basis: str
    phase: int = 0

    def __post_init__(self):
        if self.basis not in BASIS_CODES:
            raise ValueError(f"unknown basis symbol {self.basis!r}")
        object.__setattr__(self, "phase", self.phase % 4)

    def apply(self, gate: str) -> "QubitSymbol":
        """Image under one gate of {I, X, Y, Z, H}."""
        if gate not in GATE_ACTIONS:
            raise ValueError(f"unknown gate {gate!r}")
        new_basis, kick = GATE_ACTIONS[gate][self.basis]
        return QubitSymbol(new_basis, self.phase + kick)

    def to_vector(self) -> np.ndarray:
        return _I_POW[self.phase] * _BASIS_VECTORS[self.basis]


# |0> and |1> by bit character; symbols are immutable, so states share them.
_COMPUTATIONAL = {"0": QubitSymbol(Z0), "1": QubitSymbol(Z1)}


@dataclass(frozen=True)
class ProductState:
    """Tensor product of qubit symbols with a tracked global phase.

    The physical state is i**global_phase times the product of the qubit
    symbols (which may carry their own phases); total_phase combines both.
    """

    qubits: tuple[QubitSymbol, ...]
    global_phase: int = 0

    def __post_init__(self):
        if not self.qubits:
            raise ValueError("a ProductState needs at least one qubit")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "global_phase", self.global_phase % 4)

    @classmethod
    def from_bits(cls, i: int, n: int) -> "ProductState":
        """Computational basis state |i> on n qubits (MSB first)."""
        return cls(tuple(_COMPUTATIONAL[c] for c in bits.to_str(i, n)))

    @property
    def n(self) -> int:
        return len(self.qubits)

    @property
    def total_phase(self) -> int:
        """Global phase exponent with the per-qubit phases folded in."""
        return (self.global_phase + sum(q.phase for q in self.qubits)) % 4

    def basis_string(self) -> str:
        """Concatenated basis codes, phases ignored (e.g. 'Z0X+')."""
        return "".join(q.basis for q in self.qubits)

    def apply_mask(self, gate: str, mask: int) -> "ProductState":
        """Apply one gate at every position where the n-bit mask has a 1, in
        one pass over the qubits."""
        flags = bits.to_str(mask, self.n)
        return ProductState(tuple(q.apply(gate) if f == "1" else q
                                  for q, f in zip(self.qubits, flags)), self.global_phase)

    def apply_hk(self, k: int) -> "ProductState":
        """H_k = H^{k_1} x ... x H^{k_n}."""
        return self.apply_mask("H", k)

    def apply_yj(self, j: int) -> "ProductState":
        """Y_j = Y^{j_1} x ... x Y^{j_n}."""
        return self.apply_mask("Y", j)

    def to_vector(self) -> np.ndarray:
        """Dense 2^n state vector (qubit 0 is the most significant factor)."""
        qmat.check_dim(1 << self.n)
        return _I_POW[self.global_phase] * reduce(np.kron, [q.to_vector() for q in self.qubits])

    def to_density(self) -> np.ndarray:
        v = self.to_vector()
        return np.outer(v, v.conj())

    def measure_computational(self) -> int:
        """Measure every qubit in the computational basis; returns the n-bit
        outcome. The state must be a pure computational state (this is how
        honest decryption reads out): an X symbol would read out at random."""
        out = 0
        for q in self.qubits:
            if q.basis not in (Z0, Z1):
                raise ValueError("measurement outcome is random: a qubit is in the X basis")
            out = (out << 1) | (q.basis == Z1)
        return out

    def to_json(self) -> dict:
        return {
            "qubits": [[q.basis, q.phase] for q in self.qubits],
            "global_phase": self.global_phase,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProductState":
        qs = tuple(QubitSymbol(b, _json_phase(p, "phase")) for b, p in obj["qubits"])
        return cls(qs, _json_phase(obj.get("global_phase", 0), "global_phase"))


@dataclass(frozen=True)
class TwoTermState:
    """(|i> + i^rel_phase |i xor k>)/sqrt(2), times i**global_phase, with k != 0."""

    n: int
    i: int
    k: int
    rel_phase: int = 0
    global_phase: int = 0

    def __post_init__(self):
        if not 0 <= self.i < (1 << self.n):
            raise ValueError(f"i={self.i} out of range for n={self.n}")
        if not 0 < self.k < (1 << self.n):
            raise ValueError("k must be a nonzero n-bit string")
        object.__setattr__(self, "rel_phase", self.rel_phase % 4)
        object.__setattr__(self, "global_phase", self.global_phase % 4)

    def apply_zall(self) -> "TwoTermState":
        """Z^(x)n in closed form: |v> picks up (-1)^{weight(v)}, so the
        relative phase advances by 2*(weight(k) mod 2) and the global phase
        absorbs (-1)^{weight(i)}."""
        rel = self.rel_phase + 2 * (bits.weight(self.k) % 2)
        glob = self.global_phase + 2 * (bits.weight(self.i) % 2)
        return TwoTermState(self.n, self.i, self.k, rel, glob)

    def to_vector(self) -> np.ndarray:
        qmat.check_dim(1 << self.n)
        vec = np.zeros(1 << self.n, dtype=complex)
        vec[self.i] = _SQ2
        vec[self.i ^ self.k] = _SQ2 * _I_POW[self.rel_phase]
        return _I_POW[self.global_phase] * vec

    def to_density(self) -> np.ndarray:
        v = self.to_vector()
        return np.outer(v, v.conj())

    def to_json(self) -> dict:
        return {
            "i": bits.to_str(self.i, self.n),
            "k_xor": bits.to_str(self.i ^ self.k, self.n),
            "rel_phase": self.rel_phase,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TwoTermState":
        i, n = bits.from_str(obj["i"])
        other, n2 = bits.from_str(obj["k_xor"])
        if n2 != n:
            raise ValueError("i and k_xor widths differ")
        return cls(n, i, i ^ other, _json_phase(obj.get("rel_phase", 0), "rel_phase"))
