"""The six conjugate-coding public-key encryption protocols.

Every scheme has one shape. The private key is a random Boolean function F
plus scheme specific extras; a public key is a label carrying an input s of
F together with the state H_k|i> for k = F(s). Encryption masks the state
with Y_j, and decryption undoes H_k, measures and XORs off what the key
knows about i. pan10 differs only in its two-term state and its Z mask.

A scheme is one row of `SCHEMES`: its private-key fields in draw order,
whether messages are n bits wide, and the shape of its label. `keygen`,
`message_width` and the JSON loaders read that row; `_basis_key` and
`_offset` hold the key material that issuing and decryption share. The
loaders reject malformed key and ciphertext JSON with a ValueError that
names the offending field.

Scheme ids:
  a      one-bit messages, i restricted to even parity
  b      one-bit messages, i unrestricted, parity carried by a balanced F2
  m1     n-bit messages, two labels (s1, s2) with k = F(s1), i = F(s2)
  m2     n-bit messages, one label with k = F1(s), i = F2(s)
  enh    scheme b with the label s itself hidden in conjugate coding
  pan10  superposition public key (|i> + |i xor k>)/sqrt(2), phase-flip bit
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import bits
from .boolfn import (BALANCED_MAX_M, AnfFunction, GenerationError, generate_balanced_f2,
                     generate_random)
from .qsym import ProductState, TwoTermState

__all__ = [
    "SchemeId",
    "SCHEMES",
    "PrivateKey",
    "PublicKey",
    "Ciphertext",
    "PublicKeyConsumedError",
    "message_width",
    "keygen",
    "issue_public_keys",
    "encrypt",
    "decrypt",
    "copy_public_key",
    "private_key_to_json",
    "private_key_from_json",
    "public_key_to_json",
    "public_key_from_json",
    "ciphertext_to_json",
    "ciphertext_from_json",
]

REJECTION_BUDGET = 10_000


class SchemeId(str, Enum):
    A = "a"
    B = "b"
    M1 = "m1"
    M2 = "m2"
    ENH = "enh"
    PAN10 = "pan10"


@dataclass(frozen=True)
class SchemeSpec:
    """keys: private-key fields in draw order; wide: messages are n bits;
    label: "bits" (s), "pair" (s1, s2) or "qubits" (s in the bases l)."""

    keys: tuple[str, ...]
    wide: bool
    label: str

    @property
    def parity(self) -> bool:
        """A balanced one-bit F2(s) carries the parity of i (b, enh)."""
        return "f2" in self.keys and not self.wide


SCHEMES = {
    SchemeId.A: SchemeSpec(("f",), False, "bits"),
    SchemeId.B: SchemeSpec(("f1", "f2"), False, "bits"),
    SchemeId.M1: SchemeSpec(("f",), True, "pair"),
    SchemeId.M2: SchemeSpec(("f1", "f2"), True, "bits"),
    SchemeId.ENH: SchemeSpec(("f1", "f2", "l"), False, "qubits"),
    SchemeId.PAN10: SchemeSpec(("f",), False, "bits"),
}
KEY_FIELDS = ("f", "f1", "f2", "l")


class PublicKeyConsumedError(RuntimeError):
    """Raised when a single-use public key is encrypted with twice."""


@dataclass
class PrivateKey:
    scheme: SchemeId
    n: int
    m: int
    f: AnfFunction | None = None
    f1: AnfFunction | None = None
    f2: AnfFunction | None = None
    l: int | None = None
    pan10_table: dict[int, int] = field(default_factory=dict)


@dataclass
class PublicKey:
    scheme: SchemeId
    n: int
    m: int
    label: object  # int s | (int s1, int s2) | ProductState (enh)
    quantum: ProductState | TwoTermState
    consumed: bool = False


@dataclass(frozen=True)
class Ciphertext:
    scheme: SchemeId
    n: int
    m: int
    label: object
    quantum: ProductState | TwoTermState


def message_width(scheme: SchemeId, n: int) -> int:
    """Plaintext width in bits: n for m1/m2, one bit otherwise."""
    return n if SCHEMES[SchemeId(scheme)].wide else 1


def _pan10_remap(k_raw: int) -> int:
    """Flip the last bit of an even-weight string; odd weight makes k != 0."""
    return k_raw if bits.parity(k_raw) else k_raw ^ 1


def _sample_s_matching_parity(f2: AnfFunction, target: int,
                              rng: np.random.Generator) -> int:
    for _ in range(REJECTION_BUDGET):
        s = bits.rand_bits(rng, f2.m)
        if f2.evaluate(s) == target:
            return s
    raise GenerationError(f"rejection budget exhausted while matching parity {target}")


def keygen(scheme: SchemeId, n: int, rng: np.random.Generator,
           m: int | None = None, count: int = 1) -> tuple[PrivateKey, list[PublicKey]]:
    """Draw a private key and issue `count` public keys, each with a fresh s."""
    scheme = SchemeId(scheme)
    spec = SCHEMES[scheme]
    if n < 1:
        raise ValueError("n must be >= 1")
    if m is None:
        m = 2 * n
    if m <= n:
        raise ValueError(f"m must exceed n, got m={m}, n={n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if spec.parity and m > BALANCED_MAX_M:
        raise ValueError(f"scheme {scheme.value} checks its balanced F2 on all 2^m inputs, "
                         f"so m must be <= {BALANCED_MAX_M}, got m={m}; pass a smaller m")
    fields = {}
    for name in spec.keys:
        if name == "l":
            fields[name] = bits.rand_bits(rng, m)
        elif name == "f2" and spec.parity:
            fields[name] = generate_balanced_f2(m, rng)
        else:
            fields[name] = generate_random(m, n, rng)
    sk = PrivateKey(scheme, n, m, **fields)
    return sk, issue_public_keys(sk, count, rng)


def _basis_key(sk: PrivateKey, s) -> int:
    """k = F(s): F1 where the key has two functions, the first label of m1,
    forced to odd weight for pan10."""
    if sk.scheme == SchemeId.M1:
        s = s[0]
    k = (sk.f1 if sk.f is None else sk.f).evaluate(s)
    return _pan10_remap(k) if sk.scheme == SchemeId.PAN10 else k


def _offset(sk: PrivateKey, s) -> int:
    """What decryption XORs off the measured string: 0 for a, the parity
    F2(s) of i for b and enh, the encoded i itself otherwise."""
    if sk.scheme == SchemeId.M1:
        return sk.f.evaluate(s[1])
    if sk.scheme == SchemeId.PAN10:
        if s not in sk.pan10_table:
            raise ValueError("label was never issued by this private key")
        return sk.pan10_table[s]
    return 0 if sk.f2 is None else sk.f2.evaluate(s)


def issue_public_keys(sk: PrivateKey, count: int,
                      rng: np.random.Generator) -> list[PublicKey]:
    """Issue further single-use public keys from an existing private key."""
    spec = SCHEMES[sk.scheme]
    n, m = sk.n, sk.m
    out = []
    for _ in range(count):
        if spec.parity:
            i = bits.rand_bits(rng, n)
            s = _sample_s_matching_parity(sk.f2, bits.parity(i), rng)
        elif spec.label == "pair":
            s = (bits.rand_bits(rng, m), bits.rand_bits(rng, m))
        else:
            s = bits.rand_bits(rng, m)
        # Issuing evaluates k only: F2(s) of b/enh is already fixed by i.
        k = _basis_key(sk, s)
        if sk.scheme == SchemeId.A:
            i = bits.rand_parity_bits(rng, n, 0)
        elif not spec.parity:
            if sk.scheme == SchemeId.PAN10 and s not in sk.pan10_table:
                sk.pan10_table[s] = bits.rand_bits(rng, n)
            i = _offset(sk, s)
        # enh: |s_a> in the computational basis where l_a = 0, Hadamard where l_a = 1.
        label = ProductState.from_bits(s, m).apply_mask("H", sk.l) if spec.label == "qubits" else s
        quantum = (TwoTermState(n, i, k) if sk.scheme == SchemeId.PAN10
                   else ProductState.from_bits(i, n).apply_hk(k))
        out.append(PublicKey(sk.scheme, n, m, label, quantum))
    return out


def copy_public_key(pk: PublicKey) -> PublicKey:
    """Another copy of the same published key (states are immutable)."""
    return replace(pk, consumed=False)


def encrypt(pk: PublicKey, message: int, rng: np.random.Generator | None = None,
            *, allow_reuse: bool = False) -> Ciphertext:
    """Encrypt a message under a public key, consuming it.

    Public keys are single use; pass allow_reuse=True only when studying
    reuse deliberately. One-bit schemes draw the mask j from rng, uniformly
    over the strings whose parity is the message.
    """
    if pk.consumed and not allow_reuse:
        raise PublicKeyConsumedError("public key already consumed; keys are single use")
    n = pk.n
    width = message_width(pk.scheme, n)
    if not 0 <= message < (1 << width):
        raise ValueError(f"message {message} out of range for width {width}")

    if pk.scheme == SchemeId.PAN10:
        quantum = pk.quantum.apply_zall() if message else pk.quantum
    elif SCHEMES[pk.scheme].wide:
        quantum = pk.quantum.apply_yj(message)
    else:
        if rng is None:
            raise ValueError("need an rng to draw the mask j")
        quantum = pk.quantum.apply_yj(bits.rand_parity_bits(rng, n, message))
    pk.consumed = True
    return Ciphertext(pk.scheme, n, pk.m, pk.label, quantum)


def _read_out(state: ProductState, name: str) -> int:
    """Readout of a state the key has turned back into |0>s and |1>s; an X
    symbol left over would read out at random, so the state is not for this key."""
    try:
        return state.measure_computational()
    except ValueError:
        raise ValueError(f"{name}: state does not match this private key") from None


def decrypt(sk: PrivateKey, ct: Ciphertext) -> int:
    """Decrypt a ciphertext with the matching private key. A label or state
    whose readout under this key would be random is rejected."""
    for name, theirs, mine in (("scheme", ct.scheme, sk.scheme), ("n", ct.n, sk.n),
                               ("m", ct.m, sk.m), ("quantum", ct.quantum.n, sk.n)):
        if theirs != mine:
            raise ValueError(f"{name}: ciphertext has {theirs!r}, private key {mine!r}")
    spec, s = SCHEMES[sk.scheme], ct.label
    if spec.label == "qubits":
        # Measuring each label qubit in the basis it was encoded in is the
        # same as applying H wherever l has a 1 and reading out computationally.
        s = _read_out(s.apply_mask("H", sk.l), "label")
    k, offset = _basis_key(sk, s), _offset(sk, s)
    q = ct.quantum
    if sk.scheme == SchemeId.PAN10:
        # Branch b is (|i> + (-1)^b |i xor k>)/sqrt(2) up to a global phase: the
        # same two terms with relative phase 2b. Swapping the terms negates
        # the relative phase, which leaves 0 and 2 unchanged mod 4.
        if not (isinstance(q, TwoTermState) and {q.i, q.i ^ q.k} == {offset, offset ^ k}
                and q.rel_phase % 2 == 0):
            raise ValueError("ciphertext state does not match either phase branch")
        return q.rel_phase // 2
    out = _read_out(q.apply_hk(k), "quantum") ^ offset
    return out if spec.wide else bits.parity(out)


# ---------------------------------------------------------------------------
# JSON forms. The loaders check every field against the scheme's row of
# SCHEMES, and each rejection is a ValueError that names its field.

def _label_to_json(label, m: int):
    if isinstance(label, ProductState):
        return label.to_json()
    if isinstance(label, tuple):
        return [bits.to_str(s, m) for s in label]
    return bits.to_str(label, m)


def _parse(name: str, what: str, parse, obj):
    """parse(obj), with any failure turned into a ValueError naming the field."""
    try:
        return parse(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{name}: expected {what} ({type(exc).__name__}: {exc})") from None


def _bitstring(text, width: int, name: str) -> int:
    if not (isinstance(text, str) and len(text) == width and set(text) <= {"0", "1"}):
        raise ValueError(f"{name}: expected a {width}-bit string, got {text!r}")
    return int(text, 2)


def _header(obj: dict) -> tuple[SchemeId, int, int]:
    """The scheme, n and m of a JSON record, checked: integers, 1 <= n < m."""
    if not isinstance(obj, dict):
        raise ValueError(f"record: expected a JSON object, got {type(obj).__name__}")
    scheme = _parse("scheme", "a scheme id", SchemeId, obj.get("scheme"))
    n, m = obj.get("n"), obj.get("m")
    if not (type(n) is int and type(m) is int and 1 <= n < m):
        raise ValueError(f"n, m: expected integers with 1 <= n < m, got n={n!r}, m={m!r}")
    return scheme, n, m


def _record_from_json(obj: dict) -> tuple:
    """(scheme, n, m, label, quantum) of a public-key or ciphertext record."""
    scheme, n, m = _header(obj)
    kind, label = SCHEMES[scheme].label, obj.get("label")
    if kind == "qubits":
        label = _parse("label", f"{m} qubits", ProductState.from_json, label)
        if label.n != m:
            raise ValueError(f"label: expected {m} qubits, got {label.n}")
    elif kind == "pair":
        if not (isinstance(label, list) and len(label) == 2):
            raise ValueError(f"label: expected a pair of {m}-bit strings, got {label!r}")
        label = tuple(_bitstring(s, m, "label") for s in label)
    else:
        label = _bitstring(label, m, "label")
    cls = TwoTermState if scheme == SchemeId.PAN10 else ProductState
    quantum = _parse("quantum", f"a {cls.__name__}", cls.from_json, obj.get("quantum"))
    if quantum.n != n:
        raise ValueError(f"quantum: expected {n} qubits, got {quantum.n}")
    return scheme, n, m, label, quantum


def _record_to_json(record: PublicKey | Ciphertext, seed: int | None) -> dict:
    """The JSON record of a public key or ciphertext that _record_from_json reads."""
    return {"scheme": record.scheme.value, "n": record.n, "m": record.m, "seed": seed,
            "label": _label_to_json(record.label, record.m),
            "quantum": record.quantum.to_json()}


def public_key_to_json(pk: PublicKey, seed: int | None = None) -> dict:
    return _record_to_json(pk, seed)


def public_key_from_json(obj: dict) -> PublicKey:
    return PublicKey(*_record_from_json(obj))


def ciphertext_to_json(ct: Ciphertext, seed: int | None = None) -> dict:
    return _record_to_json(ct, seed)


def ciphertext_from_json(obj: dict) -> Ciphertext:
    return Ciphertext(*_record_from_json(obj))


def private_key_to_json(sk: PrivateKey, seed: int | None = None) -> dict:
    out: dict = {"scheme": sk.scheme.value, "n": sk.n, "m": sk.m, "seed": seed}
    for name in KEY_FIELDS:
        value = getattr(sk, name)
        if value is not None:
            out[name] = bits.to_str(value, sk.m) if name == "l" else value.to_json()
    if sk.scheme == SchemeId.PAN10:
        out["pan10_table"] = {bits.to_str(s, sk.m): bits.to_str(i, sk.n)
                              for s, i in sorted(sk.pan10_table.items())}
    return out


def private_key_from_json(obj: dict) -> PrivateKey:
    scheme, n, m = _header(obj)
    spec = SCHEMES[scheme]
    sk = PrivateKey(scheme, n, m)
    for name in KEY_FIELDS:
        if (name in obj) != (name in spec.keys):
            raise ValueError(f"{name}: scheme {scheme.value} keys hold exactly "
                             f"the fields {', '.join(spec.keys)}")
    for name in spec.keys:
        if name == "l":
            sk.l = _bitstring(obj["l"], m, "l")
            continue
        fn = _parse(name, "an ANF function", AnfFunction.from_json, obj[name])
        n_out = 1 if name == "f2" and spec.parity else n
        if (fn.m, fn.n_out) != (m, n_out):
            raise ValueError(f"{name}: expected a function of {m} bits to {n_out}, "
                             f"got {fn.m} to {fn.n_out}")
        setattr(sk, name, fn)
    if "pan10_table" in obj and scheme != SchemeId.PAN10:
        raise ValueError(f"pan10_table: scheme {scheme.value} keys hold no table")
    table = obj.get("pan10_table", {})
    if not isinstance(table, dict):
        raise ValueError("pan10_table: expected an object of label: value bitstrings")
    for s_str, i_str in table.items():
        sk.pan10_table[_bitstring(s_str, m, "pan10_table")] = _bitstring(i_str, n, "pan10_table")
    return sk
