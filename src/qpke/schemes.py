"""The six conjugate-coding public-key encryption protocols.

Common shape: the private key is a random Boolean function F (plus scheme
specific extras); a public key is a classical label (an input s of F, except
where the label itself is quantum) together with a quantum state derived
from k = F(s). Encryption applies a Pauli-style mask to the quantum part,
decryption recomputes k from the label and undoes the conjugation.

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
from .boolfn import AnfFunction, GenerationError, generate_balanced_f2, generate_random
from .qsym import ProductState, TwoTermState

__all__ = [
    "SchemeId",
    "PrivateKey",
    "PublicKey",
    "Ciphertext",
    "AdversaryView",
    "PublicKeyConsumedError",
    "message_width",
    "keygen",
    "issue_public_keys",
    "encrypt",
    "decrypt",
    "adversary_view",
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


@dataclass(frozen=True)
class AdversaryView:
    """Everything an eavesdropper holds: the published label and state.

    Never carries the Boolean functions, the basis string l, the encoded
    value i, the basis key k or the encryption mask j.
    """

    scheme: SchemeId
    n: int
    label: object
    quantum: ProductState | TwoTermState

    def to_json(self) -> dict:
        return {
            "view": "adversary",
            "scheme": self.scheme.value,
            "n": self.n,
            "label": _label_to_json(self.label, None),
            "quantum": _quantum_to_json_opaque(self.quantum),
        }


def message_width(scheme: SchemeId, n: int) -> int:
    """Plaintext width in bits: n for m1/m2, one bit otherwise."""
    return n if scheme in (SchemeId.M1, SchemeId.M2) else 1


def _pan10_remap(k_raw: int, n: int) -> int:
    """Force an n-bit string to odd Hamming weight by flipping the last bit
    when needed; odd weight guarantees k != 0."""
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if m is None:
        m = 2 * n
    if m <= n:
        raise ValueError(f"m must exceed n, got m={m}, n={n}")
    if scheme in (SchemeId.A, SchemeId.M1, SchemeId.PAN10):
        sk = PrivateKey(scheme, n, m, f=generate_random(m, n, rng))
    elif scheme == SchemeId.B:
        sk = PrivateKey(scheme, n, m, f1=generate_random(m, n, rng),
                        f2=generate_balanced_f2(m, rng))
    elif scheme == SchemeId.M2:
        sk = PrivateKey(scheme, n, m, f1=generate_random(m, n, rng),
                        f2=generate_random(m, n, rng))
    elif scheme == SchemeId.ENH:
        sk = PrivateKey(scheme, n, m, f1=generate_random(m, n, rng),
                        f2=generate_balanced_f2(m, rng), l=bits.rand_bits(rng, m))
    else:
        raise ValueError(f"unhandled scheme {scheme}")
    return sk, issue_public_keys(sk, count, rng)


def _encode_label_qubits(s: int, l: int, m: int) -> ProductState:
    """|s_a> in the computational basis where l_a = 0, Hadamard where l_a = 1."""
    state = ProductState.from_bits(s, m)
    return state.apply_mask("H", l)


def issue_public_keys(sk: PrivateKey, count: int,
                      rng: np.random.Generator) -> list[PublicKey]:
    """Issue further single-use public keys from an existing private key."""
    n, m = sk.n, sk.m
    out = []
    for _ in range(count):
        if sk.scheme == SchemeId.A:
            s = bits.rand_bits(rng, m)
            k = sk.f.evaluate(s)
            i = bits.rand_parity_bits(rng, n, 0)
            label, quantum = s, ProductState.from_bits(i, n).apply_hk(k)
        elif sk.scheme == SchemeId.B:
            i = bits.rand_bits(rng, n)
            s = _sample_s_matching_parity(sk.f2, bits.parity(i), rng)
            k = sk.f1.evaluate(s)
            label, quantum = s, ProductState.from_bits(i, n).apply_hk(k)
        elif sk.scheme == SchemeId.M1:
            s1 = bits.rand_bits(rng, m)
            s2 = bits.rand_bits(rng, m)
            k, i = sk.f.evaluate(s1), sk.f.evaluate(s2)
            label, quantum = (s1, s2), ProductState.from_bits(i, n).apply_hk(k)
        elif sk.scheme == SchemeId.M2:
            s = bits.rand_bits(rng, m)
            k, i = sk.f1.evaluate(s), sk.f2.evaluate(s)
            label, quantum = s, ProductState.from_bits(i, n).apply_hk(k)
        elif sk.scheme == SchemeId.ENH:
            i = bits.rand_bits(rng, n)
            s = _sample_s_matching_parity(sk.f2, bits.parity(i), rng)
            k = sk.f1.evaluate(s)
            label = _encode_label_qubits(s, sk.l, m)
            quantum = ProductState.from_bits(i, n).apply_hk(k)
        elif sk.scheme == SchemeId.PAN10:
            s = bits.rand_bits(rng, m)
            k = _pan10_remap(sk.f.evaluate(s), n)
            if s not in sk.pan10_table:
                sk.pan10_table[s] = bits.rand_bits(rng, n)
            i = sk.pan10_table[s]
            label, quantum = s, TwoTermState(n, i, k)
        else:
            raise ValueError(f"unhandled scheme {sk.scheme}")
        out.append(PublicKey(sk.scheme, n, m, label, quantum))
    return out


def copy_public_key(pk: PublicKey) -> PublicKey:
    """Another copy of the same published key (states are immutable)."""
    return replace(pk, consumed=False)


def encrypt(pk: PublicKey, message: int, rng: np.random.Generator | None = None,
            *, allow_reuse: bool = False, j: int | None = None) -> Ciphertext:
    """Encrypt a message under a public key, consuming it.

    Public keys are single use; pass allow_reuse=True only when studying
    reuse deliberately. For one-bit schemes the mask j is normally drawn
    uniformly from the matching parity class; a fixed j may be forced for
    reproducibility as long as its parity agrees with the message.
    """
    if pk.consumed and not allow_reuse:
        raise PublicKeyConsumedError("public key already consumed; keys are single use")
    n = pk.n
    width = message_width(pk.scheme, n)
    if not 0 <= message < (1 << width):
        raise ValueError(f"message {message} out of range for width {width}")

    if pk.scheme in (SchemeId.A, SchemeId.B, SchemeId.ENH):
        if j is None:
            if rng is None:
                raise ValueError("need an rng to draw the mask j")
            j = bits.rand_parity_bits(rng, n, message)
        elif bits.parity(j) != message:
            raise ValueError("forced j has the wrong parity for this message")
        quantum = pk.quantum.apply_yj(j)
    elif pk.scheme in (SchemeId.M1, SchemeId.M2):
        if j is not None and j != message:
            raise ValueError("for n-bit schemes the message itself is the mask")
        quantum = pk.quantum.apply_yj(message)
    elif pk.scheme == SchemeId.PAN10:
        if j is not None:
            raise ValueError("pan10 encryption takes no mask argument")
        quantum = pk.quantum.apply_zall() if message else pk.quantum
    else:
        raise ValueError(f"unhandled scheme {pk.scheme}")
    pk.consumed = True
    return Ciphertext(pk.scheme, n, pk.m, pk.label, quantum)


def _recover_enh_s(sk: PrivateKey, label: ProductState) -> int:
    # Measuring each label qubit in the basis it was encoded in is the same
    # as applying H wherever l has a 1 and reading out computationally.
    return label.apply_mask("H", sk.l).measure_computational()


def decrypt(sk: PrivateKey, ct: Ciphertext,
            rng: np.random.Generator | None = None) -> int:
    """Decrypt a ciphertext with the matching private key.

    The optional rng is only consulted if a measurement outcome is genuinely
    random, which cannot happen when key material and ciphertext agree.
    """
    if ct.scheme != sk.scheme or ct.n != sk.n:
        raise ValueError("ciphertext does not match this private key")
    n = sk.n

    if sk.scheme == SchemeId.A:
        k = sk.f.evaluate(ct.label)
        meas = ct.quantum.apply_hk(k).measure_computational(rng)
        return bits.parity(meas)
    if sk.scheme == SchemeId.B:
        k, p = sk.f1.evaluate(ct.label), sk.f2.evaluate(ct.label)
        meas = ct.quantum.apply_hk(k).measure_computational(rng)
        return bits.parity(meas) ^ p
    if sk.scheme == SchemeId.M1:
        s1, s2 = ct.label
        k, i = sk.f.evaluate(s1), sk.f.evaluate(s2)
        meas = ct.quantum.apply_hk(k).measure_computational(rng)
        return meas ^ i
    if sk.scheme == SchemeId.M2:
        k, i = sk.f1.evaluate(ct.label), sk.f2.evaluate(ct.label)
        meas = ct.quantum.apply_hk(k).measure_computational(rng)
        return meas ^ i
    if sk.scheme == SchemeId.ENH:
        s = _recover_enh_s(sk, ct.label)
        k, p = sk.f1.evaluate(s), sk.f2.evaluate(s)
        meas = ct.quantum.apply_hk(k).measure_computational(rng)
        return bits.parity(meas) ^ p
    if sk.scheme == SchemeId.PAN10:
        s = ct.label
        if s not in sk.pan10_table:
            raise ValueError("label was never issued by this private key")
        i = sk.pan10_table[s]
        k = _pan10_remap(sk.f.evaluate(s), n)
        # Branch b is (|i> + (-1)^b |i xor k>)/sqrt(2) up to a global phase: the
        # same two terms with relative phase 2b. Swapping the terms negates
        # the relative phase, which leaves 0 and 2 unchanged mod 4.
        q = ct.quantum
        if not (isinstance(q, TwoTermState) and q.n == n
                and {q.i, q.i ^ q.k} == {i, i ^ k} and q.rel_phase % 2 == 0):
            raise ValueError("ciphertext state does not match either phase branch")
        return q.rel_phase // 2
    raise ValueError(f"unhandled scheme {sk.scheme}")


def adversary_view(obj: PublicKey | Ciphertext) -> AdversaryView:
    """What leaves Bob's lab: label and quantum state, nothing else."""
    return AdversaryView(obj.scheme, obj.n, obj.label, obj.quantum)


# ---------------------------------------------------------------------------
# JSON forms. Key owners serialize full records; adversary views replace the
# two-term record with an unlabeled term pair so no field is literally named
# after private data.

def _label_to_json(label, m: int | None):
    if isinstance(label, ProductState):
        return label.to_json()
    if isinstance(label, tuple):
        return [bits.to_str(s, m) for s in label] if m else [f"{s:b}" for s in label]
    return bits.to_str(label, m) if m else f"{label:b}"


def _label_from_json(obj):
    if isinstance(obj, dict):
        return ProductState.from_json(obj)
    if isinstance(obj, list):
        return tuple(bits.from_str(s)[0] for s in obj)
    return bits.from_str(obj)[0]


def _quantum_to_json_opaque(q) -> dict:
    if isinstance(q, TwoTermState):
        terms = sorted((bits.to_str(q.i, q.n), bits.to_str(q.i ^ q.k, q.n)))
        return {"terms": terms, "rel_phase": q.rel_phase}
    return q.to_json()


def _quantum_from_json(obj: dict):
    if "qubits" in obj:
        return ProductState.from_json(obj)
    return TwoTermState.from_json(obj)


def public_key_to_json(pk: PublicKey, seed: int | None = None) -> dict:
    return {
        "scheme": pk.scheme.value,
        "n": pk.n,
        "m": pk.m,
        "seed": seed,
        "label": _label_to_json(pk.label, pk.m),
        "quantum": pk.quantum.to_json(),
    }


def public_key_from_json(obj: dict) -> PublicKey:
    return PublicKey(SchemeId(obj["scheme"]), obj["n"], obj["m"],
                     _label_from_json(obj["label"]),
                     _quantum_from_json(obj["quantum"]))


def ciphertext_to_json(ct: Ciphertext, seed: int | None = None) -> dict:
    return {
        "scheme": ct.scheme.value,
        "n": ct.n,
        "m": ct.m,
        "seed": seed,
        "label": _label_to_json(ct.label, ct.m),
        "quantum": ct.quantum.to_json(),
    }


def ciphertext_from_json(obj: dict) -> Ciphertext:
    return Ciphertext(SchemeId(obj["scheme"]), obj["n"], obj["m"],
                      _label_from_json(obj["label"]),
                      _quantum_from_json(obj["quantum"]))


def private_key_to_json(sk: PrivateKey, seed: int | None = None) -> dict:
    out: dict = {"scheme": sk.scheme.value, "n": sk.n, "m": sk.m, "seed": seed}
    if sk.f is not None:
        out["f"] = sk.f.to_json()
    if sk.f1 is not None:
        out["f1"] = sk.f1.to_json()
    if sk.f2 is not None:
        out["f2"] = sk.f2.to_json()
    if sk.l is not None:
        out["l"] = bits.to_str(sk.l, sk.m)
    if sk.scheme == SchemeId.PAN10:
        out["pan10_table"] = {bits.to_str(s, sk.m): bits.to_str(i, sk.n)
                              for s, i in sorted(sk.pan10_table.items())}
    return out


def private_key_from_json(obj: dict) -> PrivateKey:
    scheme = SchemeId(obj["scheme"])
    sk = PrivateKey(scheme, obj["n"], obj["m"])
    if "f" in obj:
        sk.f = AnfFunction.from_json(obj["f"])
    if "f1" in obj:
        sk.f1 = AnfFunction.from_json(obj["f1"])
    if "f2" in obj:
        sk.f2 = AnfFunction.from_json(obj["f2"])
    if "l" in obj:
        sk.l = bits.from_str(obj["l"])[0]
    for s_str, i_str in obj.get("pan10_table", {}).items():
        sk.pan10_table[bits.from_str(s_str)[0]] = bits.from_str(i_str)[0]
    return sk
