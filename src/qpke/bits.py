"""Small helpers for bitstrings stored as Python ints.

Strings are printed MSB-first: position 0 (the leftmost character) is the
most significant bit, so ``to_str(0b0110, 4) == "0110"``.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "weight",
    "parity",
    "dot",
    "bit_at",
    "to_str",
    "from_str",
    "rand_bits",
    "rand_bits_many",
    "rand_parity_bits",
]


def weight(x: int) -> int:
    """Hamming weight of x."""
    return x.bit_count()


def parity(x: int) -> int:
    """Hamming weight of x mod 2."""
    return x.bit_count() & 1


def dot(a: int, b: int) -> int:
    """GF(2) inner product of two bit vectors."""
    return (a & b).bit_count() & 1


def bit_at(x: int, pos: int, width: int) -> int:
    """Bit at position pos (0 = leftmost / most significant) of a width-bit string."""
    if not 0 <= pos < width:
        raise IndexError(f"bit position {pos} out of range for width {width}")
    return (x >> (width - 1 - pos)) & 1


def to_str(x: int, width: int) -> str:
    """MSB-first string form, e.g. to_str(6, 4) == '0110'."""
    if x < 0 or x >= 1 << width:
        raise ValueError(f"{x} does not fit in {width} bits")
    return format(x, f"0{width}b") if width else ""


def from_str(s: str) -> tuple[int, int]:
    """Parse an MSB-first bitstring; returns (value, width)."""
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"not a bitstring: {s!r}")
    return int(s, 2), len(s)


def rand_bits(rng: np.random.Generator, width: int) -> int:
    """Uniform width-bit integer drawn from rng, one 62-bit chunk per draw,
    most significant chunk first."""
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    x = 0
    remaining = width
    while remaining > 0:
        chunk = min(remaining, 62)
        x = (x << chunk) | int(rng.integers(0, 1 << chunk))
        remaining -= chunk
    return x


def rand_bits_many(rng: np.random.Generator, width: int, count: int) -> list[int]:
    """count uniform width-bit integers from one rng.integers call: the same
    values, and the same generator state after, as count calls of rand_bits.
    Worth it for many values; a single value is faster through rand_bits."""
    if width < 0 or count < 0:
        raise ValueError(f"width and count must be >= 0, got width={width}, count={count}")
    if width == 0 or count == 0:
        return [0] * count
    chunks = [62] * (width // 62) + ([width % 62] if width % 62 else [])
    highs = np.tile(np.left_shift(1, chunks, dtype=np.int64), count)
    draws = rng.integers(0, highs).reshape(count, len(chunks)).T
    if len(chunks) > 1 and chunks[-1] <= 2 and count >= 32:
        # a last chunk of one or two bits fits in one uint64 with the chunk
        # above it: numpy joins them, so a mask of up to 64 bits needs no fold
        # (below ~32 values the join costs more than the fold it saves)
        tail = chunks.pop()
        chunks[-1] += tail
        high, low = draws[-2:].view(np.uint64)
        columns = draws[:-2].tolist() + [((high << np.uint64(tail)) | low).tolist()]
    else:
        columns = draws.tolist()
    out = columns[0]
    for chunk, column in zip(chunks[1:], columns[1:]):
        out = [(x << chunk) | y for x, y in zip(out, column)]
    return out


def rand_parity_bits(rng: np.random.Generator, width: int, par: int) -> int:
    """Uniform width-bit integer with prescribed Hamming-weight parity."""
    if width < 1:
        raise ValueError("width must be >= 1")
    head = rand_bits(rng, width - 1) if width > 1 else 0
    last = par ^ parity(head)
    return (head << 1) | last
