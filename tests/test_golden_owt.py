"""Pinned digest of the output-collision baseline.

The digest covers `owt_inversion_baseline` at n = 1..20 and seeds 0-4: at
n <= 16 with 1, 1023 and 1025 trials (one trial, and either side of a
1,024-trial block), at n >= 17 with 1 and 5 trials, and at one point where
the rate misses its 3-sigma band. Each point hashes repr of the rate, or
the message of the 3-sigma AssertionError, together with the final
generator state. The rate is a count over the trials, so the digest
changes exactly when a draw, the order of the draws, or a verdict changes.
A faster sampler must leave this value alone.
"""
import hashlib
import json

import numpy as np
import pytest

from qpke.attacks import owt_inversion_baseline

DIGEST = "ed3fcdd414c20b35054f41bcd41a3d98c92ce8d7456bf0c74511d05aeffadcba"

# n, trials, seed: 561 collisions in 1025 trials, 3.03 sigma above 1/2.
RAISING_POINT = (1, 1025, 82)


def trial_counts(n: int) -> tuple[int, ...]:
    return (1, 1023, 1025) if n <= 16 else (1, 5)


def outcome(n: int, trials: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    try:
        result = repr(owt_inversion_baseline(n, trials, rng))
    except AssertionError as exc:
        result = str(exc)
    return [n, trials, seed, result, rng.bit_generator.state]


def owt_digest() -> str:
    h = hashlib.sha256()
    for n in range(1, 21):
        for trials in trial_counts(n):
            for seed in range(5):
                h.update(json.dumps(outcome(n, trials, seed), sort_keys=True).encode())
    h.update(json.dumps(outcome(*RAISING_POINT), sort_keys=True).encode())
    return h.hexdigest()


def test_owt_digest():
    assert owt_digest() == DIGEST


def test_digest_covers_a_missed_band():
    n, trials, seed = RAISING_POINT
    with pytest.raises(AssertionError, match="deviates from"):
        owt_inversion_baseline(n, trials, np.random.default_rng(seed))
