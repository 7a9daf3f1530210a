"""Pinned digests of the distinguishing game, one per scheme.

Each digest covers `ciphertext_distinguisher` at n in {1, 2, 3, 4} and seeds
0-4 (500 samples each): the empirical rate, repr of the analytic ceiling, the
3-sigma verdict and the final generator state. The empirical rate is a count
over the samples, so the digest changes exactly when a draw, the order of
the draws, or a measurement verdict changes. A refactor of the game must
leave these values alone.
"""
import hashlib
import json

import numpy as np
import pytest

from qpke.attacks import ciphertext_distinguisher
from qpke.schemes import SchemeId

SAMPLES = 500

DIGESTS = {
    "a": "6c12c773a3a84de204f5177597aeaabef09d6fee5ca26ad82363eaa682661475",
    "b": "21e4dc6d161fdd8eb2271ff58f37ae513a98d0e143ef3ab7e2610c067aedfa2e",
    "m2": "3d012c7a37161a36d89e84d6b62150fd22d4238caa594925438f6f326e080e4a",
}


def game_digest(scheme: SchemeId) -> str:
    h = hashlib.sha256()
    for n in range(1, 5):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            out = ciphertext_distinguisher(scheme, n, SAMPLES, rng, seed=seed)
            doc = [out.empirical, repr(out.analytic), out.success, rng.bit_generator.state]
            h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("scheme", [SchemeId.A, SchemeId.B, SchemeId.M2])
def test_distinguisher_digest(scheme):
    assert game_digest(scheme) == DIGESTS[scheme.value]
