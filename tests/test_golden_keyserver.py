"""Pinned digests of key serving at the keyserver workload's sizes.

Each digest covers one private key per seed (seeds 0-2) and eight served
operations under it: issue one public key, encrypt a random message and
decrypt. a, m1, m2 and pan10 run at n = 64 (m = 128); b and enh at n = 8
with m = 16, where F2 is a uniform balanced ANF of about 2^15 monomials.
The digest holds every public-key and ciphertext JSON, every decrypted
value and the generator state after the last operation, so it changes
exactly when a draw, the order of the draws or an evaluated key bit
changes. A change to how keys are evaluated or how symbols are stepped
must leave these values alone.
"""
import hashlib
import json

import numpy as np
import pytest

from qpke import bits, schemes
from qpke.schemes import SchemeId

SIZES = {"a": (64, None), "m1": (64, None), "m2": (64, None), "pan10": (64, None),
         "b": (8, 16), "enh": (8, 16)}
OPERATIONS = 8

DIGESTS = {
    "a": "3bb457a5b88dfaffe00ddc3de2998b06b59e5da40b2cec0fa49277336e01e07f",
    "m1": "d2af21f9759809b46d77ff6ca5100608a07468997836a200b684657d866c629b",
    "m2": "e26c8f702df1488fb82c531db181e6b2419243da6f1397ab5c18ddb539b2a7c9",
    "pan10": "70e394a1cb2fc337a21207cf1a2e19872b39e80f4f7b5fec7c6beae544a4a415",
    "b": "3d7b92a63bbb4d968fcca7b341776712b2d046e5a0b7629393889e1874e0cb3e",
    "enh": "647e9c0c02f67d6c7e082c0749dc6fbeea9347c3cfee07dade550c63032345f9",
}


def serving_digest(scheme: SchemeId) -> str:
    n, m = SIZES[scheme.value]
    width = schemes.message_width(scheme, n)
    h = hashlib.sha256()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        sk, _ = schemes.keygen(scheme, n, rng, m=m, count=0)
        docs = []
        for _ in range(OPERATIONS):
            (pk,) = schemes.issue_public_keys(sk, 1, rng)
            docs.append(schemes.public_key_to_json(pk))
            ct = schemes.encrypt(pk, bits.rand_bits(rng, width), rng)
            docs.append(schemes.ciphertext_to_json(ct))
            docs.append(bits.to_str(schemes.decrypt(sk, ct), width))
        docs.append(rng.bit_generator.state)
        h.update(json.dumps(docs, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_keyserver_transcript_digest(scheme):
    assert serving_digest(scheme) == DIGESTS[scheme.value]
