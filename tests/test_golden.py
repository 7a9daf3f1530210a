"""Pinned digests of key generation and encryption, one per scheme.

Each digest covers keygen(count=4) and one encryption under every issued
public key, at n in {1, 3, 8} and seeds 0-4 (b and enh at m = 10 when
n = 8), followed by the generator state. The JSON forms hold integers and
bitstrings only, so the digest changes exactly when a draw, or the order of
the draws, changes. A refactor of `schemes` must leave these values alone.
"""
import hashlib
import json

import numpy as np
import pytest

from qpke import bits, schemes
from qpke.schemes import SchemeId

DIGESTS = {
    "a": "4caa7ff1d6e89513a01bf973119e5f9d73adc4d9c9cfd9fa03f207bec5029458",
    "b": "8f909cd3500a2a67e65fd3f2c4f230dda735fa0261fa3d20b2339b2045e7bfbf",
    "m1": "c85dc79a0d01866b828b65c52e9f68666309e920f2e40fa12363d3e61390cd3f",
    "m2": "d11d57c65b5f09312ce2d5966422aed28088e014bba939275ca69ca98aa6d212",
    "enh": "a3064589a3bd5d136c6dbf5fb1225b0c831db42f9a020707afb48c53898cda53",
    "pan10": "c7a30dd975d39a00f22f1a4c1fb7e70ee043346b7c73ff5bba8b6b7d6a040013",
}


def transcript_digest(scheme: SchemeId) -> str:
    h = hashlib.sha256()
    for n in (1, 3, 8):
        m = 10 if n == 8 and scheme in (SchemeId.B, SchemeId.ENH) else None
        width = schemes.message_width(scheme, n)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            sk, pks = schemes.keygen(scheme, n, rng, m=m, count=4)
            docs = [schemes.public_key_to_json(pk) for pk in pks]
            for pk in pks:
                message = bits.rand_bits(rng, width)
                docs.append(schemes.ciphertext_to_json(schemes.encrypt(pk, message, rng)))
            docs.append(schemes.private_key_to_json(sk))
            docs.append(rng.bit_generator.state)
            h.update(json.dumps(docs, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_keygen_and_encrypt_digest(scheme):
    assert transcript_digest(scheme) == DIGESTS[scheme.value]
