"""Pinned digests of key generation and encryption at wide inputs.

`test_golden.py` stops at n = 8, where every ANF mask fits one 62-bit draw
chunk. These digests pin the multi-chunk draws: a, m1, m2 and pan10 at
n in {31, 32, 64} (m = 62, 64, 128: one chunk, two chunks, three chunks)
and the balanced F2 of b and enh at n = 4 with m in {12, 14}. Each covers
keygen(count=4), one encryption under every issued public key and the
final generator state at seeds 0-2, so it changes exactly when a draw, or
the order of the draws, changes.
"""
import hashlib
import json

import numpy as np
import pytest

from qpke import bits, schemes
from qpke.schemes import SchemeId

CASES = {
    SchemeId.A: [(31, None), (32, None), (64, None)],
    SchemeId.M1: [(31, None), (32, None), (64, None)],
    SchemeId.M2: [(31, None), (32, None), (64, None)],
    SchemeId.PAN10: [(31, None), (32, None), (64, None)],
    SchemeId.B: [(4, 12), (4, 14)],
    SchemeId.ENH: [(4, 12), (4, 14)],
}

DIGESTS = {
    "a": "4874eae42afc7194d14925a0df6a72a3f8d0cad0e5ccd84eb22fefff481ec37a",
    "m1": "5fef2716656830a467e34fdcb77742e497dd4d00d123d3bfd533bcda58ba760f",
    "m2": "70baa9dad304ac55ccbb9ed9e889669850cc41a8ab00fff35b6f72ad5ac5550d",
    "pan10": "baccc8835ff6524c0664f05236dcd2fdec9b2f90e1d85dd7e5f2fab1577a7721",
    "b": "2c92428a3f915ce94df7908b39f94eca77d882e1ab7bd4352a0a2c0083ac6027",
    "enh": "b2089a22a1c56cefa6f30aa7272e45ec5dd8363da18f1ad14c1f84aee7b68c10",
}


def transcript_digest(scheme: SchemeId) -> str:
    h = hashlib.sha256()
    for n, m in CASES[scheme]:
        width = schemes.message_width(scheme, n)
        for seed in range(3):
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


@pytest.mark.parametrize("scheme", list(CASES))
def test_wide_keygen_and_encrypt_digest(scheme):
    assert transcript_digest(scheme) == DIGESTS[scheme.value]
