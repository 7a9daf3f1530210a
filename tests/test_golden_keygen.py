"""Pinned digests of balanced-F2 generation on every numpy bit generator.

Each digest covers generate_balanced_f2(m) at m = 1..14 and seeds 0-2: the
sorted monomial masks, the constant term and the generator state after each
draw, with and without a prior integers(0, 3) draw that leaves half of a
64-bit word buffered in the generator. A change to how candidates are drawn
or tested must leave the returned function and the generator state alone,
so these values change exactly when a draw, or the order of the draws,
changes.
"""
import hashlib
import json

import numpy as np
import pytest

from qpke.boolfn import generate_balanced_f2

DIGESTS = {
    "PCG64": "f87306b322138a0ddcd37383a3cc490abfa605fb471cb9c7caaa03dd75f4dd13",
    "MT19937": "273847b93de66a39ed89c828697bdcdb5875b94aacf2ab48f0c6c539c6c626fa",
    "Philox": "f5463950e36612d2884b3554eaf3dfbf29a482e72f324feccbd50bb9d87d09a5",
    "SFC64": "84a449f34a05228d03e8689a50057985b9f54e5f9ceacd290ebbe32a3177b00e",
}


def keygen_digest(bit_generator) -> str:
    h = hashlib.sha256()
    for m in range(1, 15):
        for seed in range(3):
            for prefix in (False, True):
                rng = np.random.Generator(bit_generator(seed))
                if prefix:
                    rng.integers(0, 3)
                f = generate_balanced_f2(m, rng)
                doc = [sorted(f.terms[0]), f.constants, rng.bit_generator.state]
                h.update(json.dumps(doc, sort_keys=True, default=np.ndarray.tolist).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_balanced_f2_digest(name):
    assert keygen_digest(getattr(np.random, name)) == DIGESTS[name]
