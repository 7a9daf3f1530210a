"""Pinned digests of the report CSVs.

One digest covers `qpke sweep` at seeds 0 and 3. The other covers
`analyze --target multicopy` at n = 1..3 and t = 0..3 wherever
n*(t+1) <= 10, for both reuse modes and both key models (sampled_anf with
30 samples at seed 4). The CSV prints each float to 12 significant digits,
so a refactor that reorders a sum keeps these digests; one that changes a
draw, a row or a value beyond that precision does not.
"""
import hashlib

import pytest

from qpke.cli import main

DIGESTS = {
    "sweep": "10e2904d8f36d1f677f5ad2ae9ad817b25c2bd6c831c5e2189d8b42598457f37",
    "multicopy": "fec366aed2b1268162c2b8d0b726b43d6ea9a7c11556eea5123bfc483fa3997e",
}


def _csv(argv, tmp_path) -> bytes:
    out = tmp_path / "out.csv"
    assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
    return out.read_bytes()


def sweep_digest(tmp_path) -> str:
    h = hashlib.sha256()
    for seed in (0, 3):
        h.update(_csv(["sweep", "--seed", str(seed)], tmp_path))
    return h.hexdigest()


def multicopy_digest(tmp_path) -> str:
    h = hashlib.sha256()
    for key_model, extra in (("uniform_k", []),
                             ("sampled_anf", ["--samples", "30", "--seed", "4"])):
        for reuse in ("fresh_s", "shared_s"):
            for n, t in (("1", "0..3"), ("2", "0..3"), ("3", "0..2")):
                h.update(_csv(["analyze", "--target", "multicopy", "--n", n, "--t", t,
                               "--reuse", reuse, "--key-model", key_model, *extra],
                              tmp_path))
    return h.hexdigest()


@pytest.mark.parametrize("name, digest", [("sweep", sweep_digest),
                                          ("multicopy", multicopy_digest)])
def test_report_csv_digest(name, digest, tmp_path):
    assert digest(tmp_path) == DIGESTS[name]
