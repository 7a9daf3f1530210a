"""Acceptance battery: every headline identity, bound, and attack at a
pinned tolerance and runtime budget, one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""
import time
from dataclasses import replace
from functools import reduce

import numpy as np
import scipy.stats

from qpke import analysis, bits, qmat
from qpke.analysis import (channel_e1, channel_e2, cipher_mixture, identity_mixture,
                           pan10_mixture_distance, sigma_b)
from qpke.attacks import (owt_inversion_baseline, pan10_key_recovery,
                          pan10_shared_key_stream)
from qpke.boolfn import RandomOracle, generate_balanced_f2
from qpke.qsym import GATE_ACTIONS, ProductState
from qpke.schemes import SchemeId, decrypt, encrypt, keygen, message_width

from dense_oracles import helstrom_advantage

SQ = np.sqrt(2) / 2
GATES = tuple(GATE_ACTIONS)

GATE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": SQ * np.array([[1, 1], [1, -1]], dtype=complex),
}


def _verdict(num: int, name: str, ok: bool, detail: str, elapsed: float,
             budget: float) -> None:
    ok = ok and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status}  {detail}  "
          f"({elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}, elapsed {elapsed:.2f}s"


def test_criterion_01_sigma_bound_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        d = qmat.trace_distance(sigma_b(n, 0), sigma_b(n, 1))
        worst = max(worst, abs(d - SQ ** n))
    _verdict(1, "sigma-bound", worst < 1e-10,
             f"max |D - (sqrt2/2)^n| = {worst:.3e} over n=1..8",
             time.perf_counter() - start, 10)


def test_criterion_02_channel_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        for b in (0, 1):
            lhs = channel_e2(channel_e1(sigma_b(n, b)))
            rhs = cipher_mixture(SchemeId.A, n, b)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _verdict(2, "channel-identity", worst < 1e-10,
             f"max entrywise |E2(E1(sigma_b)) - rho_b| = {worst:.3e}",
             time.perf_counter() - start, 30)


def test_criterion_03_scheme_a_cipher_bound():
    start = time.perf_counter()
    ok = True
    eq_dev = None
    worst_slack = -1.0
    for n in range(1, 7):
        d = qmat.trace_distance(cipher_mixture(SchemeId.A, n, 0), cipher_mixture(SchemeId.A, n, 1))
        ok &= d <= SQ ** n + 1e-9
        worst_slack = max(worst_slack, d - SQ ** n)
        if n == 1:
            eq_dev = abs(d - SQ)
            ok &= eq_dev < 1e-10
    _verdict(3, "scheme-a-cipher", ok,
             f"max D - bound = {worst_slack:.3e}; |D(n=1) - sqrt2/2| = {eq_dev:.3e}",
             time.perf_counter() - start, 60)


def test_criterion_04_perfect_indistinguishability():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 6):
        eye = identity_mixture(n)
        for b in (0, 1):
            worst = max(worst, float(np.max(np.abs(
                cipher_mixture(SchemeId.B, n, b) - eye))))
        for scheme in (SchemeId.M1, SchemeId.M2):
            for msg in range(1 << n):
                worst = max(worst, float(np.max(np.abs(
                    cipher_mixture(scheme, n, msg) - eye))))
        for k in range(1 << n):
            worst = max(worst, float(np.max(np.abs(
                analysis._b_pubkey_state(n, k, None) - eye))))
    _verdict(4, "indistinguishability", worst < 1e-10,
             f"max entrywise |mixture - I/2^n| = {worst:.3e} over n=2..5",
             time.perf_counter() - start, 60)


def test_criterion_05_superposition_key_bounds():
    start = time.perf_counter()
    ok = True
    worst_margin = 1.0
    points = 0
    for n in range(3, 7):
        for t in (1, 2):
            if n * t > 10:
                continue
            points += 1
            per, comb = pan10_mixture_distance(n, t)
            per_bound = np.sqrt(1 / 2 ** (n - t + 1))
            comb_bound = np.sqrt(1 / 2 ** (n - t - 1))
            ok &= per.computed < per_bound
            ok &= comb.computed <= comb_bound
            worst_margin = min(worst_margin, per_bound - per.computed,
                               comb_bound - comb.computed)
    _verdict(5, "superposition-bounds", ok and points == 7,
             f"{points} (n,t) points, min bound margin = {worst_margin:.4f}",
             time.perf_counter() - start, 300)


def test_criterion_06_protocol_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(600)
    failures = 0
    total = 0
    for scheme in SchemeId:
        for n in range(2, 7):
            width = message_width(scheme, n)
            for _ in range(200):
                sk, (pk,) = keygen(scheme, n, rng)
                message = bits.rand_bits(rng, width)
                ct = encrypt(pk, message, rng)
                failures += decrypt(sk, ct) != message
                total += 1
    _verdict(6, "round-trips", failures == 0,
             f"{total - failures}/{total} decryptions correct "
             f"(6 schemes x n=2..6 x 200)",
             time.perf_counter() - start, 60)


def test_criterion_07_key_recovery_attack():
    start = time.perf_counter()
    rng = np.random.default_rng(700)
    n = 8
    wins = 0
    copies = []
    equations_ok = True
    for run in range(500):
        stream = pan10_shared_key_stream(n, rng)
        first = next(stream)
        true_k = first.quantum.k
        out = pan10_key_recovery(stream, 4 * n, rng, seed=run)
        wins += out.success
        copies.append(out.copies_used)
        equations_ok &= all(bits.dot(y, true_k) == 0 for y in out.equations)
    rate = wins / 500
    mean = float(np.mean(copies))
    ok = rate >= 0.99 and n - 1 <= mean <= n + 3 and equations_ok
    _verdict(7, "key-recovery", ok,
             f"recovery rate = {rate:.3f}, mean copies = {mean:.2f}, "
             f"all equations orthogonal = {equations_ok}",
             time.perf_counter() - start, 60)


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(800)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        state = ProductState.from_bits(bits.rand_bits(rng, n), n)
        dense = state.to_vector()
        for _ in range(int(rng.integers(0, 21))):
            gate = GATES[rng.integers(0, len(GATES))]
            pos = int(rng.integers(0, n))
            state = state.apply_mask(gate, 1 << (n - 1 - pos))
            op = reduce(np.kron, [GATE_MATRICES[gate] if a == pos
                                  else GATE_MATRICES["I"] for a in range(n)])
            dense = op @ dense
        sym = state.to_vector()
        dev = min(float(np.max(np.abs(sym * (1j ** p) - dense))) for p in range(4))
        worst = max(worst, dev)
    _verdict(8, "oracle-equivalence", worst < 1e-12,
             f"1000 evolutions, worst entrywise deviation = {worst:.3e}",
             time.perf_counter() - start, 60)


def test_criterion_09_statistical_checks():
    start = time.perf_counter()
    ok = True
    details = []
    rng = np.random.default_rng(900)
    for n in (1, 4, 8):
        trials = 1_000_000
        rate = owt_inversion_baseline(n, trials, rng)  # raises beyond 3 sigma
        p = 0.5 ** n
        sigma = np.sqrt(p * (1 - p) / trials)
        details.append(f"owt n={n}: {abs(rate - p) / sigma:.2f} sigma")
    samples = 100_000
    for n in range(1, 5):
        rho0 = cipher_mixture(SchemeId.A, n, 0)
        rho1 = cipher_mixture(SchemeId.A, n, 1)
        analytic, empirical = helstrom_advantage(rho0, rho1, samples=samples, rng=rng)
        sigma = np.sqrt(analytic * (1 - analytic) / samples)
        ok &= abs(empirical - analytic) <= 3 * sigma
    rho0 = cipher_mixture(SchemeId.B, 2, 0)
    rho1 = cipher_mixture(SchemeId.B, 2, 1)
    analytic, empirical = helstrom_advantage(rho0, rho1, samples=samples, rng=rng)
    sigma = np.sqrt(0.25 / samples)
    ok &= abs(analytic - 0.5) < 1e-9 and abs(empirical - analytic) <= 3 * sigma
    _verdict(9, "statistics", ok,
             "; ".join(details) + "; helstrom A n=1..4 and B within 3 sigma",
             time.perf_counter() - start, 300)


def test_criterion_10_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1000)

    worst_tensor = 0.0
    for _ in range(200):
        da, db = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        dev = abs(qmat.trace_norm(np.kron(a, b)) -
                  qmat.trace_norm(a) * qmat.trace_norm(b))
        worst_tensor = max(worst_tensor, dev)
    tensor_ok = worst_tensor < 1e-9

    contract_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        sig = g @ g.conj().T
        sig /= np.trace(sig)
        d_in = qmat.trace_distance(rho, sig)
        for chan in (channel_e1, channel_e2):
            contract_ok &= qmat.trace_distance(chan(rho), chan(sig)) <= d_in + 1e-12

    m, n_out = 8, 4
    counts = np.zeros(1 << n_out)
    for _ in range(500):
        oracle = RandomOracle(m, n_out, rng)
        counts[oracle(bits.rand_bits(rng, m))] += 1
    expected = 500 / (1 << n_out)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    critical = float(scipy.stats.chi2.ppf(0.99, (1 << n_out) - 1))
    uniform_ok = chi2 < critical

    balance_ok = True
    for idx in range(200):
        m_f = (4, 6, 8)[idx % 3]
        f = generate_balanced_f2(m_f, rng)
        table = [f.evaluate(x) & 1 for x in range(1 << m_f)]
        balance_ok &= sum(table) == 1 << (m_f - 1)
        flipped = replace(f, constants=f.constants ^ 1)
        comp = [flipped.evaluate(x) & 1 for x in range(1 << m_f)]
        balance_ok &= sum(comp) == 1 << (m_f - 1)
        balance_ok &= all(c == t ^ 1 for c, t in zip(comp, table))

    ok = tensor_ok and contract_ok and uniform_ok and balance_ok
    _verdict(10, "property-suite", ok,
             f"tensor dev = {worst_tensor:.3e}; contractivity = {contract_ok}; "
             f"chi2 = {chi2:.1f} < {critical:.1f}; balance+closure = {balance_ok}",
             time.perf_counter() - start, 300)
