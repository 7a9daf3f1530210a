"""Attack simulations: key recovery from superposition keys, collision
baselines, and the optimal distinguishing game."""
import json

import numpy as np
import pytest

from qpke import attacks, bits
from qpke.analysis import cipher_mixture
from qpke.attacks import (GAME_SCHEMES, AttackOutcome, DistinguisherOutcome,
                          ciphertext_distinguisher, owt_inversion_baseline,
                          pan10_key_recovery, pan10_measure_equation,
                          pan10_shared_key_stream)
from qpke.boolfn import gf2_nullspace
from qpke.qsym import ProductState, TwoTermState
from qpke.schemes import SCHEMES, SchemeId, keygen, message_width

import dense_oracles
from dense_oracles import helstrom_advantage, helstrom_projector


def test_measure_equation_support():
    # for (|i> + |i^k>)/sqrt(2) every Hadamard-basis outcome y satisfies y.k=0
    rng = np.random.default_rng(60)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 1 << n))
        i = int(rng.integers(0, 1 << n))
        y = pan10_measure_equation(TwoTermState(n, i, k), rng)
        assert bits.dot(y, k) == 0


def test_measure_equation_flipped_phase_support():
    # with relative phase -1 the support flips to y.k=1
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 1 << n))
        y = pan10_measure_equation(TwoTermState(n, 0, k, rel_phase=2), rng)
        assert bits.dot(y, k) == 1


def test_measure_equation_outcomes_cover_the_orthogonal_space():
    rng = np.random.default_rng(62)
    counts = {0b00: 0, 0b10: 0}
    for _ in range(400):
        y = pan10_measure_equation(TwoTermState(2, 0b11, 0b01), rng)
        counts[y] += 1
    assert set(counts) == {0b00, 0b10}
    assert min(counts.values()) > 150  # ~200 each, > 6 sigma of slack


def _dense_measure_equation(state, rng, h):
    """The dense sampler: outcome probabilities from H^(x)n amplitudes (h;
    only the state's two nonzero entries contribute), one rng.random()
    inverted through their cumulative sum."""
    vec = state.to_vector()
    nz = np.flatnonzero(vec)
    probs = np.abs(h[:, nz] @ vec[nz]) ** 2
    probs /= probs.sum()
    return int(np.searchsorted(np.cumsum(probs), rng.random()))


def _dense_hadamard(n):
    """H^(x)n, one np.kron per qubit."""
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    h = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        h = np.kron(h, h1)
    return h


def test_measure_equation_matches_dense_oracle():
    # same outcome and same generator state as the dense route, every draw
    pick = np.random.default_rng(75)
    draws = 0
    for n in range(1, 11):
        h = _dense_hadamard(n)
        for phase in range(4):
            fast, dense = np.random.default_rng([n, phase]), np.random.default_rng([n, phase])
            for _ in range(500):
                state = TwoTermState(n, int(pick.integers(0, 1 << n)),
                                     int(pick.integers(1, 1 << n)), phase,
                                     int(pick.integers(0, 4)))
                assert pan10_measure_equation(state, fast) == \
                    _dense_measure_equation(state, dense, h)
                assert fast.bit_generator.state == dense.bit_generator.state
                draws += 1
    assert draws >= 20_000


@pytest.mark.parametrize("n", [54, 64, 256])
def test_measure_equation_fills_every_bit_past_one_double(n):
    # a double holds 53 random bits; every free bit must still vary
    rng = np.random.default_rng(76 + n)
    for phase in (0, 2):
        k = bits.rand_bits(rng, n) | 1 << int(rng.integers(0, n))
        state = TwoTermState(n, bits.rand_bits(rng, n), k, phase)
        ys = [pan10_measure_equation(state, rng) for _ in range(200)]
        assert all(bits.dot(y, k) == phase // 2 for y in ys)
        for pos in set(range(n)) - {(k & -k).bit_length() - 1}:
            assert {y >> pos & 1 for y in ys} == {0, 1}, pos


@pytest.mark.parametrize("n", [1, 2, 53, 54, 55, 64, 256])
def test_measure_equation_draws_one_double_then_the_missing_bits(n):
    for phase in range(4):
        rng, replay = np.random.default_rng([77, n, phase]), np.random.default_rng([77, n, phase])
        pan10_measure_equation(TwoTermState(n, 0, 1, phase), rng)
        replay.random()
        bits.rand_bits(replay, max(n - (phase % 2 == 0) - 53, 0))
        assert rng.bit_generator.state == replay.bit_generator.state


def test_shared_stream_repeats_one_key():
    rng = np.random.default_rng(63)
    stream = pan10_shared_key_stream(4, rng)
    first = next(stream)
    for _ in range(3):
        pk = next(stream)
        assert pk.label == first.label
        assert not pk.consumed
        assert pk.quantum.i == first.quantum.i
        assert pk.quantum.k == first.quantum.k


def test_key_recovery_runs():
    rng = np.random.default_rng(64)
    n = 5
    copies = []
    for run in range(100):
        out = pan10_key_recovery(pan10_shared_key_stream(n, rng), 50, rng, seed=run)
        assert out.success
        assert out.recovered is not None and bits.parity(out.recovered) == 1
        assert len(out.equations) == out.copies_used
        for y in out.equations:
            assert bits.dot(y, out.recovered) == 0
        copies.append(out.copies_used)
    mean = float(np.mean(copies))
    assert n - 1 <= mean <= n + 3
    assert min(copies) >= n - 1  # fewer equations cannot pin down a line


def test_key_recovery_at_n64():
    rng = np.random.default_rng(78)
    for run in range(20):
        out = pan10_key_recovery(pan10_shared_key_stream(64, rng), 4 * 64, rng, seed=run)
        assert out.success
        assert 63 <= out.copies_used <= 4 * 64


def test_key_recovery_stops_where_the_equations_first_leave_one_line():
    # the incremental echelon basis against re-eliminating every equation so far
    rng = np.random.default_rng(79)
    for n in (2, 8, 40):
        out = pan10_key_recovery(pan10_shared_key_stream(n, rng), 4 * n + 8, rng)
        assert out.success
        assert gf2_nullspace(out.equations, n) == [out.recovered]
        assert len(gf2_nullspace(out.equations[:-1], n)) > 1


def test_key_recovery_budget_exhausted_is_failure():
    rng = np.random.default_rng(65)
    out = pan10_key_recovery(pan10_shared_key_stream(5, rng), 2, rng)
    assert not out.success
    assert out.recovered is None
    assert out.copies_used == 2


def test_key_recovery_input_validation():
    rng = np.random.default_rng(66)
    with pytest.raises(ValueError):
        pan10_key_recovery(iter([]), 5, rng)
    _, (pk,) = keygen(SchemeId.A, 3, rng)
    with pytest.raises(ValueError):
        pan10_key_recovery(iter([pk]), 5, rng)


def test_attack_outcome_invariants():
    with pytest.raises(ValueError):
        AttackOutcome("t", 3, True, 4, 0)
    with pytest.raises(ValueError):
        AttackOutcome("t", 3, True, 4, 0b011, equations=[0b001])
    out = AttackOutcome("t", 3, True, 4, 0b110, equations=[0b001, 0b111])
    assert out.to_json()["recovered"] == "110"
    assert out.to_json()["equations"] == ["001", "111"]
    assert out.to_csv_row() == "t,3,4,true,"
    failed = AttackOutcome("t", 3, False, 9, None, seed=5)
    assert failed.to_json()["recovered"] is None
    assert failed.to_csv_row() == "t,3,9,false,5"
    assert AttackOutcome.csv_header().split(",") == ["target", "n", "copies_used", "success",
                                                     "seed"]


def test_owt_collision_rate():
    rng = np.random.default_rng(67)
    # the helper itself enforces the 3-sigma band
    rate = owt_inversion_baseline(1, 4000, rng)
    assert 0.0 < rate < 1.0
    rate = owt_inversion_baseline(4, 4000, rng)
    assert rate < 0.2


def owt_routes(n, trials, make_rng):
    """For the package's route and the reference loop, each on a fresh
    make_rng(): the rate or the 3-sigma miss's message, and the final
    generator state (as JSON: some bit generators keep arrays in it)."""
    results = []
    for baseline in (owt_inversion_baseline, dense_oracles.owt_inversion_baseline):
        rng = make_rng()
        try:
            result = repr(baseline(n, trials, rng))
        except AssertionError as exc:
            result = str(exc)
        results.append((result, json.dumps(rng.bit_generator.state, sort_keys=True,
                                           default=lambda a: a.tolist())))
    return results


@pytest.mark.parametrize("n, trials", [
    (1, 1), (1, 3), (1, 1023), (1, 1024), (1, 1025), (1, 2049),  # n = 1: 1 trial in 4 retries
    (2, 1025), (5, 3000), (8, 1024), (8, 2048), (16, 1025),
    (17, 3), (20, 3),  # 64-bit input words: drawn one at a time
])
@pytest.mark.parametrize("seed", range(3))
def test_bulk_collision_baseline_matches_the_scalar_loop(n, trials, seed):
    bulk, scalar = owt_routes(n, trials, lambda: np.random.default_rng(seed))
    assert bulk == scalar


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_small_blocks_keep_the_draws(block, n, monkeypatch):
    # a one-trial block at n = 1 often ends inside an x_i retry run
    monkeypatch.setattr(attacks, "_OWT_BLOCK", block)
    for seed in range(4):
        bulk, scalar = owt_routes(n, 300, lambda: np.random.default_rng(seed))
        assert bulk == scalar


def test_bulk_collision_baseline_keeps_the_raise():
    # 561 collisions in 1025 trials at n = 1: 3.03 sigma above 1/2
    bulk, scalar = owt_routes(1, 1025, lambda: np.random.default_rng(82))
    assert bulk == scalar
    assert bulk[0].startswith("collision rate 0.5473170731707317 deviates from 0.5")


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64, np.random.PCG64DXSM])
def test_bulk_collision_baseline_matches_on_other_bit_generators(bit_generator):
    for n in (1, 6):
        bulk, scalar = owt_routes(n, 1500, lambda: np.random.Generator(bit_generator(5)))
        assert bulk == scalar


def test_owt_validation():
    rng = np.random.default_rng(69)
    for bad_n in (0, 21):
        with pytest.raises(ValueError):
            owt_inversion_baseline(bad_n, 10, rng)
    with pytest.raises(ValueError):
        owt_inversion_baseline(3, 0, rng)


def test_distinguisher_b_is_blind():
    rng = np.random.default_rng(70)
    out = ciphertext_distinguisher(SchemeId.B, 2, 3000, rng, seed=70)
    assert abs(out.analytic - 0.5) < 1e-9
    assert out.success
    assert abs(out.empirical - 0.5) <= 3 * out.sigma


def test_distinguisher_a_beats_coin_flips():
    rng = np.random.default_rng(71)
    out = ciphertext_distinguisher(SchemeId.A, 1, 4000, rng, seed=71)
    assert abs(out.analytic - (0.5 + np.sqrt(2) / 4)) < 1e-12
    assert out.success
    assert out.empirical > 0.75


def test_distinguisher_m2_is_blind():
    rng = np.random.default_rng(72)
    out = ciphertext_distinguisher(SchemeId.M2, 2, 3000, rng)
    assert abs(out.analytic - 0.5) < 1e-9
    assert out.success


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scheme", GAME_SCHEMES)
def test_every_ciphertext_is_accepted_with_probability_tr_p_rho(scheme, n):
    # The game measures each sample of message b against tr(P rho_b); every
    # ciphertext Y_j H_k |i> of b must give that value densely.
    messages = (0, (1 << message_width(scheme, n)) - 1)
    rho = [cipher_mixture(scheme, n, message) for message in messages]
    proj = helstrom_projector(*rho)
    strings = np.arange(1 << n)
    even = [v for v in strings if bits.parity(v) == 0]
    for b, message in enumerate(messages):
        i_set = even if scheme == SchemeId.A else strings
        j_set = [message] if SCHEMES[scheme].wide else \
            [v for v in strings if bits.parity(v) == message]
        i, k, j = (a.ravel() for a in np.meshgrid(i_set, strings, j_set, indexing="ij"))
        vecs = np.array([ProductState.from_bits(ii, n).apply_hk(kk).apply_yj(jj).to_vector()
                         for ii, kk, jj in zip(i.tolist(), k.tolist(), j.tolist())])
        dense = np.einsum("rd,rd->r", vecs.conj() @ proj, vecs).real
        accept = float(np.trace(proj @ rho[b]).real)
        assert np.max(np.abs(dense - accept)) <= 1e-14
        # the closed form the game measures against
        closed = 0.5 + (-1) ** b * 0.5 * (np.sqrt(2) / 2) ** n if scheme == SchemeId.A else 1.0
        assert abs(accept - closed) <= 1e-14


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("scheme", GAME_SCHEMES)
def test_closed_form_ceiling_matches_dense_trace_distance(scheme, n):
    messages = (0, (1 << message_width(scheme, n)) - 1)
    dense, _ = helstrom_advantage(*(cipher_mixture(scheme, n, m) for m in messages))
    out = ciphertext_distinguisher(scheme, n, 1, np.random.default_rng(n))
    assert abs(out.analytic - dense) <= 1e-12


@pytest.mark.parametrize("scheme", GAME_SCHEMES)
def test_distinguisher_never_densifies(scheme, monkeypatch):
    monkeypatch.setenv("QPKE_DIM_CAP", "2")
    out = ciphertext_distinguisher(scheme, 64, 200, np.random.default_rng(75))
    assert out.n == 64 and out.samples == 200
    assert abs(out.analytic - (0.5 + 0.5 * 0.5 ** 32 if scheme == SchemeId.A else 0.5)) <= 1e-15


def test_distinguisher_rejects_zero_qubits():
    rng = np.random.default_rng(76)
    for scheme in GAME_SCHEMES:
        with pytest.raises(ValueError, match="n must be >= 1"):
            ciphertext_distinguisher(scheme, 0, 10, rng)


def test_distinguisher_rejects_other_schemes():
    rng = np.random.default_rng(73)
    for scheme in (SchemeId.M1, SchemeId.ENH, SchemeId.PAN10):
        with pytest.raises(ValueError):
            ciphertext_distinguisher(scheme, 2, 10, rng)


def test_distinguisher_rejects_zero_samples():
    rng = np.random.default_rng(74)
    for samples in (0, -1):
        with pytest.raises(ValueError):
            ciphertext_distinguisher(SchemeId.A, 2, samples, rng)


def test_distinguisher_outcome_serialization():
    out = DistinguisherOutcome("distinguish", "a", 2, 100, 0.84, 0.85, 0.04, True, 9)
    blob = out.to_json()
    assert blob["scheme"] == "a" and blob["samples"] == 100 and blob["success"]
    assert out.to_csv_row() == "distinguish,2,100,true,9"
