"""ANF machinery: generation by coin tossing, balance, GF(2) linear algebra.

The evaluation oracle used throughout is a deliberately naive per-variable
loop, so the vectorized truth tables and the int-mask evaluator are checked
against an independent route. The byte-butterfly truth table below is the
oracle for the packed-word balance test of generate_balanced_f2, and the
one-candidate-at-a-time loop below is the oracle for its block draws.
"""
import json
from dataclasses import replace

import numpy as np
import pytest

from qpke import bits, boolfn
from qpke.boolfn import (AnfFunction, GenerationError, RandomOracle, _anf_weights,
                         generate_balanced_f2, generate_random, gf2_insert, gf2_nullspace)


def naive_evaluate(f, s):
    out = 0
    for b, tset in enumerate(f.terms):
        bit = (f.constants >> (f.n_out - 1 - b)) & 1
        for mask in tset:
            prod = 1
            for a in range(f.m):
                sel = (mask >> (f.m - 1 - a)) & 1
                if sel and not ((s >> (f.m - 1 - a)) & 1):
                    prod = 0
            bit ^= prod
        out = (out << 1) | bit
    return out


def anf_truth_table(coeffs, m):
    """Truth table over all 2^m inputs of the ANF whose monomial coefficient
    vector is coeffs (coeffs[mask] = 1 iff the monomial with variable set
    `mask` is present). Subset-XOR transform, m butterfly passes on bytes."""
    table = coeffs.copy()
    for d in range(m):
        view = table.reshape(-1, 2, 1 << d)
        view[:, 1, :] ^= view[:, 0, :]
    return table


def output_bit_table(f, b):
    """Truth table of output bit b of f over all 2^m inputs, by the
    subset-XOR transform of its monomial coefficient vector."""
    coeffs = np.zeros(1 << f.m, dtype=np.uint8)
    coeffs[np.fromiter(f.terms[b], dtype=np.int64)] = 1
    table = anf_truth_table(coeffs, f.m).astype(bool)
    if bits.bit_at(f.constants, b, f.n_out):
        table = ~table
    return table


def is_balanced_bit(f, b):
    return int(np.count_nonzero(output_bit_table(f, b))) == (1 << (f.m - 1))


class AllHeadsRng:
    """Stands in for a Generator whose every coin toss comes up 1."""

    def integers(self, low, high):
        return high - 1


def test_constant_zero_function():
    f = AnfFunction(3, 2, (frozenset(), frozenset()))
    assert all(f.evaluate(s) == 0 for s in range(8))


def test_single_monomial_and_of_ones():
    f = AnfFunction(2, 1, (frozenset({0b11}),))
    assert f.evaluate(0b11) == 1
    assert [f.evaluate(s) for s in range(4)] == [0, 0, 0, 1]


def test_hand_xor_example():
    # output bit = s1 xor s1*s2; at s=11 both monomials fire and cancel
    f = AnfFunction(2, 1, (frozenset({0b10, 0b11}),))
    assert f.evaluate(0b11) == 0
    assert f.evaluate(0b10) == 1


def test_evaluate_against_naive_oracle():
    rng = np.random.default_rng(20)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n_out = int(rng.integers(1, 4))
        f = generate_random(m, n_out, rng, terms_per_output=int(rng.integers(0, 2 * m + 1)),
                            random_constants=bool(rng.integers(0, 2)))
        for s in range(1 << m):
            assert f.evaluate(s) == naive_evaluate(f, s)


@pytest.mark.parametrize("m", [63, 64, 65, 128, 129, 200])
def test_evaluate_against_naive_oracle_across_word_boundaries(m):
    # the evaluator tests monomials 64 input bits at a time; widths on either
    # side of a word edge catch a wrong word order or a lost top word
    rng = np.random.default_rng(30 + m)
    ones = (1 << m) - 1
    edges = [ones ^ (1 << a) for a in sorted({0, 63, 64, m - 1}) if a < m]
    for t in (0, 1, m):
        f = generate_random(m, 2, rng, terms_per_output=t, random_constants=True)
        # s = all ones fires every monomial; clearing one bit silences those
        # that hold it
        fixed = [0, ones, *edges]
        for s in fixed + [bits.rand_bits(rng, m) for _ in range(50)]:
            assert f.evaluate(s) == naive_evaluate(f, s)
        for g in (replace(f, constants=f.constants ^ 1), AnfFunction.from_json(f.to_json())):
            for s in fixed + [bits.rand_bits(rng, m) for _ in range(5)]:
                assert g.evaluate(s) == naive_evaluate(g, s)
        for s in (0, 1 << 62, (1 << 63) - 1):
            for x in (np.int64(s), np.uint64(s)):
                assert f.evaluate(x) == naive_evaluate(f, s)
        with pytest.raises(ValueError):
            f.evaluate(ones + 1)
        with pytest.raises(ValueError):
            f.evaluate(-1)


def test_evaluate_against_naive_oracle_past_one_block():
    # a multi-word table is converted a block of 4096 masks at a time
    rng = np.random.default_rng(32)
    f = generate_random(65, 1, rng, terms_per_output=5000, random_constants=True)
    assert len(f.terms[0]) > 4096
    ones = (1 << 65) - 1
    for s in (0, ones, ones ^ (1 << 64), ones ^ 1, bits.rand_bits(rng, 65)):
        assert f.evaluate(s) == naive_evaluate(f, s)


def test_evaluate_balanced_f2_exhaustively():
    # 2^12 inputs against the butterfly truth table; the naive oracle is too
    # slow for all of them, so it checks a random subset
    rng = np.random.default_rng(31)
    f = generate_balanced_f2(12, rng)
    values = [f.evaluate(np.int64(s)) for s in range(1 << 12)]
    assert values == output_bit_table(f, 0).astype(int).tolist()
    assert sum(values) == 1 << 11
    for s in rng.integers(0, 1 << 12, size=40):
        assert values[s] == naive_evaluate(f, int(s))


def test_anf_validation_names_the_mask():
    with pytest.raises(ValueError, match="monomial mask 8 out of range"):
        AnfFunction(3, 2, (frozenset({1, 7}), frozenset({2, 8})))
    with pytest.raises(ValueError, match="monomial mask -1 out of range"):
        AnfFunction(3, 1, (frozenset({-1, 3}),))
    assert AnfFunction(3, 2, (frozenset({0, 5}), frozenset())).evaluate(3) == 0b10


def test_output_bit_table_matches_evaluate():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        n_out = int(rng.integers(1, 3))
        f = generate_random(m, n_out, rng, random_constants=True)
        for b in range(n_out):
            table = output_bit_table(f, b)
            want = [bits.bit_at(f.evaluate(s), b, n_out) for s in range(1 << m)]
            assert table.astype(int).tolist() == want


def test_anf_validation():
    with pytest.raises(ValueError):
        AnfFunction(0, 1, (frozenset(),))
    with pytest.raises(ValueError):
        AnfFunction(2, 2, (frozenset(),))  # one term set missing
    with pytest.raises(ValueError):
        AnfFunction(2, 1, (frozenset({4}),))  # mask out of range
    with pytest.raises(ValueError):
        AnfFunction(2, 1, (frozenset(),), constants=2)
    f = AnfFunction(2, 1, (frozenset(),))
    with pytest.raises(ValueError):
        f.evaluate(4)


def test_generate_random_forced_coins():
    # all-heads coins with one term per output: the full monomial s1...sm
    f = generate_random(5, 3, AllHeadsRng(), terms_per_output=1)
    assert f.terms == (frozenset({0b11111}),) * 3
    assert f.constants == 0
    # duplicate draws cancel pairwise: two all-heads terms leave nothing
    f = generate_random(4, 1, AllHeadsRng(), terms_per_output=2)
    assert f.terms == (frozenset(),)


def test_generate_random_structure():
    rng = np.random.default_rng(22)
    for _ in range(100):
        m = int(rng.integers(1, 10))
        n_out = int(rng.integers(1, 5))
        t = int(rng.integers(0, 12))
        f = generate_random(m, n_out, rng, terms_per_output=t)
        assert f.m == m and f.n_out == n_out
        assert len(f.terms) == n_out
        for tset in f.terms:
            assert len(tset) <= t
            assert (len(tset) - t) % 2 == 0  # cancellation removes pairs
    assert generate_random(4, 2, rng).constants == 0


def test_balanced_f2_exhaustive():
    rng = np.random.default_rng(24)
    for m in (2, 4, 6):
        for _ in range(10):
            f = generate_balanced_f2(m, rng)
            assert f.n_out == 1
            table = output_bit_table(f, 0)
            assert int(np.count_nonzero(table)) == 1 << (m - 1)
            # closure: the complement is balanced too and flips every output
            g = replace(f, constants=f.constants ^ 1)
            assert is_balanced_bit(g, 0)
            assert all(g.evaluate(s) == 1 - f.evaluate(s) for s in range(1 << m))


@pytest.mark.parametrize("m", range(1, 15))
def test_packed_balance_weight_matches_byte_butterfly(m):
    # below six variables the packed table is zero-padded to one word
    rng = np.random.default_rng(40 + m)
    cases = [np.zeros(1 << m, np.uint8), np.ones(1 << m, np.uint8)]
    cases += [rng.integers(0, 2, size=1 << m, dtype=np.uint8) for _ in range(20)]
    for coeffs in cases:
        assert _anf_weights(coeffs[np.newaxis], m)[0] == int(np.count_nonzero(
            anf_truth_table(coeffs, m)))
    # a block of rows gives every row's weight
    assert _anf_weights(np.stack(cases), m).tolist() == [
        int(np.count_nonzero(anf_truth_table(coeffs, m))) for coeffs in cases]


def test_balanced_f2_wide_inputs():
    # dense candidate draws keep rejection workable well past m=10
    rng = np.random.default_rng(25)
    f = generate_balanced_f2(12, rng)
    assert is_balanced_bit(f, 0)


def test_balanced_f2_constant_coin():
    rng = np.random.default_rng(26)
    consts = [generate_balanced_f2(4, rng).constants for _ in range(60)]
    assert set(consts) == {0, 1}


def test_balanced_f2_errors(monkeypatch):
    rng = np.random.default_rng(27)
    with pytest.raises(ValueError):
        generate_balanced_f2(21, rng)
    monkeypatch.setattr(boolfn, "BALANCE_ATTEMPTS", 0)
    with pytest.raises(GenerationError):
        generate_balanced_f2(4, rng)


def balanced_f2_one_at_a_time(m, rng):
    """generate_balanced_f2 drawing and testing one candidate per call, with
    the byte-butterfly weight; returns the function and the candidates drawn."""
    for tried in range(1, boolfn.BALANCE_ATTEMPTS + 1):
        coeffs = rng.integers(0, 2, size=1 << m, dtype=np.uint8)
        if int(np.count_nonzero(anf_truth_table(coeffs, m))) == 1 << (m - 1):
            term_set = frozenset(np.flatnonzero(coeffs).tolist())
            return AnfFunction(m, 1, (term_set,), bits.rand_bits(rng, 1)), tried
    raise GenerationError(f"no balanced function found in {boolfn.BALANCE_ATTEMPTS} attempts")


def state_of(rng):
    """The generator's state as text: MT19937 and Philox hold arrays in it."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


class RecordingRng:
    """A Generator that records the size of each integers call."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.sizes = []

    def integers(self, *args, size=None, **kwargs):
        self.sizes.append(size)
        return self._rng.integers(*args, size=size, **kwargs)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("m", [4, 10])
def test_balanced_f2_blocks_match_one_candidate_at_a_time(bit_generator, m):
    # a hit inside a block restores the generator and redraws up to the hit,
    # a hit on the block's last candidate keeps the block's draws; both must
    # leave the function and the generator as single draws would
    seen = set()
    for seed in range(400):
        single = np.random.Generator(bit_generator(seed))
        want, tried = balanced_f2_one_at_a_time(m, single)
        rng = RecordingRng(np.random.Generator(bit_generator(seed)))
        got = generate_balanced_f2(m, rng)
        assert (got.terms, got.constants) == (want.terms, want.constants)
        assert state_of(rng) == state_of(single)
        draws = rng.sizes[:-1]  # the last call is the constant's coin
        restored = len(draws) >= 2 and draws[-1] < draws[-2]
        kept = draws[:-2] + draws[-1:] if restored else draws
        assert sum(kept) == tried << m
        seen.add(restored)
        if seen == {False, True} and seed >= 20:
            break
    assert seen == {False, True}


@pytest.mark.parametrize("m, attempts", [(10, 7), (10, 70), (16, 3)])
def test_balanced_f2_budget_ends_where_single_draws_would(monkeypatch, m, attempts):
    tested = []

    def off_target(coeffs, m):
        tested.append(len(coeffs))
        return np.zeros(len(coeffs), dtype=np.uint64)

    monkeypatch.setattr(boolfn, "BALANCE_ATTEMPTS", attempts)
    monkeypatch.setattr(boolfn, "_anf_weights", off_target)
    rng, scalar = np.random.default_rng(m), np.random.default_rng(m)
    with pytest.raises(GenerationError, match=f"in {attempts} attempts"):
        generate_balanced_f2(m, rng)
    assert sum(tested) == attempts
    for _ in range(attempts):
        scalar.integers(0, 2, size=1 << m, dtype=np.uint8)
    assert state_of(rng) == state_of(scalar)


# (m, mask, error): error is the exception and message the parent raises, or
# None where the mask is in range
RANGE_CASES = [
    *[(m, mask, (ValueError, f"monomial mask {mask} out of range"))
      for m in (3, 63, 64) for mask in (-1, 1 << m, 1 << 64)],
    (65, -1, (ValueError, "monomial mask -1 out of range")),
    (65, 1 << 65, (ValueError, f"monomial mask {1 << 65} out of range")),
    (65, 1 << 64, None),
    (65, 1 << 128, (ValueError, f"monomial mask {1 << 128} out of range")),
    (128, -1, (ValueError, "monomial mask -1 out of range")),
    (128, 1 << 128, (ValueError, f"monomial mask {1 << 128} out of range")),
    (128, 1 << 64, None),
    *[(m, bad, (TypeError, None)) for m in (3, 64, 65, 128) for bad in (1.5, "3", None)],
]


@pytest.mark.parametrize("m, mask, error", RANGE_CASES)
def test_anf_range_check(m, mask, error):
    # the bad mask sits beside valid ones in the second output bit
    terms = (frozenset({1}), frozenset({0, 3, mask}))
    if error is None:
        f = AnfFunction(m, 2, terms)
        for s in (0, mask, (1 << m) - 1):
            assert f.evaluate(s) == naive_evaluate(f, s)
        return
    kind, message = error
    with pytest.raises(kind) as caught:
        AnfFunction(m, 2, terms)
    if message is not None:
        assert str(caught.value) == message


def test_uniformity_oracle_vs_anf_modes():
    """The random-function model is uniform; sparse ANF visibly is not.

    Output bits of an m-term ANF are XORs of ~m rare indicators, so F(s)
    leans toward 0; the chi-square statistic sits an order of magnitude
    above the 0.01 critical value. Denser ANF converges back to uniform.
    """
    scipy_stats = pytest.importorskip("scipy.stats")
    crit = scipy_stats.chi2.ppf(0.99, 15)

    def chi2_for(draw, seed):
        r = np.random.default_rng(seed)
        counts = np.zeros(16)
        for _ in range(500):
            counts[draw(r)] += 1
        return float(((counts - 31.25) ** 2 / 31.25).sum())

    oracle = chi2_for(lambda r: RandomOracle(8, 4, r)(bits.rand_bits(r, 8)), 0)
    sparse = chi2_for(lambda r: generate_random(8, 4, r).evaluate(bits.rand_bits(r, 8)), 0)
    dense = chi2_for(lambda r: generate_random(8, 4, r, terms_per_output=64)
                     .evaluate(bits.rand_bits(r, 8)), 0)
    assert oracle < crit
    assert dense < crit
    assert sparse > 10 * crit


def naive_rank(rows, n):
    rows = list(rows)
    rank = 0
    for c in range(n - 1, -1, -1):
        piv = next((idx for idx in range(rank, len(rows)) if (rows[idx] >> c) & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for idx in range(len(rows)):
            if idx != rank and (rows[idx] >> c) & 1:
                rows[idx] ^= rows[rank]
        rank += 1
    return rank


def test_nullspace_worked_example():
    assert gf2_nullspace([0b110, 0b011], 3) == [0b111]


def test_nullspace_no_rows_gives_standard_basis():
    assert sorted(gf2_nullspace([], 3)) == [0b001, 0b010, 0b100]


def test_nullspace_properties():
    rng = np.random.default_rng(28)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        rows = [bits.rand_bits(rng, n) for _ in range(int(rng.integers(0, n + 2)))]
        basis = gf2_nullspace(rows, n)
        assert len(basis) == n - naive_rank(rows, n)
        for v in basis:
            assert 0 < v < (1 << n)
            for r in rows:
                assert bits.dot(r, v) == 0
        # basis vectors are linearly independent: all XOR combos distinct
        if len(basis) <= 8:
            span = {0}
            for v in basis:
                span |= {x ^ v for x in span}
            assert len(span) == 1 << len(basis)


def test_insert_keeps_a_reduced_echelon_basis():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        pivots = {}
        rows = []
        for _ in range(int(rng.integers(0, n + 3))):
            rows.append(bits.rand_bits(rng, n))
            gf2_insert(pivots, rows[-1], n)
            assert len(pivots) == naive_rank(rows, n)
            for c, prow in pivots.items():
                assert prow.bit_length() - 1 == c
                assert all(not (prow >> c2) & 1 for c2 in pivots if c2 != c)
        assert sorted(gf2_nullspace(pivots.values(), n)) == sorted(gf2_nullspace(rows, n))
    with pytest.raises(ValueError):
        gf2_insert({}, 0b1000, 3)


def test_nullspace_row_out_of_range():
    with pytest.raises(ValueError):
        gf2_nullspace([0b1000], 3)


def test_random_oracle_memoizes():
    rng = np.random.default_rng(29)
    oracle = RandomOracle(6, 3, rng)
    vals = {s: oracle(s) for s in range(64)}
    for s in range(64):
        assert oracle(s) == vals[s]
        assert 0 <= vals[s] < 8
    with pytest.raises(ValueError):
        oracle(64)
