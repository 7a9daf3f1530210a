import json

import numpy as np
import pytest

from qpke import bits


def state_of(rng):
    """The generator's state as text: MT19937 and Philox hold arrays in it."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


def test_weight_parity_dot():
    assert bits.weight(0) == 0
    assert bits.weight(0b1011) == 3
    assert bits.parity(0b1011) == 1
    assert bits.parity(0b1001) == 0
    assert bits.dot(0b110, 0b011) == 1
    assert bits.dot(0b110, 0b110) == 0
    assert bits.dot(0, 0b111) == 0


def test_to_str_is_msb_first():
    assert bits.to_str(0b0110, 4) == "0110"
    assert bits.to_str(1, 3) == "001"
    assert bits.to_str(0, 1) == "0"
    assert bits.to_str(0, 0) == ""
    with pytest.raises(ValueError):
        bits.to_str(8, 3)
    with pytest.raises(ValueError):
        bits.to_str(-1, 3)


def test_from_str_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        width = int(rng.integers(1, 70))
        x = bits.rand_bits(rng, width)
        val, w = bits.from_str(bits.to_str(x, width))
        assert (val, w) == (x, width)
    for bad in ("", "012", "ab", "1 0"):
        with pytest.raises(ValueError):
            bits.from_str(bad)


def test_bit_at():
    # position 0 is the leftmost (most significant) character
    assert bits.bit_at(0b100, 0, 3) == 1
    assert bits.bit_at(0b100, 2, 3) == 0
    assert [bits.bit_at(0b0110, p, 4) for p in range(4)] == [0, 1, 1, 0]
    with pytest.raises(IndexError):
        bits.bit_at(0b100, 3, 3)
    with pytest.raises(IndexError):
        bits.bit_at(0b100, -1, 3)
    rng = np.random.default_rng(2)
    for _ in range(100):
        width = int(rng.integers(1, 20))
        x = bits.rand_bits(rng, width)
        pos = int(rng.integers(0, width))
        assert bits.bit_at(x, pos, width) == int(bits.to_str(x, width)[pos])


def test_rand_bits_range_and_wide_words():
    rng = np.random.default_rng(3)
    for width in (1, 7, 62, 63, 64, 100, 200):
        for _ in range(50):
            x = bits.rand_bits(rng, width)
            assert 0 <= x < (1 << width)
    # a 200-bit draw must populate the high chunk too
    high = [bits.rand_bits(rng, 200) >> 150 for _ in range(50)]
    assert any(h > 0 for h in high)


@pytest.mark.parametrize("width", [1, 2, 8, 61, 62, 63, 64, 65, 124, 125, 512, 1000])
@pytest.mark.parametrize("count", [0, 1, 300])
def test_rand_bits_many_equals_scalar_draws(width, count):
    # same values and same generator state after, also when a half-used
    # 64-bit word is buffered in the generator before the draw
    for prefix in (False, True):
        many, scalar = np.random.default_rng(width), np.random.default_rng(width)
        if prefix:
            many.integers(0, 3), scalar.integers(0, 3)
        values = bits.rand_bits_many(many, width, count)
        assert values == [bits.rand_bits(scalar, width) for _ in range(count)]
        assert many.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64])
@pytest.mark.parametrize("width", [1, 62, 63, 64, 65, 124, 126, 128, 1000])
def test_rand_bits_many_equals_scalar_draws_on_every_bit_generator(bit_generator, width):
    # the values are joined from the draws, not from a generator's own word
    # size, so they hold on every generator numpy ships; 31 values are joined
    # by the fold alone, 32 and more also by numpy at 63, 64 and 126 bits
    for prefix in (False, True):
        many, scalar = (np.random.Generator(bit_generator(width)) for _ in range(2))
        if prefix:
            many.integers(0, 3), scalar.integers(0, 3)
        for count in (1, 31, 32, 300):
            values = bits.rand_bits_many(many, width, count)
            assert values == [bits.rand_bits(scalar, width) for _ in range(count)]
            assert state_of(many) == state_of(scalar)


def test_rand_bits_many_makes_no_draw_for_nothing():
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    assert bits.rand_bits_many(rng, 0, 5) == [0] * 5
    assert bits.rand_bits_many(rng, 64, 0) == []
    assert bits.rand_bits(rng, 0) == 0
    assert rng.bit_generator.state == state


def test_rand_bits_rejects_negative_width_and_count():
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="width"):
        bits.rand_bits(rng, -5)
    with pytest.raises(ValueError, match="width"):
        bits.rand_bits_many(rng, -5, 3)
    with pytest.raises(ValueError, match="count"):
        bits.rand_bits_many(rng, 5, -3)
    assert rng.bit_generator.state == state


def test_rand_bits_uniform_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(4)
    counts = np.zeros(16)
    for _ in range(4000):
        counts[bits.rand_bits(rng, 4)] += 1
    expected = 4000 / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < scipy_stats.chi2.ppf(0.99, 15)


def test_rand_parity_bits():
    rng = np.random.default_rng(5)
    for _ in range(300):
        width = int(rng.integers(1, 12))
        par = int(rng.integers(0, 2))
        x = bits.rand_parity_bits(rng, width, par)
        assert 0 <= x < (1 << width)
        assert bits.parity(x) == par
    with pytest.raises(ValueError):
        bits.rand_parity_bits(rng, 0, 0)
    # width 1 leaves no freedom at all
    assert bits.rand_parity_bits(rng, 1, 0) == 0
    assert bits.rand_parity_bits(rng, 1, 1) == 1
    # every even-parity 3-bit string shows up
    seen = {bits.rand_parity_bits(rng, 3, 0) for _ in range(400)}
    assert seen == {0b000, 0b011, 0b101, 0b110}
