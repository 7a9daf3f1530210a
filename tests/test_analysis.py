"""Exact mixture computations against closed forms and frozen values.

Frozen constants in this file were computed from the exact enumerations
before being pinned; anything labeled "frozen" is a regression anchor, not
an independently meaningful tolerance.
"""
import math
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from qpke import analysis, bits, qmat
from qpke.analysis import (SecurityReport, channel_e1, channel_e2,
                           channel_identity_report, cipher_distance_report,
                           cipher_mixture, identity_mixture,
                           multicopy_distance, pan10_mixture_distance,
                           pubkey_mixture_A, pubkey_mixture_B,
                           report_ok, reports_to_csv, sigma_b,
                           sigma_bound_report)
from qpke.boolfn import generate_balanced_f2, generate_random
from qpke.qsym import ProductState, TwoTermState
from qpke.schemes import SCHEMES, SchemeId, message_width

from dense_oracles import (assert_density_operator, helstrom_advantage, helstrom_projector,
                           shared_s_multicopy_distance)

SQ = np.sqrt(2) / 2

# The tests' own gate matrices, the oracle for the gate table's channels.
GATE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# --- the sector sum against the per-state qsym pipeline ---------------------

def _parity_strings(n, p):
    """The n-bit strings of parity p, or all of them when p is None."""
    return [v for v in range(1 << n) if p is None or bin(v).count("1") % 2 == p]


def _qsym_average(n, i_values, k_values, j_values):
    """Uniform average of the projectors onto Y_j H_k |i>, each state evolved
    by the symbolic gate table one at a time. A product state's phases are
    global, so its projector depends only on its basis string: each distinct
    string is made dense once, weighted by how many states share it."""
    counts, states = Counter(), {}
    for i in i_values:
        computational = ProductState.from_bits(i, n)
        for k in k_values:
            hk = computational.apply_hk(k)
            for j in j_values:
                state = hk.apply_yj(j)
                key = state.basis_string()
                counts[key] += 1
                states.setdefault(key, state)
    return sum(c * states[key].to_density() for key, c in counts.items()) / counts.total()


def test_sector_mixture_matches_qsym_densities():
    # pairs (H^{k_a}|0><0|H^{k_a}, H^{k_a}|1><1|H^{k_a}) in random bases k,
    # averaged over one parity sector or over every string
    rng = np.random.default_rng(56)
    signal = [[ProductState.from_bits(v, 1).apply_hk(w).to_density() for v in (0, 1)]
              for w in (0, 1)]
    for n in range(1, 5):
        for k in [0, (1 << n) - 1, *rng.integers(0, 1 << n, size=3).tolist()]:
            pairs = [signal[bits.bit_at(k, a, n)] for a in range(n)]
            for p in (0, 1, None):
                want = _qsym_average(n, _parity_strings(n, p), [k], [0])
                got = analysis._sector_mixture(pairs, p)
                assert np.max(np.abs(got - want)) < 1e-14, (n, k, p)


@pytest.mark.parametrize("build", [
    lambda: sigma_b(5, 0),
    lambda: cipher_mixture(SchemeId.A, 5, 0),
    lambda: cipher_mixture(SchemeId.B, 5, 0),
    lambda: analysis._b_pubkey_state(5, 0, None),
    lambda: analysis._b_pubkey_state(5, 0, 0),
    lambda: pubkey_mixture_A(5),
    lambda: identity_mixture(5),
], ids=["sigma_b", "cipher_mixture_A", "cipher_mixture_uniform",
        "pubkey_mixture_fixed_k", "_b_pubkey_state", "pubkey_mixture_A", "identity_mixture"])
def test_dense_builders_honour_dim_cap(monkeypatch, build):
    monkeypatch.setenv("QPKE_DIM_CAP", "16")
    with pytest.raises(qmat.DimensionCapError):
        build()


# --- sigma mixtures ---------------------------------------------------------

def test_sigma_b_is_density():
    for n in range(1, 5):
        for b in (0, 1):
            assert_density_operator(sigma_b(n, b))


@pytest.mark.parametrize("build", [
    lambda: sigma_b(0, 0),
    lambda: cipher_mixture(SchemeId.A, 0, 0),
    lambda: pubkey_mixture_A(0),
    lambda: multicopy_distance(0, 1),
], ids=["sigma_b", "cipher_mixture", "pubkey_mixture_A", "multicopy_distance"])
def test_zero_qubit_mixtures_are_rejected(build):
    with pytest.raises(ValueError, match="n must be >= 1"):
        build()


def test_sigma_distance_closed_form():
    for n in range(1, 7):
        d = qmat.trace_distance(sigma_b(n, 0), sigma_b(n, 1))
        assert abs(d - SQ ** n) < 1e-12
        r = sigma_bound_report(n)
        assert r.mode == "eq" and report_ok(r)


# --- ciphertext mixtures ----------------------------------------------------

def test_cipher_mixture_a_single_qubit_values():
    rho0, rho1 = (cipher_mixture(SchemeId.A, 1, b) for b in (0, 1))
    assert np.allclose(rho0, [[0.75, 0.25], [0.25, 0.25]], atol=1e-14)
    assert np.allclose(rho1, [[0.25, -0.25], [-0.25, 0.75]], atol=1e-14)


def test_cipher_mixture_a_dual_routes_agree():
    # the sector sum against the ciphertexts Y_j H_k |i> the scheme sends:
    # even i, every k, parity-b j
    for n in range(1, 5):
        for b in (0, 1):
            rho = cipher_mixture(SchemeId.A, n, b)
            want = _qsym_average(n, _parity_strings(n, 0), range(1 << n),
                                 _parity_strings(n, b))
            assert np.max(np.abs(rho - want)) < 1e-14, (n, b)
            assert_density_operator(rho)


def test_cipher_distance_a_is_exactly_the_bound():
    for n in range(1, 6):
        d = qmat.trace_distance(cipher_mixture(SchemeId.A, n, 0),
                                cipher_mixture(SchemeId.A, n, 1))
        assert abs(d - SQ ** n) < 1e-12
        assert report_ok(cipher_distance_report(SchemeId.A, n))


def test_uniform_cipher_mixtures_are_maximally_mixed():
    for n in (2, 3, 8):
        eye = identity_mixture(n)
        for b in (0, 1):
            dev = np.max(np.abs(cipher_mixture(SchemeId.B, n, b) - eye))
            assert dev < 1e-13
        for msg in (0, 1, (1 << n) - 1):
            for scheme in (SchemeId.M1, SchemeId.M2):
                dev = np.max(np.abs(cipher_mixture(scheme, n, msg) - eye))
                assert dev < 1e-13


@pytest.mark.parametrize("n", range(1, 6))
def test_protocol_average_matches_enumerated_kets(n):
    # every mixture against the states each scheme really publishes: Y_j H_k |i>
    # over its i set, every k and its j set
    every = range(1 << n)
    for scheme in (SchemeId.A, SchemeId.B, SchemeId.M1, SchemeId.M2):
        i_set = _parity_strings(n, 0) if scheme == SchemeId.A else every
        messages = {0, 1, (1 << message_width(scheme, n)) - 1}
        for message in messages:
            j_set = [message] if SCHEMES[scheme].wide else _parity_strings(n, message)
            want = _qsym_average(n, i_set, every, j_set)
            got = analysis.cipher_mixture(scheme, n, message)
            assert np.max(np.abs(got - want)) < 1e-14, (scheme, n, message)
    # the public keys H_k |i>: even i for a, every i for b
    eye = identity_mixture(n)
    for report, i_set in ((pubkey_mixture_A, _parity_strings(n, 0)), (pubkey_mixture_B, every)):
        want = qmat.trace_distance(_qsym_average(n, i_set, every, [0]), eye)
        assert abs(report(n).computed - want) < 1e-14, (report.__name__, n)


def test_uniform_cipher_mixture_validation():
    # scheme a is checked alike: its message 2 would select the odd-parity
    # sector, the ensemble of message 1
    for scheme, message in ((SchemeId.B, 2), (SchemeId.B, -1), (SchemeId.M1, 4),
                            (SchemeId.M2, 4), (SchemeId.M2, -1), (SchemeId.A, 2),
                            (SchemeId.A, -1)):
        with pytest.raises(ValueError,
                           match=f"message {message} out of range for scheme {scheme.value}"):
            cipher_mixture(scheme, 2, message)


def test_cipher_distance_reports_b_m1_m2():
    for scheme in (SchemeId.B, SchemeId.M1, SchemeId.M2):
        r = cipher_distance_report(scheme, 3)
        assert r.bound == 0.0
        assert r.computed < 1e-12
        assert report_ok(r)


def test_cipher_mixture_routes_by_scheme():
    # scheme a takes the message's parity sector, b, m1 and m2 every string
    twirled = [analysis._TWIRLED] * 3
    assert np.array_equal(cipher_mixture(SchemeId.A, 3, 1), analysis._sector_mixture(twirled, 1))
    for scheme in (SchemeId.B, SchemeId.M1, SchemeId.M2):
        assert np.array_equal(cipher_mixture(scheme, 3, 1), analysis._sector_mixture(twirled))
    for scheme in (SchemeId.ENH, SchemeId.PAN10):
        with pytest.raises(ValueError, match=f"no cipher mixture for scheme {scheme.value}"):
            cipher_mixture(scheme, 2, 0)


def _cipher_mixture_a_sampled(n, b, num_samples, rng):
    """Finite-sample scheme-a ciphertext mixture: each sample draws an
    explicit ANF key f, a seed s, an even i and a parity-b j, in that order,
    and contributes the qsym density of Y_j H_{f(s)} |i>."""
    m = 2 * n
    counts = Counter()
    for _ in range(num_samples):
        f = generate_random(m, n, rng)
        k = f.evaluate(bits.rand_bits(rng, m))
        i = bits.rand_parity_bits(rng, n, 0)
        j = bits.rand_parity_bits(rng, n, b)
        counts[k, i, j] += 1
    return sum(c * ProductState.from_bits(i, n).apply_hk(k).apply_yj(j).to_density()
               for (k, i, j), c in counts.items()) / num_samples


def test_sampled_mixture_converges():
    rng = np.random.default_rng(42)
    exact = cipher_mixture(SchemeId.A, 2, 0)
    dev_small = np.max(np.abs(_cipher_mixture_a_sampled(2, 0, 100, rng) - exact))
    dev_large = np.max(np.abs(_cipher_mixture_a_sampled(2, 0, 10_000, rng) - exact))
    assert dev_large < dev_small
    assert dev_large < 0.05  # frozen: 0.033 at this seed


# --- public-key mixtures ----------------------------------------------------

def test_pubkey_leakage_values():
    r = pubkey_mixture_A(1)
    assert abs(r.computed - np.sqrt(2) / 4) < 1e-12
    assert r.bound is None and report_ok(r)
    for n in range(1, 5):
        r = pubkey_mixture_B(n)
        assert r.computed < 1e-12
        assert report_ok(r)


def test_pubkey_mixture_fixed_k_is_identity():
    # uniform i conjugated by any fixed H_k stays maximally mixed
    for n in (1, 2, 3):
        for k in range(1 << n):
            dev = np.max(np.abs(analysis._b_pubkey_state(n, k, None) - identity_mixture(n)))
            assert dev < 1e-13


# --- channels ---------------------------------------------------------------

def test_channel_identity():
    for n in range(1, 5):
        r = channel_identity_report(n)
        assert r.computed < 1e-12
        assert report_ok(r)


def _dense_channels(rho, n):
    """The channels' dense definitions, from the gate matrices: conjugation
    by U^(x)n with U = HZ, and (1/2^n) sum_k H_k rho H_k."""
    h, i = GATE_MATRICES["H"], GATE_MATRICES["I"]
    u = reduce(np.kron, [h @ GATE_MATRICES["Z"]] * n)
    hks = (reduce(np.kron, [h if k >> a & 1 else i for a in range(n)]) for k in range(1 << n))
    return u @ rho @ u.conj().T, sum(hk @ rho @ hk for hk in hks) / (1 << n)


def test_channels_match_dense_definitions():
    rng = np.random.default_rng(52)
    for n in range(1, 6):
        for _ in range(3):
            rho = random_density(rng, 1 << n)
            e1, e2 = _dense_channels(rho, n)
            assert np.max(np.abs(channel_e1(rho) - e1)) < 1e-14
            assert np.max(np.abs(channel_e2(rho) - e2)) < 1e-14


def test_channels_preserve_density_and_contract():
    rng = np.random.default_rng(50)
    for trial in range(61):
        n = int(rng.integers(1, 4)) if trial < 60 else 8
        rho = random_density(rng, 1 << n)
        sig = random_density(rng, 1 << n)
        for chan in (channel_e1, channel_e2):
            assert_density_operator(chan(rho))
            d_in = qmat.trace_distance(rho, sig)
            d_out = qmat.trace_distance(chan(rho), chan(sig))
            assert d_out <= d_in + 1e-12


def test_channel_e2_is_idempotent():
    # averaging over the Hadamard-mask group twice changes nothing
    rng = np.random.default_rng(51)
    for n in (2, 8):
        rho = random_density(rng, 1 << n)
        once = channel_e2(rho)
        assert np.max(np.abs(channel_e2(once) - once)) < 1e-14


# --- multi-copy joint states ------------------------------------------------

def test_b_cipher_state_is_the_pubkey_state_at_parity_p_xor_b():
    # Y_j-masked ciphertexts of parity-p values and parity-b masks
    for n in range(1, 5):
        for k in range(1 << n):
            for p in (0, 1):
                for b in (0, 1):
                    want = _qsym_average(n, _parity_strings(n, p), [k], _parity_strings(n, b))
                    got = analysis._b_pubkey_state(n, k, p ^ b)
                    assert np.max(np.abs(got - want)) < 1e-14, (n, k, p, b)


def test_multicopy_fresh_is_zero():
    # exactly 0, also past the shared_s limit n*(t+1) <= 10
    for n, t in ((2, 1), (2, 2), (3, 1), (4, 2), (3, 5), (5, 40), (9, 0), (10, 3)):
        r = multicopy_distance(n, t)
        assert r.bound == 0.0
        assert r.computed == 0.0
        assert report_ok(r)


def _fresh_multicopy_dense(n, t, pairs):
    """D(c_0 (x) tau^(x)t, c_1 (x) tau^(x)t) for the ciphertext and public-key
    averages c_b and tau over the weighted (k, p) pairs."""
    cipher = [sum(w * analysis._b_pubkey_state(n, k, p ^ b) for (k, p), w in pairs)
              for b in (0, 1)]
    tau = sum(w * analysis._b_pubkey_state(n, k, p) for (k, p), w in pairs)
    return qmat.trace_distance(*(reduce(np.kron, [c] + [tau] * t) for c in cipher))


def _anf_pairs(n, samples, rng):
    """The weighted (k, p) pairs that the sampled_anf route draws from rng."""
    pairs = []
    for _ in range(samples):
        f1 = generate_random(2 * n, n, rng)
        f2 = generate_balanced_f2(2 * n, rng)
        s = bits.rand_bits(rng, 2 * n)
        pairs.append(((f1.evaluate(s), f2.evaluate(s)), 1.0 / samples))
    return pairs


# n = 6..10 admit only t = 0, where the oracle is the route itself.
@pytest.mark.parametrize("n, t", [(n, t) for n in range(1, 6) for t in range(10 // n)])
def test_multicopy_fresh_matches_the_product_state(n, t):
    uniform = [((k, p), 1.0 / (1 << (n + 1))) for k in range(1 << n) for p in (0, 1)]
    got = multicopy_distance(n, t).computed
    assert abs(got - _fresh_multicopy_dense(n, t, uniform)) < 1e-12
    got = multicopy_distance(n, t, key_model="sampled_anf", samples=30,
                             rng=np.random.default_rng(n)).computed
    want = _fresh_multicopy_dense(n, t, _anf_pairs(n, 30, np.random.default_rng(n)))
    assert abs(got - want) < 1e-12


def test_multicopy_shared_frozen_values():
    frozen = {(2, 1): 0.25, (2, 2): 0.426776695297, (3, 1): 0.125, (3, 2): 0.231694173824}
    for (n, t), want in frozen.items():
        r = multicopy_distance(n, t, reuse="shared_s")
        assert r.bound is None
        assert abs(r.computed - want) < 1e-9, (n, t, r.computed)
        assert 0.0 < r.computed < 1.0


SHARED_POINTS = [(n, t) for n in range(1, 6) for t in range(1, 10 // n)]  # n*(t+1) <= 10


@pytest.mark.parametrize("n, t", SHARED_POINTS)
def test_multicopy_shared_matches_dense(n, t):
    got = multicopy_distance(n, t, reuse="shared_s").computed
    assert abs(got - shared_s_multicopy_distance(n, t)) < 1e-12


def test_multicopy_shared_builds_no_joint_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("uniform_k shared_s rows must not build the joint state")

    monkeypatch.setattr(analysis, "_joint_state", refuse)
    for n in range(1, 11):
        for t in range(10 // n):
            r = multicopy_distance(n, t, reuse="shared_s")
            assert 0.0 <= r.computed < 1.0, (n, t)


def _x0_block(n, t, w):
    """B_w = sum over odd T of (x)_c (Z^T + lam_c X^([t]-T))/2 on slots 1..t
    of each column, lam_c = -1 on the last w columns."""
    z, x, i = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    block = 0.0
    for odd in filter(bits.parity, range(1 << t)):
        zt = reduce(np.kron, [z if odd >> j & 1 else i for j in range(t)])
        xt = reduce(np.kron, [i if odd >> j & 1 else x for j in range(t)])
        block = block + reduce(np.kron, [(zt + xt) / 2] * (n - w) + [(zt - xt) / 2] * w)
    return block


@pytest.mark.parametrize("n, t", [(n, t) for n, t in SHARED_POINTS if n * t <= 8])
def test_x0_blocks_share_one_norm(n, t):
    # D = 2^(-n(t+1)) sum_w C(n, w) ||B_w||_1, and every B_w has the norm of B_0
    norms = [qmat.trace_norm(_x0_block(n, t, w)) for w in range(n + 1)]
    assert max(norms) - min(norms) < 1e-12 * max(norms)
    total = sum(math.comb(n, w) * v for w, v in enumerate(norms)) / (1 << (n * (t + 1)))
    assert abs(total - analysis._shared_s_distance(n, t)) < 1e-12


def test_multicopy_shared_one_copy_closed_form():
    # t = 1: every block is (x)_c (Z + lam_c I)/2, of trace norm 1, so D = 2^-n
    for n in range(1, 6):
        assert abs(multicopy_distance(n, 1, reuse="shared_s").computed - 2.0 ** -n) < 1e-15


def test_multicopy_shared_two_copies_match_the_conjecture():
    # t = 2: D = 2^(1-2n) (2^n - 2 + sqrt 2), conjectured; past n*(t+1) <= 10 at n = 4
    for n in range(1, 5):
        want = 2.0 ** (1 - 2 * n) * (2 ** n - 2 + np.sqrt(2))
        assert abs(analysis._shared_s_distance(n, 2) - want) < 1e-12


def test_multicopy_shared_checks_the_block_dimension(monkeypatch):
    # the (3, 2) row needs its 64-dimensional block, not the 512-dimensional joint state
    monkeypatch.setenv("QPKE_DIM_CAP", "32")
    with pytest.raises(qmat.DimensionCapError):
        multicopy_distance(3, 2, reuse="shared_s")
    monkeypatch.setenv("QPKE_DIM_CAP", "64")
    assert multicopy_distance(3, 2, reuse="shared_s").computed > 0.0


def test_multicopy_no_copies_no_information():
    for reuse in ("fresh_s", "shared_s"):
        r = multicopy_distance(3, 0, reuse=reuse)
        assert r.computed < 1e-12


def test_multicopy_shared_nondecreasing_in_t():
    vals = [multicopy_distance(3, t, reuse="shared_s").computed for t in (0, 1, 2)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def test_multicopy_sampled_anf_route():
    rng = np.random.default_rng(52)
    r = multicopy_distance(2, 1, key_model="sampled_anf", samples=40, rng=rng, seed=52)
    assert r.bound is None and r.seed == 52
    assert 0.0 <= r.computed <= 1.0
    for samples, gen in ((40, None), (0, rng)):
        with pytest.raises(ValueError, match="sampled_anf needs an rng and a positive sample"):
            multicopy_distance(2, 1, key_model="sampled_anf", samples=samples, rng=gen)


def test_multicopy_validation():
    with pytest.raises(ValueError, match="unknown reuse mode 'sometimes'"):
        multicopy_distance(2, 1, reuse="sometimes")
    with pytest.raises(ValueError, match="unknown key model 'psychic'"):
        multicopy_distance(2, 1, key_model="psychic")
    with pytest.raises(ValueError, match="copies must be >= 0"):
        multicopy_distance(2, -1)
    with pytest.raises(ValueError, match="must stay <= 10"):
        multicopy_distance(4, 2, reuse="shared_s")  # 4*3 > 10
    with pytest.raises(ValueError, match="n <= 10 under fresh_s"):
        multicopy_distance(11, 0)


# --- superposition-key bounds -----------------------------------------------

# The dense reference that pan10_mixture_distance's subspace counts are held to.
def pan10_rho_k(n: int, k: int, b: int = 0) -> np.ndarray:
    """Average over i of the published two-term states for fixed odd k:
    (1/2^n) sum_i sum_x (+-1)^{bx} |i><i xor xk|."""
    if not 0 < k < (1 << n):
        raise ValueError("k must be a nonzero n-bit string")
    dim = 1 << n
    i = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[i, i] = 1.0 / dim
    mat[i, i ^ k] = (-1.0 if b else 1.0) / dim
    return mat


def _pan10_mixture_distance_dense(n: int, t: int) -> tuple[float, float]:
    """(per-term, combined) of `pan10_mixture_distance`, from the dense
    t-copy operators, filled entry by entry as `pan10_rho_k` fills its own,
    and their trace norms."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if n * max(t, 1) > 10:
        raise ValueError("n*t must stay <= 10 to keep matrices small")
    if t == 0:
        return 0.0, 0.0
    odd = [k for k in range(1 << n) if bits.parity(k) == 1]
    dim = 1 << (n * t)
    qmat.check_dim(dim)
    rows = np.arange(dim)
    acc_per = np.zeros((dim, dim))
    acc_comb = np.zeros((dim, dim))
    # rho_k^0 = (I + X_k)/2^n and rho_k^0 - rho_k^1 = 2 X_k/2^n, where X_k maps
    # |i> to |i xor k>; so each t-fold product sums X over k placed on every
    # subset of the copies (the first copy holds the most significant bits).
    for k in odd:
        for copies in range(1 << t):
            mask = sum(k << (n * a) for a in range(t) if copies >> a & 1)
            acc_per[rows, rows ^ mask] += 1.0 / dim
            if copies >> (t - 1) & 1:
                acc_comb[rows, rows ^ mask] += 2.0 / dim
    acc_per /= len(odd)
    acc_comb /= len(odd)
    eye = np.eye(dim) / dim
    return 0.5 * qmat.trace_norm(acc_per - eye), 0.5 * qmat.trace_norm(acc_comb)


def test_pan10_rho_k_matches_state_average():
    # dual route: the closed-form operator equals the average of the
    # published two-term projectors over the encoded value i
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 1 << n))
        b = int(rng.integers(0, 2))
        avg = np.zeros((1 << n, 1 << n), dtype=complex)
        for i in range(1 << n):
            avg += TwoTermState(n, i, k, rel_phase=2 * b).to_density()
        avg /= 1 << n
        assert np.max(np.abs(avg - pan10_rho_k(n, k, b))) < 1e-14
        assert_density_operator(pan10_rho_k(n, k, b))
    with pytest.raises(ValueError):
        pan10_rho_k(3, 0)


def test_pan10_bounds_frozen_grid():
    frozen = {(3, 1): (0.125, 0.25), (3, 2): (0.328125, 0.4375),
              (4, 1): (0.0625, 0.125), (4, 2): (0.17578125, 0.234375),
              (5, 1): (0.03125, 0.0625), (5, 2): (0.0908203125, 0.12109375),
              (6, 1): (0.015625, 0.03125)}
    for (n, t), (want_per, want_comb) in frozen.items():
        per, comb = pan10_mixture_distance(n, t)
        assert abs(per.computed - want_per) < 1e-12, (n, t, per.computed)
        assert abs(comb.computed - want_comb) < 1e-12, (n, t, comb.computed)
        assert report_ok(per) and report_ok(comb)
        # the honest Cauchy-Schwarz line sits below the stated bound
        cs = 0.5 * np.sqrt((2 ** t - 1) / 2 ** (n - 1))
        assert per.computed <= cs + 1e-12
        assert per.bound == pytest.approx(np.sqrt(1 / 2 ** (n - t + 1)))


def test_pan10_zero_copies():
    per, comb = pan10_mixture_distance(4, 0)
    assert per.computed == 0.0 and comb.computed == 0.0


def test_pan10_dimension_guard():
    with pytest.raises(ValueError):
        _pan10_mixture_distance_dense(6, 2)
    with pytest.raises(ValueError):
        pan10_mixture_distance(4, -1)


def test_pan10_exact_matches_dense():
    # dual route: subspace counting against the dense trace norms, including
    # the t > n points (n=1, t=5 and n=2, t=5)
    for n in range(1, 11):
        for t in range(0, 11):
            if n * max(t, 1) > 10:
                continue
            per, comb = pan10_mixture_distance(n, t)
            dense_per, dense_comb = _pan10_mixture_distance_dense(n, t)
            assert abs(per.computed - dense_per) < 1e-12, (n, t)
            assert abs(comb.computed - dense_comb) < 1e-12, (n, t)


def test_pan10_exact_per_term_n3_t2():
    # the docstring's trace norm 42/64, halved
    per, _ = pan10_mixture_distance(3, 2)
    assert per.computed == 21 / 64


def test_pan10_bounds_hold_past_the_dense_range():
    for n in range(1, 65):
        for t in range(0, 33):
            per, comb = pan10_mixture_distance(n, t)
            assert per.computed <= per.bound and comb.computed <= comb.bound, (n, t)
            cs = 0.5 * np.sqrt((2.0 ** t - 1) / 2.0 ** (n - 1))
            assert per.computed <= cs * (1 + 1e-12), (n, t)
    with pytest.raises(ValueError):
        pan10_mixture_distance(0, 1)


# --- optimal measurement ----------------------------------------------------

def test_helstrom_orthogonal_states():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    analytic, _ = helstrom_advantage(rho, sig)
    assert abs(analytic - 1.0) < 1e-14
    analytic, _ = helstrom_advantage(rho, rho)
    assert abs(analytic - 0.5) < 1e-14


def test_helstrom_projector_properties():
    rng = np.random.default_rng(54)
    for _ in range(40):
        dim = int(rng.integers(2, 9))
        proj = helstrom_projector(random_density(rng, dim), random_density(rng, dim))
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10
        assert qmat.is_hermitian(proj)


def test_helstrom_empirical_tracks_analytic():
    rng = np.random.default_rng(55)
    rho0 = cipher_mixture(SchemeId.A, 2, 0)
    rho1 = cipher_mixture(SchemeId.A, 2, 1)
    analytic, empirical = helstrom_advantage(rho0, rho1, samples=40_000, rng=rng)
    assert abs(analytic - 0.75) < 1e-12
    sigma = np.sqrt(analytic * (1 - analytic) / 40_000)
    assert abs(empirical - analytic) <= 3 * sigma
    with pytest.raises(ValueError):
        helstrom_advantage(rho0, rho1, samples=10)


# --- report plumbing --------------------------------------------------------

def test_report_ok_modes():
    r = SecurityReport("q", None, 1, None, "uniform_k", None, 0.5, 0.5)
    assert report_ok(r)
    assert report_ok(SecurityReport("q", None, 1, None, "uniform_k", None, 0.5, None))
    assert not report_ok(SecurityReport("q", None, 1, None, "uniform_k", None,
                                        0.6, 0.5, tol=1e-9))
    assert report_ok(SecurityReport("q", None, 1, None, "uniform_k", None,
                                    0.5, 0.6, mode="eq", tol=0.2))
    assert not report_ok(SecurityReport("q", None, 1, None, "uniform_k", None,
                                        0.5, 0.6, mode="eq", tol=0.01))


def test_reports_to_csv():
    r = SecurityReport("sigma_distance", None, 3, None, "uniform_k", None,
                       0.3535533905932738, 0.3535533905932738)
    text = reports_to_csv([r], {"seed": 7})
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=7"
    assert lines[1] == analysis.CSV_HEADER
    assert lines[2].startswith("sigma_distance,,3,,uniform_k,,0.353553390593,")
    assert r.margin == 0.0


def test_csv_cell_formats_each_type():
    cells = [analysis.csv_cell(v) for v in (None, True, False, 0.1 + 0.2, 2.0 ** -60, 7, "a")]
    assert cells == ["", "true", "false", "0.3", "8.67361737988e-19", "7", "a"]
