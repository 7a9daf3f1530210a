"""Exact mixture computations against closed forms and frozen values.

Frozen constants in this file were computed from the exact enumerations
before being pinned; anything labeled "frozen" is a regression anchor, not
an independently meaningful tolerance.
"""
import numpy as np
import pytest

from qpke import analysis, qmat
from qpke.analysis import (MixtureSpec, SecurityReport, channel_e1, channel_e2,
                           channel_identity_report, cipher_distance_report,
                           cipher_mixture_A, cipher_mixture_A_sampled,
                           cipher_mixture_uniform, helstrom_advantage,
                           helstrom_projector, identity_mixture,
                           multicopy_distance, pan10_mixture_distance,
                           pan10_rho_k, pubkey_mixture_A, pubkey_mixture_B,
                           report_ok, reports_to_csv, sigma_b,
                           sigma_bound_report)
from qpke.qsym import ProductState, TwoTermState
from qpke.schemes import SchemeId

SQ = np.sqrt(2) / 2


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# --- ket batches ------------------------------------------------------------

def test_kets_match_per_state_qsym_pipeline():
    # the per-state symbolic route is the independent oracle for the batch
    for n in range(1, 5):
        dim = 1 << n
        i, k, j = (g.ravel() for g in np.meshgrid(*[np.arange(dim)] * 3, indexing="ij"))
        rows = analysis.kets(n, i, k, j)
        for row, ii, kk, jj in zip(rows, i, k, j):
            ref = ProductState.from_bits(int(ii), n).apply_hk(int(kk)).apply_yj(int(jj))
            assert np.array_equal(row, ref.to_vector())


@pytest.mark.parametrize("build", [
    lambda: sigma_b(5, 0),
    lambda: cipher_mixture_A(5, 0),
    lambda: cipher_mixture_uniform(SchemeId.B, 5, 0),
    lambda: analysis.pubkey_mixture_fixed_k(5, 0),
    lambda: analysis.hk_matrix(6, 63),
], ids=["sigma_b", "cipher_mixture_A", "cipher_mixture_uniform",
        "pubkey_mixture_fixed_k", "hk_matrix"])
def test_dense_builders_honour_dim_cap(monkeypatch, build):
    monkeypatch.setenv("QPKE_DIM_CAP", "16")
    with pytest.raises(qmat.DimensionCapError):
        build()


# --- sigma mixtures ---------------------------------------------------------

def test_sigma_b_is_density():
    for n in range(1, 5):
        for b in (0, 1):
            qmat.assert_density_operator(sigma_b(n, b))


def test_sigma_distance_closed_form():
    for n in range(1, 7):
        d = qmat.trace_distance(sigma_b(n, 0), sigma_b(n, 1))
        assert abs(d - SQ ** n) < 1e-12
        r = sigma_bound_report(n)
        assert r.mode == "eq" and report_ok(r)


# --- ciphertext mixtures ----------------------------------------------------

def test_cipher_mixture_a_single_qubit_values():
    assert np.allclose(cipher_mixture_A(1, 0), [[0.75, 0.25], [0.25, 0.25]], atol=1e-14)
    assert np.allclose(cipher_mixture_A(1, 1), [[0.25, -0.25], [-0.25, 0.75]], atol=1e-14)


def test_cipher_mixture_a_dual_routes_agree():
    # the formula route and the protocol-enumeration route are compared
    # inside cipher_mixture_A; a disagreement raises
    for n in range(1, 5):
        for b in (0, 1):
            rho = cipher_mixture_A(n, b, cross_check=True)
            qmat.assert_density_operator(rho)


def test_cipher_distance_a_is_exactly_the_bound():
    for n in range(1, 6):
        d = qmat.trace_distance(cipher_mixture_A(n, 0, cross_check=False),
                                cipher_mixture_A(n, 1, cross_check=False))
        assert abs(d - SQ ** n) < 1e-12
        assert report_ok(cipher_distance_report(SchemeId.A, n))


def test_uniform_cipher_mixtures_are_maximally_mixed():
    for n in (2, 3):
        eye = identity_mixture(n)
        for b in (0, 1):
            dev = np.max(np.abs(cipher_mixture_uniform(SchemeId.B, n, b) - eye))
            assert dev < 1e-13
        for msg in (0, 1, (1 << n) - 1):
            for scheme in (SchemeId.M1, SchemeId.M2):
                dev = np.max(np.abs(cipher_mixture_uniform(scheme, n, msg) - eye))
                assert dev < 1e-13


def test_uniform_cipher_mixture_validation():
    with pytest.raises(ValueError):
        cipher_mixture_uniform(SchemeId.B, 2, 2)
    with pytest.raises(ValueError):
        cipher_mixture_uniform(SchemeId.M1, 2, 4)
    with pytest.raises(ValueError):
        cipher_mixture_uniform(SchemeId.A, 2, 0)


def test_cipher_distance_reports_b_m1_m2():
    for scheme in (SchemeId.B, SchemeId.M1, SchemeId.M2):
        r = cipher_distance_report(scheme, 3)
        assert r.bound == 0.0
        assert r.computed < 1e-12
        assert report_ok(r)


def test_sampled_mixture_converges():
    rng = np.random.default_rng(42)
    exact = cipher_mixture_A(2, 0, cross_check=False)
    dev_small = np.max(np.abs(cipher_mixture_A_sampled(2, 0, 100, rng) - exact))
    dev_large = np.max(np.abs(cipher_mixture_A_sampled(2, 0, 10_000, rng) - exact))
    assert dev_large < dev_small
    assert dev_large < 0.05  # frozen: 0.033 at this seed


def test_sampled_mixture_needs_samples():
    with pytest.raises(ValueError, match="num_samples"):
        cipher_mixture_A_sampled(2, 0, 0, np.random.default_rng(0))


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
            dev = np.max(np.abs(analysis.pubkey_mixture_fixed_k(n, k) - identity_mixture(n)))
            assert dev < 1e-13


# --- channels ---------------------------------------------------------------

def test_channel_identity():
    for n in range(1, 5):
        r = channel_identity_report(n)
        assert r.computed < 1e-12
        assert report_ok(r)


def test_channels_preserve_density_and_contract():
    rng = np.random.default_rng(50)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, 1 << n)
        sig = random_density(rng, 1 << n)
        for chan in (channel_e1, channel_e2):
            qmat.assert_density_operator(chan(rho))
            d_in = qmat.trace_distance(rho, sig)
            d_out = qmat.trace_distance(chan(rho), chan(sig))
            assert d_out <= d_in + 1e-12


def test_channel_e2_is_idempotent():
    # averaging over the Hadamard-mask group twice changes nothing
    rng = np.random.default_rng(51)
    rho = random_density(rng, 4)
    once = channel_e2(rho)
    assert np.max(np.abs(channel_e2(once) - once)) < 1e-14


# --- multi-copy joint states ------------------------------------------------

def test_multicopy_fresh_is_zero():
    for n, t in ((2, 1), (2, 2), (3, 1)):
        r = multicopy_distance(MixtureSpec(SchemeId.B, n, t))
        assert r.bound == 0.0
        assert r.computed < 1e-12
        assert report_ok(r)


def test_multicopy_shared_frozen_values():
    frozen = {(2, 1): 0.25, (2, 2): 0.426776695297, (3, 1): 0.125, (3, 2): 0.231694173824}
    for (n, t), want in frozen.items():
        r = multicopy_distance(MixtureSpec(SchemeId.B, n, t, reuse="shared_s"))
        assert r.bound is None
        assert abs(r.computed - want) < 1e-9, (n, t, r.computed)
        assert 0.0 < r.computed < 1.0


def test_multicopy_no_copies_no_information():
    for reuse in ("fresh_s", "shared_s"):
        r = multicopy_distance(MixtureSpec(SchemeId.B, 3, 0, reuse=reuse))
        assert r.computed < 1e-12


def test_multicopy_shared_nondecreasing_in_t():
    vals = [multicopy_distance(MixtureSpec(SchemeId.B, 3, t, reuse="shared_s")).computed
            for t in (0, 1, 2)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def test_multicopy_sampled_anf_route():
    rng = np.random.default_rng(52)
    spec = MixtureSpec(SchemeId.B, 2, 1, key_model="sampled_anf", anf_samples=40, seed=52)
    r = multicopy_distance(spec, rng)
    assert r.bound is None
    assert 0.0 <= r.computed <= 1.0
    with pytest.raises(ValueError):
        multicopy_distance(spec, None)


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(SchemeId.A, 2, 1)
    with pytest.raises(ValueError):
        MixtureSpec(SchemeId.B, 2, 1, reuse="sometimes")
    with pytest.raises(ValueError):
        MixtureSpec(SchemeId.B, 2, 1, key_model="psychic")
    with pytest.raises(ValueError):
        MixtureSpec(SchemeId.B, 2, -1)
    with pytest.raises(ValueError):
        MixtureSpec(SchemeId.B, 4, 2)  # 4*3 > 10


# --- superposition-key bounds -----------------------------------------------

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
        qmat.assert_density_operator(pan10_rho_k(n, k, b))
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
        pan10_mixture_distance(6, 2)
    with pytest.raises(ValueError):
        pan10_mixture_distance(4, -1)


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
    rho0 = cipher_mixture_A(2, 0, cross_check=False)
    rho1 = cipher_mixture_A(2, 1, cross_check=False)
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
