"""Protocol round-trips, keygen invariants, single-use enforcement, JSON."""
import json
from dataclasses import replace

import numpy as np
import pytest

from qpke import bits, schemes
from qpke.qsym import ProductState, TwoTermState
from qpke.schemes import (Ciphertext, PublicKey, PublicKeyConsumedError, SchemeId,
                          ciphertext_from_json, ciphertext_to_json, copy_public_key,
                          decrypt, encrypt,
                          keygen, message_width, private_key_from_json,
                          private_key_to_json, public_key_from_json,
                          public_key_to_json)

ALL_SCHEMES = list(SchemeId)


def test_message_width():
    assert message_width(SchemeId.A, 5) == 1
    assert message_width(SchemeId.M1, 5) == 5
    assert message_width(SchemeId.M2, 3) == 3
    assert message_width(SchemeId.PAN10, 4) == 1


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_round_trip_all_messages(scheme):
    rng = np.random.default_rng(30)
    for n in range(1, 5):
        width = message_width(scheme, n)
        for _ in range(25):
            sk, (pk,) = keygen(scheme, n, rng)
            message = bits.rand_bits(rng, width)
            ct = encrypt(pk, message, rng)
            assert decrypt(sk, ct) == message


def test_keygen_scheme_a_even_parity():
    rng = np.random.default_rng(31)
    sk, pks = keygen(SchemeId.A, 4, rng, count=1000)
    assert len(pks) == 1000
    for pk in pks:
        k = sk.f.evaluate(pk.label)
        i = pk.quantum.apply_hk(k).measure_computational()
        assert bits.parity(i) == 0


def test_keygen_scheme_b_parity_matches_f2():
    rng = np.random.default_rng(32)
    sk, pks = keygen(SchemeId.B, 4, rng, count=1000)
    seen_parities = set()
    for pk in pks:
        k = sk.f1.evaluate(pk.label)
        i = pk.quantum.apply_hk(k).measure_computational()
        p = sk.f2.evaluate(pk.label)
        assert bits.parity(i) == p
        seen_parities.add(p)
    assert seen_parities == {0, 1}  # the encoded value really is unrestricted


def test_keygen_pan10_odd_weight_keys():
    rng = np.random.default_rng(33)
    sk, pks = keygen(SchemeId.PAN10, 4, rng, count=1000)
    for pk in pks:
        assert isinstance(pk.quantum, TwoTermState)
        assert bits.weight(pk.quantum.k) % 2 == 1
        assert pk.quantum.i == sk.pan10_table[pk.label]
    # one i per label, shared across reissues of the same s
    again = schemes.issue_public_keys(sk, 50, rng)
    for pk in again:
        assert pk.quantum.i == sk.pan10_table[pk.label]


def test_keygen_enh_label_encoding():
    rng = np.random.default_rng(34)
    sk, pks = keygen(SchemeId.ENH, 3, rng, count=50)
    for pk in pks:
        label = pk.label
        assert isinstance(label, ProductState)
        assert label.n == sk.m
        s = label.apply_mask("H", sk.l).measure_computational()
        # the label must decode to an s consistent with the quantum part
        k = sk.f1.evaluate(s)
        i = pk.quantum.apply_hk(k).measure_computational()
        assert bits.parity(i) == sk.f2.evaluate(s)
        for a in range(sk.m):
            if bits.bit_at(sk.l, a, sk.m):
                assert label.qubits[a].basis in ("X+", "X-")
            else:
                assert label.qubits[a].basis in ("Z0", "Z1")


def test_keygen_validation():
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError):
        keygen(SchemeId.A, 0, rng)
    with pytest.raises(ValueError):
        keygen(SchemeId.A, 4, rng, m=4)
    with pytest.raises(ValueError):
        keygen(SchemeId.A, 4, rng, m=3)


def test_keygen_deterministic_per_seed():
    sk1, pks1 = keygen(SchemeId.B, 3, np.random.default_rng(99), count=3)
    sk2, pks2 = keygen(SchemeId.B, 3, np.random.default_rng(99), count=3)
    assert private_key_to_json(sk1) == private_key_to_json(sk2)
    for a, b in zip(pks1, pks2):
        assert public_key_to_json(a) == public_key_to_json(b)


def test_forced_mask_ciphertext_example():
    # i=11, k=01: encrypting 0 draws j from {00, 11}; j=11 lands the
    # ciphertext on |0>|+> with no phase
    key = ProductState.from_bits(0b11, 2).apply_hk(0b01)
    seen = {}
    for seed in range(64):
        j = bits.rand_parity_bits(np.random.default_rng(seed), 2, 0)
        pk = PublicKey(SchemeId.A, 2, 4, label=0, quantum=key)
        ct = encrypt(pk, 0, np.random.default_rng(seed))
        assert ct.quantum == key.apply_yj(j)
        seen[j] = ct.quantum
        if len(seen) == 2:
            break
    assert set(seen) == {0b00, 0b11}
    assert seen[0b11].basis_string() == "Z0X+"
    assert seen[0b11].total_phase == 0


def test_public_keys_are_single_use():
    rng = np.random.default_rng(37)
    for scheme in ALL_SCHEMES:
        _, (pk,) = keygen(scheme, 2, rng)
        width = message_width(scheme, 2)
        encrypt(pk, 0, rng)
        with pytest.raises(PublicKeyConsumedError):
            encrypt(pk, (1 << width) - 1, rng)
        encrypt(pk, 0, rng, allow_reuse=True)
        fresh = copy_public_key(pk)
        assert not fresh.consumed
        encrypt(fresh, 0, rng)


def test_encrypt_validation():
    rng = np.random.default_rng(38)
    _, (pk,) = keygen(SchemeId.M1, 3, rng)
    with pytest.raises(ValueError):
        encrypt(pk, 8, rng)  # message too wide
    _, (pk,) = keygen(SchemeId.A, 3, rng)
    with pytest.raises(ValueError):
        encrypt(pk, 0, None)  # no rng to draw the mask


def test_m2_mask_equal_to_encoded_value_decodes_to_zero():
    rng = np.random.default_rng(39)
    sk, (pk,) = keygen(SchemeId.M2, 3, rng)
    i = sk.f2.evaluate(pk.label)
    k = sk.f1.evaluate(pk.label)
    ct = encrypt(pk, i, rng)
    assert ct.quantum.apply_hk(k).measure_computational() == 0
    assert decrypt(sk, ct) == i


def test_pan10_phase_flip_is_z_mask():
    rng = np.random.default_rng(40)
    sk, (pk,) = keygen(SchemeId.PAN10, 3, rng)
    base = pk.quantum
    ct = encrypt(pk, 1)
    assert ct.quantum.rel_phase == (base.rel_phase + 2) % 4
    assert decrypt(sk, ct) == 1


@pytest.mark.parametrize("n", [16, 64])
def test_pan10_round_trip_large_n(n):
    # decryption reads the phase symbolically, past the dense dimension cap
    rng = np.random.default_rng(46)
    for message in (0, 1):
        sk, (pk,) = keygen(SchemeId.PAN10, n, rng)
        assert decrypt(sk, encrypt(pk, message)) == message


def test_pan10_decrypt_swapped_terms():
    # (|i^k> + i^-r |i>) is (|i> + i^r |i^k>) up to a global phase
    rng = np.random.default_rng(47)
    for message in (0, 1):
        sk, (pk,) = keygen(SchemeId.PAN10, 4, rng)
        ct = encrypt(pk, message)
        q = ct.quantum
        swapped = TwoTermState(q.n, q.i ^ q.k, q.k, -q.rel_phase)
        assert decrypt(sk, Ciphertext(SchemeId.PAN10, 4, sk.m, ct.label, swapped)) == message


def test_decrypt_validation():
    rng = np.random.default_rng(41)
    sk_a, (pk_a,) = keygen(SchemeId.A, 3, rng)
    sk_b, _ = keygen(SchemeId.B, 3, rng)
    ct = encrypt(pk_a, 0, rng)
    with pytest.raises(ValueError):
        decrypt(sk_b, ct)

    sk, (pk,) = keygen(SchemeId.PAN10, 3, rng)
    ct = encrypt(pk, 0)
    unknown_label = (pk.label + 1) % (1 << sk.m)
    with pytest.raises(ValueError):
        decrypt(sk, Ciphertext(SchemeId.PAN10, 3, sk.m, unknown_label, ct.quantum))
    corrupted = TwoTermState(ct.quantum.n, ct.quantum.i, ct.quantum.k, rel_phase=1)
    with pytest.raises(ValueError):
        decrypt(sk, Ciphertext(SchemeId.PAN10, 3, sk.m, ct.label, corrupted))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_json_round_trip_preserves_decryption(scheme):
    rng = np.random.default_rng(42)
    sk, (pk,) = keygen(scheme, 3, rng)
    width = message_width(scheme, 3)
    pk2 = public_key_from_json(json.loads(json.dumps(public_key_to_json(pk))))
    message = bits.rand_bits(rng, width)
    ct = encrypt(pk2, message, rng)
    ct2 = ciphertext_from_json(json.loads(json.dumps(ciphertext_to_json(ct))))
    sk2 = private_key_from_json(json.loads(json.dumps(private_key_to_json(sk))))
    assert decrypt(sk2, ct2) == message


@pytest.mark.parametrize("scheme, label, want", [(SchemeId.A, 3, "0011"),
                                                 (SchemeId.M1, (3, 1), ["0011", "0001"])])
def test_adversary_view_label_keeps_leading_zeros(scheme, label, want):
    # a published label below 2^(m-1) prints all m characters
    _, (pk,) = keygen(scheme, 2, np.random.default_rng(44))
    pk = replace(pk, label=label)
    assert pk.m == 4
    assert public_key_to_json(pk)["label"] == want


def test_scheme_a_ciphertext_symbol_parity():
    # the encrypted state is n conjugate-coding symbols, and for message 0
    # the number of "one-ish" symbols (|1> or |->) is even
    rng = np.random.default_rng(45)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        sk, (pk,) = keygen(SchemeId.A, n, rng)
        b = int(rng.integers(0, 2))
        ct = encrypt(pk, b, rng)
        symbols = [q.basis for q in ct.quantum.qubits]
        assert all(s in ("Z0", "Z1", "X+", "X-") for s in symbols)
        ones = sum(s in ("Z1", "X-") for s in symbols)
        assert ones % 2 == b


def test_issue_counts_and_fresh_labels():
    rng = np.random.default_rng(44)
    sk, pks = keygen(SchemeId.A, 3, rng, m=10, count=200)
    assert len(pks) == 200
    labels = {pk.label for pk in pks}
    assert len(labels) > 150  # fresh uniform draws over 2^10 rarely collide
