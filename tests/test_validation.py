"""Untrusted key and ciphertext JSON is checked on load, and keygen checks
its arguments before it draws anything."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpke import bits
from qpke.qsym import ProductState
from qpke.schemes import (SCHEMES, SchemeId, ciphertext_from_json,
                          ciphertext_to_json, decrypt, encrypt, keygen, message_width,
                          private_key_from_json, private_key_to_json, public_key_from_json,
                          public_key_to_json)


def issued(scheme, n=3, seed=0, **kw):
    rng = np.random.default_rng(seed)
    sk, (pk,) = keygen(scheme, n, rng, **kw)
    return sk, pk, rng


def json_copy(obj):
    return json.loads(json.dumps(obj))


def test_ciphertext_with_wrong_qubit_count_is_rejected():
    sk, pk, rng = issued(SchemeId.A)
    obj = ciphertext_to_json(encrypt(pk, 1, rng))
    for qubits in (obj["quantum"]["qubits"] + [["Z0", 0]], obj["quantum"]["qubits"][:-1]):
        bad = json_copy(obj)
        bad["quantum"]["qubits"] = qubits
        with pytest.raises(ValueError, match="^quantum: expected 3 qubits"):
            ciphertext_from_json(bad)


def test_decrypt_checks_qubit_count_and_m():
    sk, pk, rng = issued(SchemeId.A)
    ct = encrypt(pk, 1, rng)
    wider = replace(ct, quantum=ProductState(ct.quantum.qubits * 2))
    with pytest.raises(ValueError, match="^quantum:"):
        decrypt(sk, wider)
    with pytest.raises(ValueError, match="^m:"):
        decrypt(sk, replace(ct, m=ct.m + 1))


def test_m1_label_must_be_a_pair():
    _, pk, _ = issued(SchemeId.M1)
    obj = public_key_to_json(pk)
    obj["label"] = obj["label"][0]
    with pytest.raises(ValueError, match="^label: expected a pair"):
        public_key_from_json(obj)


@pytest.mark.parametrize("load, dump", [(public_key_from_json, public_key_to_json),
                                        (ciphertext_from_json, ciphertext_to_json)])
def test_label_width_must_be_m(load, dump):
    _, pk, rng = issued(SchemeId.B)
    obj = dump(pk if load is public_key_from_json else encrypt(pk, 0, rng))
    obj["m"] = 99
    with pytest.raises(ValueError, match="^label: expected a 99-bit string"):
        load(obj)


def test_private_key_m_must_match_its_functions():
    sk, _, _ = issued(SchemeId.A)
    obj = private_key_to_json(sk)
    obj["m"] = 99
    with pytest.raises(ValueError, match="^f: expected a function of 99 bits"):
        private_key_from_json(obj)


def test_public_key_n_must_match_its_state():
    _, pk, _ = issued(SchemeId.M2)
    obj = public_key_to_json(pk)
    obj["n"] = 4
    with pytest.raises(ValueError, match="^quantum: expected 4 qubits, got 3"):
        public_key_from_json(obj)


def test_retagged_scheme_is_rejected():
    _, pk, _ = issued(SchemeId.M1)
    obj = public_key_to_json(pk)
    obj["scheme"] = "a"
    with pytest.raises(ValueError, match="^label: expected a 6-bit string"):
        public_key_from_json(obj)
    _, pk, _ = issued(SchemeId.A)
    obj = public_key_to_json(pk)
    obj["scheme"] = "pan10"
    with pytest.raises(ValueError, match="^quantum: expected a TwoTermState"):
        public_key_from_json(obj)
    obj["scheme"] = "rsa"
    with pytest.raises(ValueError, match="^scheme:"):
        public_key_from_json(obj)


def test_private_key_needs_exactly_its_fields():
    sk, _, _ = issued(SchemeId.B)
    obj = private_key_to_json(sk)
    missing = {k: v for k, v in obj.items() if k != "f2"}
    with pytest.raises(ValueError, match="^f2: scheme b keys hold exactly the fields f1, f2"):
        private_key_from_json(missing)
    extra = {**obj, "l": "0" * sk.m}
    with pytest.raises(ValueError, match="^l:"):
        private_key_from_json(extra)


@pytest.mark.parametrize("scheme", [s for s in SchemeId if s != SchemeId.PAN10])
def test_pan10_table_is_rejected_on_other_schemes(scheme):
    sk, _, _ = issued(scheme, m=6)
    obj = private_key_to_json(sk)
    reason = f"^pan10_table: scheme {scheme.value} keys hold no table$"
    for table in ({"000000": "101"}, {}):
        with pytest.raises(ValueError, match=reason):
            private_key_from_json({**obj, "pan10_table": table})


def test_f2_width_is_checked():
    sk, _, _ = issued(SchemeId.M2)
    obj = private_key_to_json(sk)
    obj["scheme"] = "b"  # m2's F2 has n outputs, b's balanced F2 has one
    with pytest.raises(ValueError, match="^f2: expected a function of 6 bits to 1"):
        private_key_from_json(obj)


@pytest.mark.parametrize("terms, reason, mask", [
    (["1"], "expected 6-bit strings", 0b000001),
    (["0000001"], "expected 6-bit strings", 0b000001),
    (["000011", "000011"], "a monomial is repeated", 0b000011)])
def test_anf_terms_must_be_distinct_m_bit_strings(terms, reason, mask):
    # "1" and "0000001" would both alias the mask 000001, and a repeated
    # monomial would load once although the pair cancels under XOR
    sk, _, _ = issued(SchemeId.A)
    obj = private_key_to_json(sk)
    obj["f"]["terms"][1] = terms
    with pytest.raises(ValueError, match=f"^f: expected an ANF function .*output bit 1: {reason}"):
        private_key_from_json(obj)
    obj["f"]["terms"][1] = [bits.to_str(mask, 6)]
    assert private_key_from_json(obj).f.terms[1] == {mask}


@pytest.mark.parametrize("n, m", [(3, 3), (0, 6), (-1, 6), ("3", 6), (3, 6.0), (True, 6),
                                  (3, None)])
def test_n_and_m_must_be_integers_with_n_below_m(n, m):
    _, pk, _ = issued(SchemeId.A)
    obj = {**public_key_to_json(pk), "n": n, "m": m}
    with pytest.raises(ValueError, match="^n, m:"):
        public_key_from_json(obj)


@pytest.mark.parametrize("load", [public_key_from_json, ciphertext_from_json,
                                  private_key_from_json])
@pytest.mark.parametrize("obj", [[], "x", None, 3])
def test_record_must_be_a_json_object(load, obj):
    kind = type(obj).__name__
    with pytest.raises(ValueError, match=f"^record: expected a JSON object, got {kind}$"):
        load(obj)


def test_malformed_quantum_record_names_the_field():
    _, pk, _ = issued(SchemeId.PAN10)
    obj = public_key_to_json(pk)
    obj["quantum"] = {"i": "101"}
    with pytest.raises(ValueError, match="^quantum: expected a TwoTermState"):
        public_key_from_json(obj)


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(list(SchemeId)), n=st.integers(1, 4),
       extra=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_json_round_trips_return_equal_objects(scheme, n, extra, seed):
    rng = np.random.default_rng(seed)
    sk, pks = keygen(scheme, n, rng, m=n + extra, count=2)
    assert private_key_from_json(json_copy(private_key_to_json(sk))) == sk
    for pk in pks:
        assert public_key_from_json(json_copy(public_key_to_json(pk))) == pk
        ct = encrypt(pk, bits.rand_bits(rng, message_width(scheme, n)), rng)
        back = ciphertext_from_json(json_copy(ciphertext_to_json(ct)))
        if scheme == SchemeId.PAN10:
            # The two-term record carries no global phase, which no
            # measurement can see.
            ct = replace(ct, quantum=replace(ct.quantum, global_phase=0))
        assert back == ct
        assert decrypt(sk, back) == decrypt(sk, ct)


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(list(SchemeId)), field=st.sampled_from(["n", "m"]),
       value=st.integers(-3, 12))
def test_a_changed_width_is_rejected_or_unchanged(scheme, field, value):
    _, pk, rng = issued(scheme)
    obj = ciphertext_to_json(encrypt(pk, 0, rng))
    if obj[field] == value:
        return
    with pytest.raises(ValueError, match="^(n, m|label|quantum):"):
        ciphertext_from_json({**obj, field: value})


def test_scheme_table_lists_every_scheme():
    assert set(SCHEMES) == set(SchemeId)
    for scheme, spec in SCHEMES.items():
        assert message_width(scheme, 5) == (5 if spec.wide else 1)


def test_keygen_rejects_negative_count_before_drawing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="count"):
        keygen(SchemeId.A, 3, rng, count=-1)
    assert rng.bit_generator.state == before
    assert keygen(SchemeId.A, 3, rng, count=0)[1] == []


@pytest.mark.parametrize("scheme", [SchemeId.B, SchemeId.ENH])
def test_keygen_rejects_wide_balanced_f2_before_drawing(scheme):
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"scheme {scheme.value} .* m must be <= 20, got m=22"):
        keygen(scheme, 11, rng)
    assert rng.bit_generator.state == before
    sk, _ = keygen(scheme, 11, rng, m=14, count=0)
    assert sk.m == 14

