"""Symbolic conjugate-coding states checked against dense linear algebra.

The dense 2x2 gate matrices act as the oracle: every table entry and every
symbolic evolution must match matrix arithmetic exactly (the symbols track
phases as integer exponents of i, so there is no tolerance to hide behind).
"""
import numpy as np
import pytest

from qpke import bits
from qpke.qsym import (BASIS_CODES, GATE_ACTIONS, XM, XP, Z0, Z1, ProductState,
                       QubitSymbol, TwoTermState)

GATES = tuple(GATE_ACTIONS)

GATE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


def test_gate_table_matches_matrices_exactly():
    for gate in GATES:
        for basis in BASIS_CODES:
            sym = QubitSymbol(basis)
            out = sym.apply(gate)
            assert out.basis in BASIS_CODES
            dev = np.max(np.abs(out.to_vector() - GATE_MATRICES[gate] @ sym.to_vector()))
            assert dev < 1e-15, (gate, basis, dev)


def test_gate_table_closure_under_composition():
    # applying any two gates keeps the state inside the four-symbol family
    for g1 in GATES:
        for g2 in GATES:
            for basis in BASIS_CODES:
                out = QubitSymbol(basis).apply(g1).apply(g2)
                assert out.basis in BASIS_CODES
                assert out.phase in (0, 1, 2, 3)


def test_qubit_symbol_validation():
    with pytest.raises(ValueError):
        QubitSymbol("Q0")
    with pytest.raises(ValueError):
        QubitSymbol(Z0).apply("T")
    assert QubitSymbol(Z0, 7).phase == 3  # reduced mod 4


def test_from_bits_msb_first():
    state = ProductState.from_bits(0b10, 2)
    assert state.qubits[0].basis == Z1
    assert state.qubits[1].basis == Z0
    vec = state.to_vector()
    assert np.array_equal(vec, np.array([0, 0, 1, 0], dtype=complex))


def test_from_bits_and_apply_mask_reject_values_outside_n_bits():
    state = ProductState.from_bits(0b01, 2)
    for bad in (0b101, -1):
        with pytest.raises(ValueError, match="does not fit in 2 bits"):
            ProductState.from_bits(bad, 2)
        with pytest.raises(ValueError, match="does not fit in 2 bits"):
            state.apply_mask("X", bad)
    with pytest.raises(ValueError, match="at least one qubit"):
        ProductState.from_bits(0, 0)


def test_apply_yj_example():
    # Y (x) Y on |1>|->: the phase kicks 3 and 1 cancel mod 4. |1>|-> is
    # the public key H_01|11>, so its ciphertext under j = 11 is |0>|+>.
    state = ProductState((QubitSymbol(Z1), QubitSymbol(XM)))
    assert ProductState.from_bits(0b11, 2).apply_hk(0b01) == state
    out = state.apply_yj(0b11)
    assert out.basis_string() == "Z0X+"
    assert out.total_phase == 0


def test_product_state_vector_oracle():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        qubits = tuple(QubitSymbol(BASIS_CODES[rng.integers(0, 4)], int(rng.integers(0, 4)))
                       for _ in range(n))
        state = ProductState(qubits, int(rng.integers(0, 4)))
        expected = np.array([1.0 + 0j])
        single = {"Z0": [1, 0], "Z1": [0, 1], "X+": [2 ** -0.5, 2 ** -0.5],
                  "X-": [2 ** -0.5, -(2 ** -0.5)]}
        for q in qubits:
            expected = np.kron(expected, (1j ** q.phase) * np.asarray(single[q.basis]))
        expected = (1j ** state.global_phase) * expected
        assert np.max(np.abs(state.to_vector() - expected)) < 1e-15


def test_mask_evolution_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        state = ProductState.from_bits(bits.rand_bits(rng, n), n)
        vec = state.to_vector()
        for _ in range(int(rng.integers(1, 8))):
            gate = GATES[rng.integers(0, 5)]
            mask = bits.rand_bits(rng, n)
            state = state.apply_mask(gate, mask)
            ops = [GATE_MATRICES[gate] if bits.bit_at(mask, a, n) else np.eye(2, dtype=complex)
                   for a in range(n)]
            full = ops[0]
            for op in ops[1:]:
                full = np.kron(full, op)
            vec = full @ vec
        assert np.max(np.abs(state.to_vector() - vec)) < 1e-12


def test_decryption_identity():
    # H_k Y_j H_k |i> = i^(2*(j.(i^k)) + weight(j)) |i xor j>
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        i = bits.rand_bits(rng, n)
        k = bits.rand_bits(rng, n)
        j = bits.rand_bits(rng, n)
        out = ProductState.from_bits(i, n).apply_hk(k).apply_yj(j).apply_hk(k)
        assert out.basis_string() == ProductState.from_bits(i ^ j, n).basis_string()
        assert out.total_phase == (2 * bits.dot(j, i ^ k) + bits.weight(j)) % 4


def test_decryption_identity_at_n256():
    # far past the dense range: the symbols alone carry basis and phase
    rng = np.random.default_rng(16)
    n = 256
    for _ in range(20):
        i, k, j = (bits.rand_bits(rng, n) for _ in range(3))
        out = ProductState.from_bits(i, n).apply_hk(k).apply_yj(j).apply_hk(k)
        assert out.basis_string() == ProductState.from_bits(i ^ j, n).basis_string()
        assert out.measure_computational() == i ^ j
        assert out.total_phase == (2 * bits.dot(j, i ^ k) + bits.weight(j)) % 4


def test_decryption_identity_worked_example():
    # n=2, i=11, k=01, j=11: ends on |00> with no phase at all
    out = ProductState.from_bits(0b11, 2).apply_hk(0b01).apply_yj(0b11).apply_hk(0b01)
    assert out.basis_string() == "Z0Z0"
    assert out.total_phase == 0


def test_measure_computational():
    state = ProductState.from_bits(0b101, 3)
    assert state.measure_computational() == 0b101
    plus = ProductState((QubitSymbol(Z1), QubitSymbol(XP)))
    with pytest.raises(ValueError):
        plus.measure_computational()


def test_tensor_and_total_phase():
    a = ProductState((QubitSymbol(Z0, 1),), global_phase=1)
    b = ProductState((QubitSymbol(XM, 2),), global_phase=3)
    ab = ProductState(a.qubits + b.qubits, global_phase=4)
    assert ab.n == 2
    assert ab.global_phase == 0  # (1 + 3) mod 4
    assert ab.total_phase == 3
    assert np.max(np.abs(ab.to_vector() - np.kron(a.to_vector(), b.to_vector()))) < 1e-15


def test_product_state_json_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        qubits = tuple(QubitSymbol(BASIS_CODES[rng.integers(0, 4)], int(rng.integers(0, 4)))
                       for _ in range(n))
        state = ProductState(qubits, int(rng.integers(0, 4)))
        assert ProductState.from_json(state.to_json()) == state


def test_two_term_state_vector():
    s = TwoTermState(2, 0b11, 0b01)
    vec = s.to_vector()
    r = np.sqrt(0.5)
    assert np.allclose(vec, [0, 0, r, r])
    assert np.allclose(TwoTermState(2, 0b11, 0b01, rel_phase=2).to_vector(), [0, 0, -r, r])
    rho = s.to_density()
    assert abs(np.trace(rho) - 1.0) < 1e-15


def test_two_term_state_validation():
    with pytest.raises(ValueError):
        TwoTermState(2, 0, 0)  # k must be nonzero
    with pytest.raises(ValueError):
        TwoTermState(2, 4, 1)  # i out of range
    with pytest.raises(ValueError):
        TwoTermState(2, 0, 4)  # k out of range


def test_apply_zall_against_dense():
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 1 << n))
        i = bits.rand_bits(rng, n)
        s = TwoTermState(n, i, k, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        zn = np.array([(-1.0) ** bits.weight(v) for v in range(1 << n)])
        assert np.max(np.abs(s.apply_zall().to_vector() - zn * s.to_vector())) < 1e-15


def test_apply_zall_worked_example():
    # odd-weight k flips the relative phase by i^2; weight(i) feeds the global
    s = TwoTermState(2, 0b00, 0b01).apply_zall()
    assert (s.rel_phase, s.global_phase) == (2, 0)
    s = TwoTermState(3, 0b111, 0b100).apply_zall()
    assert (s.rel_phase, s.global_phase) == (2, 2)


def test_two_term_json_round_trip_drops_global_phase():
    s = TwoTermState(3, 0b101, 0b011, rel_phase=2, global_phase=1)
    back = TwoTermState.from_json(s.to_json())
    assert (back.n, back.i, back.k, back.rel_phase) == (3, 0b101, 0b011, 2)
    assert back.global_phase == 0  # file format carries no global phase
