"""Dense-matrix helper checks: trace norm/distance, dimension cap."""
import numpy as np
import pytest

from qpke import qmat

from dense_oracles import assert_density_operator


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_dim_cap_env_override(monkeypatch):
    monkeypatch.setenv("QPKE_DIM_CAP", "8")
    assert qmat.dim_cap() == 8
    qmat.check_dim(8)
    with pytest.raises(qmat.DimensionCapError):
        qmat.check_dim(16)
    monkeypatch.setenv("QPKE_DIM_CAP", "1")
    with pytest.raises(ValueError):
        qmat.dim_cap()
    monkeypatch.delenv("QPKE_DIM_CAP")
    assert qmat.dim_cap() == qmat.DEFAULT_DIM_CAP


def test_trace_norm_matches_svd():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert abs(qmat.trace_norm(a) - np.linalg.svd(a, compute_uv=False).sum()) < 1e-9
        h = random_hermitian(rng, dim)
        assert abs(qmat.trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-11


def test_trace_norm_tensor_identity():
    # tr|A (x) B| = tr|A| tr|B|, checked on random Hermitian pairs
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        lhs = qmat.trace_norm(np.kron(a, b))
        rhs = qmat.trace_norm(a) * qmat.trace_norm(b)
        assert abs(lhs - rhs) < 1e-9


def test_trace_distance_metric_properties():
    rng = np.random.default_rng(4)
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        sig = random_density(rng, dim)
        tau = random_density(rng, dim)
        d_rs = qmat.trace_distance(rho, sig)
        assert 0.0 <= d_rs <= 1.0 + 1e-12
        assert abs(d_rs - qmat.trace_distance(sig, rho)) < 1e-12
        assert qmat.trace_distance(rho, rho) < 1e-12
        assert d_rs <= qmat.trace_distance(rho, tau) + qmat.trace_distance(tau, sig) + 1e-12


def test_trace_distance_orthogonal_pure_states_is_one():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    assert abs(qmat.trace_distance(rho, sig) - 1.0) < 1e-14


def test_trace_distance_input_validation():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        qmat.trace_distance(rho, np.eye(4) / 4)
    with pytest.raises(ValueError):
        qmat.trace_distance(rho, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        qmat.trace_distance(rho, np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_assert_density_operator():
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert_density_operator(random_density(rng, int(rng.integers(2, 9))))
    with pytest.raises(ValueError):
        assert_density_operator(np.eye(2))
    with pytest.raises(ValueError):
        assert_density_operator(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        assert_density_operator(np.diag([1.5, -0.5]).astype(complex))
