import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpslab import (
    RandomStream,
    linalg,
    relativity,
    check_density_matrix,
    eigh,
    kron,
    maximally_mixed,
    partial_trace,
    purity,
    schmidt,
    trace_norm,
    von_neumann_entropy,
)
from tpslab.linalg import _checked_spectrum, hermiticity_defect
from conftest import bell_density, propagator, stream


I2 = np.eye(2, dtype=complex)


def kron_loop_oracle(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        np.testing.assert_allclose(got, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_matches_loop_oracle(self):
        s = stream(11)
        a = s.complex_matrix(3, 3)
        b = s.complex_matrix(3, 3)
        np.testing.assert_allclose(kron(a, b), kron_loop_oracle(a, b), atol=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_associativity(self, seed):
        s = RandomStream(seed)
        a, b, c = (s.complex_matrix(2, 2) for _ in range(3))
        np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-14)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        s = stream(3)
        rho_a = s.ginibre_density(3, 3)
        rho_b = s.ginibre_density(2, 2)
        np.testing.assert_allclose(partial_trace(kron(rho_a, rho_b), 3, 2, "A"), rho_a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(kron(rho_a, rho_b), 3, 2, "B"), rho_b, atol=1e-13)

    def test_bell_state_reduces_to_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(bell_density(), 2, 2, "A"), I2 / 2, atol=1e-14)

    def test_matches_index_summation_oracle(self):
        rho = stream(5).ginibre_density(4, 4)
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for beta in range(2):
                    oracle[i, j] += rho[i * 2 + beta, j * 2 + beta]
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "A"), oracle, atol=1e-14)

    def test_scaled_factor(self):
        s = stream(6)
        a = s.complex_matrix(2, 2)
        b = s.complex_matrix(3, 3)
        got = partial_trace(kron(a, b), 2, 3, "A")
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_preserved(self, seed):
        m = RandomStream(seed).complex_matrix(6, 6)
        for keep, (da, db) in (("A", (2, 3)), ("B", (3, 2))):
            assert abs(np.trace(partial_trace(m, da, db, keep)) - np.trace(m)) <= 1e-12

    def test_dimension_mismatch_is_fatal(self):
        with pytest.raises(ValueError, match="does not factor as 2 x 3"):
            partial_trace(np.eye(4), 2, 3, "A")


class TestEigh:
    def test_diagonal(self):
        w, _ = eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w, v = eigh(x)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        minus = np.array([1, -1]) / math.sqrt(2)
        plus = np.array([1, 1]) / math.sqrt(2)
        assert abs(abs(np.vdot(minus, v[:, 0])) - 1) <= 1e-10
        assert abs(abs(np.vdot(plus, v[:, 1])) - 1) <= 1e-10

    def test_gue_reconstruction(self):
        h = stream(8).gue(8)
        w, v = eigh(h)
        assert np.linalg.norm(h @ v - v * w) <= 1e-10 * np.linalg.norm(h)
        assert np.linalg.norm(v.conj().T @ v - np.eye(8)) <= 1e-10

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(bad)


class TestPropagator:
    def test_zero_time(self):
        h = stream(9).gue(4)
        np.testing.assert_allclose(propagator(h, 0.0), np.eye(4), atol=1e-14)

    def test_pauli_z_half_period(self):
        z = np.diag([1.0, -1.0])
        np.testing.assert_allclose(propagator(z, math.pi), -np.eye(2), atol=1e-12)

    def test_group_property(self):
        h = stream(10).gue(5)
        u = propagator(h, 0.3) @ propagator(h, 0.7)
        np.testing.assert_allclose(u, propagator(h, 1.0), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_unitarity(self, seed):
        h = RandomStream(seed).gue(4)
        u = propagator(h, 2.5)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_density_matrix_is_one(self):
        rho = stream(12).ginibre_density(4, 3)
        assert abs(trace_norm(rho) - 1.0) <= 1e-12

    def test_diagonal(self):
        assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) <= 1e-14

    def test_hermitian_flag_skips_the_test_for_roundoff_sized_input(self, monkeypatch):
        # the idempotency residual of the lemma2 sweeps is of this kind: its
        # relative Hermiticity defect is of order 1, so the test alone sends
        # it down the m^H m route
        m = 1e-17 * stream(170).complex_matrix(6, 6)
        m += m.conj().T
        m[0, 1] += 3e-18
        assert hermiticity_defect(m) > 1e-8
        want = float(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).sum())
        monkeypatch.setattr(linalg, "hermiticity_defect", lambda m: pytest.fail("tested Hermiticity"))
        assert trace_norm(m, hermitian=True) == want

    def test_internal_callers_pass_hermitian(self, monkeypatch):
        calls = []
        monkeypatch.setattr(relativity, "trace_norm", lambda m, **kw: calls.append(kw) or 0.0)
        relativity._checked_report(np.diag([0.5, -0.5]).astype(complex), "test")
        assert calls == [{"hermitian": True}]

    def test_non_hermitian(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert abs(trace_norm(m) - 2.0) <= 1e-10


class TestSchmidt:
    def test_product_state(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        psi = np.kron(np.array([1.0, 0.0]), plus)
        sd = schmidt(psi, 2, 2)
        assert sd.rank == 1
        assert abs(sd.coeffs[0] - 1.0) <= 1e-12

    def test_bell_state(self):
        from tpslab import bell_pair

        sd = schmidt(bell_pair(), 2, 2)
        np.testing.assert_allclose(sd.coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert sd.rank == 2

    def test_teleport_state_is_product_across_first_split(self):
        from tpslab import teleport_state

        psi = teleport_state(stream(13).haar_pure(2))
        assert schmidt(psi, 2, 4).rank == 1
        assert schmidt(psi, 4, 2).rank == 2

    def test_reconstruction_and_orthonormality(self):
        psi = stream(14).haar_pure(12)
        sd = schmidt(psi, 3, 4)
        rebuilt = sum(
            c * np.kron(sd.left_vectors[:, k], sd.right_vectors[:, k]) for k, c in enumerate(sd.coeffs)
        )
        np.testing.assert_allclose(rebuilt, psi, atol=1e-10)
        np.testing.assert_allclose(
            sd.left_vectors.conj().T @ sd.left_vectors, np.eye(3), atol=1e-10
        )
        np.testing.assert_allclose(
            sd.right_vectors.conj().T @ sd.right_vectors, np.eye(3), atol=1e-10
        )
        assert abs((sd.coeffs**2).sum() - 1.0) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_coeffs_invariant_under_local_unitaries(self, seed):
        s = RandomStream(seed)
        psi = s.haar_pure(6)
        u_a = s.haar_unitary(2)
        u_b = s.haar_unitary(3)
        rotated = np.kron(u_a, u_b) @ psi
        np.testing.assert_allclose(
            schmidt(psi, 2, 3).coeffs, schmidt(rotated, 2, 3).coeffs, atol=1e-10
        )

    def test_dimension_mismatch_is_fatal(self):
        with pytest.raises(ValueError, match="does not factor"):
            schmidt(np.array([1.0, 0.0]), 2, 2)


class TestEntropyAndStates:
    def test_pure_state_entropy_is_zero(self):
        v = stream(15).haar_pure(4)
        rho = np.outer(v, v.conj())
        assert von_neumann_entropy(rho) <= 1e-10

    def test_maximally_mixed_entropy(self):
        assert abs(von_neumann_entropy(maximally_mixed(2)) - math.log(2)) <= 1e-12

    def test_rank_two_qutrit_matches_eigenvalue_oracle(self):
        rho = stream(16).ginibre_density(3, 2)
        w = np.linalg.eigvalsh(rho)
        expected = -sum(x * math.log(x) for x in w if x > 1e-12)
        assert abs(von_neumann_entropy(rho) - expected) <= 1e-12

    def test_purity_of_pure_state(self):
        v = stream(17).haar_pure(5)
        assert abs(purity(np.outer(v, v.conj())) - 1.0) <= 1e-12

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(2))
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            check_density_matrix(np.diag([1.5, -0.5]))

    def test_diagonal_spectrum_without_an_eigensolver(self, monkeypatch):
        rho = np.diag([0.5, 0.125, 0.375]).astype(complex)
        want = np.linalg.eigvalsh(rho)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("eigvalsh called"))
        np.testing.assert_array_equal(_checked_spectrum(rho)[1], want)
        assert _checked_spectrum(maximally_mixed(128))[1].tolist() == [1 / 128] * 128
        # the diagonal route keeps every check
        with pytest.raises(ValueError, match="positive semidefinite"):
            check_density_matrix(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.diag([0.5, 0.25]))
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density_matrix(np.diag([0.5 + 0.1j, 0.5]))
