import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tpslab import (
    FactorLayout,
    Structure,
    from_structure_basis,
    maximally_mixed,
    read_matrix_file,
    read_structure_file,
    reduced_state,
    structure_from_grouping,
    structure_from_unitary,
    to_structure_basis,
    transition_matrix,
    von_neumann_entropy,
    write_matrix_file,
)
from tpslab.structures import vector_to_structure_basis
from oracles import d_coefficient, dense_unitary, identity_structure, kron
from conftest import bell_density, haar_structure, stream, teleport_setup

THREE_QUBITS = FactorLayout((2, 2, 2))
TWO_QUBITS = FactorLayout((2, 2))


class TestGrouping:
    def test_leading_factor_is_identity(self):
        s = structure_from_grouping(THREE_QUBITS, (0,))
        assert (s.dim_s, s.dim_e) == (2, 4)
        np.testing.assert_array_equal(dense_unitary(s), np.eye(8))

    def test_contiguous_prefix_is_identity(self):
        s = structure_from_grouping(THREE_QUBITS, (0, 1))
        assert (s.dim_s, s.dim_e) == (4, 2)
        np.testing.assert_array_equal(dense_unitary(s), np.eye(8))

    def test_swap_permutation_exhaustive(self):
        s = structure_from_grouping(TWO_QUBITS, (1,))
        basis = np.eye(2)
        for i in range(2):
            for j in range(2):
                got = dense_unitary(s) @ np.kron(basis[:, i], basis[:, j])
                np.testing.assert_array_equal(got, np.kron(basis[:, j], basis[:, i]))

    def test_round_trip_through_grouping(self):
        s = structure_from_grouping(THREE_QUBITS, (2, 0))
        m = stream(20).complex_matrix(8, 8)
        np.testing.assert_allclose(from_structure_basis(to_structure_basis(m, s), s), m, atol=1e-12)

    def test_ten_qubit_grouping_builds_no_dense_matrix(self):
        # a dense 1024 x 1024 complex unitary alone would take 16 MiB
        structure_from_grouping(TWO_QUBITS, (1,))
        tracemalloc.start()
        try:
            s = structure_from_grouping(FactorLayout((2,) * 10), range(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert s.basis.shape == (1024,)

    def test_ten_qubit_index_maps_read_no_dense_matrix(self):
        layout = FactorLayout((2,) * 10)
        s_a = structure_from_grouping(layout, range(5))
        s_b = structure_from_grouping(layout, (0, 9))
        vectors = stream(19).complex_matrix(1024, 2)
        tracemalloc.start()
        try:
            vector_to_structure_basis(vectors[:, 0], s_a)
            vector_to_structure_basis(vectors, s_a)
            d_coefficient(s_a, 31, 0, 1, 30)
            small_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            t = transition_matrix(s_a, s_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert small_peak < 2**20
        # the 16 MiB result is the only dense matrix built
        assert peak < t.nbytes + 2**20

    def test_grouping_must_match_its_index_map(self):
        # the index map is derived from the grouping, never given with it
        s = structure_from_grouping(THREE_QUBITS, (1,))
        with pytest.raises(ValueError, match="exactly one of"):
            Structure(2, 4, dense_unitary(s), grouping=s.grouping)
        with pytest.raises(ValueError, match="exactly one of"):
            Structure(2, 4)
        with pytest.raises(ValueError, match="does not have system dim 4"):
            Structure(4, 2, grouping=((2, 2, 2), (1,)))
        with pytest.raises(ValueError, match="do not factor"):
            Structure(2, 2, grouping=((2, 2, 2), (1,)))
        for selected, match in (
            ((1, 0), "sorted and distinct"),
            ((0, 0), "sorted and distinct"),
            ((0, 3), "out of range"),
            ((-1,), "out of range"),
            ((), "proper subset"),
            ((0, 1, 2), "proper subset"),
        ):
            with pytest.raises(ValueError, match=match):
                Structure(4, 2, grouping=((2, 2, 2), selected))
        assert Structure(4, 2, grouping=([2, 2, 2], [0, 2])).grouping == ((2, 2, 2), (0, 2))

    def test_index_map_must_be_a_permutation(self):
        # a structure is a grouping or a dense unitary: a bare index map is rejected
        for basis in ([0, 0, 1, 2], [1, 0, 3, 2], [0.0, 1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match="expected a 2-D array"):
                Structure(2, 2, np.array(basis))

    def test_rejects_empty_and_full_groupings(self):
        with pytest.raises(ValueError, match="proper subset"):
            structure_from_grouping(THREE_QUBITS, ())
        with pytest.raises(ValueError, match="proper subset"):
            structure_from_grouping(THREE_QUBITS, (0, 1, 2))


class TestUnitaryStructure:
    def test_identity_is_reference(self):
        s = structure_from_unitary(np.eye(4), 2, 2)
        rho = stream(21).ginibre_density(4, 4)
        np.testing.assert_array_equal(to_structure_basis(rho, s), rho)

    def test_haar_unitary_accepted(self):
        s = haar_structure(4, 2, 22)
        w = dense_unitary(s)
        assert np.linalg.norm(w.conj().T @ w - np.eye(4)) <= 1e-10

    def test_rejects_non_unitary_with_defect(self):
        w = np.eye(4, dtype=complex)
        w[2, :] = 0.0
        with pytest.raises(ValueError, match="not unitary .defect"):
            structure_from_unitary(w, 2, 2)

    def test_rejects_bad_split_dims(self):
        with pytest.raises(ValueError, match="do not factor"):
            structure_from_unitary(np.eye(4), 3, 2)


class TestBasisChange:
    def test_spectrum_invariant(self):
        s = haar_structure(6, 2, 23)
        h = stream(23, 1).gue(6)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(h), np.linalg.eigvalsh(to_structure_basis(h, s)), atol=1e-10
        )

    def test_bell_state_invariant_under_swap(self):
        s = structure_from_grouping(TWO_QUBITS, (1,))
        rho = bell_density()
        np.testing.assert_allclose(to_structure_basis(rho, s), rho, atol=1e-14)


class TestReducedState:
    def test_teleport_state_reduced_pair(self):
        u = stream(24).haar_pure(2)
        _, s_a, s_b, _, rho = teleport_setup(u)
        red = reduced_state(rho, s_b, "S")
        # independent oracle: |u><u| (x) I/2 on qubits (1, 2)
        oracle = kron(np.outer(u, u.conj()), maximally_mixed(2))
        np.testing.assert_allclose(red, oracle, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(red), [0.0, 0.0, 0.5, 0.5], atol=1e-10
        )
        np.testing.assert_allclose(reduced_state(rho, s_a, "S"), np.outer(u, u.conj()), atol=1e-12)

    def test_product_state_exact(self):
        s = identity_structure(2, 3)
        rho_a = stream(25).ginibre_density(2, 2)
        rho_b = stream(25, 1).ginibre_density(3, 3)
        np.testing.assert_allclose(reduced_state(kron(rho_a, rho_b), s, "S"), rho_a, atol=1e-13)

    def test_entropy_symmetry_for_pure_states(self):
        v = stream(26).haar_pure(8)
        rho = np.outer(v, v.conj())
        for trial in range(3):
            s = haar_structure(8, 2, 26, trial)
            e_s = von_neumann_entropy(reduced_state(rho, s, "S"))
            e_e = von_neumann_entropy(reduced_state(rho, s, "E"))
            assert abs(e_s - e_e) <= 1e-10


class TestDCoefficients:
    def test_identity_structure_gives_deltas(self):
        s = identity_structure(2, 2)
        for i in range(2):
            for a in range(2):
                for m in range(2):
                    for n in range(2):
                        expected = 1.0 if (i == m and a == n) else 0.0
                        assert d_coefficient(s, i, a, m, n) == expected

    def test_orthonormality_sums(self):
        s = haar_structure(4, 2, 27)
        for i in range(2):
            for a in range(2):
                for ip in range(2):
                    for ap in range(2):
                        acc = 0.0
                        for m in range(2):
                            for n in range(2):
                                acc += d_coefficient(s, i, a, m, n) * np.conj(
                                    d_coefficient(s, ip, ap, m, n)
                                )
                        expected = 1.0 if (i, a) == (ip, ap) else 0.0
                        assert abs(acc - expected) <= 1e-12

    def test_swap_structure_table(self):
        s = structure_from_grouping(TWO_QUBITS, (1,))
        for i in range(2):
            for a in range(2):
                for m in range(2):
                    for n in range(2):
                        expected = 1.0 if (i == n and a == m) else 0.0
                        assert d_coefficient(s, i, a, m, n) == expected

    def test_reconstructs_basis_vectors(self):
        # the coefficients expand each reference product vector in the
        # structure basis
        s = haar_structure(4, 2, 28)
        w = dense_unitary(s)
        for i in range(2):
            for a in range(2):
                vec = np.zeros(4, dtype=complex)
                for m in range(2):
                    for n in range(2):
                        vec += d_coefficient(s, i, a, m, n) * w[:, m * 2 + n]
                expected = np.zeros(4)
                expected[i * 2 + a] = 1.0
                np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_out_of_range_is_fatal(self):
        s = identity_structure(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            d_coefficient(s, 2, 0, 0, 0)

    def test_transition_matrix_is_unitary(self):
        t = transition_matrix(haar_structure(4, 2, 29), haar_structure(4, 2, 29, 1))
        np.testing.assert_allclose(t.conj().T @ t, np.eye(4), atol=1e-12)


def _dense_pair(m, s):
    w = dense_unitary(s)
    return w.conj().T @ m @ w, w @ m @ w.conj().T


def _dense_transition(s_from, s_to):
    return dense_unitary(s_to).conj().T @ dense_unitary(s_from)


class TestPermutationGather:
    """Groupings are stored as index maps and gather indices; the result
    must equal the dense products with ``w`` bit for bit."""

    LAYOUT = FactorLayout((2, 3, 2))

    def assert_gather_matches_dense(self, s, seed):
        assert s.basis.ndim == 1
        m = stream(seed).complex_matrix(s.total_dim, s.total_dim)
        to_dense, from_dense = _dense_pair(m, s)
        np.testing.assert_array_equal(to_structure_basis(m, s), to_dense)
        np.testing.assert_array_equal(from_structure_basis(m, s), from_dense)

    @pytest.mark.parametrize("selected", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    def test_groupings(self, selected):
        self.assert_gather_matches_dense(structure_from_grouping(self.LAYOUT, selected), 33)

    def test_identity_structure(self):
        self.assert_gather_matches_dense(identity_structure(3, 4), 34)

    def test_permutation_matrix_file(self, tmp_path):
        # a permutation matrix is stored dense, and its products equal the
        # gathers of its index map bit for bit
        perm = np.random.default_rng(35).permutation(12)
        inv = np.argsort(perm)
        path = tmp_path / "perm.tpsw"
        write_matrix_file(path, np.eye(12)[:, perm], split_dim=4)
        s = read_structure_file(path)
        assert s.basis.ndim == 2 and s.grouping is None
        np.testing.assert_array_equal(dense_unitary(s), np.eye(12)[:, perm])
        m = stream(36).complex_matrix(12, 12)
        np.testing.assert_array_equal(to_structure_basis(m, s), m[np.ix_(perm, perm)])
        np.testing.assert_array_equal(from_structure_basis(m, s), m[np.ix_(inv, inv)])
        psi = stream(36, 1).complex_normals(36).reshape(12, 3)
        np.testing.assert_array_equal(vector_to_structure_basis(psi, s), psi[perm])
        np.testing.assert_array_equal(vector_to_structure_basis(psi[:, 0], s), psi[perm, 0])

    def test_signed_permutation_takes_dense_path(self):
        w = np.eye(4, dtype=np.complex128)[:, [2, 0, 3, 1]]
        w[0, 1] = -1.0
        s = structure_from_unitary(w, 2, 2)
        assert s.basis.ndim == 2
        np.testing.assert_array_equal(dense_unitary(s), w)

    def test_haar_structure_takes_dense_path(self):
        s = haar_structure(12, 3, 37)
        assert s.basis.ndim == 2
        m = stream(38).complex_matrix(12, 12)
        to_dense, from_dense = _dense_pair(m, s)
        np.testing.assert_array_equal(to_structure_basis(m, s), to_dense)
        np.testing.assert_array_equal(from_structure_basis(m, s), from_dense)

    @pytest.mark.parametrize("shape", [(12,), (12, 3)])
    def test_vectors_gather(self, shape):
        psi = stream(39).complex_normals(int(np.prod(shape))).reshape(shape)
        for s in [identity_structure(3, 4)] + [structure_from_grouping(self.LAYOUT, g) for g in ((0,), (1, 2), (0, 2))]:
            np.testing.assert_array_equal(vector_to_structure_basis(psi, s), dense_unitary(s).conj().T @ psi)
        s = haar_structure(12, 3, 40)
        np.testing.assert_array_equal(vector_to_structure_basis(psi, s), dense_unitary(s).conj().T @ psi)

    def test_transition_matrices_and_coefficients(self):
        structures = [structure_from_grouping(self.LAYOUT, g) for g in ((0,), (1,), (0, 2), (1, 2))]
        structures.append(haar_structure(12, 3, 41))
        for s_from in structures:
            for s_to in structures:
                np.testing.assert_array_equal(transition_matrix(s_from, s_to), _dense_transition(s_from, s_to))
        for s in structures[:3]:
            w = dense_unitary(s)
            for i, alpha, m, n in itertools.product(range(s.dim_s), range(s.dim_e), range(s.dim_s), range(s.dim_e)):
                got = d_coefficient(s, i, alpha, m, n)
                want = complex(np.conj(w[i * s.dim_e + alpha, m * s.dim_e + n]))
                assert (got.real, math.copysign(1, got.imag)) == (want.real, math.copysign(1, want.imag))


class TestTransitionMatrix:
    """``transition_matrix`` takes each kind pair directly, gathering on a
    grouping's side, and must equal the dense product ``W_to^H W_from`` bit
    for bit, as a C-contiguous array."""

    # layout, two groupings and the system dims of two Haar structures
    CASES = {
        "2x3x2x2": ((2, 3, 2, 2), (1, 3), (0, 2), 6, 4),
        "3x4": ((3, 4), (0,), (1,), 3, 4),
        "2^6": ((2,) * 6, (0, 1, 2), (1, 4), 8, 4),
    }

    @pytest.mark.parametrize("kinds", ["grouping-grouping", "grouping-dense", "dense-grouping", "dense-dense"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fixed_kind_pairs_equal_the_dense_product(self, case, kinds):
        dims, g_from, g_to, ds_from, ds_to = self.CASES[case]
        layout = FactorLayout(dims)
        d = layout.total_dim
        from_kind, to_kind = kinds.split("-")
        s_from = structure_from_grouping(layout, g_from) if from_kind == "grouping" else haar_structure(d, ds_from, 42)
        s_to = structure_from_grouping(layout, g_to) if to_kind == "grouping" else haar_structure(d, ds_to, 43)
        t = transition_matrix(s_from, s_to)
        assert t.flags.c_contiguous and t.dtype == np.complex128
        np.testing.assert_array_equal(t.view(np.uint64), _dense_transition(s_from, s_to).view(np.uint64))

    def test_grouping_to_dense_peak_memory(self):
        # a dense route holds the permutation matrix beside two d x d
        # products, 3 d^2 entries; the gather holds the result and one
        # conjugated copy, 2 d^2
        layout = FactorLayout((2,) * 10)
        s_from = structure_from_grouping(layout, range(5))
        s_to = haar_structure(1024, 32, 44)
        tracemalloc.start()
        try:
            t = transition_matrix(s_from, s_to)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.shape == (1024, 1024)
        assert peak <= 2.1 * 1024**2 * 16


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        m = stream(30).complex_matrix(3, 3)
        path = tmp_path / "m.tpsw"
        write_matrix_file(path, m)
        got, split = read_matrix_file(path)
        np.testing.assert_array_equal(got, m)
        assert split == 0

    def test_structure_round_trip(self, tmp_path):
        s = haar_structure(6, 3, 31)
        path = tmp_path / "w.tpsw"
        write_matrix_file(path, dense_unitary(s), split_dim=3)
        got = read_structure_file(path)
        assert (got.dim_s, got.dim_e) == (3, 2)
        np.testing.assert_array_equal(dense_unitary(got), dense_unitary(s))

    def test_bad_magic_names_file_and_header(self, tmp_path):
        path = tmp_path / "bad.tpsw"
        path.write_bytes(b"NOPE!" + bytes(16))
        with pytest.raises(ValueError, match="TPSW1"):
            read_matrix_file(path)

    def test_truncated_payload(self, tmp_path):
        m = stream(32).complex_matrix(2, 2)
        path = tmp_path / "m.tpsw"
        write_matrix_file(path, m)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_matrix_file(path)
