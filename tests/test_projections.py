import numpy as np
import pytest

from tpslab import (
    TypeIIIProjection,
    TypeIIProjection,
    TypeIProjection,
    bell_pair,
    complement,
    computational_type_iii,
    idempotency_defect,
    identity_structure,
    kron,
    maximally_mixed,
    project,
    relevance_defect,
    schmidt,
    trace_norm,
)
from conftest import bell_density, haar_structure, stream, teleport_setup


def random_type_ii(dim_s, dim_e, seed, trial=0):
    """Two bins from Haar frames: projector blocks on S, block-supported
    states on E."""
    s = stream(seed, trial)
    u_s = s.haar_unitary(dim_s)
    u_e = s.haar_unitary(dim_e)
    cut_s, cut_e = dim_s // 2, dim_e // 2
    bins = []
    for cols_s, cols_e in (
        (range(0, cut_s), range(0, cut_e)),
        (range(cut_s, dim_s), range(cut_e, dim_e)),
    ):
        block_s = u_s[:, list(cols_s)]
        p_s = block_s @ block_s.conj().T
        block_e = u_e[:, list(cols_e)]
        g = s.ginibre_density(len(list(cols_e)), len(list(cols_e)))
        rho_e = block_e @ g @ block_e.conj().T
        bins.append((p_s, rho_e))
    return TypeIIProjection(tuple(bins))


def random_type_iii(dim_e, seed, trial=0):
    u = stream(seed, trial).haar_unitary(dim_e)
    return TypeIIIProjection(tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(dim_e)))


class TestTypeI:
    def test_product_state_fixed_point(self):
        s = identity_structure(2, 2)
        rho_s = stream(40).ginibre_density(2, 2)
        rho_e = stream(40, 1).ginibre_density(2, 2)
        rho = kron(rho_s, rho_e)
        got = project(rho, s, TypeIProjection(rho_e))
        np.testing.assert_allclose(got, rho, atol=1e-12)

    def test_teleport_state_projects_to_itself(self):
        _, s_a, _, _, rho = teleport_setup(stream(41).haar_pure(2))
        phi = bell_pair()
        spec = TypeIProjection(np.outer(phi, phi.conj()))
        np.testing.assert_allclose(project(rho, s_a, spec), rho, atol=1e-12)

    def test_bell_state_with_ground_reference(self):
        s = identity_structure(2, 2)
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0
        got = project(bell_density(), s, TypeIProjection(ground))
        np.testing.assert_allclose(got, kron(maximally_mixed(2), ground), atol=1e-13)


class TestComplement:
    def test_fixed_point_gives_zero(self):
        s = identity_structure(2, 3)
        rho_s = stream(42).ginibre_density(2, 2)
        rho_e = stream(42, 1).ginibre_density(3, 3)
        q = complement(kron(rho_s, rho_e), s, TypeIProjection(rho_e))
        assert np.abs(q).max() <= 1e-13

    def test_pure_state_loop_oracle(self):
        # complement of a pure state under type_i: the projector subtracts
        # sum_{i,a} p_i pi_a |i><i| (x) |a><a| over Schmidt and reference
        # eigenvectors
        s = identity_structure(2, 2)
        psi = stream(43).haar_pure(4)
        rho_ref = stream(43, 1).ginibre_density(2, 2)
        sd = schmidt(psi, 2, 2)
        pi, vecs = np.linalg.eigh(rho_ref)
        subtracted = np.zeros((4, 4), dtype=complex)
        for i in range(sd.rank):
            proj_s = np.outer(sd.left_vectors[:, i], sd.left_vectors[:, i].conj())
            for a in range(2):
                proj_e = np.outer(vecs[:, a], vecs[:, a].conj())
                subtracted += (sd.coeffs[i] ** 2) * pi[a] * kron(proj_s, proj_e)
        oracle = np.outer(psi, psi.conj()) - subtracted
        got = complement(np.outer(psi, psi.conj()), s, TypeIProjection(rho_ref))
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_traceless_on_random_sweep(self):
        s = haar_structure(4, 2, 44)
        spec = TypeIProjection(stream(44, 1).ginibre_density(2, 2))
        for trial in range(100):
            rho = stream(45, trial).ginibre_density(4, 4)
            assert abs(np.trace(complement(rho, s, spec))) <= 1e-12


class TestRelevanceDefect:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2)])
    def test_type_i(self, dims):
        for trial in range(20):
            s = haar_structure(dims[0] * dims[1], dims[0], 46, trial)
            spec = TypeIProjection(stream(47, trial).ginibre_density(dims[1], dims[1]))
            rho = stream(48, trial).ginibre_density(dims[0] * dims[1], dims[0] * dims[1])
            assert relevance_defect(rho, s, spec) <= 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (4, 2), (2, 4)])
    def test_type_ii(self, dims):
        for trial in range(10):
            s = haar_structure(dims[0] * dims[1], dims[0], 49, trial)
            spec = random_type_ii(dims[0], dims[1], 50, trial)
            rho = stream(51, trial).ginibre_density(dims[0] * dims[1], 2)
            assert relevance_defect(rho, s, spec) <= 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2)])
    def test_type_iii(self, dims):
        for trial in range(10):
            s = haar_structure(dims[0] * dims[1], dims[0], 52, trial)
            spec = random_type_iii(dims[1], 53, trial)
            rho = stream(54, trial).ginibre_density(dims[0] * dims[1], dims[0] * dims[1])
            assert relevance_defect(rho, s, spec) <= 1e-10


class TestIdempotency:
    def test_type_i(self):
        for trial in range(20):
            s = haar_structure(4, 2, 55, trial)
            spec = TypeIProjection(stream(56, trial).ginibre_density(2, 2))
            rho = stream(57, trial).ginibre_density(4, 4)
            assert idempotency_defect(rho, s, spec) <= 1e-10

    def test_type_ii_constructed_instance(self):
        s = identity_structure(2, 4)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        rho_e0 = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
        rho_e1 = np.diag([0.0, 0.0, 0.2, 0.8]).astype(complex)
        spec = TypeIIProjection(((p0, rho_e0), (p1, rho_e1)))
        rho = stream(58).ginibre_density(8, 8)
        assert idempotency_defect(rho, s, spec) <= 1e-10

    def test_type_iii(self):
        for trial in range(10):
            s = haar_structure(4, 2, 59, trial)
            rho = stream(60, trial).ginibre_density(4, 4)
            assert idempotency_defect(rho, s, random_type_iii(2, 61, trial)) <= 1e-10


class TestSuperoperatorProperties:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_linearity(self, alpha):
        s = haar_structure(4, 2, 62)
        spec = TypeIProjection(stream(62, 1).ginibre_density(2, 2))
        rho1 = stream(63).ginibre_density(4, 4)
        rho2 = stream(63, 1).ginibre_density(4, 2)
        mixed = alpha * rho1 + (1 - alpha) * rho2
        combo = alpha * project(rho1, s, spec) + (1 - alpha) * project(rho2, s, spec)
        np.testing.assert_allclose(project(mixed, s, spec), combo, atol=1e-12)

    def test_trace_preservation_all_families(self):
        s = haar_structure(4, 2, 64)
        rho = stream(65).ginibre_density(4, 4)
        for spec in (
            TypeIProjection(stream(66).ginibre_density(2, 2)),
            random_type_ii(2, 2, 67),
            random_type_iii(2, 68),
        ):
            assert abs(np.trace(project(rho, s, spec)) - 1.0) <= 1e-12

    def test_project_plus_complement_is_identity(self):
        s = haar_structure(4, 2, 69)
        spec = TypeIProjection(maximally_mixed(2))
        rho = stream(70).ginibre_density(4, 4)
        np.testing.assert_allclose(
            project(rho, s, spec) + complement(rho, s, spec), rho, atol=0
        )


class TestConstructorValidation:
    def test_type_i_needs_density_matrix(self):
        with pytest.raises(ValueError, match="trace"):
            TypeIProjection(np.eye(2))

    def test_type_ii_incomplete_bins(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        rho = maximally_mixed(2)
        with pytest.raises(ValueError, match="resolve the identity"):
            TypeIIProjection(((p0, rho),))

    def test_type_ii_overlapping_supports(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        rho = maximally_mixed(2)
        with pytest.raises(ValueError, match="orthogonal supports"):
            TypeIIProjection(((p0, rho), (p1, rho)))

    def test_type_ii_non_orthogonal_system_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        rho0, rho1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError, match="system projectors 0 and 1 are not orthogonal"):
            TypeIIProjection(((p0, rho0), (plus, rho1)))

    def test_type_iii_non_orthogonal(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(ValueError, match="projectors 0 and 1 are not orthogonal"):
            TypeIIIProjection((p0, plus))

    def test_validated_families_are_read_only(self):
        spec_ii, spec_iii = random_type_ii(2, 2, 71), random_type_iii(2, 72)
        for m in (*spec_ii.bins[0], *spec_iii.projectors):
            assert not m.flags.writeable

    def test_type_iii_not_rank_one(self):
        with pytest.raises(ValueError, match="rank-1"):
            TypeIIIProjection((np.eye(2, dtype=complex),))

    def test_type_iii_incomplete(self):
        p = np.zeros((2, 2), dtype=complex)
        p[0, 0] = 1.0
        with pytest.raises(ValueError, match="resolve the identity"):
            TypeIIIProjection((p,))

    def test_computational_family_is_valid(self):
        spec = computational_type_iii(3)
        assert spec.dim_e == 3
        total = sum(spec.projectors)
        np.testing.assert_allclose(total, np.eye(3), atol=0)

    def test_spec_structure_dim_mismatch(self):
        s = identity_structure(2, 3)
        with pytest.raises(ValueError, match="does not match structure"):
            project(stream(71).ginibre_density(6, 6), s, TypeIProjection(maximally_mixed(2)))
