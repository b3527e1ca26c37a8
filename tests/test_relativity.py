import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpslab import (
    FactorLayout,
    SeparableEnsemble,
    TypeIProjection,
    bell_pair,
    commutator_defect,
    cross_relevance_matrix,
    defect_matrix_mixed_coeffs,
    defect_matrix_pure_coeffs,
    from_structure_basis,
    identity_structure,
    kron,
    maximally_mixed,
    mutual_information,
    reduced_state,
    schmidt,
    structure_from_grouping,
    teleport_state,
)
from conftest import bell_density, haar_structure, max_mixed_spec, stream, teleport_setup


def random_ensemble(seed, trial=0, terms=3):
    s = stream(seed, trial)
    raw = s.uniform_pairs(terms)[:, 0] + 0.1
    weights = raw / raw.sum()
    sys_f = [s.ginibre_density(2, 2) for _ in range(terms)]
    env_f = [s.ginibre_density(2, 2) for _ in range(terms)]
    return SeparableEnsemble(weights, sys_f, env_f)


class TestCrossRelevance:
    def test_same_structure_is_zero(self):
        for trial in range(10):
            s = haar_structure(4, 2, 80, trial)
            spec = TypeIProjection(stream(81, trial).ginibre_density(2, 2))
            rho = stream(82, trial).ginibre_density(4, 4)
            rep = cross_relevance_matrix(rho, s, spec, s)
            assert rep.trace_norm_defect <= 1e-10

    def test_teleport_state_is_exceptional(self):
        # the projection reference equals the actual environment state, so
        # the complement vanishes and the defect is zero even across splits
        _, s_a, s_b, _, rho = teleport_setup(stream(83).haar_pure(2))
        phi = bell_pair()
        spec = TypeIProjection(np.outer(phi, phi.conj()))
        rep = cross_relevance_matrix(rho, s_a, spec, s_b)
        assert rep.trace_norm_defect <= 1e-10

    def test_generic_pure_states_have_large_defect(self):
        s_a = identity_structure(2, 2)
        spec = max_mixed_spec(2)
        hits = 0
        for trial in range(50):
            v = stream(84, trial).haar_pure(4)
            s_b = haar_structure(4, 2, 85, trial)
            rep = cross_relevance_matrix(np.outer(v, v.conj()), s_a, spec, s_b)
            hits += rep.trace_norm_defect > 1e-6
        assert hits >= 48

    def test_trace_residual_recorded(self):
        s_a = identity_structure(2, 2)
        s_b = haar_structure(4, 2, 86)
        rho = stream(87).ginibre_density(4, 4)
        rep = cross_relevance_matrix(rho, s_a, max_mixed_spec(2), s_b)
        assert rep.trace_residual <= 1e-10


class TestPureCoefficientRoute:
    def test_product_state_with_matching_reference_vanishes(self):
        s_a = identity_structure(2, 2)
        s_b = haar_structure(4, 2, 88)
        u = stream(89).haar_pure(2)
        w = stream(89, 1).haar_pure(2)
        psi = np.kron(u, w)
        amat = defect_matrix_pure_coeffs(psi, s_a, np.outer(w, w.conj()), s_b)
        assert np.abs(amat).max() <= 1e-12

    def test_same_structure_vanishes(self):
        s_a = haar_structure(4, 2, 90)
        psi = stream(91).haar_pure(4)
        amat = defect_matrix_pure_coeffs(psi, s_a, stream(92).ginibre_density(2, 2), s_a)
        assert np.abs(amat).max() <= 1e-10

    def test_matches_direct_route_on_random_instances(self):
        worst = 0.0
        for trial in range(50):
            s = stream(93, trial)
            psi = s.haar_pure(4)
            s_a = haar_structure(4, 2, 94, trial)
            s_b = haar_structure(4, 2, 95, trial)
            rho_ref = s.ginibre_density(2, 2)
            amat = defect_matrix_pure_coeffs(psi, s_a, rho_ref, s_b)
            rep = cross_relevance_matrix(
                np.outer(psi, psi.conj()), s_a, TypeIProjection(rho_ref), s_b
            )
            worst = max(worst, float(np.abs(amat - rep.defect_matrix).max()))
        assert worst <= 1e-8

    def test_degenerate_schmidt_instance(self):
        psi = bell_pair()
        s_a = haar_structure(4, 2, 96)
        s_b = haar_structure(4, 2, 96, 1)
        rho_ref = stream(97).ginibre_density(2, 2)
        amat = defect_matrix_pure_coeffs(psi, s_a, rho_ref, s_b)
        rep = cross_relevance_matrix(bell_density(), s_a, TypeIProjection(rho_ref), s_b)
        assert np.abs(amat - rep.defect_matrix).max() <= 1e-8

    def test_trace_vanishes(self):
        psi = stream(98).haar_pure(4)
        amat = defect_matrix_pure_coeffs(
            psi, identity_structure(2, 2), maximally_mixed(2), haar_structure(4, 2, 99)
        )
        assert abs(np.trace(amat)) <= 1e-10


class TestMixedCoefficientRoute:
    def test_single_term_with_matching_reference_vanishes(self):
        s_a = identity_structure(2, 2)
        s_b = haar_structure(4, 2, 100)
        rho_s = stream(101).ginibre_density(2, 2)
        rho_e = stream(101, 1).ginibre_density(2, 2)
        ens = SeparableEnsemble([1.0], [rho_s], [rho_e])
        lam = defect_matrix_mixed_coeffs(ens, s_a, rho_e, s_b)
        assert np.abs(lam).max() <= 1e-12

    def test_same_structure_vanishes(self):
        s_a = haar_structure(4, 2, 102)
        ens = random_ensemble(103)
        lam = defect_matrix_mixed_coeffs(ens, s_a, stream(104).ginibre_density(2, 2), s_a)
        assert np.abs(lam).max() <= 1e-10

    def test_matches_direct_route_on_random_instances(self):
        worst = 0.0
        for trial in range(50):
            ens = random_ensemble(105, trial)
            s_a = haar_structure(4, 2, 106, trial)
            s_b = haar_structure(4, 2, 107, trial)
            rho_ref = stream(108, trial).ginibre_density(2, 2)
            lam = defect_matrix_mixed_coeffs(ens, s_a, rho_ref, s_b)
            rep = cross_relevance_matrix(ens.assemble(s_a), s_a, TypeIProjection(rho_ref), s_b)
            worst = max(worst, float(np.abs(lam - rep.defect_matrix).max()))
        assert worst <= 1e-8

    def test_ensemble_validation(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError, match="sum to"):
            SeparableEnsemble([0.5, 0.2], [rho, rho], [rho, rho])
        with pytest.raises(ValueError, match="positive"):
            SeparableEnsemble([1.5, -0.5], [rho, rho], [rho, rho])


class TestCommutatorDefect:
    def test_same_structure_and_spec_is_zero(self):
        s = haar_structure(4, 2, 109)
        spec = TypeIProjection(stream(110).ginibre_density(2, 2))
        rho = stream(111).ginibre_density(4, 4)
        assert commutator_defect(rho, s, spec, s, spec) <= 1e-10

    def test_teleport_state_with_paper_splits(self):
        # reference on the first split = the actual entangled pair, so one
        # projection returns the pure state while the other mixes it; the
        # defect is exactly |phi><phi| - I/4 in trace norm = 3/2
        _, s_a, s_b, _, rho = teleport_setup(stream(112).haar_pure(2))
        phi = bell_pair()
        spec_a = TypeIProjection(np.outer(phi, phi.conj()))
        spec_b = max_mixed_spec(2)
        defect = commutator_defect(rho, s_a, spec_a, s_b, spec_b)
        assert defect > 1e-6
        assert abs(defect - 1.5) <= 1e-9

    def test_generic_instances_do_not_commute(self):
        s_a = identity_structure(2, 2)
        spec_a = max_mixed_spec(2)
        hits = 0
        for trial in range(50):
            rho = stream(113, trial).ginibre_density(4, 2)
            s_b = haar_structure(4, 2, 114, trial)
            hits += commutator_defect(rho, s_a, spec_a, s_b, max_mixed_spec(2)) > 1e-6
        assert hits >= 48

    def test_symmetry(self):
        s_a = haar_structure(4, 2, 115)
        s_b = haar_structure(4, 2, 116)
        spec_a = TypeIProjection(stream(117).ginibre_density(2, 2))
        spec_b = TypeIProjection(stream(118).ginibre_density(2, 2))
        rho = stream(119).ginibre_density(4, 4)
        d_ab = commutator_defect(rho, s_a, spec_a, s_b, spec_b)
        d_ba = commutator_defect(rho, s_b, spec_b, s_a, spec_a)
        assert abs(d_ab - d_ba) <= 1e-12

    def test_rejects_other_families(self):
        from tpslab import computational_type_iii

        s = identity_structure(2, 2)
        rho = stream(120).ginibre_density(4, 4)
        with pytest.raises(ValueError, match="type_i"):
            commutator_defect(rho, s, computational_type_iii(2), s, max_mixed_spec(2))


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
LAYOUT_232 = FactorLayout((2, 3, 2))
# every grouping of [2, 3, 2], and Haar structures with each proper split of d = 12
STRUCTURES = st.one_of(
    st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]).map(
        lambda selected: structure_from_grouping(LAYOUT_232, selected)
    ),
    st.tuples(st.sampled_from([2, 3, 4, 6]), SEEDS).map(lambda a: haar_structure(12, a[0], a[1])),
)
# 200 drawn instances gave residuals of at most 9.3e-16
PROPERTY_TOL = 1e-12


def random_state_and_spec(s, seed, rank):
    """A full-dimension state of the given rank and a random type_i reference
    for the structure's environment."""
    rho = stream(seed).ginibre_density(12, rank)
    spec = TypeIProjection(stream(seed, 1).ginibre_density(s.dim_e, s.dim_e))
    return rho, spec


class TestLemmaProperties:
    """Lemma 1 and Lemma 2 identities on hypothesis-drawn states, references
    and structures (groupings and Haar)."""

    @settings(max_examples=25, deadline=None)
    @given(s=STRUCTURES, seed=SEEDS, rank=st.integers(min_value=1, max_value=12))
    def test_equal_structures_have_zero_defects(self, s, seed, rank):
        rho, spec = random_state_and_spec(s, seed, rank)
        rep = cross_relevance_matrix(rho, s, spec, s)
        assert rep.trace_norm_defect <= PROPERTY_TOL
        assert commutator_defect(rho, s, spec, s, spec) <= PROPERTY_TOL

    @settings(max_examples=25, deadline=None)
    @given(s_a=STRUCTURES, s_b=STRUCTURES, seed=SEEDS, rank=st.integers(min_value=1, max_value=12))
    def test_any_pair_is_traceless_and_symmetric(self, s_a, s_b, seed, rank):
        rho, spec_a = random_state_and_spec(s_a, seed, rank)
        spec_b = TypeIProjection(stream(seed, 2).ginibre_density(s_b.dim_e, s_b.dim_e))
        # cross_relevance_matrix raises above TRACE_RESIDUAL_TOL (1e-10) itself
        for s_from, spec, s_to in ((s_a, spec_a, s_b), (s_b, spec_b, s_a)):
            assert cross_relevance_matrix(rho, s_from, spec, s_to).trace_residual <= PROPERTY_TOL
        d_ab = commutator_defect(rho, s_a, spec_a, s_b, spec_b)
        d_ba = commutator_defect(rho, s_b, spec_b, s_a, spec_a)
        assert abs(d_ab - d_ba) <= PROPERTY_TOL


class TestMutualInformation:
    def test_product_state_in_own_structure(self):
        s = identity_structure(2, 2)
        rho = kron(stream(121).ginibre_density(2, 2), stream(122).ginibre_density(2, 2))
        assert abs(mutual_information(rho, s)) <= 1e-9

    def test_bell_state(self):
        s = identity_structure(2, 2)
        assert abs(mutual_information(bell_density(), s) - 2 * math.log(2)) <= 1e-10

    def test_invariant_under_local_unitaries(self):
        s = identity_structure(2, 2)
        rho = stream(123).ginibre_density(4, 3)
        mi = mutual_information(rho, s)
        st_ = stream(124)
        u = kron(st_.haar_unitary(2), st_.haar_unitary(2))
        rotated = u @ rho @ u.conj().T
        assert abs(mutual_information(rotated, s) - mi) <= 1e-9

    def test_product_state_in_alternate_structure_is_correlated(self):
        s_a = identity_structure(2, 2)
        rho = kron(stream(125).ginibre_density(2, 2), stream(126).ginibre_density(2, 2))
        hits = 0
        for trial in range(30):
            s_b = haar_structure(4, 2, 127, trial)
            hits += mutual_information(rho, s_b) > 1e-6
        assert hits >= 28


class TestTeleportState:
    def test_ground_input(self):
        psi = teleport_state([1.0, 0.0])
        expected = np.zeros(8)
        expected[0] = expected[3] = 1 / math.sqrt(2)  # |000> and |011>
        np.testing.assert_allclose(psi, expected, atol=1e-15)

    def test_schmidt_ranks(self):
        psi = teleport_state(stream(128).haar_pure(2))
        assert schmidt(psi, 2, 4).rank == 1
        assert schmidt(psi, 4, 2).rank == 2

    def test_reduced_states(self):
        u = stream(129).haar_pure(2)
        _, s_a, s_b, _, rho = teleport_setup(u)
        red1 = reduced_state(rho, s_a, "S")
        np.testing.assert_allclose(red1, np.outer(u, u.conj()), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(reduced_state(rho, s_b, "S")), [0, 0, 0.5, 0.5], atol=1e-10
        )

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError, match="dim 2"):
            teleport_state(np.array([1.0, 0.0, 0.0]))
