import dataclasses
import importlib.util
import itertools
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpslab import (
    FactorLayout,
    Hamiltonian,
    InvariantViolation,
    RandomStream,
    TimeGrid,
    TrajectoryPoint,
    TypeIProjection,
    commutator_defect,
    cross_relevance_matrix,
    dynamics,
    from_structure_basis,
    linalg,
    load_config,
    mix_seed,
    mutual_information,
    purity,
    reduced_state,
    schmidt,
    structure_from_grouping,
    structure_from_unitary,
    trajectory,
)
from tpslab.config import MAX_TOTAL_DIM
from tpslab.linalg import ENTROPY_EIGVAL_FLOOR, UNITARITY_TOL, _orthonormality_defect
from tpslab.structures import vector_to_structure_basis
from oracles import identity_structure, kron
from conftest import force_route, haar_structure, max_mixed_spec, propagator, spy_routes, stream, teleport_setup


def ensemble_density(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Psi diag(p) Psi^H: the density matrix of an ensemble."""
    return (vectors * weights) @ vectors.conj().T


def gue_hamiltonian(dim: int, seed: int) -> Hamiltonian:
    return Hamiltonian(RandomStream(seed).gue(dim))


def evolve(rho0, h: Hamiltonian, t: float) -> np.ndarray:
    """rho0 conjugated by exp(-i H t)."""
    u = propagator(h.mat, t)
    return u @ rho0 @ u.conj().T


class TestMixSeed:
    def test_frozen_reference_values(self):
        # pins the documented SplitMix64 derivation
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(42, 0) == 13679457532755275413
        assert mix_seed(42, 1) == 2949826092126892291
        assert mix_seed(2**64 - 1, 7) == 4638043754431676516

    def test_range_and_distinctness(self):
        outs = {mix_seed(7, k) for k in range(1000)}
        assert len(outs) == 1000
        assert all(0 <= v < 2**64 for v in outs)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="64 bits"):
            mix_seed(2**64, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            mix_seed(0, -1)


class TestRandomEnsembles:
    def test_same_seed_bit_identical(self):
        assert np.array_equal(RandomStream(33).haar_unitary(6), RandomStream(33).haar_unitary(6))
        assert np.array_equal(RandomStream(34).haar_pure(5), RandomStream(34).haar_pure(5))
        assert np.array_equal(RandomStream(35).ginibre_density(4, 2), RandomStream(35).ginibre_density(4, 2))
        assert np.array_equal(RandomStream(36).gue(4), RandomStream(36).gue(4))

    def test_gue_is_hermitian(self):
        h = RandomStream(37).gue(6)
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_rank_one_density_is_pure(self):
        rho = RandomStream(38).ginibre_density(4, 1)
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-12

    def test_full_rank_density_is_valid(self):
        rho = RandomStream(39).ginibre_density(5, 5)
        w = np.linalg.eigvalsh(rho)
        assert w[0] >= -1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [5, 4096, 8193, 2**20])
    def test_complex_normals_equal_one_box_muller_draw(self, n):
        # the documented formula over a single draw of all n uniform pairs
        u = np.random.Generator(np.random.PCG64(43)).random((n, 2))
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        theta = 2.0 * np.pi * u[:, 1]
        want = r * np.cos(theta) + 1j * r * np.sin(theta)
        assert RandomStream(43).complex_normals(n).tobytes() == want.tobytes()

    def test_gue_peak_memory(self):
        # the result takes 16 MiB at d=1024; Box-Muller over all d^2 entries
        # at once used to peak at 65 MiB
        tracemalloc.start()
        try:
            RandomStream(44).gue(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_ginibre_ensemble_is_the_ginibre_density(self):
        weights, vectors = RandomStream(42).ginibre_ensemble(6, 3)
        assert weights.shape == (3,) and vectors.shape == (6, 3)
        np.testing.assert_allclose(
            ensemble_density(weights, vectors), RandomStream(42).ginibre_density(6, 3), atol=1e-15
        )

    def test_unitary_residual(self):
        u = RandomStream(40).haar_unitary(8)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10

    def test_unitary_phase_convention(self):
        # with the R-diagonal phase fixed positive, the output is a
        # deterministic function of the Ginibre sample
        g = RandomStream(41).complex_matrix(4, 4)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        expected = q * (d / np.abs(d))
        np.testing.assert_array_equal(RandomStream(41).haar_unitary(4), expected)

    def test_haar_invariance_smoke(self):
        acc = 0.0
        n = 2000
        for k in range(n):
            u = RandomStream(mix_seed(2025, k)).haar_unitary(4)
            acc += abs(u[0, 0]) ** 2
        assert abs(acc / n - 0.25) <= 0.02

    def test_invalid_dims_fatal(self):
        with pytest.raises(ValueError, match="dim must be"):
            RandomStream(0).haar_pure(1)
        with pytest.raises(ValueError, match="rank"):
            RandomStream(0).ginibre_density(4, 5)


class TestHamiltonian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stores_the_hermitian_part_read_only(self):
        m = stream(143).gue(4) + 1e-13j * np.triu(np.ones((4, 4)))
        h = Hamiltonian(m)
        np.testing.assert_array_equal(h.mat, (m + m.conj().T) / 2)
        np.testing.assert_array_equal(h.mat, h.mat.conj().T)
        assert not h.mat.flags.writeable

    def test_stores_an_exactly_hermitian_matrix_as_given(self):
        m = stream(146).gue(6)
        want = m.tobytes()
        h = Hamiltonian(m)
        assert h.mat.tobytes() == want
        assert not h.mat.flags.writeable
        assert m.flags.writeable and not np.shares_memory(h.mat, m)


class TestEvolve:
    def test_zero_time(self):
        rho = stream(144).ginibre_density(4, 4)
        h = gue_hamiltonian(4, 145)
        np.testing.assert_allclose(evolve(rho, h, 0.0), rho, atol=1e-14)

    def test_eigenprojector_is_stationary(self):
        h = gue_hamiltonian(4, 146)
        w, v = np.linalg.eigh(h.mat)
        rho = np.outer(v[:, 0], v[:, 0].conj())
        for t in (0.5, 2.0, 7.0):
            assert np.abs(evolve(rho, h, t) - rho).max() <= 1e-10

    def test_central_difference_matches_generator(self):
        # d rho/dt = -i [H, rho] checked by second-order differences
        h = gue_hamiltonian(4, 147)
        rho0 = stream(148).ginibre_density(4, 4)
        t, dt = 0.5, 1e-5
        lhs = (evolve(rho0, h, t + dt) - evolve(rho0, h, t - dt)) / (2 * dt)
        rho_t = evolve(rho0, h, t)
        rhs = -1j * (h.mat @ rho_t - rho_t @ h.mat)
        assert np.linalg.norm(lhs - rhs) <= 1e-6

    def test_preserves_spectrum_trace_hermiticity(self):
        h = gue_hamiltonian(6, 149)
        rho0 = stream(150).ginibre_density(6, 3)
        rho_t = evolve(rho0, h, 3.7)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rho_t), np.linalg.eigvalsh(rho0), atol=1e-10
        )
        assert abs(np.trace(rho_t) - 1.0) <= 1e-10
        assert np.abs(rho_t - rho_t.conj().T).max() <= 1e-10


class TestTimeGrid:
    def test_single_step_has_two_points(self):
        assert len(TimeGrid(0.0, 1.0, 1).times()) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="t1 > t0"):
            TimeGrid(1.0, 1.0, 5)


def pure(psi):
    return np.ones(1), psi[:, None]


class TestTrajectory:
    def test_non_interacting_split_keeps_purity(self):
        s = identity_structure(2, 2)
        h_s, h_e = stream(151).gue(2), stream(152).gue(2)
        h = Hamiltonian(from_structure_basis(kron(h_s, np.eye(2)) + kron(np.eye(2), h_e), s))
        (p_s, v_s), (p_e, v_e) = stream(153).ginibre_ensemble(2, 1), stream(154).ginibre_ensemble(2, 2)
        state = (np.kron(p_s, p_e), np.kron(v_s, v_e))
        rec = trajectory(
            state, h, TimeGrid(0.0, 4.0, 20), s, max_mixed_spec(2), s, max_mixed_spec(2)
        )
        purities = [p.purity_s for p in rec]
        assert max(purities) - min(purities) <= 1e-10

    def test_endpoint_matches_single_evolve(self):
        _, s_a, s_b, psi, rho0 = teleport_setup()
        h = gue_hamiltonian(8, 155)
        grid = TimeGrid(0.0, 2.0, 8)
        rec = trajectory(pure(psi), h, grid, s_a, max_mixed_spec(4), s_b, max_mixed_spec(2))
        final = evolve(rho0, h, 2.0)
        assert rec[-1].purity_s == pytest.approx(purity(reduced_state(final, s_a, "S")), abs=1e-10)
        assert rec[-1].mi_a == pytest.approx(mutual_information(final, s_a), abs=1e-10)

    def test_grid_contract(self):
        _, s_a, s_b, psi, _ = teleport_setup()
        h = gue_hamiltonian(8, 156)
        rec = trajectory(
            pure(psi), h, TimeGrid(0.0, 1.0, 1), s_a, max_mixed_spec(4), s_b, max_mixed_spec(2)
        )
        assert len(rec) == 2
        assert rec[0].t == 0.0
        assert rec[-1].t == 1.0

    def test_residuals_bounded_along_trajectory(self):
        _, s_a, s_b, psi, _ = teleport_setup(stream(157).haar_pure(2))
        h = gue_hamiltonian(8, 158)
        rec = trajectory(
            pure(psi), h, TimeGrid(0.0, 3.0, 10), s_a, max_mixed_spec(4), s_b, max_mixed_spec(2)
        )
        assert max(p.lemma1_trace_residual_max for p in rec) <= 1e-10


def public_route_points(rho0, h, grid, s_a, spec_a, s_b, spec_b):
    """The per-point loop through the public functions, each validating its
    own input: the reference the shared-work trajectory must reproduce."""
    w, v = np.linalg.eigh((h.mat + h.mat.conj().T) / 2)
    points = []
    for t in grid.times():
        u = (v * np.exp(-1j * w * float(t))) @ v.conj().T
        rho_t = u @ rho0 @ u.conj().T
        rho_t = (rho_t + rho_t.conj().T) / 2
        rep_ab = cross_relevance_matrix(rho_t, s_a, spec_a, s_b)
        rep_ba = cross_relevance_matrix(rho_t, s_b, spec_b, s_a)
        red_s = reduced_state(rho_t, s_a, "S")
        red_sp = reduced_state(rho_t, s_b, "S")
        points.append(
            TrajectoryPoint(
                t=float(t),
                lemma1_a_to_b=rep_ab.trace_norm_defect,
                lemma1_b_to_a=rep_ba.trace_norm_defect,
                lemma1_trace_residual_max=max(rep_ab.trace_residual, rep_ba.trace_residual),
                lemma2_defect=commutator_defect(rho_t, s_a, spec_a, s_b, spec_b),
                mi_a=mutual_information(rho_t, s_a),
                mi_b=mutual_information(rho_t, s_b),
                purity_s=purity(red_s),
                purity_sprime=purity(red_sp),
            )
        )
    return points


FOUR_QUBITS = FactorLayout((2, 2, 2, 2))


def _nested_groupings():
    return (
        structure_from_grouping(FOUR_QUBITS, (0,)),
        max_mixed_spec(8),
        structure_from_grouping(FOUR_QUBITS, (0, 1)),
        max_mixed_spec(4),
    )


def _non_nested_with_ginibre_references():
    return (
        structure_from_grouping(FOUR_QUBITS, (0, 1)),
        TypeIProjection(stream(164).ginibre_density(4, 4)),
        structure_from_grouping(FOUR_QUBITS, (1, 3)),
        TypeIProjection(stream(165).ginibre_density(4, 4)),
    )


def _grouping_and_haar():
    return (
        structure_from_grouping(FOUR_QUBITS, (2,)),
        max_mixed_spec(8),
        haar_structure(16, 4, 163),
        max_mixed_spec(4),
    )


def _grouping_and_haar_with_ginibre_references():
    # full-rank references: every R_k acts on the transition matrix's rows
    return (
        structure_from_grouping(FOUR_QUBITS, (2,)),
        TypeIProjection(stream(170).ginibre_density(8, 8)),
        haar_structure(16, 4, 171),
        TypeIProjection(stream(172).ginibre_density(4, 4)),
    )


def _haar_and_grouping():
    # the transition matrix runs from a grouping into a Haar basis
    return (
        haar_structure(16, 2, 177),
        TypeIProjection(stream(178).ginibre_density(8, 8)),
        structure_from_grouping(FOUR_QUBITS, (1, 3)),
        TypeIProjection(stream(179).ginibre_density(4, 4)),
    )


def _two_haar_with_ginibre_references():
    # transition_matrix's two-dense branch; no reference is real or diagonal
    return (
        haar_structure(16, 4, 174),
        TypeIProjection(stream(173).ginibre_density(4, 4)),
        haar_structure(16, 2, 175),
        TypeIProjection(stream(176).ginibre_density(8, 8)),
    )


def _two_layouts_with_ginibre_references():
    # two groupings of different layouts of one dimension: _BasisPair on
    # transition_matrix's two-grouping branch
    return (
        structure_from_grouping(FactorLayout((4, 4)), (0,)),
        TypeIProjection(stream(186).ginibre_density(4, 4)),
        structure_from_grouping(FOUR_QUBITS, (0, 2)),
        TypeIProjection(stream(187).ginibre_density(4, 4)),
    )


def assert_points_close(got, want, tol):
    """Every field equal within ``tol * max(1, |want|)``, the golden reports'
    tolerance."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        for f in dataclasses.fields(TrajectoryPoint):
            np.testing.assert_allclose(getattr(p, f.name), getattr(q, f.name), rtol=tol, atol=tol, err_msg=f.name)


class TestTrajectoryMatchesPublicRoute:
    """Both trajectory kernels agree with the public functions to the
    goldens' 1e-12: the grouping-pair closed forms (nested groupings, and
    non-nested ones with Ginibre references) and the A-basis lemma kernels
    (a Haar structure on either side, Ginibre references on both sides, two
    Haar structures, two groupings of different layouts)."""

    @pytest.mark.parametrize(
        "setup",
        [
            _nested_groupings,
            _non_nested_with_ginibre_references,
            _grouping_and_haar,
            _grouping_and_haar_with_ginibre_references,
            _haar_and_grouping,
            _two_haar_with_ginibre_references,
            _two_layouts_with_ginibre_references,
        ],
    )
    def test_every_field_exactly_equal(self, setup):
        s_a, spec_a, s_b, spec_b = setup()
        state = stream(161).ginibre_ensemble(16, 3)
        h = gue_hamiltonian(16, 162)
        grid = TimeGrid(0.0, 2.0, 5)
        got = trajectory(state, h, grid, s_a, spec_a, s_b, spec_b)
        want = public_route_points(ensemble_density(*state), h, grid, s_a, spec_a, s_b, spec_b)
        assert_points_close(got, want, 1e-12)


LAYOUT_2322 = FactorLayout((2, 3, 2, 2))
GROUPINGS_2322 = [g for k in (1, 2, 3) for g in itertools.combinations(range(4), k)]


class TestGroupingPairClosedForm:
    """The grouping-pair route against the dense public route, on every
    ordered pair of groupings of [2, 3, 2, 2]."""

    @settings(max_examples=60, deadline=None)
    @given(
        selected=st.tuples(st.sampled_from(GROUPINGS_2322), st.sampled_from(GROUPINGS_2322)),
        rank=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_route(self, selected, rank, seed):
        s_a, s_b = (structure_from_grouping(LAYOUT_2322, g) for g in selected)
        spec_a = TypeIProjection(stream(seed, 0).ginibre_density(s_a.dim_e, s_a.dim_e))
        spec_b = TypeIProjection(stream(seed, 1).ginibre_density(s_b.dim_e, s_b.dim_e))
        state = stream(seed, 2).ginibre_ensemble(24, rank)
        h = gue_hamiltonian(24, mix_seed(seed, 3))
        grid = TimeGrid(0.0, 1.5, 3)
        got = trajectory(state, h, grid, s_a, spec_a, s_b, spec_b)
        want = public_route_points(ensemble_density(*state), h, grid, s_a, spec_a, s_b, spec_b)
        assert_points_close(got, want, 1e-12)
        # Lemma 2 does not depend on the state: constant along the dense route
        dense_lemma2 = [q.lemma2_defect for q in want]
        assert max(dense_lemma2) - min(dense_lemma2) <= 1e-12
        if set(selected[1]) <= set(selected[0]):
            # c = E & S' is empty: Tr_E'(P_A rho) keeps all of rho_S'
            assert max(p.lemma1_a_to_b for p in got) <= 1e-15

    def test_every_pair_with_maximally_mixed_references(self):
        state = stream(164).ginibre_ensemble(24, 2)
        h = gue_hamiltonian(24, 165)
        for selected in itertools.product(GROUPINGS_2322, GROUPINGS_2322):
            s_a, s_b = (structure_from_grouping(LAYOUT_2322, g) for g in selected)
            rec = trajectory(
                state, h, TimeGrid(0.0, 1.0, 1), s_a, max_mixed_spec(s_a.dim_e), s_b, max_mixed_spec(s_b.dim_e)
            )
            # the two references commute exactly: Delta = I/(d_b d_c d_e) - I/(d_b d_c d_e)
            assert all(p.lemma2_defect == 0.0 for p in rec), selected
            if set(selected[1]) <= set(selected[0]):
                assert all(p.lemma1_a_to_b <= 1e-15 for p in rec), selected


STRUCTURE_KINDS = ("grouping", "haar", "permutation")
DIVISORS_24 = (2, 3, 4, 6, 8, 12)


@st.composite
def structures_2322(draw, kind: str):
    """A structure of total dimension 24: a grouping of [2, 3, 2, 2], a Haar
    structure, or a permutation matrix, which is stored dense like any other
    unitary."""
    if kind == "grouping":
        return structure_from_grouping(LAYOUT_2322, draw(st.sampled_from(GROUPINGS_2322)))
    dim_s = draw(st.sampled_from(DIVISORS_24))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "haar":
        return haar_structure(24, dim_s, seed)
    s = structure_from_unitary(np.eye(24)[:, np.random.default_rng(seed).permutation(24)], dim_s, 24 // dim_s)
    assert s.basis.ndim == 2 and s.grouping is None
    return s


BASIS_PAIR_KINDS = [k for k in itertools.product(STRUCTURE_KINDS, repeat=2) if k != ("grouping",) * 2]


def fixed_structure_2322(kind: str, side: int):
    """Structure A (``side`` 0) or B (1) of a fixed pair of the given kind on
    [2, 3, 2, 2]: the groupings (0, 2) and (1, 3), Haar structures with
    dim_s 6 and 4, or permutation unitaries with dim_s 6 and 4, each drawn
    from its own seed."""
    if kind == "grouping":
        return structure_from_grouping(LAYOUT_2322, ((0, 2), (1, 3))[side])
    dim_s = (6, 4)[side]
    if kind == "haar":
        return haar_structure(24, dim_s, 190 + side)
    return structure_from_unitary(np.eye(24)[:, np.random.default_rng(192 + side).permutation(24)], dim_s, 24 // dim_s)


class TestBasisPairRoute:
    """The A-basis kernel route, which serves every pair other than two
    groupings with type_i specs, against the public route."""

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.sampled_from([k for k in itertools.product(STRUCTURE_KINDS, repeat=2) if k != ("grouping",) * 2]),
        data=st.data(),
        rank=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_public_route(self, kinds, data, rank, seed):
        s_a, s_b = (data.draw(structures_2322(kind)) for kind in kinds)
        state = stream(seed, 2).ginibre_ensemble(24, rank)
        self.check(state, s_a, s_b, seed)

    @pytest.mark.parametrize("kinds", BASIS_PAIR_KINDS, ids="-".join)
    def test_fixed_pair_matches_public_route(self, kinds):
        # every kind pair on every run, whatever the draws above reach
        s_a, s_b = (fixed_structure_2322(kind, side) for side, kind in enumerate(kinds))
        self.check(stream(194, 2).ginibre_ensemble(24, 2), s_a, s_b, 194)

    def test_maximally_mixed_state(self):
        state = (np.full(24, 1 / 24), np.eye(24, dtype=np.complex128))
        self.check(state, structure_from_grouping(LAYOUT_2322, (0, 2)), haar_structure(24, 6, 168), 169)

    @staticmethod
    def check(state, s_a, s_b, seed):
        spec_a = TypeIProjection(stream(seed, 0).ginibre_density(s_a.dim_e, s_a.dim_e))
        spec_b = TypeIProjection(stream(seed, 1).ginibre_density(s_b.dim_e, s_b.dim_e))
        h = gue_hamiltonian(24, mix_seed(seed, 3))
        grid = TimeGrid(0.0, 1.5, 3)
        got = trajectory(state, h, grid, s_a, spec_a, s_b, spec_b)
        want = public_route_points(ensemble_density(*state), h, grid, s_a, spec_a, s_b, spec_b)
        assert_points_close(got, want, 1e-12)


class TestTrajectoryInvariants:
    def setup_args(self, setup=_nested_groupings):
        return gue_hamiltonian(16, 166), TimeGrid(0.0, 1.0, 2), *setup()

    # both kernels rely on the orthonormality of the evolved vectors; each
    # propagation route is scaled where it forms the propagator
    @pytest.mark.parametrize("setup", [_nested_groupings, _grouping_and_haar], ids=["groupings", "grouping-haar"])
    def test_non_unitary_propagation_is_caught(self, monkeypatch, setup):
        for route, scaled in (("_eigh_route", "_phases"), ("_chebyshev_route", "_chebyshev_coefficients")):
            with monkeypatch.context() as patch:
                taken = force_route(patch, route == "_chebyshev_route")
                original = getattr(dynamics, scaled)
                patch.setattr(dynamics, scaled, lambda *args, f=original: (1 + 1e-7) * f(*args))
                with pytest.raises(InvariantViolation, match="not orthonormal"):
                    trajectory(stream(167).ginibre_ensemble(16, 2), *self.setup_args(setup))
                assert taken == [route]

    @pytest.mark.parametrize(
        "weights, vectors, fragment",
        [
            ([0.5, 0.5], np.eye(16)[:, [0, 0]], "not orthonormal"),
            ([0.5, 0.5], 1.001 * np.eye(16)[:, :2], "not orthonormal"),
            ([0.5, 0.4], np.eye(16)[:, :2], "sum to"),
            ([1.5, -0.5], np.eye(16)[:, :2], "positive"),
            ([1.0], np.eye(16)[:, :2], "2 vectors for 1 weights"),
        ],
        ids=["repeated", "unnormalized", "weights-sum", "negative-weight", "count"],
    )
    def test_bad_ensemble_rejected_at_entry(self, weights, vectors, fragment):
        with pytest.raises(ValueError, match=fragment):
            trajectory((weights, vectors), *self.setup_args())


def hamiltonian_matrix(kind: str, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "gue":
        return stream(seed).gue(dim)
    if kind == "diagonal":
        return np.diag(rng.uniform(-5.0, 5.0, dim)).astype(np.complex128)
    if kind == "scalar":
        return rng.uniform(-5.0, 5.0) * np.eye(dim, dtype=np.complex128)
    return np.zeros((dim, dim), dtype=np.complex128)


def assert_routes_agree(vectors, h, grid, interval):
    chebyshev = list(dynamics._chebyshev_route(vectors, h, grid.times(), interval))
    exact = list(dynamics._eigh_route(vectors, h, grid.times()))
    assert len(chebyshev) == len(exact) == grid.steps + 1
    for got, want in zip(chebyshev, exact):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestPropagationRoutes:
    """The Chebyshev series on the Lanczos interval against the eigh route;
    both propagate every point from t = 0 at its absolute time."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(8, 256),
        rank=st.integers(1, 4),
        kind=st.sampled_from(["gue", "diagonal", "scalar", "zero"]),
        t0=st.floats(-3.0, 3.0).filter(lambda t: t != 0.0),
        span=st.floats(0.05, 3.0),
        steps=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chebyshev_series_matches_eigh(self, dim, rank, kind, t0, span, steps, seed):
        h = Hamiltonian(hamiltonian_matrix(kind, dim, seed)).mat
        vectors = np.linalg.qr(stream(seed, 1).complex_matrix(dim, rank))[0]
        assert_routes_agree(vectors, h, TimeGrid(t0, t0 + span, steps), dynamics._lanczos_interval(h))

    def test_negative_times(self):
        h = gue_hamiltonian(64, 171).mat
        assert_routes_agree(stream(172).haar_pure(64)[:, None], h, TimeGrid(-2.5, -0.5, 4), dynamics._lanczos_interval(h))

    def test_long_series_at_the_crossover(self):
        # one point at the largest R |t| the rule still sends to Chebyshev at
        # d = 512: the series has about 2 d terms, the longest it ever runs
        dim = 512
        h = gue_hamiltonian(dim, 179).mat
        lo, hi = dynamics._lanczos_interval(h)
        half = (hi - lo) / 2
        wins = (x for x in range(2 * dim, 0, -1) if dynamics._chebyshev_wins(dim, 1, half, np.array([0.0, x / half])))
        x = next(wins, 0)
        assert x > 0.8 * dim
        vectors = stream(180).haar_pure(dim)[:, None]
        assert_routes_agree(vectors, h, TimeGrid(0.0, x / half, 1), (lo, hi))

    def test_points_do_not_depend_on_the_grid(self, monkeypatch):
        h = gue_hamiltonian(64, 181).mat
        interval = dynamics._lanczos_interval(h)
        vectors = np.linalg.qr(stream(182).complex_matrix(64, 2))[0]
        times = np.array([-2.0, 0.0, 0.7, 1.5, 3.0])
        within = list(dynamics._chebyshev_route(vectors, h, times, interval))
        alone = [next(dynamics._chebyshev_route(vectors, h, times[i : i + 1], interval)) for i in range(times.size)]
        monkeypatch.setattr(dynamics, "POINTS_BLOCK_BYTES", 2 * 64 * 2 * 16)  # two points per recurrence
        blocked = list(dynamics._chebyshev_route(vectors, h, times, interval))
        assert len(within) == len(blocked) == times.size
        for a, b, c in zip(within, alone, blocked):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_interval_holds_the_spectrum(self):
        # the zero H's estimate is the point [0, 0]: 0 I - H is singular, so
        # its proof fails, and a run on it takes the eigh route
        for kind in ("gue", "diagonal", "scalar", "zero"):
            h = hamiltonian_matrix(kind, 32, 173)
            lo, hi = dynamics._lanczos_interval(h)
            spectrum = np.linalg.eigvalsh(h)
            assert lo <= spectrum[0] and spectrum[-1] <= hi, kind
            assert dynamics._holds_spectrum(h, lo, hi) is (kind != "zero"), kind

    def test_narrowed_estimate_fails_its_proof(self, monkeypatch):
        h = gue_hamiltonian(256, 174)
        lo, hi = dynamics._lanczos_interval(h.mat)
        center, half = (hi + lo) / 2, (hi - lo) / 2
        narrowed = (center - 0.95 * half, center + 0.95 * half)
        spectrum = np.linalg.eigvalsh(h.mat)
        assert spectrum[0] < narrowed[0] and narrowed[1] < spectrum[-1]
        # each edge is checked: narrowing either one alone fails the proof
        assert dynamics._holds_spectrum(h.mat, lo, hi)
        assert not dynamics._holds_spectrum(h.mat, narrowed[0], hi)
        assert not dynamics._holds_spectrum(h.mat, lo, narrowed[1])

        # unproven, the narrowed series misses the goldens' tolerance, and the
        # orthonormality check does not notice (at 0.83 the series blows up
        # and the check raises; at 0.95 amplitudes are off by about 4e-10)
        vectors = np.linalg.qr(stream(175).complex_matrix(256, 2))[0]
        grid = TimeGrid(0.0, 2.0, 7)
        unproven = list(dynamics._chebyshev_route(vectors, h.mat, grid.times(), narrowed))
        exact = list(dynamics._eigh_route(vectors, h.mat, grid.times()))
        assert max(np.abs(a - b).max() for a, b in zip(unproven, exact)) > 1e-12
        assert max(_orthonormality_defect(a) for a in unproven) < UNITARITY_TOL

        # trajectory proves the estimate it is given, and propagates an
        # unproven one by eigh alone
        layout = FactorLayout((2,) * 8)
        args = (
            pure(stream(176).haar_pure(256)),
            h,
            grid,
            structure_from_grouping(layout, (0,)),
            max_mixed_spec(128),
            structure_from_grouping(layout, (0, 1, 2, 3)),
            max_mixed_spec(16),
        )
        monkeypatch.setattr(dynamics, "_lanczos_interval", lambda m: narrowed)
        taken = force_route(monkeypatch, True)
        got = trajectory(*args)
        monkeypatch.setattr(dynamics, "_chebyshev_wins", lambda *a: False)
        want = trajectory(*args)
        assert [dataclasses.astuple(p) for p in got] == [dataclasses.astuple(p) for p in want]
        assert taken == ["_eigh_route", "_eigh_route"]

    @pytest.mark.parametrize(
        "dim, cholesky",
        [(dim, cholesky) for cholesky in ("zpotrf", "numpy") for dim in (16, 64, 256)],
        ids=["16", "64", "256", "16-numpy", "64-numpy", "256-numpy"],
    )
    def test_proof_verdict_is_that_of_the_untransposed_matrix(self, monkeypatch, dim, cholesky):
        # _positive_definite factors the transposed view of edge I - sign H,
        # its conjugate, in place by numpy's OpenBLAS zpotrf, or by numpy
        # where that is not found; at edges that cross either end of the
        # spectrum by 1e-16 to 1e-6 of its value, it gives numpy's verdict
        # on the matrix
        if cholesky == "zpotrf" and linalg._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        if cholesky == "numpy":
            monkeypatch.setattr(linalg, "_openblas", lambda: None)
        h = gue_hamiltonian(dim, 187).mat
        spectrum = np.linalg.eigvalsh(h)
        work = np.empty_like(h)
        verdicts = []
        for sign, extreme in ((1.0, spectrum[-1]), (-1.0, -spectrum[0])):
            for rel in np.logspace(-16, -6, 21):
                for side in (-1.0, 1.0):
                    edge = extreme + side * rel * abs(extreme)
                    a = h * -sign
                    a.flat[:: dim + 1] += edge
                    try:
                        np.linalg.cholesky(a)
                        want = True
                    except np.linalg.LinAlgError:
                        want = False
                    assert dynamics._positive_definite(h, edge, sign, work) is want, (sign, rel, side)
                    verdicts.append(want)
        assert len(verdicts) == 84 and 0 < sum(verdicts) < 84

    def test_proof_leaves_h_as_it_was(self):
        h = gue_hamiltonian(64, 188).mat
        before = h.copy()
        lo, hi = dynamics._lanczos_interval(h)
        assert dynamics._holds_spectrum(h, lo, hi)
        assert h.tobytes() == before.tobytes() and not h.flags.writeable

    def test_proof_peaks_at_one_work_buffer(self):
        # both bounds factor in place in one buffer of H's size; a fresh
        # edge I - sign H and a copy of it per bound peaked at 2 H
        h = gue_hamiltonian(512, 189).mat
        lo, hi = dynamics._lanczos_interval(h)
        tracemalloc.start()
        try:
            assert dynamics._holds_spectrum(h, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * h.nbytes

    @pytest.mark.parametrize("setup", [_nested_groupings, _grouping_and_haar], ids=["groupings", "grouping-haar"])
    def test_maximally_mixed_state_is_not_propagated(self, monkeypatch, setup):
        def fail(*args):
            raise AssertionError("propagated")

        for name in ("_lanczos_interval", "_chebyshev_route", "_eigh_route"):
            monkeypatch.setattr(dynamics, name, fail)
        s_a, spec_a, s_b, spec_b = setup()
        state = (np.full(16, 1 / 16), np.eye(16, dtype=np.complex128))
        h = gue_hamiltonian(16, 177)
        grid = TimeGrid(-1.0, 2.0, 5)
        got = trajectory(state, h, grid, s_a, spec_a, s_b, spec_b)
        want = public_route_points(ensemble_density(*state), h, grid, s_a, spec_a, s_b, spec_b)
        assert_points_close(got, want, 1e-12)


class TestChebyshevSeries:
    THETA = np.linspace(0.0, np.pi, 101)

    # up to 2 * MAX_TOTAL_DIM: the rule never runs a series longer than 2 d terms
    @pytest.mark.parametrize("x", [0.0, 1e-300, 1e-6, 0.3, 1.0, 9.14, 40.0, 200.0, 1500.0, 4000.0, 2.0 * MAX_TOTAL_DIM])
    def test_bessel_values_satisfy_jacobi_anger(self, x):
        # exp(i x cos theta) = J_0(x) + 2 sum_{k>=1} i^k J_k(x) cos(k theta),
        # with the series cut where dynamics cuts it; roundoff grows with x
        j = dynamics._bessel_j(x)
        k = np.arange(1, j.size)
        series = j[0] + 2 * (np.array([1, 1j, -1, -1j])[k % 4] * j[1:]) @ np.cos(np.outer(k, self.THETA))
        want = np.exp(1j * x * np.cos(self.THETA))
        np.testing.assert_allclose(series, want, rtol=0, atol=1e-15 * max(100.0, x))
        assert j.size > x

    @pytest.mark.parametrize("t", [0.7, -0.7, 3.0, -1e-3, 1e-9])
    def test_coefficients_expand_the_propagator(self, t):
        # exp(-i t (center + half y)) = sum_k a_k T_k(y), at y = cos theta
        center, half = 1.3, 11.0
        a = dynamics._chebyshev_coefficients(center, half, t)
        series = a @ np.cos(np.outer(np.arange(a.size), self.THETA))
        want = np.exp(-1j * t * (center + half * np.cos(self.THETA)))
        np.testing.assert_allclose(series, want, rtol=0, atol=1e-13)


def perfbench_workloads(monkeypatch):
    """The benchmark's workload definitions, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestRouteRule:
    def test_every_dyn_grouped_variant_takes_chebyshev(self, tmp_path, monkeypatch):
        workloads = perfbench_workloads(monkeypatch)
        taken = spy_routes(monkeypatch)
        for variant in range(workloads.VARIANTS):
            cfg = load_config(workloads.write_inputs("dyn-grouped", variant, tmp_path / str(variant))["dynamics"])
            trajectory(
                cfg.initial_state,
                cfg.hamiltonian,
                cfg.time_grid,
                cfg.structure_a,
                cfg.projection_a,
                cfg.structure_b,
                cfg.projection_b,
            )
        assert taken == ["_chebyshev_route"] * workloads.VARIANTS

    # R is about 2 sqrt(d) for a GUE H: 32 at d=256, 64 at d=1024
    @pytest.mark.parametrize(
        "dim, rank, half, t0, t1, steps, chebyshev",
        [
            (256, 1, 32, 0.0, 2.0, 7, True),  # dyn-grouped
            (256, 1, 32, -3.0, 1.0, 16, True),
            (1024, 1, 64, 0.0, 2.0, 7, True),
            (1024, 4, 64, 0.0, 2.0, 7, True),
            (1024, 1, 64, 0.0, 2.0, 128, True),
            (4096, 1, 128, 0.0, 2.0, 7, True),
            (16, 1, 8, 0.0, 2.0, 5, False),  # small d: eigh is cheaper than any series
            (256, 256, 32, 0.0, 2.0, 7, False),  # rank near d
            (256, 200, 32, 0.0, 2.0, 7, False),
            (1024, 1000, 64, 0.0, 2.0, 7, False),
            (256, 1, 32, 0.0, 100.0, 7, False),  # long spans
            (1024, 1, 64, 0.0, 100.0, 7, False),
            (256, 1, 32, 0.0, 2.0, 128, False),  # many points
            (4096, 64, 128, 0.0, 2.0, 32, False),  # 9 blocks of 4 points, one recurrence each
        ],
    )
    def test_route_choice(self, dim, rank, half, t0, t1, steps, chebyshev):
        times = TimeGrid(t0, t1, steps).times()
        assert dynamics._chebyshev_wins(dim, rank, half, times) is chebyshev

    def test_no_lanczos_run_when_no_interval_could_win(self, monkeypatch):
        def fail(*args):
            raise AssertionError("estimated")

        monkeypatch.setattr(dynamics, "_lanczos_interval", fail)
        taken = spy_routes(monkeypatch)
        weights = np.linspace(1.0, 2.0, 32)
        state = (weights / weights.sum(), np.linalg.qr(stream(183).complex_matrix(64, 32))[0])
        assert not dynamics._chebyshev_wins(64, 32, 0.0, TimeGrid(0.0, 2.0, 7).times())
        layout = FactorLayout((2,) * 6)
        s_a, s_b = structure_from_grouping(layout, (0,)), structure_from_grouping(layout, (0, 1, 2))
        trajectory(state, gue_hamiltonian(64, 184), TimeGrid(0.0, 2.0, 7), s_a, max_mixed_spec(32), s_b, max_mixed_spec(8))
        assert taken == ["_eigh_route"]

    def test_the_rule_is_asked_at_most_twice(self, monkeypatch):
        # with R = 0 and with the Lanczos estimate, which the proof checks as
        # it is
        asked = []
        wins = dynamics._chebyshev_wins
        monkeypatch.setattr(dynamics, "_chebyshev_wins", lambda *args: asked.append(args[2]) or wins(*args))
        holds = []
        proof = dynamics._holds_spectrum
        monkeypatch.setattr(dynamics, "_holds_spectrum", lambda *args: holds.append(args[1:]) or proof(*args))
        taken = spy_routes(monkeypatch)
        h = gue_hamiltonian(256, 186)
        layout = FactorLayout((2,) * 8)
        trajectory(
            pure(stream(185).haar_pure(256)),
            h,
            TimeGrid(0.0, 2.0, 7),
            structure_from_grouping(layout, (0,)),
            max_mixed_spec(128),
            structure_from_grouping(layout, (0, 1, 2, 3)),
            max_mixed_spec(16),
        )
        lo, hi = dynamics._lanczos_interval(h.mat)
        assert asked == [0.0, (hi - lo) / 2]
        assert holds == [(lo, hi)]
        assert taken == ["_chebyshev_route"]


class TestSchmidtRoute:
    """For a pure state, the Schmidt coefficients s_k across each split give
    the mi_* and purity_* columns without a partial trace: MI = 2 H(s_k^2)
    and purity = sum s_k^4."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["grouping", "haar"]),
        data=st.data(),
        chebyshev=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_columns_match_schmidt_coefficients(self, kind, data, chebyshev, seed):
        s_a = data.draw(structures_2322("grouping"))
        s_b = data.draw(structures_2322(kind))
        psi = stream(seed, 2).haar_pure(24)
        h = gue_hamiltonian(24, mix_seed(seed, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_chebyshev_wins", lambda *args: chebyshev)
            points = trajectory(
                pure(psi), h, TimeGrid(-0.5, 1.0, 3), s_a, max_mixed_spec(s_a.dim_e), s_b, max_mixed_spec(s_b.dim_e)
            )
        for p in points:
            psi_t = propagator(h.mat, p.t) @ psi
            for s, mi, pur in ((s_a, p.mi_a, p.purity_s), (s_b, p.mi_b, p.purity_sprime)):
                coeffs = schmidt(vector_to_structure_basis(psi_t, s), s.dim_s, s.dim_e).coeffs
                prob = coeffs**2
                prob = prob[prob > ENTROPY_EIGVAL_FLOOR]
                assert mi == pytest.approx(-2 * float((prob * np.log(prob)).sum()), abs=1e-12)
                assert pur == pytest.approx(float((coeffs**4).sum()), abs=1e-12)
