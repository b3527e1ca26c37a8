import dataclasses
import itertools
import math
import tracemalloc

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
    computational_type_iii,
    cross_relevance_matrix,
    dynamics,
    from_structure_basis,
    identity_structure,
    kron,
    mix_seed,
    mutual_information,
    purity,
    reduced_state,
    structure_from_grouping,
    structure_from_unitary,
    trajectory,
)
from conftest import haar_structure, max_mixed_spec, propagator, stream, teleport_setup

ensemble_density = dynamics._ensemble_density


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

    @pytest.mark.parametrize("n", [5, 4096, 2**20])
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

    def test_non_type_i_specs_yield_nan_commutator(self):
        s = identity_structure(2, 2)
        state = stream(159).ginibre_ensemble(4, 4)
        h = gue_hamiltonian(4, 160)
        rec = trajectory(
            state,
            h,
            TimeGrid(0.0, 1.0, 2),
            s,
            computational_type_iii(2),
            s,
            max_mixed_spec(2),
        )
        assert all(math.isnan(p.lemma2_defect) for p in rec)


def public_route_points(rho0, h, grid, s_a, spec_a, s_b, spec_b):
    """The per-point loop through the public functions, each validating its
    own input: the reference the shared-work trajectory must reproduce."""
    w, v = np.linalg.eigh((h.mat + h.mat.conj().T) / 2)
    both_type_i = isinstance(spec_a, TypeIProjection) and isinstance(spec_b, TypeIProjection)
    points = []
    for t in grid.times():
        u = (v * np.exp(-1j * w * float(t))) @ v.conj().T
        rho_t = u @ rho0 @ u.conj().T
        rho_t = (rho_t + rho_t.conj().T) / 2
        rep_ab = cross_relevance_matrix(rho_t, s_a, spec_a, s_b)
        rep_ba = cross_relevance_matrix(rho_t, s_b, spec_b, s_a)
        red_s = reduced_state(rho_t, s_a, "S")
        red_sp = reduced_state(rho_t, s_b, "S")
        defect2 = commutator_defect(rho_t, s_a, spec_a, s_b, spec_b) if both_type_i else math.nan
        points.append(
            TrajectoryPoint(
                t=float(t),
                lemma1_a_to_b=rep_ab.trace_norm_defect,
                lemma1_b_to_a=rep_ba.trace_norm_defect,
                lemma1_trace_residual_max=max(rep_ab.trace_residual, rep_ba.trace_residual),
                lemma2_defect=defect2,
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


def _non_nested_with_type_iii():
    return (
        structure_from_grouping(FOUR_QUBITS, (0, 1)),
        computational_type_iii(4),
        structure_from_grouping(FOUR_QUBITS, (1, 3)),
        max_mixed_spec(4),
    )


def _grouping_and_haar():
    return (
        structure_from_grouping(FOUR_QUBITS, (2,)),
        max_mixed_spec(8),
        haar_structure(16, 4, 163),
        max_mixed_spec(4),
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
    goldens' 1e-12: the grouping-pair closed forms (nested groupings) and
    the A-basis lemma kernels (a type_iii spec, a Haar structure)."""

    @pytest.mark.parametrize("setup", [_nested_groupings, _non_nested_with_type_iii, _grouping_and_haar])
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
    structure, or a permutation matrix, which is stored as an index map
    without a grouping."""
    if kind == "grouping":
        return structure_from_grouping(LAYOUT_2322, draw(st.sampled_from(GROUPINGS_2322)))
    dim_s = draw(st.sampled_from(DIVISORS_24))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "haar":
        return haar_structure(24, dim_s, seed)
    s = structure_from_unitary(np.eye(24)[:, np.random.default_rng(seed).permutation(24)], dim_s, 24 // dim_s)
    assert s.basis.ndim == 1 and s.grouping is None
    return s


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

    # both kernels rely on the orthonormality of the evolved vectors
    @pytest.mark.parametrize("setup", [_nested_groupings, _grouping_and_haar], ids=["groupings", "grouping-haar"])
    def test_non_unitary_propagation_is_caught(self, monkeypatch, setup):
        phases = dynamics._phases
        monkeypatch.setattr(dynamics, "_phases", lambda w, t: (1 + 1e-7) * phases(w, t))
        with pytest.raises(InvariantViolation, match="not orthonormal"):
            trajectory(stream(167).ginibre_ensemble(16, 2), *self.setup_args(setup))

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
