"""Unitary dynamics, seeded random ensembles, and trajectory sweeps.

:func:`trajectory` returns a tuple with one :class:`TrajectoryPoint` per grid
time: the cross-split functionals that a ``dynamics-trace`` report writes.

Randomness contract (recorded in every report as ``GENERATOR_NAME``):
uniforms come from numpy's PCG64 bit generator seeded with a 64-bit integer;
normals are produced from that stream by the Box-Muller transform.  Each
complex normal entry consumes one uniform pair ``(u1, u2)`` drawn in that
order and takes ``re = sqrt(-2 ln(1 - u1)) cos(2 pi u2)``,
``im = sqrt(-2 ln(1 - u1)) sin(2 pi u2)``; matrices fill row-major.
Per-trial seeds derive from a base seed through the SplitMix64 mixing
function (:func:`mix_seed`), so trials are independent and reorderable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    UNITARITY_TOL,
    InvariantViolation,
    _checked_spectrum,
    _orthonormality_defect,
    _phases,
    _propagator_from_eigh,
    _spectral_entropy,
    check_density_matrix,
    check_ensemble,
    eigh,
    purity,
    require_hermitian,
)
from .projections import ProjectionSpec, TypeIProjection, _project_in_basis, check_compatible
from .relativity import (
    DefectReport,
    _checked_report,
    _commutator_defect,
    _reduce_complement,
    _split_entropies,
)
from .structures import Structure, from_structure_basis, to_structure_basis

GENERATOR_NAME = "pcg64+splitmix64+box-muller:v1"

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def mix_seed(base_seed: int, trial_index: int) -> int:
    """SplitMix64 output for the (trial_index + 1)-th state after base_seed.

    ``z = base + (k+1) * gamma`` followed by the standard SplitMix64
    finalizer; all arithmetic mod 2^64.
    """
    base_seed = int(base_seed)
    trial_index = int(trial_index)
    if not 0 <= base_seed <= _MASK64:
        raise ValueError(f"base_seed must fit in 64 bits, got {base_seed}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be nonnegative, got {trial_index}")
    z = (base_seed + (trial_index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# Complex normals drawn per Box-Muller pass; bounds its temporaries to a few MiB.
_NORMALS_CHUNK = 1 << 16


class RandomStream:
    """Seeded sampler for the random ensembles used across the package."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform_pairs(self, n: int) -> np.ndarray:
        return self._gen.random((n, 2))

    def complex_normals(self, n: int) -> np.ndarray:
        """n standard complex Gaussians (re, im independent N(0, 1)).

        The output is filled in place, ``_NORMALS_CHUNK`` entries at a time:
        consecutive uniform-pair draws continue one stream, so the values are
        those of a single draw, and the Box-Muller temporaries stay small."""
        out = np.empty(n, dtype=np.complex128)
        parts = out.view(np.float64).reshape(n, 2)
        for start in range(0, n, _NORMALS_CHUNK):
            u = self.uniform_pairs(min(_NORMALS_CHUNK, n - start))
            r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
            theta = 2.0 * np.pi * u[:, 1]
            stop = start + u.shape[0]
            np.multiply(r, np.cos(theta), out=parts[start:stop, 0])
            np.multiply(r, np.sin(theta), out=parts[start:stop, 1])
        return out

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.complex_normals(rows * cols).reshape(rows, cols)

    def gue(self, dim: int) -> np.ndarray:
        """(G + G^H) / 2 for a complex Gaussian G."""
        _check_dim(dim)
        g = self.complex_matrix(dim, dim)
        g += g.conj().T
        g /= 2
        return g

    def haar_pure(self, dim: int) -> np.ndarray:
        """Normalized complex Gaussian vector: Haar-uniform on the sphere."""
        _check_dim(dim)
        v = self.complex_normals(dim)
        return v / np.linalg.norm(v)

    def ginibre_density(self, dim: int, rank: int) -> np.ndarray:
        """G G^H / tr(G G^H) for a dim x rank complex Gaussian G."""
        g = self._ginibre(dim, rank)
        m = g @ g.conj().T
        m /= np.trace(m).real
        return (m + m.conj().T) / 2

    def ginibre_ensemble(self, dim: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """The state :meth:`ginibre_density` draws, as its eigen-ensemble
        ``(weights, vectors)``: with the thin SVD G = U diag(s) V^H, the
        weights are s^2 / sum(s^2) and the vectors are the columns of U."""
        u, sv, _ = np.linalg.svd(self._ginibre(dim, rank), full_matrices=False)
        p = sv**2
        return p / p.sum(), u

    def _ginibre(self, dim: int, rank: int) -> np.ndarray:
        if not 1 <= rank <= dim:
            raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
        return self.complex_matrix(dim, rank)

    def haar_unitary(self, dim: int) -> np.ndarray:
        """QR of a Ginibre sample with the R-diagonal phase fixed positive,
        which makes the output unique given the sample."""
        _check_dim(dim)
        g = self.complex_matrix(dim, dim)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r).copy()
        d[np.abs(d) < 1e-300] = 1.0
        return q * (d / np.abs(d))


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian generator of the unitary dynamics."""

    mat: np.ndarray

    def __post_init__(self):
        mat = require_hermitian(self.mat, name="hamiltonian").copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1], endpoints inclusive, ``steps`` intervals."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "t1", float(self.t1))
        object.__setattr__(self, "steps", int(self.steps))
        if self.steps < 1:
            raise ValueError(f"time grid needs steps >= 1, got {self.steps}")
        if not self.t1 > self.t0:
            raise ValueError(f"time grid needs t1 > t0, got [{self.t0}, {self.t1}]")
        if not math.isfinite(self.t1 - self.t0):
            raise ValueError(f"time grid span t1 - t0 overflows, got [{self.t0}, {self.t1}]")

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


def evolve(rho0, h: Hamiltonian, t: float) -> np.ndarray:
    """Conjugate a state by exp(-i H t); spectrum-preserving by construction."""
    rho0 = check_density_matrix(rho0)
    if rho0.shape[0] != h.dim:
        raise ValueError(f"evolve: state dim {rho0.shape[0]} does not match hamiltonian dim {h.dim}")
    u = _propagator_from_eigh(*eigh(h.mat, name="hamiltonian"), t)
    return u @ rho0 @ u.conj().T


@dataclass(frozen=True, eq=False)
class TrajectoryPoint:
    t: float
    lemma1_a_to_b: float
    lemma1_b_to_a: float
    lemma1_trace_residual_max: float
    lemma2_defect: float
    mi_a: float
    mi_b: float
    purity_s: float
    purity_sprime: float


def trajectory(
    state,
    h: Hamiltonian,
    grid: TimeGrid,
    s_a: Structure,
    spec_a: ProjectionSpec,
    s_b: Structure,
    spec_b: ProjectionSpec,
) -> tuple[TrajectoryPoint, ...]:
    """Evolve once and evaluate every cross-split functional on the same
    state at each grid time; one point per grid time, in time order.

    ``state`` is the initial state as its eigen-ensemble ``(weights,
    vectors)``: rho_0 = sum_k weights[k] |psi_k><psi_k|, with psi_k the k-th
    column of ``vectors``.  The ensemble and both structure/spec pairs are
    validated here, once; the ensemble needs positive weights summing to 1
    and orthonormal vectors.  Propagation uses a single
    eigendecomposition H = V diag(w) V^H evaluated at absolute times, so the
    points are independent of grid refinement and the endpoint matches a
    one-shot evolve.  Both reduced trajectories come from the same total
    state; no projection feeds back into the dynamics.  The commutator
    defect is recorded as NaN unless both specs are type_i (its defined
    scope).

    Two routes give the same values to roundoff:

    * Two factor groupings of one layout with type_i specs (the pairs that
      ``dynamics-trace`` configs build) never form a d x d state.  The
      vectors evolve as psi_k(t) = V (exp(-i w t) * V^H psi_k), and every
      column comes from their factor tensors; S(rho_t) is the entropy of the
      weights, and the commutator defect is the state-independent closed
      form of :class:`_GroupingPair`, computed once.  At each time the
      evolved vectors must stay orthonormal, else :class:`InvariantViolation`;
      each reduction is validated once, and its spectrum gives its entropy.
    * Every other pair forms rho_0 once and conjugates it by exp(-i H t) at
      each time.  The evolved state is validated once per time and its
      spectrum gives S(rho_t); each structure changes basis once and yields
      both reductions and the single projection, which serves both the
      complement and the commutator.  The values equal those of the public
      functions called one by one.
    """
    weights, vectors = check_ensemble(*state)
    if not (vectors.shape[0] == h.dim == s_a.total_dim == s_b.total_dim):
        raise ValueError("trajectory: state, hamiltonian and structure dims do not match")
    check_compatible(s_a, spec_a)
    check_compatible(s_b, spec_b)
    w, v = eigh(h.mat, name="hamiltonian")
    times = grid.times()
    if (
        isinstance(spec_a, TypeIProjection)
        and isinstance(spec_b, TypeIProjection)
        and s_a.grouping is not None
        and s_b.grouping is not None
        and s_a.grouping[0] == s_b.grouping[0]
    ):
        pair = _GroupingPair(s_a.grouping, spec_a.rho_ref, s_b.grouping, spec_b.rho_ref)
        return _ensemble_points(weights, vectors, w, v, times, pair)
    return _dense_points(_ensemble_density(weights, vectors), w, v, times, s_a, spec_a, s_b, spec_b)


def _ensemble_density(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Psi diag(p) Psi^H: the density matrix of a validated ensemble."""
    return (vectors * weights) @ vectors.conj().T


class _GroupingPair:
    """Closed forms for two groupings A = (S, E) and B = (S', E') of one
    layout, with type_i references R_A on E and R_B on E'.

    The factors split into a = S & S', b = S & E', c = E & S' and
    e = E & E'.  A state enters as a tensor over (a, b, c, e), each group in
    layout order, so S = (a, b), E = (c, e), S' = (a, c) and E' = (b, e).
    Then P_A rho = rho_S (x) R_A, and the Lemma 1 defect of A against B is
    Tr_E'(rho - rho_S (x) R_A) = rho_ac - rho_a (x) Tr_e R_A; B against A is
    symmetric.  The Lemma 2 commutator is
    P_A P_B rho - P_B P_A rho = rho_a (x) Delta with
    Delta = Tr_e R_B (x) R_A - Tr_e R_A (x) R_B on (b, c, e), so its trace
    norm is ||Delta||_1 for every state.
    """

    def __init__(self, grouping_a, ref_a, grouping_b, ref_b):
        dims, sel_a = grouping_a
        sel_b = grouping_b[1]
        n = len(dims)
        a, b, c, e = (
            [i for i in range(n) if ((i in sel_a), (i in sel_b)) == key]
            for key in ((True, True), (True, False), (False, True), (False, False))
        )
        self.layout = dims
        self.order = a + b + c + e
        self.dims = tuple(math.prod(dims[i] for i in group) for group in (a, b, c, e))
        da, db, dc, de = self.dims
        ref_a = _regroup(ref_a, dims, sorted(c + e), c, e)  # (c, e, c, e)
        ref_b = _regroup(ref_b, dims, sorted(b + e), b, e)  # (b, e, b, e)
        # the e-diagonal blocks of each reference, (c, c, e) and (b, b, e)
        self.ref_a_blocks = np.einsum("ueve->uve", ref_a)
        self.ref_b_blocks = np.einsum("xeye->xye", ref_b)
        delta = np.einsum("xy,uevf->xueyvf", np.einsum("xeye->xy", ref_b), ref_a)
        delta -= np.einsum("uv,xeyf->xueyvf", np.einsum("ueve->uv", ref_a), ref_b)
        size = db * dc * de
        self.lemma2 = _checked_report(delta.reshape(size, size), "commutator closed form").trace_norm_defect

    def point(self, t: float, y: np.ndarray, entropy_total: float) -> TrajectoryPoint:
        """The columns at time ``t`` from ``y``: the columns of the evolved
        vectors, each scaled by the square root of its weight."""
        da, db, dc, de = self.dims
        r = y.shape[1]
        y = y.T.reshape((r,) + self.layout).transpose([0] + [1 + i for i in self.order])
        y = y.reshape(r, da, db, dc, de)
        y_a = y.reshape(r, da * db, dc * de)
        y_b = y.transpose(0, 1, 3, 2, 4).reshape(r, da * dc, db * de)
        blocks_a, blocks_b = _diagonal_blocks(y_a), _diagonal_blocks(y_b)
        red_s, red_sp = blocks_a.sum(axis=-1), blocks_b.sum(axis=-1)
        rep_ab = _cross_defect(blocks_b, red_s, self.ref_a_blocks, da)
        rep_ba = _cross_defect(blocks_a, red_sp, self.ref_b_blocks, da)
        return TrajectoryPoint(
            t=float(t),
            lemma1_a_to_b=rep_ab.trace_norm_defect,
            lemma1_b_to_a=rep_ba.trace_norm_defect,
            lemma1_trace_residual_max=max(rep_ab.trace_residual, rep_ba.trace_residual),
            lemma2_defect=self.lemma2,
            mi_a=_mutual_information(y_a, red_s, entropy_total),
            mi_b=_mutual_information(y_b, red_sp, entropy_total),
            purity_s=purity(red_s),
            purity_sprime=purity(red_sp),
        )


def _regroup(m: np.ndarray, dims, factors: list[int], first: list[int], second: list[int]) -> np.ndarray:
    """An operator on ``factors`` (in layout order) as a tensor with axes
    (first, second, first, second), each group in layout order."""
    pos = [factors.index(i) for i in first + second]
    k = len(factors)
    d1, d2 = math.prod(dims[i] for i in first), math.prod(dims[i] for i in second)
    t = m.reshape([dims[i] for i in factors] * 2).transpose(pos + [k + i for i in pos])
    return t.reshape(d1, d2, d1, d2)


def _diagonal_blocks(y: np.ndarray) -> np.ndarray:
    """The environment-diagonal blocks ``(dim_s, dim_s, dim_e)`` of the state
    whose weighted vectors ``y`` are given as tensors ``(r, dim_s, dim_e)``.
    Their sum over the last, contiguous axis (numpy sums it pairwise) is
    the system reduction."""
    z = y.transpose(2, 1, 0)
    return np.ascontiguousarray((z @ z.conj().transpose(0, 2, 1)).transpose(1, 2, 0))


def _mutual_information(y: np.ndarray, red_s: np.ndarray, entropy_total: float) -> float:
    """S(rho_S) + S(rho_E) - S(rho) for the weighted vectors ``y`` of
    :func:`_diagonal_blocks` and their system reduction.  S(rho_E) comes
    from the smaller of rho_E and the Gram matrix of the (vector, system)
    rows, which share their nonzero spectrum."""
    r, dim_s, dim_e = y.shape
    ye = y.transpose(2, 0, 1).reshape(dim_e, r * dim_s) if dim_e <= r * dim_s else y.reshape(r * dim_s, dim_e)
    entropy_s = _spectral_entropy(_checked_spectrum(red_s, "reduced S state")[1])
    entropy_e = _spectral_entropy(_checked_spectrum(ye @ ye.conj().T, "reduced E state")[1])
    return entropy_s + entropy_e - entropy_total


def _cross_defect(blocks_to: np.ndarray, red_from: np.ndarray, ref_blocks: np.ndarray, da: int) -> DefectReport:
    """Lemma 1 defect Tr_E'(rho - rho_S (x) R) of one grouping against the
    other.  ``blocks_to`` are the state's E'-diagonal blocks over the other
    grouping's S' = (a, g), E' = (h, e); ``red_from`` is rho_S on (a, h),
    and ``ref_blocks`` the e-diagonal blocks (g, g, e) of R.  Like the dense
    route, the complement's E'-diagonal blocks are formed and subtracted
    before they are summed."""
    dh = red_from.shape[0] // da
    red_blocks = np.einsum("xhyh->xyh", red_from.reshape(da, dh, da, dh))
    complement = blocks_to - np.einsum("xyh,uve->xuyvhe", red_blocks, ref_blocks).reshape(blocks_to.shape)
    return _checked_report(complement.sum(axis=-1), "cross_relevance_matrix")


def _ensemble_points(weights, vectors, w, v, times, pair: _GroupingPair) -> tuple[TrajectoryPoint, ...]:
    coeffs = v.conj().T @ vectors
    entropy_total = _spectral_entropy(weights)
    scale = np.sqrt(weights)
    points = []
    for t in times:
        psi_t = v @ (_phases(w, t)[:, None] * coeffs)
        defect = _orthonormality_defect(psi_t)
        if defect > UNITARITY_TOL:
            raise InvariantViolation(
                f"trajectory: evolved vectors are not orthonormal at t={float(t):.6g}"
                f" (defect {defect:.3e} > {UNITARITY_TOL:.0e})"
            )
        points.append(pair.point(t, psi_t * scale, entropy_total))
    return tuple(points)


def _dense_points(rho0, w, v, times, s_a, spec_a, s_b, spec_b) -> tuple[TrajectoryPoint, ...]:
    both_type_i = isinstance(spec_a, TypeIProjection) and isinstance(spec_b, TypeIProjection)
    points = []
    for t in times:
        # full-dimension temporaries are dropped as soon as they are used, so
        # at most a few d x d arrays are alive at once
        u = _propagator_from_eigh(w, v, t)
        rho_t = u @ rho0 @ u.conj().T
        del u
        rho_t = (rho_t + rho_t.conj().T) / 2
        entropy_t = _spectral_entropy(_checked_spectrum(rho_t)[1])
        red_s, mi_a, p_a_rho = _split_data(rho_t, s_a, spec_a, entropy_t)
        red_sp, mi_b, p_b_rho = _split_data(rho_t, s_b, spec_b, entropy_t)
        rep_ab = _reduce_complement(rho_t - p_a_rho, s_b)
        rep_ba = _reduce_complement(rho_t - p_b_rho, s_a)
        defect2 = (
            _commutator_defect(p_a_rho, p_b_rho, s_a, spec_a, s_b, spec_b) if both_type_i else math.nan
        )
        del rho_t, p_a_rho, p_b_rho
        points.append(
            TrajectoryPoint(
                t=float(t),
                lemma1_a_to_b=rep_ab.trace_norm_defect,
                lemma1_b_to_a=rep_ba.trace_norm_defect,
                lemma1_trace_residual_max=max(rep_ab.trace_residual, rep_ba.trace_residual),
                lemma2_defect=defect2,
                mi_a=mi_a,
                mi_b=mi_b,
                purity_s=purity(red_s),
                purity_sprime=purity(red_sp),
            )
        )
    return tuple(points)


def _split_data(
    rho: np.ndarray, s: Structure, spec: ProjectionSpec, entropy_total: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """System reduction, mutual information and projection ``P rho`` of a
    validated state for one structure, from a single change of basis."""
    m = to_structure_basis(rho, s)
    red_s, entropy_s, entropy_e = _split_entropies(m, s)
    p_rho = from_structure_basis(_project_in_basis(m, s, spec), s)
    return red_s, entropy_s + entropy_e - entropy_total, p_rho
