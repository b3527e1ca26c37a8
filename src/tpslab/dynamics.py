"""Unitary dynamics, seeded random ensembles, and trajectory sweeps.

:func:`trajectory` returns a tuple with one :class:`TrajectoryPoint` per grid
time: the cross-split functionals that a ``dynamics-trace`` report writes.
It evolves the state's vectors by one of two routes, chosen by a fixed cost
rule from d, the rank r, the spectral half-width R of H and the grid times:

* a Chebyshev series (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)):
  exp(-i H t) psi = sum_k a_k(t) T_k(H_s) psi, with Bessel coefficients
  from Miller's backward recurrence.  The vectors T_k(H_s) psi do not
  depend on t, so one recurrence of about R max|t| products of H with the
  r vectors serves every grid point.  It needs an interval that holds H's
  spectrum: a short Lanczos run estimates it, and two Cholesky
  factorizations prove it, widening it until they exist.  An unproven
  interval 5% too narrow leaves amplitude errors of order 1e-10 that the
  orthonormality check does not see.
* one eigendecomposition of H, which is cheaper for high rank, long spans,
  many grid points and small d.

The route depends only on the inputs, so the report bytes do too.  On
either route the value at one time does not depend on the other grid
points.

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
    _spectral_entropy,
    check_ensemble,
    purity,
    require_hermitian,
)
from .projections import ProjectionSpec, TypeIProjection, check_compatible
from .relativity import DefectReport, _checked_report, _lemma1_in_basis, _lemma2_in_basis
from .structures import Structure, _reduce, transition_matrix, vector_to_structure_basis

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
    """Hermitian generator of the unitary dynamics, stored as (H + H^H) / 2."""

    mat: np.ndarray

    def __post_init__(self):
        mat = require_hermitian(self.mat, name="hamiltonian")
        mat = (mat + mat.conj().T) / 2
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
    and orthonormal vectors.  The state at t = 0 is rho_0, and only its r
    vectors are evolved, by one of two routes that :func:`_chebyshev_wins`
    picks from d, r, the spectral half-width R of H and the grid times:

    * Chebyshev, for low rank and short spans: psi(t) = sum_k a_k(t)
      T_k(H_s) psi, H_s = (H - center) / R, where a_k(t) comes from the
      Bessel values J_k(R t).  One recurrence T_{k+1} = 2 H_s T_k - T_{k-1},
      one product H @ Psi per term, runs to the longest series of the grid
      and serves every point.  The series converges only on an interval
      that holds the spectrum, so the interval estimated by a short Lanczos
      run is proven first: hi I - H and H - lo I must both have a Cholesky
      factorization, and a bound that fails is widened and checked again.
      The rule is asked again with the proven interval, which can be wider.
    * eigh, for high rank, long spans and many points: from one
      eigendecomposition H = V diag(w) V^H, psi_k(t) = V (exp(-i w t) *
      V^H psi_k).

    Both routes evolve every point from t = 0 at its absolute time, so a
    point's value does not depend on the other grid times; refining the
    grid leaves the common points unchanged unless it changes the route.
    A maximally mixed ensemble (r = d, equal weights) is I/d at every time
    and is not evolved.  At each time the evolved vectors must stay
    orthonormal, else :class:`InvariantViolation`; then rho_t has the
    weights as its spectrum, and S(rho_t) is their entropy.  Both reduced
    trajectories come from the same state; no projection feeds back into
    the dynamics.  The commutator defect is recorded as NaN unless both
    specs are type_i (its defined scope).

    Per pair, the columns come from one of two kernels, each validating
    every reduction once and agreeing with the public functions to roundoff:

    * two groupings of one layout with type_i specs (the pairs that
      ``dynamics-trace`` configs build): the closed forms of
      :class:`_GroupingPair` on the vectors' factor tensors;
    * every other pair: the A-basis Lemma 1 and Lemma 2 kernels of
      :mod:`relativity`, which the lemma sweeps run too (:class:`_BasisPair`).
    """
    weights, vectors = check_ensemble(*state)
    if not (vectors.shape[0] == h.dim == s_a.total_dim == s_b.total_dim):
        raise ValueError("trajectory: state, hamiltonian and structure dims do not match")
    check_compatible(s_a, spec_a)
    check_compatible(s_b, spec_b)
    if (
        isinstance(spec_a, TypeIProjection)
        and isinstance(spec_b, TypeIProjection)
        and s_a.grouping is not None
        and s_b.grouping is not None
        and s_a.grouping[0] == s_b.grouping[0]
    ):
        pair = _GroupingPair(s_a.grouping, spec_a.rho_ref, s_b.grouping, spec_b.rho_ref)
    else:
        pair = _BasisPair(s_a, spec_a, s_b, spec_b)
    return _ensemble_points(weights, vectors, h, grid, pair)


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
    and ``ref_blocks`` the e-diagonal blocks (g, g, e) of R.  Like
    :func:`cross_relevance_matrix`, the complement's E'-diagonal blocks are
    formed and subtracted before they are summed."""
    dh = red_from.shape[0] // da
    red_blocks = np.einsum("xhyh->xyh", red_from.reshape(da, dh, da, dh))
    complement = blocks_to - np.einsum("xyh,uve->xuyvhe", red_blocks, ref_blocks).reshape(blocks_to.shape)
    return _checked_report(complement.sum(axis=-1), "cross_relevance_matrix")


class _BasisPair:
    """Any two structures with any specs.  At each time the weighted
    vectors change to A's product basis and, through
    ``v = transition_matrix(s_b, s_a)``, to B's; the state formed in each
    basis feeds the Lemma 1 and Lemma 2 kernels that the lemma sweeps run."""

    def __init__(self, s_a, spec_a, s_b, spec_b):
        self.pair = (s_a, spec_a, s_b, spec_b)
        self.v = transition_matrix(s_b, s_a)
        self.both_type_i = isinstance(spec_a, TypeIProjection) and isinstance(spec_b, TypeIProjection)

    def point(self, t: float, y: np.ndarray, entropy_total: float) -> TrajectoryPoint:
        """The columns at time ``t``, as :meth:`_GroupingPair.point`."""
        s_a, _, s_b, _ = self.pair
        y_a = vector_to_structure_basis(y, s_a)
        y_b = self.v.conj().T @ y_a
        rho_a, rho_b = y_a @ y_a.conj().T, y_b @ y_b.conj().T
        rep_ab, rep_ba, _ = _lemma1_in_basis(rho_a, rho_b, self.v, *self.pair)
        lemma2 = _lemma2_in_basis(rho_a, rho_b, self.v, *self.pair)[0] if self.both_type_i else math.nan
        red_s, red_sp = _reduce(rho_a, s_a, "S"), _reduce(rho_b, s_b, "S")
        r = y.shape[1]
        return TrajectoryPoint(
            t=float(t),
            lemma1_a_to_b=rep_ab.trace_norm_defect,
            lemma1_b_to_a=rep_ba.trace_norm_defect,
            lemma1_trace_residual_max=max(rep_ab.trace_residual, rep_ba.trace_residual),
            lemma2_defect=lemma2,
            mi_a=_mutual_information(y_a.T.reshape(r, s_a.dim_s, s_a.dim_e), red_s, entropy_total),
            mi_b=_mutual_information(y_b.T.reshape(r, s_b.dim_s, s_b.dim_e), red_sp, entropy_total),
            purity_s=purity(red_s),
            purity_sprime=purity(red_sp),
        )


def _ensemble_points(
    weights, vectors, h: Hamiltonian, grid: TimeGrid, pair: _GroupingPair | _BasisPair
) -> tuple[TrajectoryPoint, ...]:
    entropy_total = _spectral_entropy(weights)
    scale = np.sqrt(weights)
    return tuple(
        pair.point(t, psi_t * scale, entropy_total)
        for t, psi_t in zip(grid.times(), _evolved_vectors(weights, vectors, h.mat, grid))
    )


# Propagation constants.  FIXED_PRODUCTS and EIGH_PRODUCTS_PER_DIM come from
# timing eigh(H) against the Chebyshev route on a 2-vCPU x86-64 host,
# OpenBLAS at two threads; ACCUMULATE_PRODUCTS is an estimate that the same
# timing checked (see _chebyshev_wins).
LANCZOS_STEPS = 20
LANCZOS_SEED = 0x5EED  # a fixed start vector: the interval, so the bytes, depend on H alone
INTERVAL_PAD = 0.01  # widening of the Lanczos estimate, relative to its half-width
CHEBYSHEV_TAIL = 1e-18  # the series ends where |J_k| falls below this
FIXED_PRODUCTS = 80  # the Lanczos run with its reorthogonalization, in H @ psi products
EIGH_PRODUCTS_PER_DIM = 2.0  # eigh(H) and the two Cholesky proofs, in H @ psi products per unit of d
ACCUMULATE_PRODUCTS = 10.0  # adding a_k T_k(H_s) Psi to one point, in H @ psi products per unit of r / d
POINTS_BLOCK_BYTES = 1 << 24  # the evolved vectors that one Chebyshev recurrence accumulates


def _evolved_vectors(weights: np.ndarray, vectors: np.ndarray, h: np.ndarray, grid: TimeGrid):
    """The ensemble's vectors at each grid time, in time order, each checked
    orthonormal, by the route that :func:`_chebyshev_wins` picks.  A
    maximally mixed ensemble (r = d, equal weights) is I/d at every time:
    its vectors are returned unevolved.  The rule is asked three times: with
    R = 0 (the cheapest any interval allows; no Lanczos run when even that
    loses), with the Lanczos estimate, and with the proven interval, which
    can be wider."""
    dim, rank = vectors.shape
    times = grid.times()
    if rank == dim and np.all(weights == weights[0]):
        return [vectors] * times.size
    route = None
    if _chebyshev_wins(dim, rank, 0.0, times):
        interval = _lanczos_interval(h)
        if _chebyshev_wins(dim, rank, (interval[1] - interval[0]) / 2, times):
            interval = _proven_interval(h, *interval)
            if _chebyshev_wins(dim, rank, (interval[1] - interval[0]) / 2, times):
                route = _chebyshev_route(vectors, h, times, interval)
    if route is None:
        route = _eigh_route(vectors, h, times)
    return (_checked_orthonormal(psi_t, t) for t, psi_t in zip(times, route))


def _checked_orthonormal(psi_t: np.ndarray, t: float) -> np.ndarray:
    defect = _orthonormality_defect(psi_t)
    if defect > UNITARITY_TOL:
        raise InvariantViolation(
            f"trajectory: evolved vectors are not orthonormal at t={float(t):.6g}"
            f" (defect {defect:.3e} > {UNITARITY_TOL:.0e})"
        )
    return psi_t


def _series_length(x: np.ndarray) -> np.ndarray:
    """About the number of terms :func:`_bessel_j` keeps for x = R |t|
    (within 1-4 terms for x = 0.5-8000)."""
    return x + 12 * np.cbrt(x) + 4


def _chebyshev_wins(dim: int, rank: int, half: float, times: np.ndarray) -> bool:
    """Whether the Chebyshev route should cost less than one
    eigendecomposition of H, from the dimension, the rank, the spectral
    half-width R and the grid times.

    Costs are counted in products of H with one vector.  A point at time t
    takes about x + 12 x^(1/3) + 4 terms, x = R |t|; one recurrence per
    block of points (see :func:`_chebyshev_route`) runs to the block's
    longest series, one product H @ Psi per term.  With r > 1 columns a
    product costs as much as 2 + r / 6 products with one vector, and adding
    one term to one point costs ACCUMULATE_PRODUCTS * r / d.  eigh costs
    EIGH_PRODUCTS_PER_DIM * d net of the two Cholesky proofs.  Over 60
    timed cases (d = 128-1024, r = 1, 4 and 16, five grids on [-3, 20] with
    7-128 steps) the rule picked the faster route in 59; the miss was a tie
    at d = 128."""
    lengths = _series_length(half * np.abs(np.asarray(times, dtype=float)))
    block = _points_per_block(dim, rank)
    recurrence = sum(lengths[i : i + block].max() for i in range(0, lengths.size, block))
    per_product = 1.0 if rank == 1 else 2.0 + rank / 6
    accumulate = ACCUMULATE_PRODUCTS * rank / dim * lengths.sum()
    return bool(FIXED_PRODUCTS + recurrence * per_product + accumulate <= EIGH_PRODUCTS_PER_DIM * dim)


def _points_per_block(dim: int, rank: int) -> int:
    return max(1, POINTS_BLOCK_BYTES // (16 * dim * rank))


def _eigh_route(vectors: np.ndarray, h: np.ndarray, times: np.ndarray):
    """From one eigendecomposition H = V diag(w) V^H, the vectors at the
    absolute times ``times``: psi_k(t) = V (exp(-i w t) * V^H psi_k)."""
    w, v = np.linalg.eigh(h)
    coeffs = v.conj().T @ vectors
    for t in times:
        yield v @ (_phases(w, t)[:, None] * coeffs)


def _chebyshev_route(vectors: np.ndarray, h: np.ndarray, times: np.ndarray, interval: tuple[float, float]):
    """The vectors at the absolute times ``times``: psi(t) = exp(-i H t)
    psi = sum_k a_k(t) T_k(H_s) psi, H_s = (H - center) / half on
    ``interval``, which must hold the spectrum of H.  The vectors T_k(H_s)
    psi do not depend on t, so one recurrence serves a block of points, as
    many as POINTS_BLOCK_BYTES of evolved vectors hold.  Each point sums
    its own terms in order k, so its value does not depend on the other
    grid points."""
    lo, hi = interval
    center, half = (hi + lo) / 2, (hi - lo) / 2
    block = _points_per_block(*vectors.shape)
    for start in range(0, times.size, block):
        coeffs = [_chebyshev_coefficients(center, half, t) for t in times[start : start + block]]
        yield from _chebyshev_sums(h, center, half, vectors, coeffs)


def _chebyshev_coefficients(center: float, half: float, t: float) -> np.ndarray:
    """a_k with exp(-i H t) = sum_k a_k T_k((H - center) / half) for a
    spectrum inside [center - half, center + half], from the Jacobi-Anger
    expansion exp(-i x y) = J_0(x) + 2 sum_{k>=1} (-i)^k J_k(x) T_k(y):
    a_k = exp(-i center t) (2 - [k = 0]) (-i sgn t)^k J_k(half |t|),
    truncated where |J_k| < CHEBYSHEV_TAIL."""
    j = _bessel_j(half * abs(t))
    powers = np.array([1, -1j, -1, 1j])[np.arange(j.size) % 4]
    if t < 0:
        powers = powers.conj()
    a = powers * j * 2
    a[0] /= 2
    return a * np.exp(-1j * center * t)


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), J_1(x), ... for x >= 0, up to the last order with |J_k(x)| >=
    CHEBYSHEV_TAIL, by Miller's backward recurrence J_{k-1} = (2k / x) J_k -
    J_{k+1}, in ratio form so that nothing overflows for small x:
    r_k = J_k / J_{k-1} = x / (2k - x r_{k+1}), started from r = 0 far above
    the orders kept.  The products of the ratios give J_k / J_0, and the
    identity J_0 + 2 (J_2 + J_4 + ...) = 1 gives J_0."""
    n = int(x + 13 * x ** (1 / 3)) + 30  # past the Airy-type edge at k = x: J_n(x) < CHEBYSHEV_TAIL
    m = 2 * ((n + int(math.sqrt(160.0 * n)) + 1) // 2)
    ratios = np.empty(m)
    r = 0.0
    for k in range(m, 0, -1):
        r = x / (2 * k - x * r)
        ratios[k - 1] = r
    to_j0 = np.concatenate(([1.0], np.cumprod(ratios)))
    j = to_j0[:n] / (1.0 + 2 * to_j0[2::2].sum())
    return j[: np.flatnonzero(np.abs(j) >= CHEBYSHEV_TAIL)[-1] + 1]


def _chebyshev_sums(h: np.ndarray, center: float, half: float, y: np.ndarray, coeffs: list[np.ndarray]):
    """sum_k c[k] T_k((H - center) / half) y for each coefficient set c in
    ``coeffs``, in order, from one recurrence T_{k+1}(s) y = 2 s T_k(s) y -
    T_{k-1}(s) y that runs to the longest set: one product with H per term."""
    sizes = np.array([c.size for c in coeffs])
    order = np.argsort(-sizes, kind="stable")  # longest first: the sets still adding at term k are a prefix
    a = np.zeros((sizes.size, sizes.max()), dtype=np.complex128)
    for row, i in enumerate(order):
        a[row, : sizes[i]] = coeffs[i]
    live = np.searchsorted(-sizes[order], -np.arange(a.shape[1]), side="left")
    out = a[:, 0, None, None] * y
    prev, cur = None, y
    for k in range(1, a.shape[1]):  # no term past k = 0 when x = half |t| is negligible, as for H = c I
        nxt = h @ cur
        nxt -= center * cur
        if prev is None:
            nxt /= half
        else:
            nxt *= 2 / half
            nxt -= prev
        prev, cur = cur, nxt
        out[: live[k]] += a[: live[k], k, None, None] * cur
    rows = np.empty_like(order)
    rows[order] = np.arange(order.size)
    return [out[row] for row in rows]


def _lanczos_interval(h: np.ndarray) -> tuple[float, float]:
    """An estimate [lo, hi] of H's extreme eigenvalues: the extreme Ritz
    values of LANCZOS_STEPS Lanczos steps (full reorthogonalization, a
    fixed-seed start vector), each moved out by its residual norm
    |beta_m s_m| and by INTERVAL_PAD of the half-width.  Not a bound:
    :func:`_proven_interval` checks it."""
    dim = h.shape[0]
    q = np.empty((dim, min(LANCZOS_STEPS, dim)), dtype=np.complex128)
    v = RandomStream(LANCZOS_SEED).complex_normals(dim)
    alphas, betas = [], []
    for j in range(q.shape[1]):
        q[:, j] = v / np.linalg.norm(v)
        w = h @ q[:, j]
        alphas.append(float(np.vdot(q[:, j], w).real))
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            w -= q[:, : j + 1] @ (w.conj() @ q[:, : j + 1]).conj()
        betas.append(float(np.linalg.norm(w)))
        if betas[-1] <= 1e-12 * max(np.abs(alphas).max(), max(betas[:-1], default=0.0)):
            break  # the Krylov space is invariant: the Ritz values are eigenvalues
        v = w
    k = len(alphas)
    t = np.diag(alphas) + np.diag(betas[: k - 1], 1) + np.diag(betas[: k - 1], -1)
    theta, s = np.linalg.eigh(t)
    residual = np.abs(betas[-1] * s[-1])
    lo, hi = theta[0] - residual[0], theta[-1] + residual[-1]
    # the floor keeps a scalar H's interval wider than roundoff
    pad = INTERVAL_PAD * max((hi - lo) / 2, 1e-6 * max(abs(lo), abs(hi)))
    return lo - pad, hi + pad


def _proven_interval(h: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened until it provably holds H's spectrum: hi I - H and
    H - lo I must both have a Cholesky factorization, that is, be positive
    definite.  A bound that fails moves out by a step that doubles each
    time; no bound needs to move past the largest absolute row sum of H,
    which bounds every eigenvalue."""
    step = INTERVAL_PAD * (hi - lo)
    return (-_proven_bound(h, -lo, -1.0, step), _proven_bound(h, hi, 1.0, step))


def _proven_bound(h: np.ndarray, edge: float, sign: float, step: float) -> float:
    """The smallest edge tried, starting from ``edge`` and moving up, with
    edge I - sign H positive definite: a proven upper bound on the spectrum
    of sign H."""
    bound = None
    while not _positive_definite(h, edge, sign):
        if bound is None:
            bound = float(np.abs(h).sum(axis=1).max())
            step = step or bound
        if edge >= bound:
            return edge
        edge, step = min(edge + step, bound), 2 * step
    return edge


def _positive_definite(h: np.ndarray, edge: float, sign: float) -> bool:
    """Whether edge I - sign H has a Cholesky factorization."""
    a = h * -sign
    a.flat[:: h.shape[0] + 1] += edge
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True
