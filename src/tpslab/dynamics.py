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
    _checked_spectrum,
    _propagator_from_eigh,
    _spectral_entropy,
    as_matrix,
    check_density_matrix,
    eigh,
    kron,
    purity,
    require_hermitian,
)
from .projections import ProjectionSpec, TypeIProjection, _project_in_basis, check_compatible
from .relativity import _commutator_defect, _reduce_complement, _split_entropies
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


class RandomStream:
    """Seeded sampler for the random ensembles used across the package."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform_pairs(self, n: int) -> np.ndarray:
        return self._gen.random((n, 2))

    def complex_normals(self, n: int) -> np.ndarray:
        """n standard complex Gaussians (re, im independent N(0, 1))."""
        u = self.uniform_pairs(n)
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        theta = 2.0 * np.pi * u[:, 1]
        return r * np.cos(theta) + 1j * r * np.sin(theta)

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.complex_normals(rows * cols).reshape(rows, cols)

    def gue(self, dim: int) -> np.ndarray:
        """(G + G^H) / 2 for a complex Gaussian G."""
        _check_dim(dim)
        g = self.complex_matrix(dim, dim)
        return (g + g.conj().T) / 2

    def haar_pure(self, dim: int) -> np.ndarray:
        """Normalized complex Gaussian vector: Haar-uniform on the sphere."""
        _check_dim(dim)
        v = self.complex_normals(dim)
        return v / np.linalg.norm(v)

    def ginibre_density(self, dim: int, rank: int) -> np.ndarray:
        """G G^H / tr(G G^H) for a dim x rank complex Gaussian G."""
        if not 1 <= rank <= dim:
            raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
        g = self.complex_matrix(dim, rank)
        m = g @ g.conj().T
        m /= np.trace(m).real
        return (m + m.conj().T) / 2

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
    """Hermitian generator, optionally with local/interaction parts relative
    to a named structure."""

    mat: np.ndarray
    split: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    structure: Structure | None = None

    def __post_init__(self):
        mat = require_hermitian(self.mat, name="hamiltonian").copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        if self.split is None:
            return
        if self.structure is None:
            raise ValueError("hamiltonian split requires its structure")
        s = self.structure
        h_s, h_e, h_se = (as_matrix(part, f"hamiltonian split part {i}") for i, part in enumerate(self.split))
        if h_s.shape[0] != s.dim_s or h_e.shape[0] != s.dim_e or h_se.shape[0] != s.total_dim:
            raise ValueError("hamiltonian split parts do not match the structure's dims")
        recon = kron(h_s, np.eye(s.dim_e)) + kron(np.eye(s.dim_s), h_e) + h_se
        delta = float(np.abs(to_structure_basis(mat, s) - recon).max())
        scale = max(1.0, float(np.abs(mat).max()))
        if delta > 1e-10 * scale:
            raise ValueError(f"hamiltonian split does not reconstruct the total (defect {delta:.3e})")
        object.__setattr__(self, "split", (h_s, h_e, h_se))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_split(cls, h_s, h_e, h_se, structure: Structure) -> "Hamiltonian":
        """Assemble local system/environment parts plus interaction, given in
        the structure's product basis."""
        recon = kron(h_s, np.eye(structure.dim_e)) + kron(np.eye(structure.dim_s), h_e) + h_se
        return cls(from_structure_basis(recon, structure), split=(h_s, h_e, h_se), structure=structure)


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
    rho0,
    h: Hamiltonian,
    grid: TimeGrid,
    s_a: Structure,
    spec_a: ProjectionSpec,
    s_b: Structure,
    spec_b: ProjectionSpec,
) -> tuple[TrajectoryPoint, ...]:
    """Evolve once and evaluate every cross-split functional on the same
    state at each grid time; one point per grid time, in time order.

    Propagation uses a single eigendecomposition evaluated at absolute times,
    so the points are independent of grid refinement and the endpoint matches a
    one-shot evolve.  Both reduced trajectories come from the same total
    state; no projection feeds back into the dynamics.  The commutator
    defect is recorded as NaN unless both specs are type_i (its defined
    scope).

    The inputs are validated here, once.  At each time the evolved state is
    validated once and its spectrum gives S(rho_t); each structure changes
    basis once and yields both reductions and the single projection, which
    serves both the complement and the commutator.  The values equal those
    of the public functions called one by one.
    """
    rho0 = check_density_matrix(rho0)
    if not (rho0.shape[0] == h.dim == s_a.total_dim == s_b.total_dim):
        raise ValueError("trajectory: state, hamiltonian and structure dims do not match")
    check_compatible(s_a, spec_a)
    check_compatible(s_b, spec_b)
    both_type_i = isinstance(spec_a, TypeIProjection) and isinstance(spec_b, TypeIProjection)

    w, v = eigh(h.mat, name="hamiltonian")
    points = []
    for t in grid.times():
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
