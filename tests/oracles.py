"""The paper's constructions that no CLI run uses, kept as test oracles.

The type II and type III projection families, the mixed-state
expansion-coefficient route of Lemma 1 (a separable ensemble), the
expansion coefficient of one product vector, the reference split itself,
a structure's dense unitary, and the input-checking Kronecker product and
Hermiticity defect.  They build on ``tpslab``'s functions and kernels; no
module under ``src/`` imports this one.  The package's projection kernels
and ``trajectory`` know type_i only and reject any other spec, so a
projection family here gives its rule as ``terms()``, and
:func:`project_terms` sums them densely for every family, type_i included;
:func:`idempotency_defect` and :func:`terms_relevance_defect` project by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpslab.linalg import (
    InvariantViolation,
    _hermiticity_defect,
    _kron,
    _partial_trace,
    as_matrix,
    check_density_matrix,
    eigh,
    require_hermitian,
    require_square,
    trace_norm,
)
from tpslab.projections import TypeIProjection
from tpslab.relativity import _checked_report
from tpslab.structures import Structure, from_structure_basis, to_structure_basis, transition_matrix


def hermiticity_defect(m) -> float:
    """Max-entry distance to the adjoint, relative to the largest entry."""
    return _hermiticity_defect(require_square(m))


def kron(a, b) -> np.ndarray:
    """Kronecker product; composite row index is ``i_a * rows_b + i_b``."""
    return _kron(as_matrix(a, "kron operand a"), as_matrix(b, "kron operand b"))


def identity_structure(dim_s: int, dim_e: int) -> Structure:
    """The reference split itself: the grouping ``(0,)`` of the layout
    ``(dim_s, dim_e)``, so both dims must be at least 2."""
    return Structure(dim_s, dim_e, grouping=((dim_s, dim_e), (0,)))


def dense_unitary(s: Structure) -> np.ndarray:
    """The structure's unitary as a dense matrix: the stored unitary, or for
    a grouping the permutation with ones at ``[s.basis[k], k]``."""
    if s.grouping is None:
        return s.basis
    w = np.zeros((s.total_dim, s.total_dim), dtype=np.complex128)
    w[s.basis, np.arange(s.total_dim)] = 1.0
    w.setflags(write=False)
    return w


def d_coefficient(s: Structure, i: int, alpha: int, m: int, n: int) -> complex:
    """Expansion coefficient of the reference product vector ``|i, alpha>``
    in the structure's product basis vector ``|m, n>``.

    The reference register is split with the structure's own factor
    dimensions.  Summing the coefficient against its conjugate over (m, n)
    reproduces Kronecker deltas in (i, alpha): that is unitarity of
    :func:`dense_unitary`.
    """
    for value, bound, name in (
        (i, s.dim_s, "i"),
        (alpha, s.dim_e, "alpha"),
        (m, s.dim_s, "m"),
        (n, s.dim_e, "n"),
    ):
        if not 0 <= value < bound:
            raise ValueError(f"d_coefficient: index {name}={value} out of range [0, {bound})")
    row, col = i * s.dim_e + alpha, m * s.dim_e + n
    entry = complex(s.basis[col] == row) if s.grouping is not None else s.basis[row, col]
    return complex(np.conj(entry))


_ORTHO_TOL = 1e-10


def _check_projector(p, name: str) -> np.ndarray:
    p = require_hermitian(p, name=name)
    idem = float(np.abs(p @ p - p).max())
    if idem > _ORTHO_TOL:
        raise ValueError(f"{name}: not idempotent (defect {idem:.3e})")
    return p


def _check_orthogonal(mats: list[np.ndarray], message: str) -> None:
    """Reject the first pair ``a < b`` with a nonzero product ``mats[a] @ mats[b]``;
    ``message`` is formatted with ``a`` and ``b``."""
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if float(np.abs(mats[a] @ mats[b]).max()) > _ORTHO_TOL:
                raise ValueError(message.format(a, b))


def _check_resolution(projectors: list[np.ndarray], what: str) -> None:
    """Reject projectors whose sum is not the identity."""
    completeness = float(np.abs(sum(projectors) - np.eye(projectors[0].shape[0])).max())
    if completeness > _ORTHO_TOL:
        raise ValueError(f"{what} do not resolve the identity (defect {completeness:.3e})")


def _frozen(mats: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Read-only copies, so that a validated family cannot change later."""
    out = tuple(m.copy() for m in mats)
    for m in out:
        m.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TypeIIProjection:
    """Weight orthogonal system sectors with environment states whose
    supports are mutually orthogonal.

    ``bins`` is a sequence of ``(system_projector, environment_state)``
    pairs; the system projectors must resolve the identity.
    """

    bins: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.bins:
            raise ValueError("type_ii: at least one bin required")
        checked = []
        for idx, (p_s, rho_e) in enumerate(self.bins):
            p_s = _check_projector(p_s, f"type_ii system projector {idx}")
            rho_e = check_density_matrix(rho_e, name=f"type_ii environment state {idx}")
            checked.append((p_s, rho_e))
        dim_s = checked[0][0].shape[0]
        dim_e = checked[0][1].shape[0]
        for idx, (p_s, rho_e) in enumerate(checked):
            if p_s.shape[0] != dim_s or rho_e.shape[0] != dim_e:
                raise ValueError(f"type_ii: bin {idx} has inconsistent factor dimensions")
        system, environment = [p for p, _ in checked], [rho for _, rho in checked]
        _check_orthogonal(system, "type_ii: system projectors {} and {} are not orthogonal")
        _check_orthogonal(environment, "type_ii: environment states {} and {} do not have orthogonal supports")
        _check_resolution(system, "type_ii: system projectors")
        object.__setattr__(self, "bins", tuple(zip(_frozen(system), _frozen(environment))))

    @property
    def dim_s(self) -> int:
        return self.bins[0][0].shape[0]

    @property
    def dim_e(self) -> int:
        return self.bins[0][1].shape[0]

    def terms(self) -> tuple[tuple[np.ndarray, None, np.ndarray], ...]:
        """One term per bin, P_k Tr_E(m) (x) rho_k, for the bin's system
        projector P_k and environment state rho_k, in the form of
        :func:`project_terms`."""
        return tuple((p_s, None, rho_e) for p_s, rho_e in self.bins)


@dataclass(frozen=True, eq=False)
class TypeIIIProjection:
    """Pinch the environment over a complete orthogonal set of rank-1
    projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.projectors:
            raise ValueError("type_iii: at least one projector required")
        checked = []
        for idx, p in enumerate(self.projectors):
            p = _check_projector(p, f"type_iii projector {idx}")
            tr = float(np.trace(p).real)
            if abs(tr - 1.0) > _ORTHO_TOL:
                raise ValueError(f"type_iii: projector {idx} is not rank-1 (trace {tr:.6g})")
            checked.append(p)
        dim_e = checked[0].shape[0]
        if any(p.shape[0] != dim_e for p in checked):
            raise ValueError("type_iii: projectors have inconsistent dimensions")
        _check_orthogonal(checked, "type_iii: projectors {} and {} are not orthogonal")
        _check_resolution(checked, "type_iii: projectors")
        object.__setattr__(self, "projectors", _frozen(checked))

    @property
    def dim_e(self) -> int:
        return self.projectors[0].shape[0]

    def terms(self) -> tuple[tuple[None, np.ndarray, np.ndarray], ...]:
        """One term per projector p, Tr_E((I (x) p) m) (x) p, in the form of
        :func:`project_terms`."""
        return tuple((None, p_e, p_e) for p_e in self.projectors)


def computational_type_iii(dim_e: int) -> TypeIIIProjection:
    """The canonical-basis pinching family on an environment of the given dim."""
    eye = np.eye(dim_e, dtype=np.complex128)
    return TypeIIIProjection(tuple(np.outer(eye[:, i], eye[:, i]) for i in range(dim_e)))


def project_terms(mat, s: Structure, spec) -> np.ndarray:
    """The projection of any family on an operator in reference
    coordinates, summed densely in the structure's product basis: P m =
    sum_k sigma_k (x) R_k with sigma_k = a_k Tr_E((I (x) b_k) m), over the
    spec's ``terms()`` ``(a_k, b_k, R_k)``; an ``a_k`` or ``b_k`` of None is
    the identity.  type_i has the one term Tr_E(m) (x) rho_ref."""
    m = to_structure_basis(mat, s)
    ds, de = s.dim_s, s.dim_e
    terms = ((None, None, spec.rho_ref),) if isinstance(spec, TypeIProjection) else spec.terms()
    out = None
    for a, b, ref in terms:
        if b is None:
            sigma = _partial_trace(m, ds, de, "A")
        else:
            sigma = np.einsum("ef,sfte->st", b, m.reshape(ds, de, ds, de))
        term = _kron(sigma if a is None else a @ sigma, ref)
        out = term if out is None else out + term
    return from_structure_basis(out, s)


def idempotency_defect(rho, s: Structure, spec) -> float:
    """Trace norm of P(P rho) - P rho, for any family."""
    p1 = project_terms(check_density_matrix(rho), s, spec)
    return trace_norm(project_terms(p1, s, spec) - p1)


def terms_relevance_defect(rho, s: Structure, spec) -> float:
    """Trace norm of Tr_E(rho - P rho), taken in the structure's own basis,
    for any family: zero up to roundoff.  The dense twin of
    ``scenarios._same_structure_reduction``."""
    q_s = to_structure_basis(rho - project_terms(rho, s, spec), s)
    return trace_norm(_partial_trace(q_s, s.dim_s, s.dim_e, "A"))


class SeparableEnsemble:
    """Convex mixture of product states on a bipartite split.

    ``weights[i]`` multiplies ``system_factors[i] (x) environment_factors[i]``;
    all factors are given in the split's own product coordinates.  Spectral
    data of every factor is precomputed at construction and verified to
    reconstruct its matrix.
    """

    def __init__(self, weights, system_factors, environment_factors):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("ensemble weights must be a nonempty 1-D array")
        if len(system_factors) != weights.size or len(environment_factors) != weights.size:
            raise ValueError("ensemble weights and factor lists must have equal length")
        if np.any(weights <= 0):
            raise ValueError("ensemble weights must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {total:.15g}, expected 1 within 1e-12")
        sys_f = tuple(
            check_density_matrix(m, name=f"ensemble system factor {i}")
            for i, m in enumerate(system_factors)
        )
        env_f = tuple(
            check_density_matrix(m, name=f"ensemble environment factor {i}")
            for i, m in enumerate(environment_factors)
        )
        dim_s = sys_f[0].shape[0]
        dim_e = env_f[0].shape[0]
        if any(m.shape[0] != dim_s for m in sys_f) or any(m.shape[0] != dim_e for m in env_f):
            raise ValueError("ensemble factors have inconsistent dimensions")
        self.weights = weights
        self.weights.setflags(write=False)
        self.system_factors = sys_f
        self.environment_factors = env_f
        self.s_spectra = tuple(self._spectral_cache(m, "system") for m in sys_f)
        self.e_spectra = tuple(self._spectral_cache(m, "environment") for m in env_f)

    @staticmethod
    def _spectral_cache(m: np.ndarray, which: str) -> tuple[np.ndarray, np.ndarray]:
        w, v = eigh(m, name=f"ensemble {which} factor")
        recon = (v * w) @ v.conj().T
        defect = float(np.abs(recon - m).max())
        if defect > 1e-10:
            raise InvariantViolation(
                f"ensemble {which} factor spectral cache does not reconstruct"
                f" (defect {defect:.3e})"
            )
        return w, v

    @property
    def dim_s(self) -> int:
        return self.system_factors[0].shape[0]

    @property
    def dim_e(self) -> int:
        return self.environment_factors[0].shape[0]

    def reduced_system(self) -> np.ndarray:
        """Environment-traced mixture, in split coordinates."""
        out = np.zeros((self.dim_s, self.dim_s), dtype=np.complex128)
        for lam, rho_s in zip(self.weights, self.system_factors):
            out += lam * rho_s
        return out

    def assemble_in_split(self) -> np.ndarray:
        """Total density matrix in the split's product coordinates."""
        dim = self.dim_s * self.dim_e
        out = np.zeros((dim, dim), dtype=np.complex128)
        for lam, rho_s, rho_e in zip(self.weights, self.system_factors, self.environment_factors):
            out += lam * kron(rho_s, rho_e)
        return out

    def assemble(self, s: Structure) -> np.ndarray:
        """Total density matrix in reference coordinates for the given split."""
        if s.dim_s != self.dim_s or s.dim_e != self.dim_e:
            raise ValueError(
                f"ensemble split {self.dim_s} x {self.dim_e} does not match structure"
                f" {s.dim_s} x {s.dim_e}"
            )
        return check_density_matrix(from_structure_basis(self.assemble_in_split(), s))


def defect_matrix_mixed_coeffs(
    ens: SeparableEnsemble, s_from: Structure, rho_ref, s_to: Structure
) -> np.ndarray:
    """Cross-split defect matrix of a separable mixture under a type_i
    projection, assembled from expansion coefficients.

    First quadratic sum runs over the per-term spectral data of the mixture;
    the second over the eigendata of the traced mixture and of the reference
    state.  Agrees entry-wise with :func:`cross_relevance_matrix` on the
    assembled state.
    """
    rho_ref = check_density_matrix(rho_ref, name="rho_ref")
    if s_from.dim_s != ens.dim_s or s_from.dim_e != ens.dim_e:
        raise ValueError("defect_matrix_mixed_coeffs: ensemble does not match s_from split")
    if s_from.total_dim != s_to.total_dim:
        raise ValueError("defect_matrix_mixed_coeffs: structure dimensions differ")
    if rho_ref.shape[0] != s_from.dim_e:
        raise ValueError(
            f"defect_matrix_mixed_coeffs: rho_ref dim {rho_ref.shape[0]} does not match"
            f" environment dim {s_from.dim_e}"
        )
    ds_to, de_to = s_to.dim_s, s_to.dim_e
    t = transition_matrix(s_from, s_to)

    first = np.zeros((ds_to, ds_to), dtype=np.complex128)
    for lam, (p_s, chi), (p_e, phi) in zip(ens.weights, ens.s_spectra, ens.e_spectra):
        for m_i in range(p_s.size):
            for n_i in range(p_e.size):
                c = (t @ np.kron(chi[:, m_i], phi[:, n_i])).reshape(ds_to, de_to)
                first += lam * p_s[m_i] * p_e[n_i] * (c @ c.conj().T)

    kappa, varphi = eigh(ens.reduced_system(), name="traced ensemble")
    omega, psis = eigh(rho_ref, name="rho_ref")
    second = np.zeros((ds_to, ds_to), dtype=np.complex128)
    for p_i in range(kappa.size):
        for q_i in range(omega.size):
            d = (t @ np.kron(varphi[:, p_i], psis[:, q_i])).reshape(ds_to, de_to)
            second += kappa[p_i] * omega[q_i] * (d @ d.conj().T)

    lam_matrix = first - second
    return _checked_report(lam_matrix, "defect_matrix_mixed_coeffs").defect_matrix
