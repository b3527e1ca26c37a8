"""Cross-structure defect functionals.

A projection adapted to one system-environment split satisfies its own
relevance identity exactly; evaluated against a different split of the same
space it generically does not.  This module quantifies that failure through
two independent routes (direct partial traces, and explicit expansion
coefficients), measures the non-commutation of projections adapted to
different splits, and demonstrates the structure dependence of correlations
via mutual information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    InvariantViolation,
    _checked_spectrum,
    _spectral_entropy,
    check_density_matrix,
    check_pure_state,
    eigh,
    kron,
    schmidt,
    trace_norm,
)
from .projections import ProjectionSpec, TypeIProjection, _complement, _project_in_basis, apply_projection, check_compatible
from .structures import (
    Structure,
    _check_total_dim,
    _reduce,
    from_structure_basis,
    to_structure_basis,
    transition_matrix,
    vector_to_structure_basis,
)

TRACE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DefectReport:
    """Reduction of a complement over an alternate split's environment.

    ``defect_matrix`` lives on the alternate split's system factor; its
    trace vanishes identically, and ``trace_residual`` records how well.
    """

    defect_matrix: np.ndarray
    trace_norm_defect: float
    trace_residual: float


def _checked_report(d: np.ndarray, context: str) -> DefectReport:
    residual = float(abs(np.trace(d)))
    if residual > TRACE_RESIDUAL_TOL:
        raise InvariantViolation(
            f"{context}: trace residual {residual:.3e} exceeds {TRACE_RESIDUAL_TOL:.0e}"
        )
    return DefectReport(
        defect_matrix=d,
        trace_norm_defect=trace_norm(d, hermitian=True),
        trace_residual=residual,
    )


def cross_relevance_matrix(
    rho, s_from: Structure, spec: ProjectionSpec, s_to: Structure
) -> DefectReport:
    """Reduce the complement taken in one split over another split's
    environment.

    Identically zero when the two splits coincide; traceless for any pair of
    splits (asserted on every call).  A nonzero trace norm witnesses that the
    projection adapted to ``s_from`` discards information about ``s_to``'s
    system.
    """
    rho = check_density_matrix(rho)
    check_compatible(s_from, spec)
    q = to_structure_basis(_complement(rho, s_from, spec), s_to)
    return _checked_report(_reduce(q, s_to, "S"), "cross_relevance_matrix")


def _lemma1_in_basis(rho_a, rho_b, v, s_a, spec_a, s_b, spec_b) -> tuple[DefectReport, DefectReport, np.ndarray]:
    """Trusted kernel of both directions of :func:`cross_relevance_matrix`
    for one state, given as ``rho_a`` in A's product basis and ``rho_b`` in
    B's, with ``v = transition_matrix(s_b, s_a)``: operators change from A's
    to B's basis as ``v^H x v`` and back as ``v x v^H``.  Returns the A->B
    and B->A reports and the complement q_A in A's basis."""
    vh = v.conj().T
    # each complement is formed in its own structure's basis and changed to
    # the other's before it is reduced
    q_a = rho_a - _project_in_basis(rho_a, s_a, spec_a)
    q_b = rho_b - _project_in_basis(rho_b, s_b, spec_b)
    rep_ab = _checked_report(_reduce(vh @ q_a @ v, s_b, "S"), "cross_relevance_matrix A->B")
    rep_ba = _checked_report(_reduce(v @ q_b @ vh, s_a, "S"), "cross_relevance_matrix B->A")
    return rep_ab, rep_ba, q_a


def defect_matrix_pure_coeffs(
    psi, s_from: Structure, rho_ref, s_to: Structure
) -> np.ndarray:
    """Cross-split defect matrix of a pure state under a type_i projection,
    assembled from expansion coefficients instead of partial traces.

    Route: Schmidt data of the state in ``s_from``; eigendata of the
    reference state; transition coefficients of every Schmidt-by-eigenvector
    product vector into ``s_to``; then the explicit quadratic sums.  Agrees
    entry-wise with :func:`cross_relevance_matrix` on the corresponding
    projector -- the two routes share only elementary linear algebra.
    """
    psi = check_pure_state(psi)
    rho_ref = check_density_matrix(rho_ref, name="rho_ref")
    if psi.size != s_from.total_dim or s_from.total_dim != s_to.total_dim:
        raise ValueError("defect_matrix_pure_coeffs: dimensions do not match")
    if rho_ref.shape[0] != s_from.dim_e:
        raise ValueError(
            f"defect_matrix_pure_coeffs: rho_ref dim {rho_ref.shape[0]} does not match"
            f" environment dim {s_from.dim_e}"
        )
    de_from = s_from.dim_e
    ds_to, de_to = s_to.dim_s, s_to.dim_e

    psi_split = vector_to_structure_basis(psi, s_from)
    sd = schmidt(psi_split, s_from.dim_s, de_from)
    rank = sd.rank
    coeffs = sd.coeffs[:rank]
    probs = coeffs**2
    left = sd.left_vectors[:, :rank]
    right = sd.right_vectors[:, :rank]

    ref_probs, ref_vecs = eigh(rho_ref, name="rho_ref")

    # overlap of each Schmidt environment vector with each reference eigenvector
    overlap = (ref_vecs.conj().T @ right).T  # shape (rank, de_from)
    row_norms = np.abs(overlap) ** 2 @ np.ones(de_from)
    if float(np.abs(row_norms - 1.0).max()) > 1e-10:
        raise InvariantViolation(
            "defect_matrix_pure_coeffs: environment expansion rows are not normalized"
            f" (max defect {float(np.abs(row_norms - 1.0).max()):.3e})"
        )

    t = transition_matrix(s_from, s_to)
    dmats = np.empty((rank, de_from, ds_to, de_to), dtype=np.complex128)
    for i in range(rank):
        for a in range(de_from):
            vec = t @ np.kron(left[:, i], ref_vecs[:, a])
            dmats[i, a] = vec.reshape(ds_to, de_to)

    lam = np.zeros((ds_to, de_to), dtype=np.complex128)
    for i in range(rank):
        for a in range(de_from):
            lam += coeffs[i] * overlap[i, a] * dmats[i, a]

    second = np.zeros((ds_to, ds_to), dtype=np.complex128)
    for i in range(rank):
        for a in range(de_from):
            d = dmats[i, a]
            second += probs[i] * ref_probs[a] * (d @ d.conj().T)

    amat = lam @ lam.conj().T - second
    return _checked_report(amat, "defect_matrix_pure_coeffs").defect_matrix


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


def commutator_defect(
    rho,
    s_a: Structure,
    spec_a: ProjectionSpec,
    s_b: Structure,
    spec_b: ProjectionSpec,
) -> float:
    """Trace norm of the commutator of two split-adapted type_i projections
    applied to a state.  Symmetric in the two splits; zero when structures
    and specs coincide."""
    if not isinstance(spec_a, TypeIProjection) or not isinstance(spec_b, TypeIProjection):
        raise ValueError("commutator_defect is defined for type_i projections only")
    rho = check_density_matrix(rho)
    check_compatible(s_a, spec_a)
    check_compatible(s_b, spec_b)
    comm = apply_projection(apply_projection(rho, s_b, spec_b), s_a, spec_a)
    comm -= apply_projection(apply_projection(rho, s_a, spec_a), s_b, spec_b)
    return trace_norm(comm, hermitian=True)


def _lemma2_in_basis(rho_a, rho_b, v, s_a, spec_a, s_b, spec_b) -> tuple[float, np.ndarray]:
    """Trusted kernel of :func:`commutator_defect` on the inputs of
    :func:`_lemma1_in_basis`.  Returns the trace norm of
    ``P_A P_B rho - P_B P_A rho`` and P_A rho, both in A's basis."""
    vh = v.conj().T
    # every term is in A's coordinates; P_B acts in B's basis
    p_a_rho = _project_in_basis(rho_a, s_a, spec_a)
    p_b_rho = v @ _project_in_basis(rho_b, s_b, spec_b) @ vh
    p_b_p_a_rho = v @ _project_in_basis(vh @ p_a_rho @ v, s_b, spec_b) @ vh
    return trace_norm(_project_in_basis(p_b_rho, s_a, spec_a) - p_b_p_a_rho, hermitian=True), p_a_rho


def mutual_information(rho, s: Structure) -> float:
    """S(rho_S) + S(rho_E) - S(rho) with reductions taken in the given split
    (nats).  Nonnegative up to roundoff; zero exactly on product states of
    the split."""
    rho, spectrum = _checked_spectrum(rho)
    _check_total_dim(rho, s, "reduced_state")
    _, entropy_s, entropy_e = _split_entropies(to_structure_basis(rho, s), s)
    return entropy_s + entropy_e - _spectral_entropy(spectrum)


def _split_entropies(m: np.ndarray, s: Structure) -> tuple[np.ndarray, float, float]:
    """Trusted kernel of :func:`mutual_information`: from a state already in
    the structure's basis, its system reduction and the entropies of both
    reductions.  Each reduction is validated once, and its entropy comes
    from that validation's spectrum."""
    red_s = _reduce(m, s, "S")
    entropy_s = _spectral_entropy(_checked_spectrum(red_s, "reduced S state")[1])
    entropy_e = _spectral_entropy(_checked_spectrum(_reduce(m, s, "E"), "reduced E state")[1])
    return red_s, entropy_s, entropy_e


def bell_pair() -> np.ndarray:
    """(|00> + |11>) / sqrt(2) on two qubits."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


def teleport_state(u) -> np.ndarray:
    """Three-qubit register: the input qubit in the first slot, a maximally
    entangled pair in the last two.

    Product across the 1 | (2,3) split, Schmidt rank 2 across (1,2) | 3.
    """
    u = check_pure_state(u, name="u")
    if u.size != 2:
        raise ValueError(f"teleport_state: input must be a qubit (dim 2), got dim {u.size}")
    return np.kron(u, bell_pair())
