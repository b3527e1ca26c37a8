"""Cross-structure defect functionals.

A projection adapted to one system-environment split satisfies its own
relevance identity exactly; evaluated against a different split of the same
space it generically does not.  This module quantifies that failure through
two independent routes (direct partial traces, and explicit expansion
coefficients of a pure state; the tests hold the sums for a separable
mixture), measures the non-commutation of projections adapted to different
splits, and demonstrates the structure dependence of correlations via
mutual information.

The public functions take d x d states in reference coordinates; they are
the dense route, and the tests' oracle.  No scenario runs them: every
scenario runs trusted kernels on a state's weighted vectors, those of
:func:`_lemma_terms` or, for two groupings of one layout, the closed forms
of ``dynamics._GroupingPair``.  :func:`_lemma_terms` takes the vectors in
one structure's product basis and forms no d x d state: a projected state is one Kronecker product, which
changes basis and reduces through products with the transition matrix's
rows (C. F. Van Loan, "The ubiquitous Kronecker product", J. Comput.
Appl. Math. 123 (2000)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    InvariantViolation,
    _checked_spectrum,
    _kron,
    _spectral_entropy,
    check_density_matrix,
    check_pure_state,
    eigh,
    schmidt,
    trace_norm,
)
from .projections import TypeIProjection, apply_projection, check_compatible
from .structures import (
    Structure,
    _check_total_dim,
    _kron_rows,
    _reduce,
    _traced_rows,
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
        trace_norm_defect=trace_norm(d),
        trace_residual=residual,
    )


def cross_relevance_matrix(
    rho, s_from: Structure, spec: TypeIProjection, s_to: Structure
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
    q = to_structure_basis(rho - apply_projection(rho, s_from, spec), s_to)
    return _checked_report(_reduce(q, s_to, "S"), "cross_relevance_matrix")


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


def commutator_defect(
    rho,
    s_a: Structure,
    spec_a: TypeIProjection,
    s_b: Structure,
    spec_b: TypeIProjection,
) -> float:
    """Trace norm of the commutator of two split-adapted type_i projections
    applied to a state.  Symmetric in the two splits; zero when structures
    and specs coincide."""
    rho = check_density_matrix(rho)
    check_compatible(s_a, spec_a)
    check_compatible(s_b, spec_b)
    comm = apply_projection(apply_projection(rho, s_b, spec_b), s_a, spec_a)
    comm -= apply_projection(apply_projection(rho, s_a, spec_a), s_b, spec_b)
    return trace_norm(comm)


def _lemma_terms(y_a, v, s_a, spec_a, s_b, spec_b) -> tuple[np.ndarray, ...]:
    """Trusted kernel of both Lemmas for one state, given as its weighted
    vectors ``y_a`` in A's product basis (rho_A = y_a y_a^H), with
    ``v = transition_matrix(s_b, s_a)``: operators change from A's to B's
    basis as ``v^H x v`` and vectors as ``v^H y``.  Returns ``(y_b, red_a,
    red_b, tau_a, tau_b)``: the vectors in B's basis, the system reductions
    Tr_E rho and Tr_E' rho, and the projected states reduced across,
    tau_a = Tr_E'(v^H (P_A rho) v) and tau_b = Tr_E(v (P_B rho) v^H).  No
    d x d state is formed, and no d x d x d product taken."""
    vh = v.conj().T
    y_b = vh @ y_a
    red_a, red_b = _vector_reduction(y_a, s_a), _vector_reduction(y_b, s_b)
    tau_a = _cross_reduction(v, red_a, s_a, spec_a, s_b)
    tau_b = _cross_reduction(vh, red_b, s_b, spec_b, s_a)
    return y_b, red_a, red_b, tau_a, tau_b


def _lemma1_in_basis(red_a, red_b, tau_a, tau_b) -> tuple[DefectReport, DefectReport]:
    """The A->B and B->A reports of :func:`cross_relevance_matrix` from the
    terms of :func:`_lemma_terms`: Tr_E'(v^H (rho - P_A rho) v) is
    Tr_E' rho - tau_a, and B->A alike."""
    return (
        _checked_report(red_b - tau_a, "cross_relevance_matrix A->B"),
        _checked_report(red_a - tau_b, "cross_relevance_matrix B->A"),
    )


def _lemma2_in_basis(v, tau_a, tau_b, spec_a: TypeIProjection, s_b: Structure, spec_b: TypeIProjection) -> float:
    """:func:`commutator_defect` from the terms of :func:`_lemma_terms`, in
    A's basis: P_A P_B rho = tau_b (x) R_A and P_B P_A rho =
    v (tau_a (x) R_B) v^H, whose product by v is the one d x d product."""
    comm = _kron(tau_b, spec_a.rho_ref) - v @ _kron_rows(tau_a, spec_b.rho_ref, v.conj().T, s_b)
    return trace_norm(comm)


def _cross_reduction(w, red, s: Structure, spec: TypeIProjection, s_to: Structure) -> np.ndarray:
    """Tr_E'(w^H (P rho) w) for a state rho in ``s``'s product basis with
    ``red`` = Tr_E rho, where the columns of ``w`` are ``s_to``'s product
    basis in ``s``'s coordinates.  P rho = red (x) rho_ref acts on w's rows,
    red on the S index and rho_ref on the E index, and the E' trace of w^H
    times that is one product (:func:`structures._traced_rows`)."""
    x = _kron_rows(red, spec.rho_ref, w, s)
    return _traced_rows(w, s_to, "S").conj().T @ _traced_rows(x, s_to, "S")


def _vector_reduction(y: np.ndarray, s: Structure) -> np.ndarray:
    """Tr_E(y y^H) for vectors ``y`` ``(d, r)`` in the structure's product
    basis."""
    width = s.dim_e * y.shape[1]
    return y.reshape(s.dim_s, width) @ y.reshape(s.dim_s, width).conj().T


def mutual_information(rho, s: Structure) -> float:
    """S(rho_S) + S(rho_E) - S(rho) with reductions taken in the given split
    (nats).  Nonnegative up to roundoff; zero exactly on product states of
    the split."""
    rho, spectrum = _checked_spectrum(rho)
    _check_total_dim(rho, s, "mutual_information")
    m = to_structure_basis(rho, s)
    return _split_mutual_information(_reduce(m, s, "S"), _reduce(m, s, "E"), _spectral_entropy(spectrum))


def _split_mutual_information(red_s: np.ndarray, red_e: np.ndarray, entropy_total: float) -> float:
    """Trusted kernel of :func:`mutual_information`: S(rho_S) + S(rho_E) -
    ``entropy_total`` from a split's two reductions, or from matrices that
    share their nonzero spectra.  Each is validated once, and its entropy
    comes from that validation's spectrum."""
    entropy_s = _spectral_entropy(_checked_spectrum(red_s, "reduced S state")[1])
    entropy_e = _spectral_entropy(_checked_spectrum(red_e, "reduced E state")[1])
    return entropy_s + entropy_e - entropy_total


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
