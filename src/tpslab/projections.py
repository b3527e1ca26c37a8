"""Projection superoperators adapted to one system-environment split.

The CLI builds type_i projections: each replaces the environment factor by
a fixed reference state.  A projection is linear and trace-preserving, and
the environment partial trace of its complement vanishes identically: the
projected state carries exactly the information needed to reduce onto the
split's system factor.

A spec owns its rule: :meth:`TypeIProjection.terms` writes the projection
as a short sum of Kronecker products, and the kernels here and in
:mod:`relativity` sum those terms without asking which family the spec
belongs to.  So any object with a ``kind``, a ``dim_e`` (and a ``dim_s``,
if it fixes one) and ``terms()`` runs through them; the tests' type II and
type III families are such objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import (
    _kron,
    _partial_trace,
    check_density_matrix,
    partial_trace,
    trace_norm,
)
from .structures import Structure, from_structure_basis, to_structure_basis


@dataclass(frozen=True, eq=False)
class TypeIProjection:
    """Replace the environment factor by a fixed reference state."""

    rho_ref: np.ndarray
    kind: ClassVar[str] = "type_i"

    def __post_init__(self):
        rho = check_density_matrix(self.rho_ref, name="type_i rho_ref").copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho_ref", rho)

    @property
    def dim_e(self) -> int:
        return self.rho_ref.shape[0]

    def terms(self) -> tuple[tuple[None, None, np.ndarray], ...]:
        """The projection as a short sum of Kronecker products: in the
        structure's product basis, P m = sum_k sigma_k (x) R_k with sigma_k =
        a_k Tr_E((I (x) b_k) m), over the returned ``(a_k, b_k, R_k)``; an
        ``a_k`` or ``b_k`` of None is the identity.  type_i has the one term
        Tr_E(m) (x) rho_ref."""
        return ((None, None, self.rho_ref),)


def check_compatible(s: Structure, spec: TypeIProjection) -> None:
    """Reject specs whose factor dimensions do not match the structure's:
    the environment dim, and the system dim of a spec that has one."""
    if spec.dim_e != s.dim_e:
        raise ValueError(
            f"{spec.kind}: environment dim {spec.dim_e} does not match structure"
            f" environment dim {s.dim_e}"
        )
    dim_s = getattr(spec, "dim_s", s.dim_s)
    if dim_s != s.dim_s:
        raise ValueError(
            f"{spec.kind}: system dim {dim_s} does not match structure system dim {s.dim_s}"
        )


def apply_projection(mat, s: Structure, spec: TypeIProjection) -> np.ndarray:
    """Linear action of the projection on an arbitrary operator.

    Input and output are in reference-basis coordinates; the projection
    itself acts in the structure's own product basis.  No state validation:
    this is the raw superoperator, usable on complements and commutators.
    """
    m = to_structure_basis(mat, s)
    return from_structure_basis(_project_in_basis(m, s, spec), s)


def _project_in_basis(m: np.ndarray, s: Structure, spec: TypeIProjection) -> np.ndarray:
    """The projection on an operator given, and returned, in the structure's
    own product basis: the dense sum of the spec's terms.  Trusted
    kernel of :func:`apply_projection`: ``m`` is a complex128 array of the
    structure's dimension."""
    ds, de = s.dim_s, s.dim_e
    out = None
    for a, b, ref in spec.terms():
        if b is None:
            sigma = _partial_trace(m, ds, de, "A")
        else:
            sigma = np.einsum("ef,sfte->st", b, m.reshape(ds, de, ds, de))
        term = _kron(sigma if a is None else a @ sigma, ref)
        out = term if out is None else out + term
    return out


def project(rho, s: Structure, spec: TypeIProjection) -> np.ndarray:
    """Relevant part of a state for the given split and family (unit trace)."""
    rho = check_density_matrix(rho)
    check_compatible(s, spec)
    return apply_projection(rho, s, spec)


def complement(rho, s: Structure, spec: TypeIProjection) -> np.ndarray:
    """Irrelevant part: the state minus its projection; traceless."""
    rho = check_density_matrix(rho)
    check_compatible(s, spec)
    return _complement(rho, s, spec)


def _complement(rho: np.ndarray, s: Structure, spec: TypeIProjection) -> np.ndarray:
    """Trusted kernel of :func:`complement`: state and spec already checked."""
    return rho - apply_projection(rho, s, spec)


def relevance_defect(rho, s: Structure, spec: TypeIProjection) -> float:
    """Trace norm of the system reduction of the complement, taken in the
    structure's own basis.  Zero (to tolerance) for every valid spec."""
    q = complement(rho, s, spec)
    q_s = to_structure_basis(q, s)
    return trace_norm(partial_trace(q_s, s.dim_s, s.dim_e, "A"), hermitian=True)
