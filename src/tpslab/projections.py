"""Projection superoperators adapted to one system-environment split.

The CLI builds type_i projections: each replaces the environment factor by
a fixed reference state.  A projection is linear and trace-preserving, and
the environment partial trace of its complement vanishes identically: the
projected state carries exactly the information needed to reduce onto the
split's system factor.

type_i is the one rule the kernels here and in :mod:`relativity` know: in
the structure's product basis, P m = Tr_E(m) (x) rho_ref, which
:func:`_project_in_basis` forms for every scenario.  :func:`apply_projection`
and :func:`complement` act in reference coordinates, on the dense route
that no scenario takes.  :func:`check_compatible` rejects any other spec at
the boundary; the paper's type II and type III families are test oracles
with their own dense rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _kron, _partial_trace, check_density_matrix
from .structures import Structure, from_structure_basis, to_structure_basis


@dataclass(frozen=True, eq=False)
class TypeIProjection:
    """Replace the environment factor by a fixed reference state."""

    rho_ref: np.ndarray

    def __post_init__(self):
        rho = check_density_matrix(self.rho_ref, name="type_i rho_ref").copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho_ref", rho)

    @property
    def dim_e(self) -> int:
        return self.rho_ref.shape[0]


def check_compatible(s: Structure, spec: TypeIProjection) -> None:
    """The one family check: reject a spec that is not type_i, or whose
    environment dim does not match the structure's."""
    if not isinstance(spec, TypeIProjection):
        raise ValueError(f"projections are defined for type_i specs only, got {type(spec).__name__}")
    if spec.dim_e != s.dim_e:
        raise ValueError(
            f"type_i: environment dim {spec.dim_e} does not match structure"
            f" environment dim {s.dim_e}"
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
    own product basis: Tr_E(m) (x) rho_ref.  Trusted kernel of
    :func:`apply_projection`: ``m`` is a complex128 array of the structure's
    dimension."""
    return _kron(_partial_trace(m, s.dim_s, s.dim_e, "A"), spec.rho_ref)


def complement(rho, s: Structure, spec: TypeIProjection) -> np.ndarray:
    """Irrelevant part: the state minus its projection; traceless."""
    rho = check_density_matrix(rho)
    check_compatible(s, spec)
    return rho - apply_projection(rho, s, spec)
