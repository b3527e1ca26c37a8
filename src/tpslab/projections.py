"""Projection superoperators adapted to one system-environment split.

Three families, all linear and trace-preserving, all built so that the
environment partial trace of the complement vanishes identically: the
projected state carries exactly the information needed to reduce onto the
split's system factor.

* type_i   -- replace the environment factor by a fixed reference state;
* type_ii  -- weight system sectors with environment states of mutually
              orthogonal supports;
* type_iii -- pinch the environment over a complete orthogonal set of
              rank-1 projectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .linalg import (
    _kron,
    _partial_trace,
    check_density_matrix,
    partial_trace,
    require_hermitian,
    trace_norm,
)
from .structures import Structure, from_structure_basis, to_structure_basis

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


@dataclass(frozen=True, eq=False)
class TypeIIProjection:
    """Weight orthogonal system sectors with environment states whose
    supports are mutually orthogonal.

    ``bins`` is a sequence of ``(system_projector, environment_state)``
    pairs; the system projectors must resolve the identity.
    """

    bins: tuple[tuple[np.ndarray, np.ndarray], ...]
    kind: ClassVar[str] = "type_ii"

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


@dataclass(frozen=True, eq=False)
class TypeIIIProjection:
    """Pinch the environment over a complete orthogonal set of rank-1
    projectors."""

    projectors: tuple[np.ndarray, ...]
    kind: ClassVar[str] = "type_iii"

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


ProjectionSpec = Union[TypeIProjection, TypeIIProjection, TypeIIIProjection]


def computational_type_iii(dim_e: int) -> TypeIIIProjection:
    """The canonical-basis pinching family on an environment of the given dim."""
    eye = np.eye(dim_e, dtype=np.complex128)
    return TypeIIIProjection(tuple(np.outer(eye[:, i], eye[:, i]) for i in range(dim_e)))


def check_compatible(s: Structure, spec: ProjectionSpec) -> None:
    """Reject specs whose factor dimensions do not match the structure's."""
    if spec.dim_e != s.dim_e:
        raise ValueError(
            f"{spec.kind}: environment dim {spec.dim_e} does not match structure"
            f" environment dim {s.dim_e}"
        )
    if isinstance(spec, TypeIIProjection) and spec.dim_s != s.dim_s:
        raise ValueError(
            f"type_ii: system dim {spec.dim_s} does not match structure system dim {s.dim_s}"
        )


def apply_projection(mat, s: Structure, spec: ProjectionSpec) -> np.ndarray:
    """Linear action of the projection on an arbitrary operator.

    Input and output are in reference-basis coordinates; the projection
    itself acts in the structure's own product basis.  No state validation:
    this is the raw superoperator, usable on complements and commutators.
    """
    m = to_structure_basis(mat, s)
    return from_structure_basis(_project_in_basis(m, s, spec), s)


def _project_in_basis(m: np.ndarray, s: Structure, spec: ProjectionSpec) -> np.ndarray:
    """The projection on an operator given, and returned, in the structure's
    own product basis; trusted kernel of :func:`apply_projection`: ``m`` is a
    complex128 array of the structure's dimension."""
    ds, de = s.dim_s, s.dim_e
    if isinstance(spec, TypeIProjection):
        out = _kron(_partial_trace(m, ds, de, "A"), spec.rho_ref)
    elif isinstance(spec, TypeIIProjection):
        out = np.zeros_like(m)
        eye_e = np.eye(de, dtype=np.complex128)
        for p_s, rho_e in spec.bins:
            out += _kron(_partial_trace(_kron(p_s, eye_e) @ m, ds, de, "A"), rho_e)
    elif isinstance(spec, TypeIIIProjection):
        out = np.zeros_like(m)
        eye_s = np.eye(ds, dtype=np.complex128)
        for p_e in spec.projectors:
            out += _kron(_partial_trace(_kron(eye_s, p_e) @ m, ds, de, "A"), p_e)
    else:
        raise TypeError(f"unknown projection spec type {type(spec).__name__}")
    return out


def project(rho, s: Structure, spec: ProjectionSpec) -> np.ndarray:
    """Relevant part of a state for the given split and family (unit trace)."""
    rho = check_density_matrix(rho)
    check_compatible(s, spec)
    return apply_projection(rho, s, spec)


def complement(rho, s: Structure, spec: ProjectionSpec) -> np.ndarray:
    """Irrelevant part: the state minus its projection; traceless."""
    rho = check_density_matrix(rho)
    check_compatible(s, spec)
    return _complement(rho, s, spec)


def _complement(rho: np.ndarray, s: Structure, spec: ProjectionSpec) -> np.ndarray:
    """Trusted kernel of :func:`complement`: state and spec already checked."""
    return rho - apply_projection(rho, s, spec)


def relevance_defect(rho, s: Structure, spec: ProjectionSpec) -> float:
    """Trace norm of the system reduction of the complement, taken in the
    structure's own basis.  Zero (to tolerance) for every valid spec."""
    q = complement(rho, s, spec)
    q_s = to_structure_basis(q, s)
    return trace_norm(partial_trace(q_s, s.dim_s, s.dim_e, "A"), hermitian=True)


def idempotency_defect(rho, s: Structure, spec: ProjectionSpec) -> float:
    """Trace norm of P(P rho) - P rho."""
    p1 = project(rho, s, spec)
    return trace_norm(apply_projection(p1, s, spec) - p1, hermitian=True)
