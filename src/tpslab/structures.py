"""Bipartite tensor-product structures of one composite Hilbert space.

A structure is a system-environment split: two factor dimensions plus the
split's product basis placed in the fixed reference basis.  It is one of two
kinds, fixed when it is built:

* a grouping of elementary factors, which permutes the reference basis.  It
  is stored as the index map it defines, and it changes the basis of a
  vector or an operator by an index gather, which equals the dense products
  bit for bit; transition matrices gather with it too.  It also records
  which factors it groups, so that callers can work on the factor tensors
  of a state directly;
* a dense unitary, an arbitrary redefinition of the degrees of freedom.  It
  is stored as given, and basis changes take matrix products.  A unitary
  that happens to permute the reference basis is stored dense as well.

``s.grouping is not None`` is the one test for the gather paths; no module
but this one reads the stored basis.  State and operator coordinates live
in the reference basis unless a function says otherwise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import (
    UNITARITY_TOL,
    _orthonormality_defect,
    _partial_trace,
    as_matrix,
    as_vector,
    check_density_matrix,
    require_square,
)

MATRIX_FILE_MAGIC = b"TPSW1"


@dataclass(frozen=True)
class FactorLayout:
    """Ordered register of elementary factor dimensions, e.g. ``(2, 2, 2)``."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("FactorLayout: at least one factor required")
        if any(d < 2 for d in dims):
            raise ValueError(f"FactorLayout: factor dims must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True, eq=False)
class Structure:
    """One bipartition of the composite space, given in one of two ways:

    * ``grouping=(layout dims, system factor positions)``, the positions
      sorted, distinct, in range and a nonempty proper subset, with
      ``dim_s`` the product of their dims, as :func:`structure_from_grouping`
      builds it.  ``basis`` is derived from it: the index map whose entry
      ``k`` is the reference basis index of product vector ``k``;
    * ``basis``, a dense unitary whose column ``k`` is product vector ``k``
      in reference coordinates, with ``grouping`` left ``None``.  Unitarity
      is exactly the orthonormality constraint on the change-of-structure
      coefficients.

    Product vector ``k = m * dim_e + n`` is ``|m>_S (x) |n>_E``.  Either
    kind stands for the unitary ``W`` with these columns; no function here
    builds it densely for a grouping.
    """

    dim_s: int
    dim_e: int
    basis: np.ndarray | None = None
    grouping: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        if (self.basis is None) == (self.grouping is None):
            raise ValueError("structure: give exactly one of a unitary basis or a grouping")
        if self.grouping is None:
            basis = require_square(self.basis, "structure unitary").copy()
            defect = _orthonormality_defect(basis)
            if defect > UNITARITY_TOL:
                raise ValueError(
                    f"structure unitary is not unitary (defect {defect:.3e} > {UNITARITY_TOL:.0e})"
                )
        else:
            dims, selected = FactorLayout(self.grouping[0]).dims, tuple(self.grouping[1])
            if _system_dim(dims, selected) != self.dim_s:
                raise ValueError(f"structure grouping {self.grouping} does not have system dim {self.dim_s}")
            object.__setattr__(self, "grouping", (dims, selected))
            basis = _grouping_index_map(dims, selected)
        dim = basis.shape[0]
        if self.dim_s < 1 or self.dim_e < 1 or self.dim_s * self.dim_e != dim:
            raise ValueError(f"structure dims {self.dim_s} x {self.dim_e} do not factor {dim}")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def total_dim(self) -> int:
        return self.basis.shape[0]


def structure_from_grouping(layout: FactorLayout, s_indices) -> Structure:
    """Permutation structure grouping the selected factors as the system.

    Selected factors keep their relative order and come first; the remaining
    factors follow in their original order.
    """
    selected = tuple(sorted(int(i) for i in s_indices))
    dim_s = _system_dim(layout.dims, selected)
    return Structure(dim_s, layout.total_dim // dim_s, grouping=(layout.dims, selected))


def _system_dim(dims: tuple[int, ...], selected: tuple[int, ...]) -> int:
    """The product of the selected factor dims, once ``selected`` is checked
    to be sorted, distinct, in range and a nonempty proper subset."""
    n = len(dims)
    if list(selected) != sorted(set(selected)):
        raise ValueError(f"grouping: factor indices {selected} must be sorted and distinct")
    if any(i < 0 or i >= n for i in selected):
        raise ValueError(f"grouping: factor indices {selected} out of range for {n} factors")
    if not selected or len(selected) == n:
        raise ValueError("grouping: system factors must be a nonempty proper subset")
    return math.prod(dims[i] for i in selected)


def _grouping_index_map(dims: tuple[int, ...], selected: tuple[int, ...]) -> np.ndarray:
    """``index_map[k]``: the reference basis index of product vector ``k`` of
    the grouping whose system is the (sorted) factors ``selected``."""
    order = selected + tuple(i for i in range(len(dims)) if i not in selected)
    return np.arange(math.prod(dims)).reshape(dims).transpose(order).reshape(-1)


def structure_from_unitary(w, dim_s: int, dim_e: int) -> Structure:
    """Structure from an explicit global basis-change unitary."""
    return Structure(dim_s, dim_e, w)


def _check_total_dim(m: np.ndarray, s: Structure, name: str) -> None:
    if m.shape[0] != s.total_dim:
        raise ValueError(f"{name}: dim {m.shape[0]} does not match structure dim {s.total_dim}")


def to_structure_basis(m, s: Structure) -> np.ndarray:
    """Express an operator in the structure's product basis: ``W^H m W``."""
    m = require_square(m, "to_structure_basis input")
    _check_total_dim(m, s, "to_structure_basis")
    if s.grouping is not None:
        return m[np.ix_(s.basis, s.basis)]
    return s.basis.conj().T @ m @ s.basis


def from_structure_basis(m, s: Structure) -> np.ndarray:
    """Inverse of :func:`to_structure_basis`: ``W m W^H``."""
    m = require_square(m, "from_structure_basis input")
    _check_total_dim(m, s, "from_structure_basis")
    if s.grouping is not None:
        inv = np.argsort(s.basis)
        return m[np.ix_(inv, inv)]
    return s.basis @ m @ s.basis.conj().T


def vector_to_structure_basis(psi, s: Structure) -> np.ndarray:
    """A vector ``(d,)``, or the columns of a ``(d, r)`` array, in the
    structure's product basis: ``W^H psi``."""
    name = "vector_to_structure_basis input"
    psi = as_vector(psi, name) if np.ndim(psi) == 1 else as_matrix(psi, name)
    _check_total_dim(psi, s, "vector_to_structure_basis")
    if s.grouping is not None:
        return psi[s.basis]
    return s.basis.conj().T @ psi


def _reduce(m: np.ndarray, s: Structure, which: str) -> np.ndarray:
    """Partial trace of an operator already in the structure's basis; trusted."""
    return _partial_trace(m, s.dim_s, s.dim_e, "A" if which == "S" else "B")


def _kron_rows(a: np.ndarray, b: np.ndarray, w: np.ndarray, s: Structure) -> np.ndarray:
    """``(a (x) b) w`` for an array ``w`` whose rows are in the structure's
    product basis: ``a`` acts on the system index of the rows and ``b`` on
    the environment index.  O(d^2 (dim_s + dim_e)) for a d x d ``w``, with
    no d x d x d product."""
    cols = w.shape[1]
    w = np.matmul(b, w.reshape(s.dim_s, s.dim_e, cols))
    return (a @ w.reshape(s.dim_s, s.dim_e * cols)).reshape(s.total_dim, cols)


def _traced_rows(w: np.ndarray, s: Structure, which: str) -> np.ndarray:
    """The columns of ``w``, in the structure's product basis, regrouped so
    that ``_traced_rows(w, s, which).conj().T @ _traced_rows(x, s, which)``
    is ``_reduce(w^H x, s, which)`` without forming ``w^H x``: one product
    over the pairs (row of ``w``, index of the traced factor)."""
    t = w.reshape(w.shape[0], s.dim_s, s.dim_e)
    if which == "S":
        return t.transpose(0, 2, 1).reshape(-1, s.dim_s)
    return t.reshape(-1, s.dim_e)


def reduced_state(rho, s: Structure, which: str) -> np.ndarray:
    """Reduced state of the system (``"S"``) or environment (``"E"``) factor."""
    rho = check_density_matrix(rho)
    _check_total_dim(rho, s, "reduced_state")
    if which not in ("S", "E"):
        raise ValueError(f"reduced_state: which must be 'S' or 'E', got {which!r}")
    red = _reduce(to_structure_basis(rho, s), s, which)
    return check_density_matrix(red, name=f"reduced {which} state")


def transition_matrix(s_from: Structure, s_to: Structure) -> np.ndarray:
    """Coefficients of ``s_from``'s product basis in ``s_to``'s product basis.

    Entry ``[m * s_to.dim_e + n, i * s_from.dim_e + a]`` is the coefficient of
    ``|m>_S' (x) |n>_E'`` in the expansion of ``|i>_S (x) |a>_E``.
    """
    if s_from.total_dim != s_to.total_dim:
        raise ValueError(
            f"transition_matrix: structure dims differ ({s_from.total_dim} vs {s_to.total_dim})"
        )
    if s_from.grouping is not None and s_to.grouping is not None:
        # entry [j, k] is 1 where both index maps send j and k to the same reference vector
        t = np.zeros((s_to.total_dim, s_to.total_dim), dtype=np.complex128)
        t[np.argsort(s_to.basis)[s_from.basis], np.arange(s_from.total_dim)] = 1.0
        return t
    if s_from.grouping is not None:
        # column k of W_to^H W_from is the conjugate of W_to's row s_from.basis[k]
        return np.ascontiguousarray(s_to.basis[s_from.basis].conj().T)
    if s_to.grouping is not None:
        return s_from.basis[s_to.basis]
    return s_to.basis.conj().T @ s_from.basis


def write_matrix_file(path, m, split_dim: int = 0) -> None:
    """Write a square complex matrix in the TPSW1 container.

    Layout: magic ``b"TPSW1"``, little-endian u32 dim, u32 split dim (the
    system dimension for structure unitaries, 0 for plain matrices), then
    dim*dim entries as interleaved re/im float64, row-major, little-endian.
    """
    m = require_square(m, "matrix file payload")
    dim = m.shape[0]
    data = np.empty(dim * dim * 2, dtype=np.float64)
    data[0::2] = m.real.reshape(-1)
    data[1::2] = m.imag.reshape(-1)
    payload = MATRIX_FILE_MAGIC + struct.pack("<II", dim, int(split_dim)) + data.astype("<f8").tobytes()
    Path(path).write_bytes(payload)


def read_matrix_file(path) -> tuple[np.ndarray, int]:
    """Read a TPSW1 matrix file; returns ``(matrix, split_dim)``."""
    raw = Path(path).read_bytes()
    if raw[:5] != MATRIX_FILE_MAGIC:
        raise ValueError(
            f"{path}: bad magic header {raw[:5]!r}, expected {MATRIX_FILE_MAGIC!r} ('TPSW1')"
        )
    if len(raw) < 13:
        raise ValueError(f"{path}: truncated header")
    dim, split_dim = struct.unpack("<II", raw[5:13])
    expected = 13 + dim * dim * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for dim {dim}, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=13)
    m = (data[0::2] + 1j * data[1::2]).reshape(dim, dim)
    return m, int(split_dim)


def read_structure_file(path) -> Structure:
    """Read a structure unitary from a TPSW1 file (split dim from the header)."""
    m, split_dim = read_matrix_file(path)
    dim = m.shape[0]
    if split_dim < 1 or split_dim >= dim or dim % split_dim != 0:
        raise ValueError(
            f"{path}: split dim {split_dim} does not define a proper bipartition of dim {dim}"
        )
    return structure_from_unitary(m, split_dim, dim // split_dim)
