"""Bipartite tensor-product structures of one composite Hilbert space.

A structure is a system-environment split: two factor dimensions plus the
split's product basis placed in the fixed reference basis.  Regrouping
elementary factors permutes the reference basis, so a grouping (and the
identity) is stored as an index map, and it changes the basis of an operator
by an index gather, which equals the dense products bit for bit.  A general
unitary realizes an arbitrary redefinition of the degrees of freedom; it is
stored dense, and basis changes take two matrix products.  Each structure
keeps exactly one of the two forms, chosen when it is built: a unitary input
that is exactly a permutation matrix is stored as its index map.  A grouping
also records which factors it groups, so that callers can work on the
factor tensors of a state directly.  State and operator coordinates live in
the reference basis unless a function says otherwise.

Vectors, transition matrices and expansion coefficients gather from an
index map as well; the dense unitary ``Structure.w`` of either form is
built on each read for an index map.
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

    def __len__(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class Structure:
    """One bipartition of the composite space.

    ``basis`` places the structure's product basis in the reference basis;
    product vector ``k = m * dim_e + n`` is ``|m>_S (x) |n>_E``.  It holds
    one of two forms, chosen at construction:

    * an index map, a 1-D permutation of ``range(total_dim)``: product
      vector ``k`` is reference basis vector ``basis[k]``.  Groupings and the
      identity are built this way, and a unitary that is exactly a
      permutation matrix is stored this way;
    * a dense unitary, 2-D: column ``k`` is product vector ``k`` in
      reference coordinates.  Unitarity is exactly the orthonormality
      constraint on the change-of-structure coefficients.

    ``grouping`` is ``(layout dims, system factor positions)`` when the
    structure groups elementary factors, as :func:`structure_from_grouping`
    builds it, and ``None`` otherwise; the index map must be the one that
    grouping defines.  :attr:`w` is the dense unitary of either form.
    """

    dim_s: int
    dim_e: int
    basis: np.ndarray
    grouping: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        basis = np.asarray(self.basis)
        if basis.ndim != 1:
            basis = require_square(basis, "structure unitary")
        dim = basis.shape[0]
        if self.dim_s < 1 or self.dim_e < 1 or self.dim_s * self.dim_e != dim:
            raise ValueError(f"structure dims {self.dim_s} x {self.dim_e} do not factor {dim}")
        if basis.ndim == 2 and (index_map := _index_map_of(basis)) is not None:
            basis = index_map
        if basis.ndim == 2:
            defect = _orthonormality_defect(basis)
            if defect > UNITARITY_TOL:
                raise ValueError(
                    f"structure unitary is not unitary (defect {defect:.3e} > {UNITARITY_TOL:.0e})"
                )
            basis = basis.copy()
        elif np.issubdtype(basis.dtype, np.integer) and np.array_equal(np.sort(basis), np.arange(dim)):
            basis = basis.astype(np.intp)
        else:
            raise ValueError(f"structure index map is not a permutation of range({dim})")
        if self.grouping is not None:
            dims, selected = self.grouping
            if (
                basis.ndim != 1
                or math.prod(dims[i] for i in selected) != self.dim_s
                or not np.array_equal(basis, _grouping_index_map(dims, selected))
            ):
                raise ValueError(f"structure grouping {self.grouping} does not define this structure")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def total_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def w(self) -> np.ndarray:
        """The dense unitary; built on each read when ``basis`` is an index map."""
        if self.basis.ndim == 2:
            return self.basis
        w = np.zeros((self.total_dim, self.total_dim), dtype=np.complex128)
        w[self.basis, np.arange(self.total_dim)] = 1.0
        w.setflags(write=False)
        return w


def _index_map_of(w: np.ndarray) -> np.ndarray | None:
    """The index map ``p`` with ``w[p[k], k] == 1`` when ``w`` is exactly a
    permutation matrix (one entry equal to 1 in each row and column, no
    other nonzero entry), else ``None``."""
    if np.count_nonzero(w) != w.shape[0]:
        return None
    ones = w == 1
    if not (np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)):
        return None
    return np.argmax(ones, axis=0)


def identity_structure(dim_s: int, dim_e: int) -> Structure:
    """The reference split itself: the identity index map with the given factor dims."""
    return Structure(dim_s, dim_e, np.arange(dim_s * dim_e))


def structure_from_grouping(layout: FactorLayout, s_indices) -> Structure:
    """Permutation structure grouping the selected factors as the system.

    Selected factors keep their relative order and come first; the remaining
    factors follow in their original order.
    """
    n = len(layout)
    selected = tuple(sorted(int(i) for i in s_indices))
    if len(set(selected)) != len(selected):
        raise ValueError(f"grouping: duplicate factor indices in {selected}")
    if any(i < 0 or i >= n for i in selected):
        raise ValueError(f"grouping: factor indices {selected} out of range for {n} factors")
    if not selected or len(selected) == n:
        raise ValueError("grouping: system factors must be a nonempty proper subset")
    total = layout.total_dim
    dim_s = math.prod(layout.dims[i] for i in selected)
    index_map = _grouping_index_map(layout.dims, selected)
    return Structure(dim_s, total // dim_s, index_map, grouping=(layout.dims, selected))


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
    if s.basis.ndim == 1:
        return m[np.ix_(s.basis, s.basis)]
    return s.basis.conj().T @ m @ s.basis


def from_structure_basis(m, s: Structure) -> np.ndarray:
    """Inverse of :func:`to_structure_basis`: ``W m W^H``."""
    m = require_square(m, "from_structure_basis input")
    _check_total_dim(m, s, "from_structure_basis")
    if s.basis.ndim == 1:
        inv = np.argsort(s.basis)
        return m[np.ix_(inv, inv)]
    return s.basis @ m @ s.basis.conj().T


def vector_to_structure_basis(psi, s: Structure) -> np.ndarray:
    """A vector ``(d,)``, or the columns of a ``(d, r)`` array, in the
    structure's product basis: ``W^H psi``."""
    name = "vector_to_structure_basis input"
    psi = as_vector(psi, name) if np.ndim(psi) == 1 else as_matrix(psi, name)
    if psi.shape[0] != s.total_dim:
        raise ValueError(
            f"vector_to_structure_basis: dim {psi.shape[0]} does not match structure dim {s.total_dim}"
        )
    if s.basis.ndim == 1:
        return psi[s.basis]
    return s.basis.conj().T @ psi


def _reduce(m: np.ndarray, s: Structure, which: str) -> np.ndarray:
    """Partial trace of an operator already in the structure's basis; trusted."""
    return _partial_trace(m, s.dim_s, s.dim_e, "A" if which == "S" else "B")


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
    if s_from.basis.ndim == 1 and s_to.basis.ndim == 1:
        # entry [j, k] is 1 where both maps send j and k to the same reference vector
        t = np.zeros((s_to.total_dim, s_to.total_dim), dtype=np.complex128)
        t[np.argsort(s_to.basis)[s_from.basis], np.arange(s_from.total_dim)] = 1.0
        return t
    return vector_to_structure_basis(s_from.w, s_to)


def d_coefficient(s: Structure, i: int, alpha: int, m: int, n: int) -> complex:
    """Expansion coefficient of the reference product vector ``|i, alpha>``
    in the structure's product basis vector ``|m, n>``.

    The reference register is split with the structure's own factor
    dimensions.  Summing the coefficient against its conjugate over (m, n)
    reproduces Kronecker deltas in (i, alpha): that is unitarity of ``w``.
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
    entry = complex(s.basis[col] == row) if s.basis.ndim == 1 else s.basis[row, col]
    return complex(np.conj(entry))


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
