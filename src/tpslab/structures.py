"""Bipartite tensor-product structures of one composite Hilbert space.

A structure is a system-environment split: the two factor dimensions plus a
global unitary whose columns are the split's product basis expressed in the
fixed reference basis.  Permutation unitaries regroup elementary factors;
general unitaries realize arbitrary redefinitions of the degrees of freedom.
State and operator coordinates live in the reference basis unless a function
says otherwise.

A structure whose unitary is exactly a permutation matrix (groupings, the
identity, permutation matrix files) changes the basis of an operator by an
index gather, which equals the dense product bit for bit; any other unitary
takes the dense matrix products.  The unitary itself is always kept: it is
the reference that transition matrices and expansion coefficients read.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import (
    UNITARITY_TOL,
    as_matrix,
    as_vector,
    check_density_matrix,
    partial_trace,
    require_square,
)

MATRIX_FILE_MAGIC = b"TPSW1"


def _unitarity_defect(w: np.ndarray) -> float:
    return float(np.linalg.norm(w.conj().T @ w - np.eye(w.shape[0])))


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

    ``w`` maps this structure's product basis to the reference basis: column
    ``m * dim_e + n`` is the product vector ``|m>_S (x) |n>_E`` in reference
    coordinates.  Unitarity of ``w`` is exactly the orthonormality constraint
    on the change-of-structure coefficients.

    When ``w`` is exactly a permutation matrix, ``perm`` holds ``(p, inv)``
    with ``w[p[k], k] == 1`` and ``inv`` the inverse permutation; basis
    changes then gather indices instead of multiplying by ``w``.  It is
    ``None`` for every other unitary.
    """

    total_dim: int
    dim_s: int
    dim_e: int
    w: np.ndarray
    label: str = ""
    perm: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        w = require_square(as_matrix(self.w, "structure unitary"), "structure unitary")
        if self.dim_s < 1 or self.dim_e < 1 or self.dim_s * self.dim_e != self.total_dim:
            raise ValueError(
                f"structure dims {self.dim_s} x {self.dim_e} do not factor {self.total_dim}"
            )
        if w.shape[0] != self.total_dim:
            raise ValueError(
                f"structure unitary is {w.shape[0]}x{w.shape[1]}, expected {self.total_dim}"
            )
        defect = _unitarity_defect(w)
        if defect > UNITARITY_TOL:
            raise ValueError(
                f"structure unitary is not unitary (defect {defect:.3e} > {UNITARITY_TOL:.0e})"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "perm", _permutation_of(w))


def _permutation_of(w: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(p, inv)`` when ``w`` has exactly one entry equal to 1 per column and
    no other nonzero entry, else ``None``.  ``w`` is already known unitary,
    so the rows ``p`` are distinct."""
    if np.count_nonzero(w) != w.shape[0]:
        return None
    ones = w == 1
    if not np.all(ones.sum(axis=0) == 1):
        return None
    p = np.argmax(ones, axis=0)
    inv = np.argsort(p)
    p.setflags(write=False)
    inv.setflags(write=False)
    return p, inv


def identity_structure(dim_s: int, dim_e: int, label: str = "reference") -> Structure:
    """The reference split itself: identity unitary with the given factor dims."""
    total = dim_s * dim_e
    return Structure(total, dim_s, dim_e, np.eye(total, dtype=np.complex128), label)


def structure_from_grouping(layout: FactorLayout, s_indices, label: str | None = None) -> Structure:
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
    rest = tuple(i for i in range(n) if i not in selected)
    order = selected + rest
    total = layout.total_dim
    # ref_index[k] = reference basis index of the structure's k-th product vector
    ref_index = np.arange(total).reshape(layout.dims).transpose(order).reshape(-1)
    w = np.zeros((total, total), dtype=np.complex128)
    w[ref_index, np.arange(total)] = 1.0
    dim_s = math.prod(layout.dims[i] for i in selected)
    if label is None:
        label = "S=" + ",".join(str(i) for i in selected)
    return Structure(total, dim_s, total // dim_s, w, label)


def structure_from_unitary(w, dim_s: int, dim_e: int, label: str = "") -> Structure:
    """Structure from an explicit global basis-change unitary."""
    w = require_square(as_matrix(w, "structure unitary"), "structure unitary")
    if dim_s * dim_e != w.shape[0]:
        raise ValueError(
            f"structure dims {dim_s} x {dim_e} do not factor the unitary dim {w.shape[0]}"
        )
    return Structure(w.shape[0], dim_s, dim_e, w, label)


def _check_total_dim(m: np.ndarray, s: Structure, name: str) -> None:
    if m.shape[0] != s.total_dim:
        raise ValueError(f"{name}: dim {m.shape[0]} does not match structure dim {s.total_dim}")


def to_structure_basis(m, s: Structure) -> np.ndarray:
    """Express an operator in the structure's product basis: ``W^H m W``."""
    m = require_square(m, "to_structure_basis input")
    _check_total_dim(m, s, "to_structure_basis")
    if s.perm is not None:
        p = s.perm[0]
        return m[np.ix_(p, p)]
    return s.w.conj().T @ m @ s.w


def from_structure_basis(m, s: Structure) -> np.ndarray:
    """Inverse of :func:`to_structure_basis`: ``W m W^H``."""
    m = require_square(m, "from_structure_basis input")
    _check_total_dim(m, s, "from_structure_basis")
    if s.perm is not None:
        inv = s.perm[1]
        return m[np.ix_(inv, inv)]
    return s.w @ m @ s.w.conj().T


def vector_to_structure_basis(psi, s: Structure) -> np.ndarray:
    psi = as_vector(psi, "vector_to_structure_basis input")
    if psi.size != s.total_dim:
        raise ValueError(
            f"vector_to_structure_basis: dim {psi.size} does not match structure dim {s.total_dim}"
        )
    return s.w.conj().T @ psi


def _reduce(m: np.ndarray, s: Structure, which: str) -> np.ndarray:
    """Partial trace of an operator already in the structure's basis; trusted."""
    return partial_trace(m, s.dim_s, s.dim_e, "A" if which == "S" else "B")


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
    return s_to.w.conj().T @ s_from.w


def d_coefficient(
    s: Structure,
    i: int,
    alpha: int,
    m: int,
    n: int,
    ref_dim_s: int | None = None,
    ref_dim_e: int | None = None,
) -> complex:
    """Expansion coefficient of the reference product vector ``|i, alpha>``
    in the structure's product basis vector ``|m, n>``.

    The reference split defaults to the structure's own factor dimensions;
    pass ``ref_dim_s`` / ``ref_dim_e`` when the reference register is split
    differently.  Summing the coefficient against its conjugate over (m, n)
    reproduces Kronecker deltas in (i, alpha): that is unitarity of ``w``.
    """
    if ref_dim_s is None:
        ref_dim_s = s.dim_s
    if ref_dim_e is None:
        ref_dim_e = s.dim_e
    if ref_dim_s * ref_dim_e != s.total_dim:
        raise ValueError(
            f"d_coefficient: reference split {ref_dim_s} x {ref_dim_e} does not factor"
            f" {s.total_dim}"
        )
    for value, bound, name in (
        (i, ref_dim_s, "i"),
        (alpha, ref_dim_e, "alpha"),
        (m, s.dim_s, "m"),
        (n, s.dim_e, "n"),
    ):
        if not 0 <= value < bound:
            raise ValueError(f"d_coefficient: index {name}={value} out of range [0, {bound})")
    return complex(np.conj(s.w[i * ref_dim_e + alpha, m * s.dim_e + n]))


def write_matrix_file(path, m, split_dim: int = 0) -> None:
    """Write a square complex matrix in the TPSW1 container.

    Layout: magic ``b"TPSW1"``, little-endian u32 dim, u32 split dim (the
    system dimension for structure unitaries, 0 for plain matrices), then
    dim*dim entries as interleaved re/im float64, row-major, little-endian.
    """
    m = require_square(as_matrix(m, "matrix file payload"), "matrix file payload")
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


def read_structure_file(path, label: str = "") -> Structure:
    """Read a structure unitary from a TPSW1 file (split dim from the header)."""
    m, split_dim = read_matrix_file(path)
    dim = m.shape[0]
    if split_dim < 1 or split_dim >= dim or dim % split_dim != 0:
        raise ValueError(
            f"{path}: split dim {split_dim} does not define a proper bipartition of dim {dim}"
        )
    return structure_from_unitary(m, split_dim, dim // split_dim, label=label or str(path))
