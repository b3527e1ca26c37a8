"""Dense complex matrix algebra for finite-dimensional quantum systems.

All operators are dense numpy arrays of ``complex128``.  Composite indices
follow the row-major convention ``|i>_A (x) |b>_B  <->  i * dim_b + b``
throughout the package, which makes partial traces and Schmidt reshapes
plain ``reshape`` calls.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Centralized tolerances.  Measured invariant residuals stay well below them:
# about 4.7 decades of headroom at d=64, 5.2-5.8 at d=256 and 6 at d=1024.
HERMITICITY_TOL = 1e-10   # max-entry defect relative to the largest entry
UNITARITY_TOL = 1e-10     # Frobenius norm of W^H W - I
TRACE_TOL = 1e-10         # |tr(rho) - 1|
PSD_FLOOR = -1e-10        # smallest admissible state eigenvalue
PURE_NORM_TOL = 1e-12     # | ||psi||^2 - 1 |
SCHMIDT_RANK_TOL = 1e-10  # coefficients below this count as zero
ENTROPY_EIGVAL_FLOOR = 1e-12


class InvariantViolation(RuntimeError):
    """An identity that must hold by construction was numerically breached."""


def _require_within(value: float, tol: float, error: type[Exception], what: str) -> float:
    """The one tolerance check: return ``value`` when ``value <= tol``, else
    raise ``error`` naming ``what``, the value and the tolerance.  NaN fails
    the comparison, so a measurement that overflowed is rejected, never
    passed.  ``what`` holds no formatted number: a check that passes formats
    nothing."""
    if value <= tol:
        return value
    raise error(f"{what} = {value:.3e}, not within {tol:g}")


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={out.ndim}")
    # np.isfinite of a complex entry tests both its parts
    if not np.isfinite(out).all():
        raise ValueError(f"{name}: entries must be finite")
    return out


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    out = np.asarray(v, dtype=np.complex128)
    if out.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name}: entries must be finite")
    return out


def require_square(m, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected square, got {m.shape[0]}x{m.shape[1]}")
    return m


_HERMITICITY_BLOCK_BYTES = 1 << 17  # bounds the temporaries of a Hamiltonian's check


def _hermiticity_defect(m: np.ndarray) -> float:
    """Max-entry distance to the adjoint, relative to the largest entry, of
    a square complex128 array; trusted.  Taken in row blocks of at most
    _HERMITICITY_BLOCK_BYTES: both maxima are exact, so the value does not
    depend on the block size."""
    rows = max(1, _HERMITICITY_BLOCK_BYTES // (16 * max(1, m.shape[1])))
    scale = distance = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow measures inf or NaN
        for start in range(0, m.shape[0], rows):
            block = m[start : start + rows]
            scale = max(scale, float(np.abs(block).max()))
            distance = max(distance, float(np.abs(block - m[:, start : start + rows].conj().T).max()))
        if scale == 0.0:
            return 0.0
        return distance / scale


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    return _checked_hermitian(m, name)[0]


def _checked_hermitian(m, name: str) -> tuple[np.ndarray, float]:
    """:func:`require_hermitian` that also returns the relative defect, which
    is 0 exactly when the matrix equals its adjoint."""
    m = require_square(m, name)
    return m, _require_within(_hermiticity_defect(m), HERMITICITY_TOL, ValueError, f"{name}: not Hermitian: relative defect")


def _hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectrum of a square complex128 array that is Hermitian by
    test or by construction: the eigenvalues of its Hermitian part.  An
    exactly diagonal array, such as a maximally mixed reference or a zero
    matrix, gives its sorted real diagonal, with no O(d^3) eigensolver call.
    A nonzero corner m[0, -1] rules that out without counting the entries."""
    if m.shape[0] < 2 or (m[0, -1] == 0 and np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))):
        return np.sort(np.diagonal(m).real)
    # halving first is exact for normal-range entries, so these are the bits
    # of (m + m^H) / 2, with no overflow and one fewer temporary
    h = m * 0.5
    h += h.conj().T
    return np.linalg.eigvalsh(h)


@functools.cache
def _openblas():
    """``(get_num_threads, set_num_threads, zpotrf)`` of numpy's bundled
    OpenBLAS, through ctypes, or None where numpy bundles none, as its macOS
    and Windows wheels and conda builds do.  ``zpotrf(a)`` runs LAPACK's
    Cholesky, uplo 'L', in place on the Fortran-ordered view ``a.T`` of a
    C-ordered square complex128 ``a`` and returns LAPACK's ``info``: the
    routine and the bytes of ``np.linalg.cholesky(a.T)``.  Its symbol takes
    the prefix and suffix of the thread functions, and 64-bit integers where
    the suffix is ``64_``.  Looked up on first use, once per process."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix, lapack in (("scipy_openblas", "scipy_"), ("openblas", "")):
            for suffix in ("64_", ""):
                threads = (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                names = (*threads, f"{lapack}zpotrf_{suffix}")
                if all(hasattr(lib, name) for name in names):
                    get, set_, potrf = (getattr(lib, name) for name in names)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    integer = ctypes.c_int64 if suffix == "64_" else ctypes.c_int
                    ref = ctypes.POINTER(integer)
                    potrf.argtypes, potrf.restype = [ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref], None

                    def zpotrf(a: np.ndarray) -> int:
                        # LAPACK reads and writes n * n entries behind the pointer
                        if a.dtype != np.complex128 or a.shape != (len(a), len(a)) or not a.flags.carray:
                            raise ValueError("zpotrf: expected a writeable C-ordered square complex128 array")
                        n, info = integer(a.shape[0]), integer(0)
                        potrf(b"L", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ctypes.byref(info))
                        return info.value

                    return get, set_, zpotrf
    return None


def _cholesky_succeeds(a: np.ndarray) -> bool:
    """Whether LAPACK's Cholesky factors the Hermitian ``a``, a C-ordered
    square complex128 array, which it overwrites: ``a`` is positive definite
    exactly when its transposed view, its conjugate, is.  Through numpy's
    own OpenBLAS when :func:`_openblas` finds it, else by numpy."""
    blas = _openblas()
    return _numpy_cholesky_succeeds(a) if blas is None else blas[2](a) == 0


def _numpy_cholesky_succeeds(a: np.ndarray) -> bool:
    """:func:`_cholesky_succeeds` by ``np.linalg.cholesky``, which factors a
    copy of the same bytes."""
    try:
        np.linalg.cholesky(a.T)
    except np.linalg.LinAlgError:
        return False
    return True


def _checked_spectrum(rho, name: str = "rho") -> tuple[np.ndarray, np.ndarray]:
    """Validate Hermiticity, unit trace and positivity; return the array and
    its ascending spectrum, which callers reuse instead of recomputing it."""
    rho = require_hermitian(rho, name=name)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow measures inf or NaN
        tr = complex(np.trace(rho))
    _require_within(abs(tr - 1.0), TRACE_TOL, ValueError, f"{name}: trace is not 1: |tr - 1|")
    w = _hermitian_spectrum(rho)
    _require_within(-w[0], -PSD_FLOOR, ValueError, f"{name}: not positive semidefinite: -min eigenvalue")
    return rho, w


def check_density_matrix(rho, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return the array."""
    return _checked_spectrum(rho, name)[0]


def check_pure_state(psi, name: str = "psi") -> np.ndarray:
    """Validate normalization of a state vector; return the array."""
    psi = as_vector(psi, name)
    norm2 = float(np.vdot(psi, psi).real)
    _require_within(abs(norm2 - 1.0), PURE_NORM_TOL, ValueError, f"{name}: not normalized: | ||psi||^2 - 1 |")
    return psi


def _orthonormality_defect(v: np.ndarray) -> float:
    """Frobenius norm of ``V^H V - I`` for the columns of ``v``."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow measures inf or NaN
        return float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))


def check_ensemble(weights, vectors, name: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """Validate a state given as its eigen-ensemble ``sum_k p_k |psi_k><psi_k|``:
    positive weights ``p`` summing to 1, and orthonormal columns ``psi_k`` of
    ``vectors``.  Returns the weights as float64 and the vectors as complex128."""
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name}: weights must be a nonempty 1-D array")
    if not np.all(np.isfinite(p)) or np.any(p <= 0):
        raise ValueError(f"{name}: weights must be positive and finite")
    _require_within(abs(float(p.sum()) - 1.0), TRACE_TOL, ValueError, f"{name}: weights sum to 1 + e, |e|")
    psi = as_matrix(vectors, f"{name} vectors")
    if psi.shape[1] != p.size:
        raise ValueError(f"{name}: {psi.shape[1]} vectors for {p.size} weights")
    _require_within(_orthonormality_defect(psi), UNITARITY_TOL, ValueError, f"{name}: vectors are not orthonormal: defect")
    return p, psi


def maximally_mixed(dim: int) -> np.ndarray:
    """Identity over dimension: the state with no information at all."""
    if dim < 1:
        raise ValueError(f"maximally_mixed: dim must be >= 1, got {dim}")
    return np.eye(dim, dtype=np.complex128) / dim


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 2-D arrays, composite row index ``i_a * rows_b +
    i_b``; trusted.  Each entry is the one product ``np.kron`` forms,
    without its general-rank set-up."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``m`` must be square of dimension ``dim_a * dim_b`` with the package's
    composite index convention.  ``keep`` selects the surviving factor,
    ``"A"`` or ``"B"``.  The trace of the result equals the trace of ``m``.
    """
    m = require_square(m, "partial_trace input")
    if dim_a < 1 or dim_b < 1 or m.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"partial_trace: matrix dim {m.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    if keep not in ("A", "B"):
        raise ValueError(f"partial_trace: keep must be 'A' or 'B', got {keep!r}")
    return _partial_trace(m, dim_a, dim_b, keep)


def _partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trusted kernel of :func:`partial_trace`: arguments already checked."""
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("abcb->ac" if keep == "A" else "abac->bc", r)


def eigh(h, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues ascending.

    Returns ``(w, v)`` with ``h = v @ diag(w) @ v.conj().T`` and unitary
    ``v``.  Non-Hermitian input is rejected with the measured defect.
    """
    h = require_hermitian(h, name=name)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return w, v


def _phases(w: np.ndarray, t: float) -> np.ndarray:
    """exp(-i w t) for the eigenvalues ``w`` of :func:`eigh`."""
    return np.exp(-1j * w * float(t))


def trace_norm(m) -> float:
    """Sum of singular values of a matrix that is Hermitian by construction,
    as the differences of states and reductions whose trace norms the paper
    takes are: the moduli of :func:`_hermitian_spectrum`, the spectrum of
    its Hermitian part.  Hermiticity is not tested, so a roundoff-sized
    residual, whose relative defect may be of order 1, takes that route too.
    """
    return float(np.abs(_hermitian_spectrum(require_square(m, "trace_norm input"))).sum())


def purity(rho) -> float:
    """tr(rho^2), real part."""
    rho = require_square(rho, "purity input")
    return float(np.trace(rho @ rho).real)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Bi-orthogonal form of a bipartite pure state.

    ``coeffs`` are nonnegative and descending; column ``k`` of
    ``left_vectors`` / ``right_vectors`` carries the k-th Schmidt pair, so
    the state is ``sum_k coeffs[k] * kron(left[:, k], right[:, k])``.
    """

    coeffs: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.coeffs > SCHMIDT_RANK_TOL))


def schmidt(psi, dim_a: int, dim_b: int) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized state across ``dim_a x dim_b``."""
    psi = check_pure_state(psi)
    if psi.size != dim_a * dim_b:
        raise ValueError(f"schmidt: state dim {psi.size} does not factor as {dim_a} x {dim_b}")
    u, s, vh = np.linalg.svd(psi.reshape(dim_a, dim_b), full_matrices=False)
    return SchmidtDecomposition(coeffs=s, left_vectors=u, right_vectors=vh.T)


def _spectral_entropy(w: np.ndarray) -> float:
    """-sum(p ln p) over a validated spectrum; eigenvalues below 1e-12 contribute 0."""
    w = w[w > ENTROPY_EIGVAL_FLOOR]
    return float(-(w * np.log(w)).sum())


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(p ln p) in nats; eigenvalues below 1e-12 contribute 0."""
    return _spectral_entropy(_checked_spectrum(rho)[1])
