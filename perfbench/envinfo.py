"""Environment record and BLAS thread control through numpy's bundled
OpenBLAS (``threadpoolctl`` is not a dependency)."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads_env(count: int) -> None:
    """Set every BLAS thread variable; effective only before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(count)


def _find_openblas():
    """(file name, library, symbol prefix, symbol suffix) of numpy's OpenBLAS,
    or None."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    return path.name, lib, prefix, suffix
    return None


class OpenBLAS:
    """numpy's bundled OpenBLAS, or an inert stand-in when it is not found."""

    def __init__(self):
        found = _find_openblas()
        self.path = found[0] if found else None
        if found is None:
            return
        _, lib, prefix, suffix = found
        self._get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        self._get.argtypes, self._get.restype = [], ctypes.c_int
        self._set = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        self._set.argtypes, self._set.restype = [ctypes.c_int], None
        self._config = getattr(lib, f"{prefix}_get_config{suffix}")
        self._config.argtypes, self._config.restype = [], ctypes.c_char_p

    @property
    def found(self) -> bool:
        return self.path is not None

    def threads(self) -> int:
        return self._get() if self.found else -1

    def set_threads(self, count: int) -> None:
        if self.found:
            self._set(count)

    def config(self) -> str:
        return self._config().decode() if self.found else "unknown"


def _git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """sha256 over the package's .py files (path and bytes), in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record(root: Path, blas: OpenBLAS, workload: str, seed: int, variant: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_library": blas.path,
        "blas_config": blas.config(),
        "blas_threads": blas.threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src" / "tpslab"),
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "executable": Path(sys.executable).name,
    }
