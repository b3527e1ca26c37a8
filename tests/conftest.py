"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from tpslab import (
    FactorLayout,
    RandomStream,
    TypeIProjection,
    bell_pair,
    dynamics,
    eigh,
    maximally_mixed,
    mix_seed,
    structure_from_grouping,
    structure_from_unitary,
    teleport_state,
)


def stream(seed: int, trial: int = 0) -> RandomStream:
    return RandomStream(mix_seed(seed, trial))


def random_pure_density(dim: int, seed: int, trial: int = 0) -> np.ndarray:
    v = stream(seed, trial).haar_pure(dim)
    return np.outer(v, v.conj())


def haar_structure(total: int, dim_s: int, seed: int, trial: int = 0):
    return structure_from_unitary(stream(seed, trial).haar_unitary(total), dim_s, total // dim_s)


def propagator(h, t: float) -> np.ndarray:
    """exp(-i h t) from the Hermitian eigendecomposition h = V diag(w) V^H."""
    w, v = eigh(h)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def max_mixed_spec(dim_e: int) -> TypeIProjection:
    return TypeIProjection(maximally_mixed(dim_e))


def teleport_setup(u=None):
    """The three-qubit register with its two standard splits."""
    if u is None:
        u = np.array([1.0, 0.0], dtype=np.complex128)
    layout = FactorLayout((2, 2, 2))
    s_a = structure_from_grouping(layout, (0,))
    s_b = structure_from_grouping(layout, (0, 1))
    psi = teleport_state(u)
    rho = np.outer(psi, psi.conj())
    return layout, s_a, s_b, psi, rho


def bell_density() -> np.ndarray:
    phi = bell_pair()
    return np.outer(phi, phi.conj())


def spy_routes(monkeypatch) -> list[str]:
    """Record the name of each propagation route that ``trajectory`` runs."""
    taken = []
    for name in ("_chebyshev_route", "_eigh_route"):
        route = getattr(dynamics, name)

        def spy(*args, _name=name, _route=route):
            taken.append(_name)
            return _route(*args)

        monkeypatch.setattr(dynamics, name, spy)
    return taken


def force_route(monkeypatch, chebyshev: bool) -> list[str]:
    """Make ``trajectory`` propagate by a Chebyshev series (True) or by eigh
    (False) whatever the route rule says; returns :func:`spy_routes`' list."""
    monkeypatch.setattr(dynamics, "_chebyshev_wins", lambda *args: chebyshev)
    return spy_routes(monkeypatch)
