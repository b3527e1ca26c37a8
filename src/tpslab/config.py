"""Scenario configuration: JSON parsing with strict validation.

Configs are UTF-8 JSON objects with a mandatory ``"version": 1``.  Unknown
keys are fatal everywhere -- there is no silent typo tolerance.  File paths
inside a config resolve relative to the config file's directory; the output
directory resolves relative to the working directory.

The one accepted projection form is type I, ``{"kind": "type_i",
"rho_ref": "maximally_mixed" | {"file": path}}``; the sweeps take only
``"maximally_mixed"``.  Any other kind is rejected before its files are read.
``load_config`` builds every input a scenario runs on.  The
``dynamics-trace`` initial state is kept as its eigen-ensemble
``(weights, vectors)``, the state being ``sum_k weights[k] |psi_k><psi_k|``
for the columns ``psi_k`` of ``vectors``: one vector for ``teleport`` and
``random_pure``, the ``rank`` left singular vectors of the Ginibre sample
for ``random_density``, and the reference basis with weights 1/d for
``maximally_mixed``.  No d x d density matrix is built.

A layout's total dimension is capped at ``MAX_TOTAL_DIM`` (4096, twelve
qubits).  Scenarios hold dense ``complex128`` operators of that dimension,
256 MiB each at the cap, so a larger layout is rejected as a config error
before anything is allocated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import Hamiltonian, RandomStream, TimeGrid
from .linalg import PURE_NORM_TOL, maximally_mixed
from .projections import TypeIProjection
from .relativity import teleport_state
from .structures import (
    FactorLayout,
    Structure,
    read_matrix_file,
    read_structure_file,
    structure_from_grouping,
)

SCENARIOS = ("teleport-check", "lemma1-sweep", "lemma2-sweep", "qcr-demo", "dynamics-trace")

_MAX_SEED = (1 << 64) - 1
MAX_TOTAL_DIM = 4096

# Keys admitted per scenario, beyond the common required set.
_COMMON_KEYS = {"version", "scenario", "base_seed", "output_dir", "trials"}
_SCENARIO_KEYS = {
    "teleport-check": {"input_qubit", "layout"},
    "lemma1-sweep": {"layout", "structure_a", "projection_a"},
    "lemma2-sweep": {"layout", "structure_a", "projection_a"},
    "qcr-demo": {"layout", "structure_a"},
    "dynamics-trace": {
        "layout",
        "structure_a",
        "structure_b",
        "projection_a",
        "projection_b",
        "hamiltonian",
        "initial_state",
        "time_grid",
    },
}
_REQUIRED_KEYS = {
    "teleport-check": set(),
    "lemma1-sweep": {"layout", "trials"},
    "lemma2-sweep": {"layout", "trials"},
    "qcr-demo": {"layout", "trials"},
    "dynamics-trace": {"layout", "structure_a", "structure_b", "hamiltonian", "initial_state", "time_grid"},
}

_MAXIMALLY_MIXED = "maximally_mixed"
_DEFAULT_INPUT_QUBIT = (1.0, 0.0)  # |0>, the teleported qubit when none is given


class ConfigError(ValueError):
    """A scenario config violated its schema or referenced bad data."""


@dataclass
class ScenarioConfig:
    """A validated, fully materialized scenario description."""

    scenario: str
    base_seed: int
    trials: int
    output_dir: Path
    echo: dict
    layout: FactorLayout | None = None
    structure_a: Structure | None = None
    structure_b: Structure | None = None
    projection_a: TypeIProjection | None = None
    projection_b: TypeIProjection | None = None
    hamiltonian: Hamiltonian | None = None
    initial_state: tuple[np.ndarray, np.ndarray] | None = None
    time_grid: TimeGrid | None = None
    input_qubit: np.ndarray | None = None


def _require_int(obj, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{name}: must be an integer, got {obj!r}")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {obj}")
    if maximum is not None and obj > maximum:
        raise ConfigError(f"{name}: must be <= {maximum}, got {obj}")
    return obj


def _require_number(obj, name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{name}: must be a number, got {obj!r}")
    return float(obj)


def _require_object(obj, name: str, allowed: set[str]) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{name}: unknown config key: {key!r}")
    return obj


def _parse_layout(obj, name: str) -> FactorLayout:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{name}: must be a nonempty list of factor dims")
    dims = tuple(_require_int(d, f"{name} entry", minimum=2) for d in obj)
    if len(dims) < 2:
        raise ConfigError(f"{name}: at least two factors are needed to define a split")
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise ConfigError(f"{name}: total dimension {total} exceeds the cap of {MAX_TOTAL_DIM}")
    return FactorLayout(dims)


def _parse_structure(obj, name: str, layout: FactorLayout, base_dir: Path) -> Structure:
    obj = _require_object(obj, name, {"grouping", "unitary_file"})
    if ("grouping" in obj) == ("unitary_file" in obj):
        raise ConfigError(f"{name}: give exactly one of 'grouping' or 'unitary_file'")
    if "grouping" in obj:
        indices = obj["grouping"]
        if not isinstance(indices, list) or not indices:
            raise ConfigError(f"{name}.grouping: must be a nonempty list of factor positions")
        indices = [_require_int(i, f"{name}.grouping entry", minimum=0) for i in indices]
        try:
            return structure_from_grouping(layout, indices)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    path = base_dir / str(obj["unitary_file"])
    if not path.is_file():
        raise ConfigError(f"{name}.unitary_file: no such file: {path}")
    try:
        s = read_structure_file(path)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if s.total_dim != layout.total_dim:
        raise ConfigError(
            f"{name}: unitary dim {s.total_dim} does not match layout dim {layout.total_dim}"
        )
    return s


def _read_square_matrix(spec, name: str, base_dir: Path) -> np.ndarray:
    spec = _require_object(spec, name, {"file"})
    if "file" not in spec:
        raise ConfigError(f"{name}: expected {{'file': path}}")
    path = base_dir / str(spec["file"])
    if not path.is_file():
        raise ConfigError(f"{name}.file: no such file: {path}")
    try:
        m, _ = read_matrix_file(path)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return m


def _parse_projection(obj, name: str, s: Structure, base_dir: Path) -> TypeIProjection:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind != "type_i":
        raise ConfigError(
            f"{name}: dynamics-trace requires kind 'type_i' (the commutator column"
            f" is defined for that family only), got {kind!r}"
        )
    obj = _require_object(obj, name, {"kind", "rho_ref"})
    ref = obj.get("rho_ref", _MAXIMALLY_MIXED)
    if ref == _MAXIMALLY_MIXED:
        return TypeIProjection(maximally_mixed(s.dim_e))
    m = _read_square_matrix(ref, f"{name}.rho_ref", base_dir)
    if m.shape[0] != s.dim_e:
        raise ConfigError(
            f"{name}.rho_ref: dim {m.shape[0]} does not match environment dim {s.dim_e}"
        )
    try:
        return TypeIProjection(m)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_hamiltonian(obj, name: str, total_dim: int, base_dir: Path) -> Hamiltonian:
    obj = _require_object(obj, name, {"gue_seed", "file"})
    if ("gue_seed" in obj) == ("file" in obj):
        raise ConfigError(f"{name}: give exactly one of 'gue_seed' or 'file'")
    if "gue_seed" in obj:
        seed = _require_int(obj["gue_seed"], f"{name}.gue_seed", minimum=0, maximum=_MAX_SEED)
        return Hamiltonian(RandomStream(seed).gue(total_dim))
    m = _read_square_matrix({"file": obj["file"]}, f"{name}.file", base_dir)
    if m.shape[0] != total_dim:
        raise ConfigError(f"{name}: dim {m.shape[0]} does not match layout dim {total_dim}")
    try:
        return Hamiltonian(m)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_time_grid(obj, name: str, h: Hamiltonian) -> TimeGrid:
    """The grid, rejected when a phase ``w * t`` of the propagator could
    overflow; the largest absolute row sum of H bounds every eigenvalue."""
    obj = _require_object(obj, name, {"t0", "t1", "steps"})
    for key in ("t0", "t1", "steps"):
        if key not in obj:
            raise ConfigError(f"{name}.{key}: missing")
    steps = _require_int(obj["steps"], f"{name}.steps", minimum=1)
    try:
        grid = TimeGrid(_require_number(obj["t0"], f"{name}.t0"), _require_number(obj["t1"], f"{name}.t1"), steps)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    t_max = max(abs(grid.t0), abs(grid.t1))
    h_bound = float(np.abs(h.mat).sum(axis=1).max())
    if not math.isfinite(t_max * h_bound):
        raise ConfigError(
            f"{name}: propagator phases overflow (max |t| = {t_max:.3e}, ||H|| <= {h_bound:.3e})"
        )
    return grid


def _parse_qubit(obj, name: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ConfigError(f"{name}: must be [[re, im], [re, im]]")
    amps = []
    for i, pair in enumerate(obj):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{name}[{i}]: must be an [re, im] pair")
        amps.append(complex(_require_number(pair[0], f"{name}[{i}][0]"), _require_number(pair[1], f"{name}[{i}][1]")))
    vec = np.asarray(amps, dtype=np.complex128)
    norm2 = float(np.vdot(vec, vec).real)
    if abs(norm2 - 1.0) > PURE_NORM_TOL:
        raise ConfigError(f"{name}: not normalized (||u||^2 = {norm2:.15g})")
    return vec


def _pure(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.ones(1), psi[:, None]


def _parse_initial_state(
    obj, name: str, layout: FactorLayout
) -> tuple[tuple[np.ndarray, np.ndarray], dict]:
    """The initial state as its eigen-ensemble ``(weights, vectors)``, and
    its config echo."""
    obj = _require_object(obj, name, {"kind", "seed", "rank", "input_qubit"})
    kind = obj.get("kind")
    total = layout.total_dim
    if kind == "teleport":
        if layout.dims != (2, 2, 2):
            raise ConfigError(f"{name}: kind 'teleport' needs layout [2, 2, 2]")
        echo: dict = {"kind": "teleport"}
        u = np.array(_DEFAULT_INPUT_QUBIT, dtype=np.complex128)
        if "input_qubit" in obj:
            u = _parse_qubit(obj["input_qubit"], f"{name}.input_qubit")
            echo["input_qubit"] = [[float(a.real), float(a.imag)] for a in u]
        for key in ("seed", "rank"):
            if key in obj:
                raise ConfigError(f"{name}.{key}: not allowed for kind 'teleport'")
        return _pure(teleport_state(u)), echo
    if kind == "random_pure":
        if "seed" not in obj:
            raise ConfigError(f"{name}.seed: required for kind 'random_pure'")
        if "rank" in obj or "input_qubit" in obj:
            raise ConfigError(f"{name}: only 'seed' is allowed for kind 'random_pure'")
        seed = _require_int(obj["seed"], f"{name}.seed", minimum=0, maximum=_MAX_SEED)
        return _pure(RandomStream(seed).haar_pure(total)), {"kind": "random_pure", "seed": seed}
    if kind == "random_density":
        if "seed" not in obj or "rank" not in obj:
            raise ConfigError(f"{name}: kind 'random_density' needs 'seed' and 'rank'")
        if "input_qubit" in obj:
            raise ConfigError(f"{name}.input_qubit: not allowed for kind 'random_density'")
        seed = _require_int(obj["seed"], f"{name}.seed", minimum=0, maximum=_MAX_SEED)
        rank = _require_int(obj["rank"], f"{name}.rank", minimum=1, maximum=total)
        ensemble = RandomStream(seed).ginibre_ensemble(total, rank)
        return ensemble, {"kind": "random_density", "seed": seed, "rank": rank}
    if kind == "maximally_mixed":
        for key in ("seed", "rank", "input_qubit"):
            if key in obj:
                raise ConfigError(f"{name}.{key}: not allowed for kind 'maximally_mixed'")
        ensemble = (np.full(total, 1.0 / total), np.eye(total, dtype=np.complex128))
        return ensemble, {"kind": "maximally_mixed"}
    raise ConfigError(
        f"{name}.kind: must be one of teleport, random_pure, random_density,"
        f" maximally_mixed, got {kind!r}"
    )


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite number {token} (NaN and Infinity are not JSON)")


def _finite_float(token: str) -> float:
    """JSON float literal; one that overflows to infinity is rejected."""
    value = float(token)
    if not math.isfinite(value):
        _reject_non_finite(token)
    return value


def load_config(
    path,
    seed_override: int | None = None,
    trials_override: int | None = None,
    output_dir_override=None,
) -> ScenarioConfig:
    """Read, validate and materialize a scenario config file.

    Overrides replace ``base_seed`` / ``trials`` / ``output_dir`` before
    validation, matching the CLI flags.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=_reject_non_finite, parse_float=_finite_float)
    except ValueError as exc:  # JSONDecodeError, or a non-finite number
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")

    if seed_override is not None:
        raw["base_seed"] = seed_override
    if trials_override is not None:
        raw["trials"] = trials_override
    if output_dir_override is not None:
        raw["output_dir"] = str(output_dir_override)

    if "version" not in raw:
        raise ConfigError("version: missing (expected 1)")
    if raw["version"] != 1:
        raise ConfigError(f"version: expected 1, got {raw['version']!r}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: must be one of {', '.join(SCENARIOS)}, got {scenario!r}")

    allowed = _COMMON_KEYS | _SCENARIO_KEYS[scenario]
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key!r}")
    for key in ("base_seed", "output_dir"):
        if key not in raw:
            raise ConfigError(f"missing required config key: {key}")
    for key in _REQUIRED_KEYS[scenario]:
        if key not in raw:
            raise ConfigError(f"missing required config key: {key}")

    base_seed = _require_int(raw["base_seed"], "base_seed", minimum=0, maximum=_MAX_SEED)
    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise ConfigError("output_dir: must be a nonempty string")
    output_dir = Path(raw["output_dir"])
    trials = _require_int(raw.get("trials", 1), "trials", minimum=1)
    base_dir = path.parent

    echo: dict = {"version": 1, "scenario": scenario, "base_seed": base_seed, "trials": trials}
    cfg = ScenarioConfig(
        scenario=scenario,
        base_seed=base_seed,
        trials=trials,
        output_dir=output_dir,
        echo=echo,
    )

    if scenario == "teleport-check":
        if "layout" in raw:
            layout = _parse_layout(raw["layout"], "layout")
            if layout.dims != (2, 2, 2):
                raise ConfigError("layout: teleport-check is defined on [2, 2, 2]")
        cfg.layout = FactorLayout((2, 2, 2))
        echo["layout"] = [2, 2, 2]
        cfg.input_qubit = np.array(_DEFAULT_INPUT_QUBIT, dtype=np.complex128)
        if "input_qubit" in raw:
            cfg.input_qubit = _parse_qubit(raw["input_qubit"], "input_qubit")
            echo["input_qubit"] = [[float(a.real), float(a.imag)] for a in cfg.input_qubit]
    else:
        layout = _parse_layout(raw["layout"], "layout")
        cfg.layout = layout
        echo["layout"] = list(layout.dims)
        structure_a_raw = raw.get("structure_a", {"grouping": [0]})
        cfg.structure_a = _parse_structure(structure_a_raw, "structure_a", layout, base_dir)
        echo["structure_a"] = structure_a_raw

    if scenario in ("lemma1-sweep", "lemma2-sweep"):
        proj_raw = raw.get("projection_a", {"kind": "type_i", "rho_ref": _MAXIMALLY_MIXED})
        proj_obj = _require_object(proj_raw, "projection_a", {"kind", "rho_ref"})
        if proj_obj.get("kind") != "type_i" or proj_obj.get("rho_ref", _MAXIMALLY_MIXED) != _MAXIMALLY_MIXED:
            raise ConfigError(
                "projection_a: sweeps require {'kind': 'type_i', 'rho_ref': 'maximally_mixed'}"
                " (per-trial random alternate splits need a dimension-generic reference)"
            )
        cfg.projection_a = TypeIProjection(maximally_mixed(cfg.structure_a.dim_e))
        echo["projection_a"] = {"kind": "type_i", "rho_ref": _MAXIMALLY_MIXED}

    if scenario == "dynamics-trace":
        if trials != 1:
            raise ConfigError("trials: dynamics-trace runs a single trajectory (trials must be 1)")
        cfg.structure_b = _parse_structure(raw["structure_b"], "structure_b", cfg.layout, base_dir)
        echo["structure_b"] = raw["structure_b"]
        proj_a_raw = raw.get("projection_a", {"kind": "type_i", "rho_ref": _MAXIMALLY_MIXED})
        proj_b_raw = raw.get("projection_b", {"kind": "type_i", "rho_ref": _MAXIMALLY_MIXED})
        cfg.projection_a = _parse_projection(proj_a_raw, "projection_a", cfg.structure_a, base_dir)
        cfg.projection_b = _parse_projection(proj_b_raw, "projection_b", cfg.structure_b, base_dir)
        echo["projection_a"] = proj_a_raw
        echo["projection_b"] = proj_b_raw
        cfg.hamiltonian = _parse_hamiltonian(raw["hamiltonian"], "hamiltonian", cfg.layout.total_dim, base_dir)
        echo["hamiltonian"] = raw["hamiltonian"]
        cfg.initial_state, echo["initial_state"] = _parse_initial_state(
            raw["initial_state"], "initial_state", cfg.layout
        )
        cfg.time_grid = _parse_time_grid(raw["time_grid"], "time_grid", cfg.hamiltonian)
        echo["time_grid"] = {"t0": cfg.time_grid.t0, "t1": cfg.time_grid.t1, "steps": cfg.time_grid.steps}

    echo["output_dir"] = str(raw["output_dir"])
    return cfg
