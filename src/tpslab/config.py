"""Scenario configuration: JSON parsing with strict validation.

Configs are UTF-8 JSON objects with a mandatory ``"version": 1`` (the
integer; ``true`` and ``1.0`` are rejected).  Unknown keys are fatal
everywhere, and so is a key repeated within one object, whose last value
plain ``json`` would keep -- there is no silent typo tolerance.  File paths
inside a config resolve relative to the config file's directory; the output
directory resolves relative to the working directory.

Two tables describe the schema.  ``SCENARIOS`` gives each scenario its own
keys, in the order ``load_config`` parses and echoes them, the ones it
requires, and the one echo it admits for some keys (teleport-check's
layout, dynamics-trace's trials, the sweeps' projection);
``_INITIAL_STATE_KEYS`` gives the allowed and required keys of each
``initial_state`` kind.  ``_require_object`` checks every JSON object
against its allowed and required keys, and reports the first missing key in
table order, so an error does not depend on the hash seed.

The one accepted projection form is type I, ``{"kind": "type_i",
"rho_ref": "maximally_mixed" | {"file": path}}``, echoed with its
``rho_ref``; the sweeps take only ``"maximally_mixed"``.  Any other kind is
rejected before its files are read.
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
before anything is allocated.  A ``dynamics-trace`` time grid is capped at
``MAX_TIME_STEPS`` (10**6) steps for the same reason.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import Hamiltonian, RandomStream, TimeGrid
from .linalg import PURE_NORM_TOL, _require_within, maximally_mixed
from .projections import TypeIProjection, check_compatible
from .relativity import teleport_state
from .structures import (
    FactorLayout,
    Structure,
    read_matrix_file,
    read_structure_file,
    structure_from_grouping,
)

_MAX_SEED = (1 << 64) - 1
MAX_TOTAL_DIM = 4096
# A trajectory keeps one point, and its report one series row of about 170
# bytes, per grid time: 10**6 steps hold the series near 170 MB, less than
# one dense operator at MAX_TOTAL_DIM.  A finer grid is rejected as a config
# error before anything is allocated, not as a failure of the run.
MAX_TIME_STEPS = 10**6

# The keys every scenario shares, in echo order; a scenario's own keys
# follow them, and output_dir is echoed last.
_COMMON_KEYS = ("version", "scenario", "base_seed", "trials")

_MAXIMALLY_MIXED = "maximally_mixed"
_DEFAULT_PROJECTION = {"kind": "type_i", "rho_ref": _MAXIMALLY_MIXED}
_SWEEP_FIXED = {"projection_a": _DEFAULT_PROJECTION}

# Each scenario's own keys in echo order (the order load_config parses them
# in); the keys it requires besides version, scenario, base_seed and
# output_dir, which every scenario requires; and the one echo it admits for
# some keys.  Teleport-check is defined on three qubits, dynamics-trace runs
# a single trajectory, and the sweeps' per-trial random alternate splits
# need a dimension-generic reference.
SCENARIOS = {
    "teleport-check": (("layout", "input_qubit"), (), {"layout": [2, 2, 2]}),
    "lemma1-sweep": (("layout", "structure_a", "projection_a"), ("trials", "layout"), _SWEEP_FIXED),
    "lemma2-sweep": (("layout", "structure_a", "projection_a"), ("trials", "layout"), _SWEEP_FIXED),
    "qcr-demo": (("layout", "structure_a"), ("trials", "layout"), {}),
    "dynamics-trace": (
        ("layout", "structure_a", "structure_b", "projection_a", "projection_b", "hamiltonian", "initial_state", "time_grid"),
        ("layout", "structure_a", "structure_b", "hamiltonian", "initial_state", "time_grid"),
        {"trials": 1},
    ),
}

# What an absent optional key stands for (layout is optional only for
# teleport-check).  An absent input_qubit is |0>, the ScenarioConfig
# default, and is not echoed.
_DEFAULTS = {
    "trials": 1,
    "layout": [2, 2, 2],
    "structure_a": {"grouping": [0]},
    "projection_a": _DEFAULT_PROJECTION,
    "projection_b": _DEFAULT_PROJECTION,
}
_DEFAULT_INPUT_QUBIT = (1.0, 0.0)  # |0>, the teleported qubit when none is given

# The keys each initial_state kind allows beside "kind", and those it requires.
_INITIAL_STATE_KEYS = {
    "teleport": (("input_qubit",), ()),
    "random_pure": (("seed",), ("seed",)),
    "random_density": (("seed", "rank"), ("seed", "rank")),
    "maximally_mixed": ((), ()),
}


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
    input_qubit: np.ndarray = field(default_factory=lambda: np.array(_DEFAULT_INPUT_QUBIT, dtype=np.complex128))


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
    try:
        return float(obj)
    except OverflowError:
        raise ConfigError(f"{name}: integer too large for a float") from None


def _require_object(obj, name: str, allowed, required=()) -> dict:
    """``obj`` as a JSON object whose keys all lie in ``allowed`` and which
    has every key of ``required``; the first missing key in ``required``'s
    order is the one reported.  ``name`` is empty for the top level."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(obj).__name__}")
    where = f"{name}: " if name else ""
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}unknown config key: {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}missing required config key: {key}")
    return obj


# Each parser below reads one top-level key.  It takes ``(obj, name, v,
# base_dir)``, ``v`` holding the scenario name and the values of the keys
# parsed before this one, and gives ``(value, echo)``; ``load_config`` makes
# a library constructor's ``ValueError`` a ``ConfigError`` naming the key.


def _parse_base_seed(obj, name: str, v: dict, base_dir: Path):
    seed = _require_int(obj, name, minimum=0, maximum=_MAX_SEED)
    return seed, seed


def _parse_trials(obj, name: str, v: dict, base_dir: Path):
    trials = _require_int(obj, name, minimum=1)
    return trials, trials


def _parse_output_dir(obj, name: str, v: dict, base_dir: Path):
    if not isinstance(obj, str) or not obj:
        raise ConfigError(f"{name}: must be a nonempty string")
    return Path(obj), obj


def _parse_layout(obj, name: str, v: dict, base_dir: Path):
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{name}: must be a nonempty list of factor dims")
    dims = tuple(_require_int(d, f"{name} entry", minimum=2) for d in obj)
    if len(dims) < 2:
        raise ConfigError(f"{name}: at least two factors are needed to define a split")
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise ConfigError(f"{name}: total dimension {total} exceeds the cap of {MAX_TOTAL_DIM}")
    return FactorLayout(dims), list(dims)


def _parse_structure(obj, name: str, v: dict, base_dir: Path):
    obj = _require_object(obj, name, ("grouping", "unitary_file"))
    if ("grouping" in obj) == ("unitary_file" in obj):
        raise ConfigError(f"{name}: give exactly one of 'grouping' or 'unitary_file'")
    layout = v["layout"]
    if "grouping" in obj:
        indices = obj["grouping"]
        if not isinstance(indices, list) or not indices:
            raise ConfigError(f"{name}.grouping: must be a nonempty list of factor positions")
        indices = [_require_int(i, f"{name}.grouping entry", minimum=0) for i in indices]
        return structure_from_grouping(layout, indices), obj
    s = _read_file(read_structure_file, obj, "unitary_file", name, base_dir)
    if s.total_dim != layout.total_dim:
        raise ConfigError(
            f"{name}: unitary dim {s.total_dim} does not match layout dim {layout.total_dim}"
        )
    return s, obj


def _read_file(read, obj: dict, key: str, name: str, base_dir: Path):
    """``read(path)`` of the file that ``obj[key]`` names, relative to the
    config's directory; a missing, unreadable or malformed file is a config
    error."""
    path = base_dir / str(obj[key])
    if not path.is_file():
        raise ConfigError(f"{name}.{key}: no such file: {path}")
    try:
        return read(path)
    except OSError as exc:
        raise ConfigError(f"{name}.{key}: cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _read_square_matrix(spec, name: str, base_dir: Path) -> np.ndarray:
    spec = _require_object(spec, name, ("file",), ("file",))
    return _read_file(read_matrix_file, spec, "file", name, base_dir)[0]


def _parse_projection(obj, name: str, v: dict, base_dir: Path):
    """The type I projection for the structure of the same letter, echoed
    with its ``rho_ref``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind != "type_i":
        raise ConfigError(f"{name}: kind must be 'type_i', the one projection family the CLI builds, got {kind!r}")
    ref = _require_object(obj, name, ("kind", "rho_ref")).get("rho_ref", _MAXIMALLY_MIXED)
    obj = {"kind": kind, "rho_ref": ref}
    s = v[name.replace("projection", "structure")]
    if ref == _MAXIMALLY_MIXED:
        return TypeIProjection(maximally_mixed(s.dim_e)), obj
    spec = TypeIProjection(_read_square_matrix(ref, f"{name}.rho_ref", base_dir))
    check_compatible(s, spec)
    return spec, obj


def _parse_hamiltonian(obj, name: str, v: dict, base_dir: Path):
    obj = _require_object(obj, name, ("gue_seed", "file"))
    if ("gue_seed" in obj) == ("file" in obj):
        raise ConfigError(f"{name}: give exactly one of 'gue_seed' or 'file'")
    total_dim = v["layout"].total_dim
    if "gue_seed" in obj:
        seed = _require_int(obj["gue_seed"], f"{name}.gue_seed", minimum=0, maximum=_MAX_SEED)
        return Hamiltonian(RandomStream(seed).gue(total_dim)), obj
    m = _read_square_matrix(obj, name, base_dir)
    if m.shape[0] != total_dim:
        raise ConfigError(f"{name}: dim {m.shape[0]} does not match layout dim {total_dim}")
    return Hamiltonian(m), obj


def _parse_time_grid(obj, name: str, v: dict, base_dir: Path):
    """The grid, rejected when a phase ``w * t`` of the propagator could
    overflow; the largest absolute row sum of H bounds every eigenvalue."""
    keys = ("t0", "t1", "steps")
    obj = _require_object(obj, name, keys, keys)
    steps = _require_int(obj["steps"], f"{name}.steps", minimum=1, maximum=MAX_TIME_STEPS)
    grid = TimeGrid(_require_number(obj["t0"], f"{name}.t0"), _require_number(obj["t1"], f"{name}.t1"), steps)
    t_max = max(abs(grid.t0), abs(grid.t1))
    h_bound = float(np.abs(v["hamiltonian"].mat).sum(axis=1).max())
    if not math.isfinite(t_max * h_bound):
        raise ConfigError(
            f"{name}: propagator phases overflow (max |t| = {t_max:.3e}, ||H|| <= {h_bound:.3e})"
        )
    return grid, {"t0": grid.t0, "t1": grid.t1, "steps": grid.steps}


def _parse_qubit(obj, name: str, v: dict, base_dir: Path):
    if not isinstance(obj, list) or len(obj) != 2:
        raise ConfigError(f"{name}: must be [[re, im], [re, im]]")
    amps = []
    for i, pair in enumerate(obj):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{name}[{i}]: must be an [re, im] pair")
        amps.append(complex(_require_number(pair[0], f"{name}[{i}][0]"), _require_number(pair[1], f"{name}[{i}][1]")))
    vec = np.asarray(amps, dtype=np.complex128)
    norm2 = float(np.vdot(vec, vec).real)
    _require_within(abs(norm2 - 1.0), PURE_NORM_TOL, ConfigError, f"{name}: not normalized: | ||u||^2 - 1 |")
    return vec, [[float(a.real), float(a.imag)] for a in vec]


def _pure(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.ones(1), psi[:, None]


def _parse_initial_state(obj, name: str, v: dict, base_dir: Path):
    """The initial state as its eigen-ensemble ``(weights, vectors)``, and
    its config echo."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _INITIAL_STATE_KEYS:
        raise ConfigError(f"{name}.kind: must be one of {', '.join(_INITIAL_STATE_KEYS)}, got {kind!r}")
    allowed, required = _INITIAL_STATE_KEYS[kind]
    _require_object(obj, f"{name} (kind {kind!r})", ("kind", *allowed), required)
    echo: dict = {"kind": kind}
    layout = v["layout"]
    total = layout.total_dim
    if kind == "teleport":
        if layout.dims != (2, 2, 2):
            raise ConfigError(f"{name}: kind 'teleport' needs layout [2, 2, 2]")
        u = np.array(_DEFAULT_INPUT_QUBIT, dtype=np.complex128)
        if "input_qubit" in obj:
            u, echo["input_qubit"] = _parse_qubit(obj["input_qubit"], f"{name}.input_qubit", v, base_dir)
        return _pure(teleport_state(u)), echo
    if kind == "maximally_mixed":
        return (np.full(total, 1.0 / total), np.eye(total, dtype=np.complex128)), echo
    echo["seed"] = _require_int(obj["seed"], f"{name}.seed", minimum=0, maximum=_MAX_SEED)
    stream = RandomStream(echo["seed"])
    if kind == "random_pure":
        return _pure(stream.haar_pure(total)), echo
    echo["rank"] = _require_int(obj["rank"], f"{name}.rank", minimum=1, maximum=total)
    return stream.ginibre_ensemble(total, echo["rank"]), echo


_PARSERS = {
    "base_seed": _parse_base_seed,
    "trials": _parse_trials,
    "layout": _parse_layout,
    "input_qubit": _parse_qubit,
    "structure_a": _parse_structure,
    "structure_b": _parse_structure,
    "projection_a": _parse_projection,
    "projection_b": _parse_projection,
    "hamiltonian": _parse_hamiltonian,
    "initial_state": _parse_initial_state,
    "time_grid": _parse_time_grid,
    "output_dir": _parse_output_dir,
}


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite number {token} (NaN and Infinity are not JSON)")


def _finite_float(token: str) -> float:
    """JSON float literal; one that overflows to infinity is rejected."""
    value = float(token)
    if not math.isfinite(value):
        _reject_non_finite(token)
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose names are unique; a repeated name is rejected,
    where plain ``json`` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


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
        raw = json.loads(
            text, parse_constant=_reject_non_finite, parse_float=_finite_float, object_pairs_hook=_unique_keys
        )
    except ValueError as exc:  # JSONDecodeError, a non-finite number or a duplicate key
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
    if type(raw["version"]) is not int or raw["version"] != 1:
        raise ConfigError(f"version: expected 1, got {raw['version']!r}")
    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"scenario: must be one of {', '.join(SCENARIOS)}, got {scenario!r}")

    own, required, fixed = SCENARIOS[scenario]
    keys = (*_COMMON_KEYS, *own, "output_dir")
    _require_object(raw, "", keys, ("base_seed", *required, "output_dir"))
    values: dict = {"scenario": scenario}
    echo: dict = {"version": 1, "scenario": scenario}
    for key in keys[2:]:  # version and scenario are checked above
        if key in raw or key in _DEFAULTS:
            obj = raw[key] if key in raw else copy.deepcopy(_DEFAULTS[key])
            try:
                values[key], echo[key] = _PARSERS[key](obj, key, values, path.parent)
            except ConfigError:
                raise
            except ValueError as exc:  # a library constructor's own check
                raise ConfigError(f"{key}: {exc}") from exc
            if key in fixed and echo[key] != fixed[key]:
                raise ConfigError(f"{key}: {scenario} takes only {fixed[key]}")
    return ScenarioConfig(echo=echo, **values)
