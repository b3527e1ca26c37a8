"""Config contract through ``cli.main``: what is accepted, and how a rejected
config fails (exit 1, one JSON line on stderr, nothing written)."""

import json
from pathlib import Path

import numpy as np
import pytest

from tpslab import config, load_config
from tpslab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def dynamics_config(**overrides) -> dict:
    cfg = {
        "version": 1,
        "scenario": "dynamics-trace",
        "base_seed": 0,
        "output_dir": "out",
        "layout": [2, 2, 2],
        "structure_a": {"grouping": [0]},
        "structure_b": {"grouping": [0, 1]},
        "hamiltonian": {"gue_seed": 3},
        "initial_state": {"kind": "random_pure", "seed": 5},
        "time_grid": {"t0": 0.0, "t1": 1.0, "steps": 2},
    }
    cfg.update(overrides)
    return cfg


def write(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    if isinstance(cfg, bytes):
        path.write_bytes(cfg)
    else:
        path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run(tmp_path, cfg) -> int:
    return main(["run", write(tmp_path, cfg), "--output-dir", str(tmp_path / "out")])


def config_error(tmp_path, capsys, cfg) -> str:
    """Run a config that must be rejected; returns the error message."""
    assert run(tmp_path, cfg) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    error = json.loads(lines[0])
    assert error["error"] == "config"
    assert not (tmp_path / "out").exists()
    return error["message"]


NON_TYPE_I = [
    {"kind": "type_ii", "bins": [{"projector_file": "missing_p.tpsw", "rho_file": "missing_rho.tpsw"}]},
    {"kind": "type_iii", "projector_files": ["missing_0.tpsw", "missing_1.tpsw"]},
    {"kind": "type_iii", "projectors": "computational"},
    {"rho_ref": "maximally_mixed"},
]


@pytest.mark.parametrize("name", ["projection_a", "projection_b"])
@pytest.mark.parametrize(
    "projection", NON_TYPE_I, ids=["type_ii-bins", "type_iii-files", "type_iii-computational", "no-kind"]
)
def test_dynamics_trace_accepts_only_type_i_projections(tmp_path, capsys, name, projection):
    message = config_error(tmp_path, capsys, dynamics_config(**{name: projection}))
    assert message.startswith(f"{name}: ")
    assert "'type_i'" in message
    assert "no such file" not in message


def test_type_i_projection_with_a_missing_rho_ref_file(tmp_path, capsys):
    cfg = dynamics_config(projection_b={"kind": "type_i", "rho_ref": {"file": "missing.tpsw"}})
    assert "projection_b.rho_ref.file: no such file" in config_error(tmp_path, capsys, cfg)


INITIAL_STATES = {
    "teleport": {"kind": "teleport", "input_qubit": [[0.6, 0.0], [0.0, 0.8]]},
    "random_pure": {"kind": "random_pure", "seed": 5},
    "random_density": {"kind": "random_density", "seed": 6, "rank": 3},
    "maximally_mixed": {"kind": "maximally_mixed"},
}


@pytest.mark.parametrize("kind", sorted(INITIAL_STATES))
def test_each_initial_state_kind_runs(tmp_path, capsys, kind):
    cfg = dynamics_config(initial_state=INITIAL_STATES[kind])
    assert run(tmp_path, cfg) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "out" / "series.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3  # header and one row per grid time

    weights, vectors = load_config(tmp_path / "config.json").initial_state
    expected_rank = {"teleport": 1, "random_pure": 1, "random_density": 3, "maximally_mixed": 8}[kind]
    assert weights.shape == (expected_rank,)
    assert vectors.shape == (8, expected_rank)
    assert weights.min() > 0
    assert abs(weights.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(expected_rank), atol=1e-12)
    if kind == "maximally_mixed":
        np.testing.assert_array_equal(weights, np.full(8, 1 / 8))


@pytest.mark.parametrize(
    "state, fragment",
    [
        ({"kind": "random_pure"}, "initial_state (kind 'random_pure'): missing required config key: seed"),
        ({"kind": "random_density", "rank": 2}, "initial_state (kind 'random_density'): missing required config key: seed"),
        ({"kind": "random_density", "seed": 1}, "initial_state (kind 'random_density'): missing required config key: rank"),
        ({"kind": "random_density", "seed": 1, "rank": 9}, "initial_state.rank: must be <= 8, got 9"),
        ({"kind": "random_density", "seed": 1, "rank": 0}, "initial_state.rank: must be >= 1, got 0"),
    ],
)
def test_bad_seed_or_rank_is_a_config_error(tmp_path, capsys, state, fragment):
    assert fragment in config_error(tmp_path, capsys, dynamics_config(initial_state=state))


# ||u||^2 - 1 = 1.6e-10, above linalg.PURE_NORM_TOL: rejected by the config.
SLIGHTLY_OFF_QUBIT = [[0.6, 0.0], [0.8000000001, 0.0]]


@pytest.mark.parametrize(
    "cfg, name",
    [
        (
            {"version": 1, "scenario": "teleport-check", "base_seed": 0, "output_dir": "out",
             "input_qubit": SLIGHTLY_OFF_QUBIT},
            "input_qubit",
        ),
        (dynamics_config(initial_state={"kind": "teleport", "input_qubit": SLIGHTLY_OFF_QUBIT}),
         "initial_state.input_qubit"),
    ],
    ids=["teleport-check", "dynamics-trace"],
)
def test_unnormalized_input_qubit_is_a_config_error(tmp_path, capsys, cfg, name):
    assert config_error(tmp_path, capsys, cfg).startswith(f"{name}: not normalized")


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    raw = b"\xff\xfe" + json.dumps(dynamics_config()).encode("utf-8")
    assert "not UTF-8" in config_error(tmp_path, capsys, raw)


@pytest.mark.parametrize(
    "grid, fragment",
    [
        ({"t0": 0.0, "t1": 1e308, "steps": 2}, "time_grid: propagator phases overflow"),
        ({"t0": -1e308, "t1": 1e308, "steps": 2}, "time_grid: time grid span t1 - t0 overflows"),
    ],
    ids=["phase", "span"],
)
def test_overflowing_time_grid_is_a_config_error(tmp_path, capsys, grid, fragment):
    assert fragment in config_error(tmp_path, capsys, dynamics_config(time_grid=grid))


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(dynamics_config(trials=1)).replace('"trials": 1', '"trials": 1, "trials": 5'),
        json.dumps(dynamics_config()).replace('"gue_seed": 3', '"gue_seed": 1, "gue_seed": 2'),
    ],
    ids=["top-level", "nested"],
)
def test_duplicate_key_is_a_config_error(tmp_path, capsys, text):
    message = config_error(tmp_path, capsys, text.encode("utf-8"))
    assert "duplicate key" in message


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_version_must_be_the_integer_1(tmp_path, capsys, version):
    assert config_error(tmp_path, capsys, dynamics_config(version=version)) == f"version: expected 1, got {version!r}"


# A valid value for every key of every scenario; a scenario's config takes
# the values of the keys the table lists for it.
VALID_VALUES = {
    "version": 1,
    "base_seed": 0,
    "trials": 1,
    "output_dir": "out",
    "layout": [2, 2, 2],
    "input_qubit": [[0.6, 0.0], [0.0, 0.8]],
    "structure_a": {"grouping": [0]},
    "structure_b": {"grouping": [0, 1]},
    "projection_a": {"kind": "type_i", "rho_ref": "maximally_mixed"},
    "projection_b": {"kind": "type_i", "rho_ref": "maximally_mixed"},
    "hamiltonian": {"gue_seed": 3},
    "initial_state": {"kind": "random_pure", "seed": 5},
    "time_grid": {"t0": 0.0, "t1": 1.0, "steps": 2},
}


def validate_error(tmp_path, capsys, cfg) -> str:
    """``validate`` a config that must be rejected; returns the error message."""
    assert main(["validate", write(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    error = json.loads(lines[0])
    assert error["error"] == "config"
    return error["message"]


@pytest.mark.parametrize("scenario", list(config.SCENARIOS))
def test_scenario_key_table(tmp_path, capsys, scenario):
    own, required, fixed = config.SCENARIOS[scenario]
    keys = [*config._COMMON_KEYS, *own, "output_dir"]
    values = {**VALID_VALUES, "scenario": scenario}
    # written in reverse, so that the echo order can only come from the table
    full = {key: values[key] for key in reversed(keys)}

    assert main(["validate", write(tmp_path, full)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys

    for key in keys[2:]:
        cfg = {k: v for k, v in full.items() if k != key}
        if key in ("base_seed", *required, "output_dir"):
            assert validate_error(tmp_path, capsys, cfg) == f"missing required config key: {key}"
        else:
            assert main(["validate", write(tmp_path, cfg)]) == 0, capsys.readouterr().err
            capsys.readouterr()

    other_keys = {k for o, _, _ in config.SCENARIOS.values() for k in o} - set(keys)
    for key in ["bogus", *sorted(other_keys)]:
        cfg = {**full, key: VALID_VALUES.get(key, 1)}
        assert validate_error(tmp_path, capsys, cfg) == f"unknown config key: {key!r}"


# For each key a scenario fixes, an otherwise valid value it does not admit.
OTHER_VALUES = {
    "layout": [2, 2],
    "trials": 2,
    "projection_a": {"kind": "type_i", "rho_ref": {"file": "rho_ref.tpsw"}},
}


@pytest.mark.parametrize(
    "scenario, key",
    [(s, k) for s, (_, _, fixed) in config.SCENARIOS.items() for k in fixed],
)
def test_a_fixed_key_admits_one_value(tmp_path, capsys, scenario, key):
    (tmp_path / "rho_ref.tpsw").write_bytes((GOLDEN / "dynamics-rho-ref" / "rho_ref.tpsw").read_bytes())
    # the golden's rho_ref is 2 x 2, the environment of grouping [0, 1, 2] on four qubits
    values = {**VALID_VALUES, "scenario": scenario, "layout": [2, 2, 2, 2], "structure_a": {"grouping": [0, 1, 2]}}
    own, _, fixed = config.SCENARIOS[scenario]
    cfg = {k: values[k] for k in [*config._COMMON_KEYS, *own, "output_dir"]}
    cfg[key] = OTHER_VALUES[key]
    expected = f"{key}: {scenario} takes only {fixed[key]}"
    assert validate_error(tmp_path, capsys, cfg) == expected


@pytest.mark.parametrize("scenario", ["lemma1-sweep", "dynamics-trace"])
def test_a_projection_is_echoed_with_its_rho_ref(tmp_path, capsys, scenario):
    own, _, _ = config.SCENARIOS[scenario]
    cfg = {k: {**VALID_VALUES, "scenario": scenario}[k] for k in [*config._COMMON_KEYS, *own, "output_dir"]}
    cfg["projection_a"] = {"kind": "type_i"}
    assert main(["validate", write(tmp_path, cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["projection_a"] == {"kind": "type_i", "rho_ref": "maximally_mixed"}


@pytest.mark.parametrize(
    "override",
    [{"scenario": ["qcr-demo"]}, {"scenario": {"name": "qcr-demo"}}, {"initial_state": {"kind": []}},
     {"initial_state": {"kind": {"k": 1}}}],
    ids=["scenario-list", "scenario-object", "kind-list", "kind-object"],
)
def test_an_unhashable_name_is_a_config_error(tmp_path, capsys, override):
    message = config_error(tmp_path, capsys, dynamics_config(**override))
    assert message.startswith(("scenario: must be one of", "initial_state.kind: must be one of"))
