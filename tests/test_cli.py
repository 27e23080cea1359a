import copy
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import flagpde
from flagpde import BasisElement, BasisFamily, GaussianRational, Polynomial, variable
from flagpde.bases import FlagEquationSpec, flag_basis, harmonic_basis
from flagpde import cli
from flagpde.cli import (
    DATA_SCHEMA,
    FLAG_SPEC_SCHEMA,
    MODES_SCHEMA,
    POLY_TERMS_SCHEMA,
    SYMBOLS_SCHEMA,
    TREE_SCHEMA,
    InputError,
    _dumps,
    _grid_points,
    _validate,
    main,
)
from flagpde.lie import SingularCheck, g2_module_basis
from flagpde.operators import op_from_json
from flagpde.poly import IMAG

from strategies import coefficients, gaussian_coefficients, polynomials


def run_cli(args):
    return main(list(args))


def test_basis_harmonic_smoke(tmp_path):
    out = tmp_path / "h.json"
    assert run_cli(["basis", "harmonic", "--n", "3", "--cap", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["result"]["verified"] is True
    assert data["result"]["elements"]


def test_basis_constant_and_flag(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli(["basis", "constant", "--orders", "2,2", "--cap", "3", "--out", str(out)]) == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "orders": [2, 2],
        "coefficients": [[{"exp": {"x1": 1}, "re": "1", "im": "0"}]],
        "variables": ["x1", "x2"],
    }))
    out2 = tmp_path / "f.json"
    assert run_cli(["basis", "flag", "--spec", str(spec), "--cap", "3", "--out", str(out2)]) == 0


def test_basis_anisym_and_dissipative(tmp_path):
    assert run_cli(["basis", "dissipative", "--n", "2", "--cap", "3"]) == 0
    assert run_cli(["basis", "anisym", "--lambda", "-3", "--epsilon", "-1", "--n", "1", "--cap", "3"]) == 0


def test_solve_klein_gordon(tmp_path):
    out = tmp_path / "kg.json"
    assert run_cli(["solve", "klein-gordon", "--a", "1/2", "--monomial", "0,2,0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["result"]["solutions"]) == 2
    assert data["result"]["checks"] == [
        {"name": "series residual", "status": "passed"},
        {"name": "klein-gordon residual", "status": "passed"},
    ]
    assert data["result"]["verified"] is True


def test_solve_klein_gordon_ignores_the_seed(tmp_path):
    """--seed seeded nothing and is gone: it is now an unknown argument."""
    out = tmp_path / "kg.json"
    args = ["solve", "klein-gordon", "--a", "1/2", "--monomial", "2,1,1", "--seed", "7", "--out", str(out)]
    assert run_cli(args) == 2
    assert not out.exists()


def test_tree_validate_accepts_a_valid_tree(tmp_path):
    tree = _write(tmp_path, "t.json", json.dumps({"nodes": 4, "edges": [[1, 2], [2, 3], [2, 4]]}))
    out = tmp_path / "valid.json"
    assert run_cli(["tree", "validate", "--tree", tree, "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["valid"] is True
    assert result["tree"] == {"nodes": 4, "edges": [[1, 2], [2, 3], [2, 4]]}


def test_tree_validate_rejects_bad_tree(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": 3, "edges": [[1, 3], [2, 3]]}))
    assert run_cli(["tree", "validate", "--tree", str(bad)]) == 2


def test_tree_schema_violation_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": "three", "edges": []}))
    assert run_cli(["tree", "validate", "--tree", str(bad)]) == 2


def test_tree_xi_and_splitting(tmp_path):
    tree = tmp_path / "chain3.json"
    tree.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [2, 3]]}))
    out = tmp_path / "xi.json"
    assert run_cli(["tree", "xi", "--tree", str(tree), "--out", str(out)]) == 0
    out = tmp_path / "split.json"
    assert run_cli(["tree", "check-splitting", "--tree", str(tree), "--cap", "2", "--tcap", "2",
                    "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["checks"] == [{"name": "splitting", "status": "passed"}]
    assert result["verified"] is True
    assert result["monomialsChecked"] == 10  # the monomials of degree <= 2 in x1, x2, x3
    assert result["proof"] is False  # a proof needs cap >= 2 * tcap
    assert run_cli(["tree", "check-splitting", "--tree", str(tree), "--cap", "4", "--tcap", "2",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["proof"] is True


@pytest.mark.parametrize("caps", [["--tcap", "-1"], ["--cap", "-1"]])
def test_tree_splitting_rejects_a_negative_cap(tmp_path, capsys, caps):
    tree = _write(tmp_path, "t.json", json.dumps({"nodes": 2, "edges": [[1, 2]]}))
    out = tmp_path / "split.json"
    assert run_cli(["tree", "check-splitting", "--tree", tree, *caps, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be non-negative" in err and "Traceback" not in err
    assert not out.exists()


def test_ivp_flag_grid(tmp_path, capsys):
    symbols = tmp_path / "symbols.json"
    symbols.write_text(json.dumps({
        "variables": ["D2"],
        "symbols": [[], [{"exp": {"D2": 2}, "re": "1", "im": "0"}]],
    }))
    data = tmp_path / "data.json"
    data.write_text(json.dumps({
        "halfWidths": [1.0],
        "conditions": [{"modes": [{"k": [1], "cos": 1.0, "sin": 0.0}]}, {"modes": []}],
    }))
    out = tmp_path / "grid.csv"
    code = run_cli([
        "ivp", "flag", "--orders", "2", "--symbols", str(symbols),
        "--data", str(data), "--grid", "3x3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 10
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"wrote {out}"
    assert json.loads(printed[1])["passed"] is True


def test_ivp_tree_wave_grid(tmp_path):
    tree = tmp_path / "chain3.json"
    tree.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [2, 3]]}))
    data = tmp_path / "data.json"
    data.write_text(json.dumps({
        "halfWidths": [1.0, 1.0, 1.0],
        "g0": {"modes": [{"k": [1, 1, 1], "cos": 1.0, "sin": 0.0}]},
        "g1": {"modes": []},
    }))
    out = tmp_path / "grid.json"
    code = run_cli([
        "ivp", "tree-wave", "--tree", str(tree), "--data", str(data),
        "--t", "0.05", "--grid", "2x2x2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["verification"]["passed"] is True


def test_lie_subcommands(tmp_path):
    assert run_cli(["lie", "harmonic", "--n", "3", "--k", "2"]) == 0
    assert run_cli(["lie", "sl", "--n", "2", "--l1", "1", "--l2", "1"]) == 0
    assert run_cli(["lie", "g2", "--k", "1"]) == 0
    assert run_cli(["lie", "check"]) == 0


def test_ode_subcommand(tmp_path):
    out = tmp_path / "ode.json"
    assert run_cli(["ode", "--coeffs", "0,-1", "--init", "1,0", "--t", "1.0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    import math

    assert abs(data["result"]["value"] - math.cos(1.0)) < 1e-10
    # the float value is unchecked, so the one listed check is the exact one
    assert data["result"]["checks"] == [{"name": "initial derivatives", "status": "passed"}]
    assert data["result"]["verified"] is True


def test_ode_large_frequency(tmp_path):
    out = tmp_path / "ode.json"
    assert run_cli(["ode", "--coeffs", "0,-100", "--init", "1,0", "--t", "5", "--out", str(out)]) == 0
    import math

    result = json.loads(out.read_text())["result"]
    assert result["value"] == pytest.approx(math.cos(50.0), rel=1e-14)
    assert abs(result["value"] - math.cos(50)) <= 1e-12
    assert result["checks"] == [{"name": "initial derivatives", "status": "passed"}]


def test_ode_value_and_its_check_share_one_amplitude_pass(monkeypatch, tmp_path):
    from flagpde import ivp

    calls = []
    amplitudes = ivp._amplitudes
    monkeypatch.setattr(ivp, "_amplitudes", lambda *a: calls.append(a) or amplitudes(*a))
    out = tmp_path / "ode.json"
    assert run_cli(["ode", "--coeffs", "0,-1,2", "--init", "1,0,3", "--t", "0.5", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text())["result"]["initialDerivatives"] == ["1", "0", "3"]


@pytest.mark.parametrize("coeffs, init", [("1000000000,-1000000000", "1,0"), ("1000", "1")])
def test_ode_overflowing_series_exits_three(capsys, coeffs, init):
    assert run_cli(["ode", "--coeffs", coeffs, "--init", init, "--t", "1"]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_exits_two_without_a_traceback(tmp_path, capsys, target):
    out = tmp_path / "missing" / "x.json" if target == "missing directory" else tmp_path
    assert run_cli(["basis", "harmonic", "--n", "2", "--cap", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"input error: cannot write report file {out}: " in err
    assert "Traceback" not in err


def test_unknown_arguments_exit_two():
    assert run_cli(["basis", "harmonic", "--bogus"]) == 2


def test_missing_required_options_exit_two():
    assert run_cli(["basis", "constant"]) == 2
    assert run_cli(["basis", "anisym"]) == 2
    assert run_cli(["basis", "flag"]) == 2


@pytest.mark.parametrize("args", [
    ["constant", "--orders", "2,2", "--cap", "-1"],
    ["harmonic", "--n", "3", "--cap", "-1"],
    ["dissipative", "--n", "2", "--cap", "-1"],
    ["anisym", "--lambda", "3/2", "--cap", "-1"],
    ["flag", "--spec", "{spec}", "--cap", "-2"],
])
def test_negative_cap_exits_two(tmp_path, capsys, args):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "orders": [2, 2],
        "coefficients": [[{"exp": {"x1": 1}, "re": "1", "im": "0"}]],
        "variables": ["x1", "x2"],
    }))
    out = tmp_path / "out.json"
    args = [a.format(spec=spec) for a in args]
    assert run_cli(["basis", *args, "--out", str(out)]) == 2
    assert "cap must be non-negative" in capsys.readouterr().err
    assert not out.exists()


# the options each basis kind needs, and for each kind the options it does not read
_BASIS_NEEDS = {
    "constant": ["--orders", "2,2"],
    "harmonic": [],
    "flag": ["--spec", "{spec}"],
    "dissipative": [],
    "anisym": ["--lambda", "3/2"],
}
_FOREIGN = {
    "--orders": "1,1",
    "--spec": "/nonexistent.json",
    "--lambda": "-3",
    "--epsilon": "1",
    "--n": "2",
}
_READS = {
    "constant": {"--orders"},
    "harmonic": {"--n"},
    "flag": {"--spec"},
    "dissipative": {"--n"},
    "anisym": {"--lambda", "--epsilon", "--n"},
}


def _flag_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"orders": [1, 1], "coefficients": [[{"exp": {"x1": 1}, "re": "1", "im": "0"}]]}))
    return spec


@pytest.mark.parametrize("kind, option", [
    (kind, option) for kind in _BASIS_NEEDS for option in _FOREIGN if option not in _READS[kind]
])
def test_basis_refuses_an_option_its_kind_does_not_read(tmp_path, capsys, kind, option):
    """An option given explicitly to a kind that ignores it exits 2 and names
    the option, even at its default value, before any file is read."""
    spec = _flag_spec_file(tmp_path)
    out = tmp_path / "out.json"
    args = [a.format(spec=spec) for a in _BASIS_NEEDS[kind]] + [option, _FOREIGN[option]]
    assert run_cli(["basis", kind, *args, "--cap", "1", "--out", str(out)]) == 2
    assert f"basis {kind} does not read {option}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(_BASIS_NEEDS))
def test_basis_takes_every_option_its_kind_reads(tmp_path, kind):
    """The options a kind reads are accepted, and given at their defaults
    they write the report that leaving them out writes."""
    spec = _flag_spec_file(tmp_path)
    needs = [a.format(spec=spec) for a in _BASIS_NEEDS[kind]]
    defaults = {"--n": "2", "--epsilon": "1"}
    given = [a for option in sorted(_READS[kind] & set(defaults)) for a in (option, defaults[option])]
    reports = []
    for extra in ([], given):
        out = tmp_path / f"out{len(reports)}.json"
        assert run_cli(["basis", kind, *needs, *extra, "--cap", "2", "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["result"])
    assert reports[0] == reports[1]


def test_jobs_flag_is_rejected():
    assert run_cli(["basis", "harmonic", "--n", "3", "--cap", "3", "--jobs", "2"]) == 2


def test_family_payload_records_checks(tmp_path):
    def checks(args):
        out = tmp_path / "out.json"
        assert run_cli(args + ["--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        return result["verified"], {c["name"]: c["status"] for c in result["checks"]}

    # 225 elements: above the size where independence used to be skipped
    assert checks(["basis", "harmonic", "--n", "3", "--cap", "14"]) == (True, {
        "annihilation": "passed", "independence": "passed"})
    # "verified" is true only when every recorded check passed
    assert checks(["basis", "harmonic", "--n", "3", "--cap", "3", "--no-independence"]) == (False, {
        "annihilation": "passed", "independence": "skipped"})
    assert checks(["lie", "harmonic", "--n", "3", "--k", "2"]) == (True, {
        "annihilation": "passed", "independence": "passed"})
    out = tmp_path / "out.json"
    assert run_cli(["lie", "g2", "--k", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["annihilated"] is True and result["singularWeight"]


def test_large_family_dependence_fails(monkeypatch):
    import flagpde.cli as cli

    def doubled(n, cap):
        family = harmonic_basis(n, cap)
        family.elements.append(family.elements[-1])
        return family

    monkeypatch.setattr(cli, "harmonic_basis", doubled)
    assert run_cli(["basis", "harmonic", "--n", "3", "--cap", "14"]) == 3


def test_verification_failure_maps_to_exit_three(monkeypatch):
    import flagpde.cli as cli
    from flagpde.operators import VerificationError

    def boom(*args, **kwargs):
        raise VerificationError("forced failure")

    monkeypatch.setattr(cli, "harmonic_basis", boom)
    assert run_cli(["basis", "harmonic", "--n", "3", "--cap", "2"]) == 3


def test_determinism_byte_identical(tmp_path):
    out = tmp_path / "a.json"
    args = ["basis", "harmonic", "--n", "3", "--cap", "3", "--out", str(out)]
    assert run_cli(args) == 0
    first = out.read_bytes()
    assert run_cli(args) == 0
    assert out.read_bytes() == first


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flagpde.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "flagpde" in proc.stdout


# -- grids -----------------------------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_finite, _finite, st.integers(1, 12)), min_size=1, max_size=3))
@example([(0.0, 1e-323, 11)])  # the step underflows to zero
@example([(0.0, 1.0, 2), (-1.5e308, 1.5e308, 1)])  # the span overflows
def test_grid_points_match_numpy_meshgrid(axes):
    spec = "x".join(str(n) for _, _, n in axes)
    with np.errstate(all="ignore"):
        lines = [np.linspace(lo, hi, n) for lo, hi, n in axes]
        mesh = [m.ravel() for m in np.meshgrid(*lines, indexing="ij")]
    if not all(np.isfinite(line).all() for line in lines):
        with pytest.raises(InputError, match="leaves the float range"):
            _grid_points(spec, [(lo, hi) for lo, hi, _ in axes])
        return
    got = _grid_points(spec, [(lo, hi) for lo, hi, _ in axes])
    want = [tuple(float(m[i]) for m in mesh) for i in range(len(mesh[0]))]
    assert [[c.hex() for c in pt] for pt in got] == [[c.hex() for c in pt] for pt in want]


def test_grid_beyond_the_float_range_exits_two(tmp_path, capsys):
    symbols = tmp_path / "symbols.json"
    symbols.write_text(json.dumps({"variables": ["D2"], "symbols": [[{"exp": {"D2": 2}, "re": "1"}]] * 2}))
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"halfWidths": [1.5e308], "modes": [{"k": [1], "cos": 1.0}]}))
    args = ["ivp", "flag", "--orders", "2", "--symbols", str(symbols), "--data", str(data), "--grid", "2x3"]
    assert run_cli(args) == 2
    assert "grid axis x2 over [-1.5e+308, 1.5e+308] (half width 1.5e+308) leaves the float range" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("grid", ["2x0", "2x-1", "2xa"])
def test_bad_grid_sizes_exit_two(tmp_path, capsys, grid):
    symbols = tmp_path / "symbols.json"
    symbols.write_text(json.dumps({"variables": ["D2"], "symbols": [[{"exp": {"D2": 2}, "re": "1"}]]}))
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"halfWidths": [1.0], "modes": [{"k": [1], "cos": 1.0}]}))
    out = tmp_path / "out.json"
    code = run_cli(["ivp", "flag", "--orders", "1", "--symbols", str(symbols), "--data", str(data),
                    "--grid", grid, "--out", str(out)])
    assert code == 2
    assert f"grid {grid!r}" in capsys.readouterr().err
    assert not out.exists()


# -- schemas --------------------------------------------------------------------------------------

@pytest.mark.parametrize("instance, schema, message", [
    ({"halfWidths": [0]}, DATA_SCHEMA, "/halfWidths/0: 0 is less than or equal to the minimum of 0"),
    ({"nodes": 2}, TREE_SCHEMA, "/: 'edges' is a required property"),
    ({"nodes": 2, "edges": [[1, True]]}, TREE_SCHEMA, "/edges/0/1: True is not of type 'integer'"),
    ({"halfWidths": [1.0], "g0": {"modes": [{"k": [1.5]}]}}, DATA_SCHEMA,
     "/g0/modes/0/k/0: 1.5 is not of type 'integer'"),
])
def test_schema_violation_messages(instance, schema, message):
    with pytest.raises(InputError) as err:
        _validate(instance, schema, "in.json")
    assert str(err.value) == f"in.json: schema violation at {message}"
    # the same error jsonschema.validate picks
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(instance, schema)
    assert message.endswith(ref.value.message)


def _documents(schema):
    """Instances valid under one of the CLI schemas, built from its keywords."""
    kind = schema["type"]
    if kind == "integer":
        ints = st.integers(schema.get("minimum", -3), 5)
        return ints | ints.map(float)  # an integral float is an integer
    if kind == "number":
        low = schema.get("exclusiveMinimum")
        return st.integers(-3 if low is None else low + 1, 5) | st.floats(
            -5.0 if low is None else low, 5.0, exclude_min=low is not None)
    if kind == "string":
        return st.text(max_size=3)
    if kind == "array":
        return st.lists(_documents(schema["items"]), min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 3))
    props = schema.get("properties", {})
    required = {name: _documents(props[name]) for name in schema.get("required", ())}
    known = st.fixed_dictionaries(required, optional={
        name: _documents(sub) for name, sub in props.items() if name not in required})
    if "additionalProperties" not in schema:
        return known
    extra = st.dictionaries(st.text(max_size=3).filter(lambda name: name not in props),
                            _documents(schema["additionalProperties"]), max_size=3)
    return st.tuples(known, extra).map(lambda pair: {**pair[1], **pair[0]})


# wrong types, bools for ints, integral and negative floats, short and long pairs
_ODD_VALUES = st.sampled_from([
    True, False, None, 0, -1, 1, 2, 0.0, -0.0, 1.0, 2.5, -0.5, 10**20, "", "1", [], [1], [1, 2], [0, 1],
    [1, 2, 3], [True, 1], [[1, 2]], {}, {"k": [1]}, {"exp": {}, "re": "1"}, {"modes": []},
]).map(copy.deepcopy)
_ODD_KEYS = st.sampled_from(["nodes", "edges", "orders", "coefficients", "variables", "symbols", "halfWidths",
                             "modes", "conditions", "g0", "k", "cos", "exp", "re", "im", "x1", "a/b", "zz"])


def _locations(doc, path=()):
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _locations(child, path + (key,))


def _mutate(data, doc):
    """doc after one to three random edits: a value replaced, a key or an
    item dropped, or a key or an item added, anywhere in the tree."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path, node = data.draw(st.sampled_from(list(_locations(doc))))
        edit = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "replace":
            value = data.draw(_ODD_VALUES)
            if not path:
                doc = value
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        elif edit == "drop" and isinstance(node, dict) and node:
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif edit == "drop" and isinstance(node, list) and node:
            del node[data.draw(st.integers(0, len(node) - 1))]
        elif edit == "add" and isinstance(node, dict):
            node[data.draw(_ODD_KEYS)] = data.draw(_ODD_VALUES)
        elif edit == "add" and isinstance(node, list):
            node.append(data.draw(_ODD_VALUES))
    return doc


def _verdicts(doc, schema):
    """(ours, jsonschema's): None for a valid doc, else "pointer: message"."""
    try:
        _validate(doc, schema, "in.json")
        ours = None
    except InputError as err:
        ours = str(err).removeprefix("in.json: schema violation at ")
    try:
        jsonschema.validate(doc, schema)  # raises the error best_match picks
        theirs = None
    except jsonschema.ValidationError as err:
        theirs = "/" + "/".join(map(str, err.absolute_path)) + ": " + err.message
    return ours, theirs


@pytest.mark.parametrize("schema", [TREE_SCHEMA, POLY_TERMS_SCHEMA, FLAG_SPEC_SCHEMA, MODES_SCHEMA, DATA_SCHEMA,
                                    SYMBOLS_SCHEMA],
                         ids=["tree", "poly-terms", "flag-spec", "modes", "data", "symbols"])
@given(data=st.data())
def test_validator_picks_the_error_jsonschema_picks(schema, data):
    doc = data.draw(_documents(schema))
    assert _verdicts(doc, schema) == (None, None)
    ours, theirs = _verdicts(_mutate(data, doc), schema)
    assert ours == theirs


@pytest.mark.parametrize("instance, schema, message", [
    # two errors at one path: the first in schema-keyword order
    ({}, TREE_SCHEMA, "/: 'nodes' is a required property"),
    ({"nodes": 0.5, "edges": []}, TREE_SCHEMA, "/nodes: 0.5 is not of type 'integer'"),
    # the shallower error, then the greater of two paths of one length
    ({"nodes": 0, "edges": [[1]]}, TREE_SCHEMA, "/nodes: 0 is less than the minimum of 1"),
    ({"nodes": 3, "edges": [[0, 1], [1, 0]]}, TREE_SCHEMA, "/edges/1/1: 0 is less than the minimum of 1"),
    ({"nodes": 3, "edges": [[1, 2, 3]]}, TREE_SCHEMA, "/edges/0: [1, 2, 3] is too long"),
    ([{"exp": {"x": 1.5, "y": True}, "re": "1"}], POLY_TERMS_SCHEMA, "/0/exp/y: True is not of type 'integer'"),
    ({"orders": [1.0, 2], "coefficients": [[{"exp": {"x1": 2.0}, "re": "1"}]]}, FLAG_SPEC_SCHEMA, None),
])
def test_validator_tie_breaks(instance, schema, message):
    assert _verdicts(instance, schema) == (message, message)


_FLOAT_SPEC = {"orders": [2.0, 1], "coefficients": [[{"exp": {"x1": 1.0}, "re": "1", "im": "0"}]]}
_INT_SPEC = {"orders": [2, 1], "coefficients": [[{"exp": {"x1": 1}, "re": "1", "im": "0"}]]}


def test_integral_floats_load_as_ints(tmp_path):
    """Where a schema says integer, an integral float is read as its int;
    where it says number, a float stays a float."""
    spec = cli._load_json(_write(tmp_path, "s.json", json.dumps(_FLOAT_SPEC)), FLAG_SPEC_SCHEMA, "flag spec",
                          hashlib.sha256())
    assert spec == _INT_SPEC and type(spec["orders"][0]) is int
    assert type(spec["coefficients"][0][0]["exp"]["x1"]) is int
    tree = cli._load_json(_write(tmp_path, "t.json", '{"nodes": 3.0, "edges": [[1, 2.0], [2, 3]]}'),
                          TREE_SCHEMA, "tree", hashlib.sha256())
    assert tree == {"nodes": 3, "edges": [[1, 2], [2, 3]]} and type(tree["nodes"]) is int
    assert type(tree["edges"][0][1]) is int
    data = cli._load_json(_write(tmp_path, "d.json", '{"halfWidths": [2.0], "modes": [{"k": [1.0], "cos": 1.0}]}'),
                          DATA_SCHEMA, "data", hashlib.sha256())
    assert type(data["modes"][0]["k"][0]) is int
    assert type(data["halfWidths"][0]) is float and type(data["modes"][0]["cos"]) is float


@pytest.mark.parametrize("argv, floats, ints", [
    (["basis", "flag", "--cap", "3", "--spec"], _FLOAT_SPEC, _INT_SPEC),
    (["tree", "xi", "--tree"], {"nodes": 3.0, "edges": [[1, 2], [2, 3]]}, {"nodes": 3, "edges": [[1, 2], [2, 3]]}),
], ids=["exp-and-orders", "nodes"])
def test_integral_float_inputs_report_as_their_ints(tmp_path, argv, floats, ints):
    results = []
    for name, doc in (("floats", floats), ("ints", ints)):
        out = tmp_path / f"{name}-out.json"
        assert run_cli(argv + [_write(tmp_path, f"{name}.json", json.dumps(doc)), "--out", str(out)]) == 0
        results.append(json.loads(out.read_text())["result"])
    assert results[0] == results[1]


# -- runtime dependencies -------------------------------------------------------------------------

def test_ivp_commands_load_neither_numpy_nor_scipy(tmp_path):
    (tmp_path / "symbols.json").write_text(json.dumps({
        "variables": ["D2"], "symbols": [[], [{"exp": {"D2": 2}, "re": "1"}]]}))
    (tmp_path / "flag.json").write_text(json.dumps({
        "halfWidths": [1.0], "conditions": [{"modes": [{"k": [1], "cos": 1.0}]}, {"modes": []}]}))
    (tmp_path / "tree.json").write_text(json.dumps({"nodes": 2, "edges": [[1, 2]]}))
    (tmp_path / "wave.json").write_text(json.dumps({
        "halfWidths": [1.0, 1.0], "g0": {"modes": [{"k": [1, 1], "cos": 1.0}]},
        "g1": {"modes": [{"k": [1, 0], "cos": 0.5}]}}))
    script = """
import sys
from flagpde.cli import main
assert main(["ivp", "flag", "--orders", "2", "--symbols", "symbols.json", "--data", "flag.json",
             "--grid", "3x3", "--out", "flag-out.json"]) == 0
assert main(["ivp", "tree-wave", "--tree", "tree.json", "--data", "wave.json", "--t", "0.1",
             "--grid", "2x2", "--out", "wave-out.json"]) == 0
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""
    src = str(Path(flagpde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_every_command_kind_runs_without_jsonschema(tmp_path):
    paths = _report_inputs(tmp_path)
    paths["bad"] = _write(tmp_path, "bad.json", '{"nodes": 2, "edges": [[1, true]]}')
    runs = [
        (["basis", "flag", "--spec", "{spec}", "--cap", "2"], 0),
        (["basis", "harmonic", "--n", "3", "--cap", "2"], 0),
        (["solve", "klein-gordon", "--a", "1/2", "--monomial", "1,0,0"], 0),
        (["tree", "validate", "--tree", "{tree}"], 0),
        (["tree", "xi", "--tree", "{tree}"], 0),
        (["tree", "check-splitting", "--tree", "{tree}", "--cap", "2", "--tcap", "2"], 0),
        (["ivp", "flag", "--orders", "2", "--symbols", "{symbols}", "--data", "{flag}", "--grid", "2x2"], 0),
        (["ivp", "tree-wave", "--tree", "{tree}", "--data", "{wave}", "--t", "0.05", "--grid", "2x2x2"], 0),
        (["lie", "g2", "--k", "1"], 0),
        (["ode", "--coeffs", "0,-1", "--init", "1,0", "--t", "1.0"], 0),
        (["tree", "validate", "--tree", "{bad}"], 2),
    ]
    script = f"""
import sys
sys.modules["jsonschema"] = None  # importing it now raises ImportError
from flagpde.cli import main
print([main(args) for args in {[[a.format(**paths) for a in args] for args, _ in runs]!r}])
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("jsonschema", "referencing", "rpds")),
      sys.modules["jsonschema"])
"""
    src = str(Path(flagpde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [str([code for _, code in runs]), "['jsonschema'] None"]
    assert "bad.json: schema violation at /edges/0/1: True is not of type 'integer'" in proc.stderr


@pytest.mark.parametrize("args, files, message", [
    (["basis", "anisym", "--n", "-1", "--lambda", "1", "--cap", "2"], {},
     "need at least one spatial variable"),
    (["basis", "anisym", "--n", "0", "--lambda", "-3", "--cap", "2"], {},
     "need at least one spatial variable"),
    (["basis", "flag", "--spec", "{spec}", "--cap", "2"],
     {"spec": {"orders": [1, 1], "coefficients": [[]], "variables": ["a"]}},
     "need one variable per order"),
    (["basis", "flag", "--spec", "{spec}", "--cap", "2"],
     {"spec": {"orders": [1, 1], "coefficients": [[{"exp": {"x1": 1}, "re": "1/0"}]]}},
     "zero denominator"),
    (["ivp", "flag", "--orders", "1", "--grid", "2x3", "--symbols", "{symbols}", "--data", "{data}"],
     {"symbols": {"variables": ["D2"], "symbols": [[{"exp": {"D2": 2}, "re": "1", "im": "2/0"}]]},
      "data": {"halfWidths": [1.0], "modes": [{"k": [1], "cos": 1.0}]}},
     "zero denominator"),
    (["basis", "flag", "--spec", "{spec}", "--cap", "2"],
     {"spec": {"orders": [1, 1], "coefficients": [[{"exp": {"x2": 1}, "re": "1"}]]}},
     ("not a flag system", "x2")),
    (["ivp", "flag", "--orders", "0", "--grid", "2x3", "--symbols", "{symbols}", "--data", "{data}"],
     {"symbols": {"symbols": []}, "data": {"halfWidths": [1.0], "conditions": []}},
     "need at least one order"),
    (["ivp", "flag", "--orders", "1", "--grid", "2x3", "--symbols", "{symbols}", "--data", "{data}"],
     {"symbols": {"variables": ["q"], "symbols": [[{"exp": {"q": 2}, "re": "1"}]]},
      "data": {"halfWidths": [1.0], "modes": [{"k": [1], "cos": 1.0}]}},
     ("symbol variables ['q']", "['D2']")),
    (["ivp", "flag", "--orders", "-1", "--grid", "2x3", "--symbols", "{symbols}", "--data", "{data}"],
     {"symbols": {"symbols": [[], []]}, "data": {"halfWidths": [1.0], "conditions": [{"modes": []}] * 2}},
     "need at least one order, got --orders -1"),
    (["tree", "check-splitting", "--tree", "{tree}", "--cap", "21", "--tcap", "1"],
     {"tree": {"nodes": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}},
     ("degree_cap=21", "at most 16384 entries, got 65780")),
])
def test_malformed_input_exits_two_without_a_traceback(tmp_path, capsys, args, files, message):
    paths = {name: _write(tmp_path, f"{name}.json", json.dumps(body)) for name, body in files.items()}
    assert run_cli([a.format(**paths) for a in args]) == 2
    err = capsys.readouterr().err
    for part in (message,) if isinstance(message, str) else message:
        assert part in err
    assert "Traceback" not in err


@pytest.mark.parametrize("l1, l2", [(-1, 1), (1, -1)])
def test_lie_sl_rejects_a_negative_degree_by_name(capsys, l1, l2):
    assert run_cli(["lie", "sl", "--n", "2", "--l1", str(l1), "--l2", str(l2)]) == 2
    err = capsys.readouterr().err
    assert f"l1={l1}, l2={l2}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [["sl", "--n", "2", "--l1", "1", "--l2", "1"], ["g2", "--k", "1"]])
def test_lie_singular_check_failure_exits_three(monkeypatch, tmp_path, capsys, args):
    monkeypatch.setattr(cli, "verify_singular", lambda config, f: SingularCheck(False, None, [("E12", f)]))
    out = tmp_path / "out.json"
    assert run_cli(["lie", *args, "--out", str(out)]) == 3
    assert "verification failed" in capsys.readouterr().err
    assert not out.exists()


# -- non-finite input ----------------------------------------------------------------------------

_FLAG_SYMBOLS = {"variables": ["D2"], "symbols": [[{"exp": {"D2": 2}, "re": "1", "im": "0"}]]}
_CHAIN2 = {"nodes": 2, "edges": [[1, 2]]}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("data", [
    '{"halfWidths": [Infinity], "modes": [{"k": [1], "cos": 1.0}]}',
    '{"halfWidths": [1.0], "modes": [{"k": [1], "cos": NaN}]}',
    '{"halfWidths": [1.0], "modes": [{"k": [1], "cos": -Infinity}]}',
    '{"halfWidths": [1.0], "modes": [{"k": [1], "cos": 1e999}]}',
])
def test_ivp_flag_rejects_non_finite_data(tmp_path, capsys, data):
    args = ["ivp", "flag", "--orders", "1", "--grid", "3x3",
            "--symbols", _write(tmp_path, "s.json", json.dumps(_FLAG_SYMBOLS)),
            "--data", _write(tmp_path, "d.json", data)]
    assert run_cli(args) == 2
    assert "non-finite number" in capsys.readouterr().err


def test_ivp_tree_wave_rejects_non_finite_data(tmp_path, capsys):
    data = '{"halfWidths": [1.0, 1.0], "g0": {"modes": [{"k": [1, 0], "cos": NaN}]}}'
    args = ["ivp", "tree-wave", "--t", "0.1", "--grid", "2x2",
            "--tree", _write(tmp_path, "t.json", json.dumps(_CHAIN2)),
            "--data", _write(tmp_path, "d.json", data)]
    assert run_cli(args) == 2
    assert "non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_non_finite_time_exits_two(tmp_path, capsys, t):
    data = '{"halfWidths": [1.0, 1.0], "g0": {"modes": [{"k": [1, 0], "cos": 1.0}]}}'
    args = ["ivp", "tree-wave", f"--t={t}", "--grid", "2x2",
            "--tree", _write(tmp_path, "t.json", json.dumps(_CHAIN2)),
            "--data", _write(tmp_path, "d.json", data)]
    assert run_cli(args) == 2
    assert run_cli(["ode", "--coeffs", "0,-1", "--init", "1,0", f"--t={t}"]) == 2
    assert capsys.readouterr().err.count("--t must be a finite number") == 2


# -- numbers beyond the float range ----------------------------------------------------------

_HUGE = "1" + "0" * 400  # a JSON integer with no float image


@pytest.mark.parametrize("data", [
    '{"halfWidths": [%s], "modes": [{"k": [1], "cos": 1.0}]}' % _HUGE,
    '{"halfWidths": [1.0], "modes": [{"k": [%s], "cos": 1.0}]}' % _HUGE,
    '{"halfWidths": [1.0], "modes": [{"k": [1], "cos": %s}]}' % _HUGE,
])
def test_ivp_flag_rejects_numbers_beyond_the_float_range(tmp_path, capsys, data):
    args = ["ivp", "flag", "--orders", "1", "--grid", "3x3",
            "--symbols", _write(tmp_path, "s.json", json.dumps(_FLAG_SYMBOLS)),
            "--data", _write(tmp_path, "d.json", data)]
    assert run_cli(args) == 2
    assert "input error" in capsys.readouterr().err


def test_ivp_tree_wave_rejects_half_widths_beyond_the_float_range(tmp_path, capsys):
    data = '{"halfWidths": [%s, 1.0], "g0": {"modes": [{"k": [1, 0], "cos": 1.0}]}}' % _HUGE
    args = ["ivp", "tree-wave", "--t", "0.1", "--grid", "2x2",
            "--tree", _write(tmp_path, "t.json", json.dumps(_CHAIN2)),
            "--data", _write(tmp_path, "d.json", data)]
    assert run_cli(args) == 2
    assert "half width is too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs, init, what", [
    ("0,-1e400", "1,0", "ODE coefficient"),
    ("0,-1", "1e400,0", "ODE amplitude"),
])
def test_ode_rejects_numbers_beyond_the_float_range(capsys, coeffs, init, what):
    assert run_cli(["ode", "--coeffs", coeffs, "--init", init, "--t", "1"]) == 2
    assert f"{what} is too large for a float" in capsys.readouterr().err


def test_ode_time_whose_powers_overflow_exits_three(capsys):
    assert run_cli(["ode", "--coeffs", "0,-1", "--init", "1,0", "--t", "1e300"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_ivp_tree_wave_time_whose_powers_overflow_exits_three(tmp_path, capsys):
    data = '{"halfWidths": [1.0, 1.0], "g0": {"modes": [{"k": [1, 0], "cos": 1.0}]}}'
    args = ["ivp", "tree-wave", "--t", "1e300", "--grid", "2x2",
            "--tree", _write(tmp_path, "t.json", json.dumps(_CHAIN2)),
            "--data", _write(tmp_path, "d.json", data)]
    assert run_cli(args) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_ivp_flag_symbol_value_overflow_exits_three(tmp_path, capsys):
    # the wave number 2 pi k / a is a float, its square is not
    data = '{"halfWidths": [0.5], "modes": [{"k": [1%s], "cos": 1.0}]}' % ("0" * 307)
    args = ["ivp", "flag", "--orders", "1", "--grid", "3x3",
            "--symbols", _write(tmp_path, "s.json", json.dumps(_FLAG_SYMBOLS)),
            "--data", _write(tmp_path, "d.json", data)]
    assert run_cli(args) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_ivp_payload_reports_the_checked_tolerance(tmp_path):
    from flagpde.ivp import TRACE_TOLERANCE

    paths = _report_inputs(tmp_path)
    out = tmp_path / "out.json"
    flag = ["ivp", "flag", "--orders", "1", "--grid", "2x2",
            "--symbols", _write(tmp_path, "s.json", json.dumps(_FLAG_SYMBOLS)),
            "--data", _write(tmp_path, "d.json", '{"halfWidths": [1.0], "modes": [{"k": [1], "cos": 1.0}]}')]
    wave = ["ivp", "tree-wave", "--tree", paths["tree"], "--data", paths["wave"], "--t", "0.05", "--grid", "2x2x2"]
    for args in (flag, wave):
        assert run_cli(args + ["--out", str(out)]) == 0
        verification = json.loads(out.read_text())["result"]["verification"]
        assert verification["tolerance"] == TRACE_TOLERANCE == 1e-9
        assert verification["passed"] is (verification["initialTraceResidual"] <= TRACE_TOLERANCE)


# -- the report writer and repeated calls ----------------------------------------------------

def _report_inputs(tmp_path):
    files = {
        "spec": {"orders": [2, 1, 2], "coefficients": [
            [{"exp": {"x1": 1}, "re": "0", "im": "1"}, {"exp": {}, "re": "1"}],
            [{"exp": {"x1": 1, "x2": 1}, "re": "1"}, {"exp": {}, "re": "-1/2", "im": "1/3"}]]},
        "tree": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
        "symbols": {"variables": ["D2"], "symbols": [[], [{"exp": {"D2": 2}, "re": "1"}]]},
        "flag": {"halfWidths": [1.0], "conditions": [{"modes": [{"k": [1], "cos": 1.0, "sin": 0.0}]},
                                                    {"modes": []}]},
        "wave": {"halfWidths": [1.0, 1.0, 1.0], "g0": {"modes": [{"k": [1, 1, 1], "cos": 1.0}]},
                 "g1": {"modes": [{"k": [1, 0, 2], "cos": 0.25, "sin": -0.5}]}},
    }
    return {name: _write(tmp_path, f"{name}.json", json.dumps(data)) for name, data in files.items()}


_ONE_OF_EACH_KIND = [
    ["basis", "constant", "--orders", "2,2", "--cap", "3"],
    ["basis", "harmonic", "--n", "3", "--cap", "3"],
    ["basis", "flag", "--spec", "{spec}", "--cap", "3"],
    ["basis", "dissipative", "--n", "2", "--cap", "3"],
    ["basis", "anisym", "--lambda", "-3", "--epsilon", "-1", "--n", "1", "--cap", "3"],
    ["solve", "klein-gordon", "--a", "1/2", "--monomial", "2,1,1"],
    ["tree", "xi", "--tree", "{tree}"],
    ["tree", "check-splitting", "--tree", "{tree}", "--cap", "2", "--tcap", "2"],
    ["lie", "harmonic", "--n", "3", "--k", "2"],
    ["lie", "g2", "--k", "1"],
    ["lie", "check"],
    ["ivp", "flag", "--orders", "2", "--symbols", "{symbols}", "--data", "{flag}", "--grid", "3x3"],
    ["ivp", "tree-wave", "--tree", "{tree}", "--data", "{wave}", "--t", "0.05", "--grid", "2x2x2"],
    ["ode", "--coeffs", "0,-1", "--init", "1,0", "--t", "1.0"],
]


def _kind(args):
    return " ".join(a for a in args[:2] if not a.startswith("-"))


@pytest.mark.parametrize("args", _ONE_OF_EACH_KIND, ids=_kind)
def test_report_is_its_indented_json_encoding(tmp_path, args):
    paths = _report_inputs(tmp_path)
    out = tmp_path / "out.json"
    assert run_cli([a.format(**paths) for a in args] + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"



@pytest.mark.parametrize("args", _ONE_OF_EACH_KIND, ids=_kind)
def test_verified_means_every_listed_check_passed(tmp_path, args):
    paths = _report_inputs(tmp_path)
    out = tmp_path / "out.json"
    assert run_cli([a.format(**paths) for a in args] + ["--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    if "checks" in result:
        assert result["verified"] is all(c["status"] == "passed" for c in result["checks"])
    else:  # no "verified" without the checks it stands for
        assert "verified" not in result


def _inputs_digest(argv, files):
    """sha256 of the sorted-key JSON of argv, then of each file's bytes."""
    h = hashlib.sha256(json.dumps(argv, sort_keys=True).encode())
    for path in files:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


_DIGEST_RUNS = [
    (["basis", "flag", "--spec", "{spec}", "--cap", "2"], ["spec"]),
    (["tree", "check-splitting", "--tree", "{tree}", "--cap", "2", "--tcap", "1"], ["tree"]),
    (["ivp", "flag", "--orders", "2", "--symbols", "{symbols}", "--data", "{flag}", "--grid", "2x2"],
     ["symbols", "flag"]),
    (["ivp", "tree-wave", "--tree", "{tree}", "--data", "{wave}", "--t", "0.05", "--grid", "2x2x2"],
     ["tree", "wave"]),
    (["basis", "harmonic", "--n", "2", "--cap", "2"], []),
]


def test_inputs_digest_covers_the_named_input_files(tmp_path):
    paths = _report_inputs(tmp_path)
    out = str(tmp_path / "out.json")
    for args, names in _DIGEST_RUNS:
        argv = [a.format(**paths) for a in args] + ["--out", out]
        assert run_cli(argv) == 0
        expected = _inputs_digest(argv, [paths[name] for name in names])
        assert json.loads(Path(out).read_text())["inputsDigest"] == expected


def test_each_input_file_is_opened_once(tmp_path, monkeypatch):
    paths = _report_inputs(tmp_path)
    opened = []

    def counted(path, *rest, **kw):
        opened.append(str(path))
        return open(path, *rest, **kw)

    monkeypatch.setattr(cli, "open", counted, raising=False)
    out = str(tmp_path / "out.json")
    for args, names in _DIGEST_RUNS:
        opened.clear()
        assert run_cli([a.format(**paths) for a in args] + ["--out", out]) == 0
        assert opened == [paths[name] for name in names] + [out]


@pytest.mark.parametrize("body, message", [
    (None, "cannot read flag spec file"),
    (b'{"orders": [1, 1], "coefficients": [[]]', "is not valid JSON"),
    (b"\xef\xbb\xbf" + json.dumps(_INT_SPEC).encode(), "is not valid JSON: Unexpected UTF-8 BOM"),
    (b'{"orders": [1, 1], "variables": ["caf\xe9", "b"], "coefficients": [[]]}', "is not UTF-8"),
], ids=["missing", "truncated", "utf-8 bom", "latin-1"])
def test_unreadable_input_file_exits_two_and_names_it(tmp_path, capsys, body, message):
    path = tmp_path / "spec.json"
    if body is not None:
        path.write_bytes(body)
    out = tmp_path / "out.json"
    assert run_cli(["basis", "flag", "--spec", str(path), "--cap", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err
    assert "Traceback" not in err and not out.exists()


def test_lie_check_lists_its_checks(tmp_path):
    out = tmp_path / "lie.json"
    for n in (["--n", "2"], []):  # the default is sl(3)
        assert run_cli(["lie", "check", *n, "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert set(result) == {"checks", "laplacianReading", "verified"}
        assert result["laplacianReading"] == 1 and result["verified"] is True
        assert [c["name"] for c in result["checks"]] == [
            name for name in flagpde.commutation_checks(2) if name != "laplacian reading"]
        assert {c["status"] for c in result["checks"]} == {"passed"}


def test_lie_check_honours_n(monkeypatch):
    seen = []

    def recorded(n_sl):
        seen.append(n_sl)
        return {"laplacian reading": 1, "zeta invariant": True}

    monkeypatch.setattr(cli, "commutation_checks", recorded)
    assert run_cli(["lie", "check", "--n", "4"]) == 0
    assert run_cli(["lie", "check"]) == 0
    assert seen == [4, 3]


@pytest.mark.parametrize("n", ["1", "0", "-2"])
def test_lie_check_below_sl2_exits_two(capsys, n):
    assert run_cli(["lie", "check", "--n", n]) == 2
    assert "need n_sl >= 2" in capsys.readouterr().err


def test_lie_check_failure_writes_its_report_and_exits_three(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "commutation_checks", lambda n_sl: {
        "zeta invariant": True, "laplacian reading": 1, "closure": False})
    out = tmp_path / "lie.json"
    assert run_cli(["lie", "check", "--out", str(out)]) == 3
    result = json.loads(out.read_text())["result"]
    assert result == {
        "checks": [{"name": "zeta invariant", "status": "passed"}, {"name": "closure", "status": "failed"}],
        "laplacianReading": 1,
        "verified": False,
    }


def test_repeated_main_calls_share_no_argument_state(tmp_path):
    out = tmp_path / "h.json"

    def harmonic(*args):
        assert run_cli(["basis", "harmonic", *args, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    assert harmonic("--n", "4", "--cap", "2")["result"]["truncation"] == {"cap": 2, "n": 4}
    # the defaults of a later call are not the values of an earlier one
    report = harmonic()
    assert report["result"]["truncation"] == {"cap": 4, "n": 2}
    assert report["command"] == ["basis", "harmonic", "--out", str(out)]
    assert run_cli(["basis", "harmonic", "--n", "three"]) == 2
    assert run_cli(["ode", "--coeffs", "0,-1"]) == 2
    assert harmonic("--cap", "1")["result"]["truncation"] == {"cap": 1, "n": 2}
    assert cli._build_parser() is cli._build_parser()


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7e308, -1.7e308]),
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "é \U0001f600", "\ud800"]),
)

# the keys of one dict compare with each other, as sorting them needs
_KEYS = st.sampled_from([
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.one_of(st.integers(min_value=-(10**30), max_value=10**30), st.floats(allow_nan=False), st.booleans()),
    st.none(),
])


# variable orders that differ from name order, and names json escapes
_POLY_VARS = st.sampled_from([("y", "x10", "x2", "x"), ("x", "y"), ("\u03be", "\u00e9", "a\u2603"), ("t",), ()])


@st.composite
def _report_polynomials(draw):
    vs = draw(_POLY_VARS)
    laurent = vs[:1] if vs and draw(st.booleans()) else ()  # may carry negative exponents
    coeffs = st.one_of(st.integers(-(10**20), 10**20).filter(bool), coefficients(), gaussian_coefficients())
    return draw(polynomials(vs, max_terms=5, max_exp=3, laurent=laurent, coeffs=coeffs))


# a family's element index holds ints, strings and flat lists of them; the
# strategy also draws nested lists and other scalars, which the writer takes too
_INDEX_VALUES = st.one_of(
    st.integers(-(10**30), 10**30),
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.lists(st.one_of(st.integers(-9, 9), st.text(max_size=2)), max_size=3),
    st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=2),
    _SCALARS,
)


@st.composite
def _element_records(draw):
    """{"indexMeta", "solution"} as a family payload lists it, or one key,
    value or type away from it."""
    record = {"indexMeta": draw(_KEYS.flatmap(lambda keys: st.dictionaries(keys, _INDEX_VALUES, max_size=3))),
              "solution": draw(_report_polynomials())}
    shape = draw(st.sampled_from(["record"] * 4 + ["extra key", "plain solution", "renamed index"]))
    if shape == "extra key":
        record["order"] = 1
    elif shape == "plain solution":
        record["solution"] = record["solution"].to_json_terms()
    elif shape == "renamed index":
        record["index"] = record.pop("indexMeta")
    return record


def _json_values():
    return st.recursive(st.one_of(_SCALARS, _report_polynomials()), lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        _KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
        st.lists(_element_records(), min_size=1, max_size=4),
        st.lists(st.one_of(_element_records(), children), min_size=1, max_size=4),
    ), max_leaves=24)


_XXY = {(2, 1): 1}


@given(_json_values())
@example({"a": [], "b": {"c": {}, "d": [[], {}]}, "e": ()})
@example({1: {2.5: [True]}, 3: None, -0.0: "x"})
@example({None: {"k": [float("nan"), float("inf"), float("-inf")]}})
@example([[[[1]]], "é"])
@example({"p": Polynomial.zero(("x",)), "q": [Polynomial.const(GaussianRational(Fraction(1, 2), -3))],
          "r": (Polynomial(("t",), {(0,): 1, (-2,): -7}, ("t",)),)})
@example([variable("x10") * variable("x2") ** 2 + variable("y") - variable("x"), [variable("\u03be")]])
@example([{"indexMeta": {"ell": [3, 0, 1], "eps": -1, "branch": "phi", "m": [], "lr": ["a", 2], "\u03be": "\u00e9"},
           "solution": variable("x") ** 3 - 2 * variable("y")},
          {"indexMeta": {}, "solution": Polynomial.zero(("x",))},
          {"indexMeta": {"ell": [0], "eps": 10**40, "branch": "", "m": [], "lr": []}, "solution": variable("y")}])
@example([{"indexMeta": {"ell": [1, 2]}, "solution": variable("x")},
          {"indexMeta": {"ell": [[1], []]}, "solution": variable("y")}])
@example({"family": [{"indexMeta": {"ell": [2, 1]},
                      "solution": Polynomial(("y", "x"), {(1, 0): GaussianRational(Fraction(1, 2), -3), (0, 2): 5})},
                     {"indexMeta": {"ell": [0, -2]},
                      "solution": Polynomial(("t", "x"), {(-2, 1): Fraction(-7, 3), (0, 0): 1}, ("t",))}]})
@example([{"indexMeta": {"k": 1}, "solution": variable("x")}, {"indexMeta": {"k": 2}, "solution": "x"},
          {"indexMeta": {"k": 3}, "solution": variable("y"), "extra": None}, 4,
          {"indexMeta": {"k": 1.5}, "solution": variable("x")}, {"indexMeta": {2: 1}, "solution": variable("x")}])
@example([1, {"indexMeta": {"k": True}, "solution": variable("x")}, {"indexMeta": {"k": None}, "solution": variable("x")}])
@example({"a": [{"indexMeta": {}, "solution": Polynomial(("x", "y"), _XXY)},
                {"indexMeta": {}, "solution": Polynomial(("y", "x"), _XXY)}],
          "b": [[Polynomial(("x", "y"), _XXY)]], "c": Polynomial(("y", "x"), _XXY)})  # one exponent under two orders, at two depths
def test_report_writer_matches_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2, default=Polynomial.to_json_terms)


@pytest.mark.parametrize("obj", [{(1, 2): [1]}, {(1, 2): 1}, {"a": [object()]}, [{"a": 1j}]])
def test_report_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        _dumps(obj)
    assert str(got.value) == str(want.value)


def test_report_writer_falls_back_without_the_c_encoder(monkeypatch):
    gaussian = Polynomial(("y", "x"), {(1, 0): GaussianRational(0, 1), (0, 2): Fraction(-1, 3)})
    obj = {"b": [1, {"c": [], "p": gaussian}], "a": "x", "z": (Polynomial.zero(), gaussian),
           "family": harmonic_basis(2, 3)._payload()}
    with_c = _dumps(obj)
    monkeypatch.setattr(cli, "c_make_encoder", None)
    assert _dumps(obj) == with_c == json.dumps(obj, sort_keys=True, indent=2, default=Polynomial.to_json_terms)


def test_family_to_json_is_plain_data():
    x1, x2 = variable("x1"), variable("x2")
    gaussian = FlagEquationSpec((2, 1, 2), (IMAG * x1 + 1, x1 * x2 - Fraction(1, 2)))
    for family in (harmonic_basis(3, 2), g2_module_basis(3), flag_basis(gaussian, 3)):
        text = json.dumps(family.to_json(), sort_keys=True, indent=2)  # no default for polynomials
        assert text == _dumps(family._payload())


def test_report_writer_keeps_no_exponent_blocks_between_calls():
    family = harmonic_basis(3, 3)._payload()
    nested = {"deeper": [family], "reordered": [Polynomial(("x3", "x2", "x1"), {(2, 0, 1): 1})]}
    first = _dumps(family)
    assert _dumps(nested) == json.dumps(nested, sort_keys=True, indent=2, default=Polynomial.to_json_terms)
    assert _dumps(family) == first == json.dumps(family, sort_keys=True, indent=2, default=Polynomial.to_json_terms)


# -- checks of written reports, with the inputs and bounds of the workflow's console-script step ----

_TREE4 = {"nodes": 4, "edges": [[1, 2], [2, 3], [2, 4]]}
_SYMBOLS2 = {"variables": ["D2"], "symbols": [[{"exp": {"D2": 2}, "re": "1"}], [{"exp": {"D2": 2}, "re": "1"}]]}


def _result(tmp_path, args):
    out = tmp_path / "out.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    return json.loads(out.read_text())["result"]


def test_order_three_ode_value_on_stdout(capsys):
    import math

    assert run_cli(["ode", "--coeffs", "0,-1,0", "--init", "1,0,-1", "--t", "3"]) == 0
    value = json.loads(capsys.readouterr().out)["result"]["value"]
    assert abs(value - math.cos(3)) <= 1e-12, value


@pytest.mark.parametrize("caps, checked, proof", [([], 35, False), (["--cap", "6", "--tcap", "3"], None, True)],
                         ids=["default caps", "cap 6 tcap 3"])
def test_splitting_report_of_a_four_node_tree(tmp_path, caps, checked, proof):
    tree = _write(tmp_path, "tree4.json", json.dumps(_TREE4))
    result = _result(tmp_path, ["tree", "check-splitting", "--tree", tree, *caps])
    assert result["verified"] is True and result["proof"] is proof
    assert checked is None or result["monomialsChecked"] == checked


@pytest.mark.parametrize("kind", ["wave", "flag"])
def test_ivp_report_verification_keys(tmp_path, kind):
    if kind == "wave":
        tree = _write(tmp_path, "tree2.json", '{"nodes": 2, "edges": [[1, 2]]}')
        data = _write(tmp_path, "wave2.json", json.dumps({
            "halfWidths": [1.0, 1.0], "g0": {"modes": [{"k": [1, 0], "cos": 1.0}]},
            "g1": {"modes": [{"k": [0, 1], "sin": 0.5}]}}))
        args = ["ivp", "tree-wave", "--tree", tree, "--data", data, "--t", "0.3", "--grid", "3x3"]
    else:
        symbols = _write(tmp_path, "symbols.json", json.dumps(_SYMBOLS2))
        data = _write(tmp_path, "flag2.json", json.dumps({"halfWidths": [1.0], "conditions": [
            {"modes": [{"k": [1], "cos": 1.0}]}, {"modes": [{"k": [2], "sin": 1.0}]}]}))
        args = ["ivp", "flag", "--orders", "2", "--symbols", symbols, "--data", data, "--grid", "3x3"]
    verification = _result(tmp_path, args)["verification"]
    assert verification["tolerance"] == 1e-9 and verification["passed"] is True, verification


def test_input_files_validate_without_jsonschema(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "jsonschema", None)  # importing it now raises ImportError
    tree = _write(tmp_path, "tree4.json", json.dumps(_TREE4))
    bad = _write(tmp_path, "bad_tree.json", '{"nodes": 2, "edges": [[1, true]]}')
    symbols = _write(tmp_path, "symbols.json", json.dumps(
        {"variables": ["D2"], "symbols": [[], [{"exp": {"D2": 2}, "re": "1"}]]}))
    flag = _write(tmp_path, "flag.json", json.dumps(
        {"halfWidths": [1.0], "conditions": [{"modes": [{"k": [1], "cos": 1.0}]}, {"modes": []}]}))
    assert run_cli(["tree", "check-splitting", "--tree", tree]) == 0
    assert run_cli(["ivp", "flag", "--orders", "2", "--symbols", symbols, "--data", flag, "--grid", "2x3"]) == 0
    assert run_cli(["tree", "validate", "--tree", bad]) == 2
    assert "schema violation at /edges/0/1" in capsys.readouterr().err


# the family reports the console-script step writes, by file name
_WRITTEN_FAMILIES = {
    "h": ["basis", "harmonic", "--n", "3", "--cap", "3"],
    "h49": ["basis", "harmonic", "--n", "4", "--cap", "9"],
    "d35": ["basis", "dissipative", "--n", "3", "--cap", "5"],
    "a24": ["basis", "anisym", "--n", "2", "--lambda", "-3", "--cap", "4"],
    "d16": ["basis", "dissipative", "--n", "1", "--cap", "6"],
    "a35": ["basis", "anisym", "--n", "3", "--lambda", "-3", "--epsilon", "-1", "--cap", "5"],
    "a56": ["basis", "anisym", "--n", "2", "--lambda", "-5", "--cap", "6"],
    "a35m1": ["basis", "anisym", "--n", "3", "--lambda", "-1", "--cap", "5"],
    "gflag": ["basis", "flag", "--spec", "{spec}", "--cap", "4"],
    "g2": ["lie", "g2", "--k", "4"],
    "sl": ["lie", "sl", "--n", "3", "--l1", "2", "--l2", "2"],
}


@pytest.mark.parametrize("name", sorted(_WRITTEN_FAMILIES))
def test_written_family_is_annihilated_when_read_back(tmp_path, name):
    """The family of a written report, rebuilt from the file alone, is
    annihilated exactly by the annihilator the file records."""
    out = tmp_path / f"{name}.json"
    args = [a.format(**_report_inputs(tmp_path)) for a in _WRITTEN_FAMILIES[name]]
    assert run_cli(args + ["--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    family = BasisFamily([BasisElement(e["indexMeta"], Polynomial.from_json_terms(e["solution"]))
                          for e in result["elements"]], op_from_json(result["annihilator"]))
    assert result["elements"] and family.verify_annihilation()
