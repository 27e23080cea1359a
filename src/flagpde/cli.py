"""Command-line interface.

Subcommands mirror the library: basis generation, the Klein-Gordon solver,
tree validation and splitting checks, the two IVP solvers, the Lie module
bases, and the constant-coefficient ODE helper.

Each command returns its payload; ``main`` alone writes the report and sets
the exit code.  Exit codes: 0 on success, 2 for input problems (bad
arguments, schema violations, invalid trees, an --out file that cannot be
written), 3 when a verification fails (by an exception, before any report,
or as a listed check whose status is "failed") or a numeric series does not
settle or overflows.  A report is
json.dumps(report, sort_keys=True, indent=2, default=Polynomial.to_json_terms)
plus a newline, written through --out or to stdout (a grid payload under a
.csv --out as CSV): the payloads keep their polynomials, and ``_dumps``
writes each one straight from its integer numerators.  A family's element
list is written in one loop over its {"indexMeta", "solution"} records, and
each term's exponent block is rendered once per variable order and depth in
a report.  It is deterministic: identical inputs produce byte-identical
files; wall time is only printed to stderr.

``main`` may be called repeatedly in one process.  The argument parser is
built once, on the first call, and every call parses into a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import __version__
from .bases import (
    BasisFamily,
    FlagEquationSpec,
    constant_coefficient_basis,
    flag_basis,
    harmonic_basis,
)
from .dissipative import anisymmetric_basis, dissipative_wave_basis, klein_gordon_solutions
from .ivp import TRACE_TOLERANCE, OdeProblem, TrigData, _derivatives_at_zero, _solved_ode, \
    solve_flag_ivp, solve_tree_wave_ivp
from .lie import (
    commutation_checks,
    g2_module_basis,
    g2_singular_config,
    harmonic_module_basis,
    sl_module_basis,
    sl_singular_config,
    verify_singular,
)
from .operators import SeriesTerminationError, VerificationError, op_to_json
from .poly import Polynomial, _text_terms, _unpack, variable
from .trees import Tree, check_splitting, compute_splitting, tricomi_operator


class InputError(ValueError):
    pass


TREE_SCHEMA = {
    "type": "object",
    "required": ["nodes", "edges"],
    "properties": {
        "nodes": {"type": "integer", "minimum": 1},
        "edges": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
}

POLY_TERMS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["exp", "re"],
        "properties": {
            "exp": {"type": "object", "additionalProperties": {"type": "integer"}},
            "re": {"type": "string"},
            "im": {"type": "string"},
        },
    },
}

FLAG_SPEC_SCHEMA = {
    "type": "object",
    "required": ["orders", "coefficients"],
    "properties": {
        "orders": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "coefficients": {"type": "array", "items": POLY_TERMS_SCHEMA},
        "variables": {"type": "array", "items": {"type": "string"}},
    },
}

MODES_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["k"],
        "properties": {
            "k": {"type": "array", "items": {"type": "integer"}},
            "cos": {"type": "number"},
            "sin": {"type": "number"},
        },
    },
}

DATA_SCHEMA = {
    "type": "object",
    "required": ["halfWidths"],
    "properties": {
        "halfWidths": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        "modes": MODES_SCHEMA,
        "conditions": {
            "type": "array",
            "items": {"type": "object", "required": ["modes"], "properties": {"modes": MODES_SCHEMA}},
        },
        "g0": {"type": "object", "required": ["modes"], "properties": {"modes": MODES_SCHEMA}},
        "g1": {"type": "object", "required": ["modes"], "properties": {"modes": MODES_SCHEMA}},
    },
}

SYMBOLS_SCHEMA = {
    "type": "object",
    "required": ["symbols"],
    "properties": {
        "symbols": {"type": "array", "items": POLY_TERMS_SCHEMA},
        "variables": {"type": "array", "items": {"type": "string"}},
    },
}


_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float)}

# the instance type each keyword other than "type" applies to; it ignores others
_KEYWORD_TYPES = {"required": "object", "properties": "object", "additionalProperties": "object",
                  "items": "array", "minItems": "array", "maxItems": "array",
                  "minimum": "number", "exclusiveMinimum": "number"}


def _is_type(value, kind: str) -> bool:
    """JSON Schema draft 2020-12 types: a bool is neither an integer nor a
    number, and an integral float is an integer."""
    if isinstance(value, bool):
        return False
    if kind == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, _JSON_TYPES[kind])


def _violations(instance, schema, path=()):
    """(path, message) for each way instance violates schema, in draft 2020-12
    order: keyword by keyword in schema order, then in instance order.  The
    messages are those of the jsonschema package.  Only the nine keywords of
    the schemas above are known; any other raises KeyError."""
    for key, value in schema.items():
        if key == "type":
            if not _is_type(instance, value):
                yield path, f"{instance!r} is not of type {value!r}"
        elif not _is_type(instance, _KEYWORD_TYPES[key]):
            continue
        elif key == "required":
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in value.items():
                if name in instance:
                    yield from _violations(instance[name], sub, path + (name,))
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            for name, item in instance.items():
                if name not in known:
                    yield from _violations(item, value, path + (name,))
        elif key == "items":
            for i, item in enumerate(instance):
                yield from _violations(item, value, path + (i,))
        elif key == "minItems" and len(instance) < value:
            yield path, f"{instance!r} " + ("should be non-empty" if value == 1 else "is too short")
        elif key == "maxItems" and len(instance) > value:
            yield path, f"{instance!r} " + ("is expected to be empty" if value == 0 else "is too long")
        elif key == "minimum" and instance < value:
            yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif key == "exclusiveMinimum" and instance <= value:
            yield path, f"{instance!r} is less than or equal to the minimum of {value!r}"


def _validate(instance, schema, source: str):
    """Raise InputError for the violation jsonschema.exceptions.best_match
    would pick: the one at the shortest path, among those the greatest path,
    and the first reported on a tie."""
    worst = max(_violations(instance, schema), key=lambda v: (-len(v[0]), v[0]), default=None)
    if worst is not None:
        path, message = worst
        pointer = "/" + "/".join(map(str, path))
        raise InputError(f"{source}: schema violation at {pointer}: {message}")


def _integers(instance, schema):
    """A valid instance with each integral float at a position where schema
    says "integer" made an int: draft 2020-12 counts 2.0 as an integer."""
    if isinstance(instance, float) and schema.get("type") == "integer":
        return int(instance)
    if isinstance(instance, dict):
        known, other = schema.get("properties", {}), schema.get("additionalProperties", {})
        return {k: _integers(v, known.get(k, other)) for k, v in instance.items()}
    if isinstance(instance, list):
        return [_integers(v, schema.get("items", {})) for v in instance]
    return instance


def _load_json(path: str, schema, label: str, digest):
    """The validated document in the UTF-8 file at path, whose bytes are
    read once and fed to the report's input digest."""
    def reject(token):
        raise InputError(f"{label} file {path} holds the non-finite number {token}")

    def finite(token):
        value = float(token)
        if not math.isfinite(value):
            reject(token)
        return value

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {label} file {path}: {err}") from None
    digest.update(raw)
    try:
        # NaN and +-Infinity, and literals such as 1e999 that overflow
        data = json.loads(raw.decode("utf-8"), parse_constant=reject, parse_float=finite)
    except UnicodeDecodeError as err:
        raise InputError(f"{label} file {path} is not UTF-8: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{label} file {path} is not valid JSON: {err}") from None
    _validate(data, schema, path)
    return _integers(data, schema)


@functools.cache
def _flat_encoder(depth: int):
    """The C encoder for a container at nesting depth whose children are all
    scalars: sorted keys, its items separated as json.dumps(indent=2) puts
    them.  The C encoder leaves out indentation otherwise."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * (depth + 1), True, False, True)


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2,
    default=Polynomial.to_json_terms), byte for byte, for acyclic data: a
    container of scalars in one C encoder call, a list of element records
    (a family's ``elements``) in one loop, a polynomial in one pass over its
    ``poly._text_terms``, the containers above them walked here.  Each exponent
    block is rendered once per variable order and depth, in a table that
    lives for this call only."""
    if c_make_encoder is None:
        return json.dumps(obj, sort_keys=True, indent=2, default=Polynomial.to_json_terms)
    out = []
    _write(obj, 0, out, {})
    return "".join(out)


_CONTAINERS = (dict, list, tuple, Polynomial)


def _write(obj, depth, out, blocks):
    """Append the chunks of obj at nesting depth to out.  A polynomial is
    written as the list its to_json_terms gives, without building that list;
    a list whose items are all element records goes to ``_write_elements``.
    blocks is the exponent block table of this ``_dumps`` call."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
        return
    if isinstance(obj, Polynomial):
        _write_terms(obj, depth, out, blocks)
        return
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        out += _flat_encoder(depth)(obj, depth)  # other scalars, {} and []
        return
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + ("}" if is_dict else "]")
    if not any(map(isinstance, obj.values() if is_dict else obj, itertools.repeat(_CONTAINERS))):
        text = "".join(_flat_encoder(depth)(obj, depth))
        out += (text[0], inner, text[1:-1], close)
        return
    if not is_dict and all(map(_is_element, obj)):
        _write_elements(obj, depth, out, blocks)
        return
    sep, after = ("{" if is_dict else "[") + inner, "," + inner
    if is_dict:
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (isinstance(key, (int, float)) or key is None):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = "".join(_flat_encoder(0)(key, 0))  # as json.dumps converts a key
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(value, depth + 1, out, blocks)
            sep = after
    else:
        for value in obj:
            out.append(sep)
            _write(value, depth + 1, out, blocks)
            sep = after
    out.append(close)


def _is_element(record) -> bool:
    """Whether record is an element record: a dict of exactly an "indexMeta"
    and a Polynomial "solution"."""
    return (type(record) is dict and len(record) == 2 and "indexMeta" in record
            and isinstance(record.get("solution"), Polynomial))


def _write_elements(records, depth, out, blocks):
    """Append the non-empty list of element records at nesting depth to out,
    one loop over the records: each index through ``_write``, each solution
    through ``_write_terms``."""
    rec, field = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    head, tail = rec + "{" + field + '"indexMeta": ', "," + field + '"solution": '
    sep = "["
    for record in records:
        out += (sep, head)
        _write(record["indexMeta"], depth + 2, out, blocks)
        out.append(tail)
        _write_terms(record["solution"], depth + 2, out, blocks)
        out.append(rec + "}")
        sep = ","
    out += ("\n", "  " * depth, "]")


def _write_terms(p: Polynomial, depth, out, blocks):
    """Append p.to_json_terms() at nesting depth to out: one
    {"exp", "im", "re"} object per term, in canonical term order, with the
    exponents keyed in sorted variable-name order.  Each term's total
    degree, which orders it, and its text up to its imaginary part are
    looked up in blocks by variable order and depth (``_ExponentTable``),
    keyed by the term's packed exponent key, which is decoded on the first
    miss only.  The parts of ``poly._text_terms`` are digits, "-" and "/",
    so they are quoted without escaping."""
    form = p.form
    if not form:
        out.append("[]")
        return
    table = blocks.get((p.vars, depth))
    if table is None:
        table = blocks[p.vars, depth] = _ExponentTable(p.vars, depth)
    heads = table.heads
    item, field = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    re_key, close = '",' + field + '"re": "', '"' + item + "}"
    sep = "["
    # the order reads every key's degree from the table, filling its misses
    for key, re, im in _text_terms(form, table):
        out += (sep, heads[key], im, re_key, re, close)
        sep = ","
    out += ("\n", "  " * depth, "]")


class _ExponentTable(dict):
    """The exponent block table of one variable order at nesting depth: the
    total degree of each term by packed exponent key, and in ``heads`` its
    head, its text up to its imaginary part's opening quote.  A missing key
    is decoded once (``poly._unpack``) and both are filled."""

    __slots__ = ("heads", "_n", "_names", "_text")

    def __init__(self, variables, depth):
        super().__init__()
        item, field, exp_item = ("\n" + "  " * (depth + k) for k in (1, 2, 3))
        opening = item + "{" + field + '"exp": '
        im_key = "," + field + '"im": "'
        self.heads, self._n = {}, len(variables)
        # the exponent keys in sorted name order with their positions
        self._names = [(encode_basestring_ascii(name) + ": ", i)
                       for name, i in sorted(zip(variables, itertools.count()))]
        self._text = (opening + "{" + exp_item, "," + exp_item, field + "}" + im_key, opening + "{}" + im_key)

    def __missing__(self, key):
        exp = _unpack(key, self._n)
        opening, exp_sep, closing, empty = self._text
        block = [name + str(exp[i]) for name, i in self._names if exp[i]]
        self.heads[key] = opening + exp_sep.join(block) + closing if block else empty
        self[key] = degree = sum(exp)
        return degree


def _emit(args, payload):
    """Write payload's report, or a grid payload's CSV to a .csv --out.  The
    digest covers the command line and the input files the command read, in
    the order it read them."""
    as_csv = args.out and args.out.endswith(".csv") and "grid" in payload
    if as_csv:
        grid = payload["grid"]
        lines = [",".join(f"x{i + 1}" for i in range(len(grid[0]))) + ",value"]
        lines += [",".join(map(repr, pt)) + f",{val!r}" for pt, val in zip(grid, payload["values"])]
        text = "\n".join(lines) + "\n"
    else:
        text = _dumps({"command": args._argv, "inputsDigest": args._digest.hexdigest(), "result": payload}) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"cannot write report file {args.out}: {err}") from None
    print(f"wrote {args.out}")
    if as_csv:
        print(json.dumps(payload["verification"], sort_keys=True))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"not a rational number: {text!r} ({err})") from None


def _finite_t(t: float) -> float:
    if not math.isfinite(t):
        raise InputError(f"--t must be a finite number, got {t!r}")
    return t


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as err:
        raise InputError(f"not an integer list: {text!r} ({err})") from None


def _family_payload(family: BasisFamily, verify_independence: bool):
    # every family constructor has already proved annihilation (bases._checked):
    # the closed-form families by the series lemma, flag_basis and the
    # negative odd lambda family on every element
    if verify_independence:
        family.verify_independence()
    return _with_checks(family._payload(), [
        ("annihilation", "passed"),
        ("independence", "passed" if verify_independence else "skipped"),
    ])


def _with_checks(payload, checks):
    """payload with its "checks" listed and "verified" true only when every
    listed check ran and passed."""
    payload["checks"] = [{"name": name, "status": status} for name, status in checks]
    payload["verified"] = all(status == "passed" for _, status in checks)
    return payload


# the kind-specific options of basis, by dest and flag, and the kinds that read each
_BASIS_OPTIONS = (
    ("orders", "--orders", {"constant"}),
    ("spec", "--spec", {"flag"}),
    ("lam", "--lambda", {"anisym"}),
    ("epsilon", "--epsilon", {"anisym"}),
    ("n", "--n", {"harmonic", "dissipative", "anisym"}),
)


def _cmd_basis(args):
    for dest, flag, kinds in _BASIS_OPTIONS:
        if getattr(args, dest) is not None and args.kind not in kinds:
            raise InputError(f"basis {args.kind} does not read {flag}")
    n = 2 if args.n is None else args.n
    if args.kind == "constant":
        if not args.orders:
            raise InputError("basis constant requires --orders")
        family = constant_coefficient_basis(_int_list(args.orders), args.cap)
    elif args.kind == "harmonic":
        family = harmonic_basis(n, args.cap)
    elif args.kind == "flag":
        if not args.spec:
            raise InputError("basis flag requires --spec")
        data = _load_json(args.spec, FLAG_SPEC_SCHEMA, "flag spec", args._digest)
        n = len(data["orders"])
        variables = tuple(data.get("variables", ())) or tuple(f"x{i}" for i in range(1, n + 1))
        coefficients = [Polynomial.from_json_terms(t, variables) for t in data["coefficients"]]
        spec = FlagEquationSpec(data["orders"], coefficients, variables)
        family = flag_basis(spec, args.cap)
    elif args.kind == "dissipative":
        family = dissipative_wave_basis(n, args.cap)
    elif args.kind == "anisym":
        if not args.lam:
            raise InputError("basis anisym requires --lambda")
        epsilon = 1 if args.epsilon is None else args.epsilon
        family = anisymmetric_basis(n, _fraction(args.lam), epsilon, args.cap)
    else:
        raise InputError(f"unknown basis kind {args.kind}")
    return _family_payload(family, verify_independence=not args.no_independence)


def _cmd_solve_kg(args):
    a = _fraction(args.a)
    monomial = _int_list(args.monomial)
    if len(monomial) != 3:
        raise InputError("--monomial needs exactly three entries")
    # the solver raises VerificationError unless both residuals are zero
    first, second = klein_gordon_solutions(a, tuple(monomial))
    payload = {
        "frequency": str(a),
        "monomial": monomial,
        "solutions": [{"cos": sol.cos_part, "sin": sol.sin_part} for sol in (first, second)],
    }
    return _with_checks(payload, [
        ("series residual", "passed"),
        ("klein-gordon residual", "passed"),
    ])


def _cmd_tree(args):
    data = _load_json(args.tree, TREE_SCHEMA, "tree", args._digest)
    tree = Tree.from_json(data)
    if args.action == "validate":
        return {"valid": True, "tree": tree.to_json()}
    if args.action == "xi":
        splitting = compute_splitting(tree)
        return {
            "tree": tree.to_json(),
            "tricomi": op_to_json(tricomi_operator(tree)),
            "exponents": splitting.exponents,
        }
    if args.action == "check-splitting":
        report = check_splitting(tree, args.cap, args.tcap)
        payload = {
            "tree": tree.to_json(),
            "degreeCap": report.degree_cap,
            "tPowerCap": report.t_power_cap,
            "monomialsChecked": report.monomials_checked,
            "proof": report.proof,
        }
        # check_splitting raises VerificationError on the first mismatch
        return _with_checks(payload, [("splitting", "passed")])
    raise InputError(f"unknown tree action {args.action}")


def _linspace(lo: float, hi: float, n: int) -> list:
    """lo + i * step for i < n, the last point set to hi: the floats of the
    usual array linspace, with its fallback for a step that underflows."""
    delta = hi - lo
    if n == 1:
        return [lo + 0 * delta]
    step = delta / (n - 1)
    line = [lo + (i * step if step else i / (n - 1) * delta) for i in range(n)]
    line[-1] = hi
    return line


def _grid_points(spec: str, axes):
    """The points of a grid spec such as "5x5" over the axes' (lo, hi)."""
    try:
        sizes = [int(v) for v in spec.split("x")]
    except ValueError:
        raise InputError(f"grid {spec!r} is not a list of sizes like 5x5") from None
    if len(sizes) != len(axes):
        raise InputError(
            f"grid {spec!r} has {len(sizes)} axes but the problem needs {len(axes)}"
        )
    if min(sizes) < 1:
        raise InputError(f"grid {spec!r} has an axis with fewer than one point")
    lines = [_linspace(lo, hi, size) for (lo, hi), size in zip(axes, sizes)]
    for i, ((lo, hi), line) in enumerate(zip(axes, lines), start=1):
        if not all(map(math.isfinite, [lo, hi, *line])):
            raise InputError(
                f"grid axis x{i} over [{lo!r}, {hi!r}] (half width {hi / 2 - lo / 2!r}) "
                "leaves the float range"
            )
    return list(itertools.product(*lines))


def _cmd_ivp_flag(args):
    m = args.orders
    if m < 1:
        raise InputError(f"need at least one order, got --orders {m}")
    sym_data = _load_json(args.symbols, SYMBOLS_SCHEMA, "symbols", args._digest)
    data = _load_json(args.data, DATA_SCHEMA, "data", args._digest)
    half_widths = tuple(data["halfWidths"])
    conditions = data.get("conditions")
    if conditions is None:
        conditions = [{"modes": data.get("modes", [])}]
    while len(conditions) < m:
        conditions.append({"modes": []})
    if len(conditions) != m:
        raise InputError(f"need {m} initial conditions, got {len(conditions)}")
    traces = [TrigData.from_json(c, half_widths) for c in conditions]
    dvars = tuple(f"D{i}" for i in range(2, len(half_widths) + 2))
    symbols = [
        Polynomial.from_json_terms(terms, sym_data.get("variables", dvars))
        for terms in sym_data["symbols"]
    ]
    if len(symbols) != m:
        raise InputError(f"need {m} symbols, got {len(symbols)}")
    axes = [(0.0, 1.0)] + [(-a, a) for a in half_widths]
    points = _grid_points(args.grid, axes)
    solution = solve_flag_ivp(symbols, traces, points)
    return _ivp_payload(points, solution.values, solution.trace_residual)


def _cmd_ivp_tree(args):
    t = _finite_t(args.t)
    tree = Tree.from_json(_load_json(args.tree, TREE_SCHEMA, "tree", args._digest))
    data = _load_json(args.data, DATA_SCHEMA, "data", args._digest)
    half_widths = tuple(data["halfWidths"])
    g0 = TrigData.from_json(data.get("g0", {"modes": data.get("modes", [])}), half_widths)
    g1 = TrigData.from_json(data.get("g1", {"modes": []}), half_widths)
    axes = [(-a, a) for a in half_widths]
    points = _grid_points(args.grid, axes)
    solution = solve_tree_wave_ivp(tree, g0, g1, t, points)
    payload = _ivp_payload(points, solution.values, solution.trace_residual)
    payload["t"] = t
    return payload


def _ivp_payload(points, values, residual):
    """The grid, its values and the trace check the solver ran."""
    return {
        "grid": [list(pt) for pt in points],
        "values": values,
        "verification": {
            "initialTraceResidual": residual,
            "tolerance": TRACE_TOLERANCE,
            "passed": residual <= TRACE_TOLERANCE,
        },
    }


def _cmd_lie(args):
    if args.kind == "harmonic":
        family = harmonic_module_basis(args.n, args.k)
        extra = {}
    elif args.kind == "sl":
        family = sl_module_basis(args.n, args.l1, args.l2)
        top = variable("x1") ** args.l1 * variable(f"y{args.n}") ** args.l2
        extra = _singular_weight(sl_singular_config(args.n), top)
    elif args.kind == "g2":
        family = g2_module_basis(args.k)
        extra = _singular_weight(g2_singular_config(), variable("x4") ** args.k)
    elif args.kind == "check":
        report = commutation_checks(args.n)
        reading = report.pop("laplacian reading")
        return _with_checks({"laplacianReading": reading},
                            [(name, "passed" if ok else "failed") for name, ok in report.items()])
    else:
        raise InputError(f"unknown lie kind {args.kind}")
    payload = _family_payload(family, verify_independence=True)
    payload.update(extra)
    payload["annihilated"] = any(c["name"] == "annihilation" and c["status"] == "passed"
                                 for c in payload["checks"])
    return payload


def _singular_weight(config, top):
    """{"singularWeight": [...]} of top, which the positive generators of
    config must annihilate and its Cartan generators scale."""
    check = verify_singular(config, top)
    if not check.ok:
        names = ", ".join(name for name, _ in check.failures)
        raise VerificationError(f"{top} is not a singular vector: the check fails at {names}")
    return {"singularWeight": [str(w) for w in check.weight]}


def _cmd_ode(args):
    coeffs = [_fraction(v) for v in args.coeffs.split(",")]
    init = [_fraction(v) for v in args.init.split(",")]
    problem = OdeProblem(tuple(coeffs), tuple(init))
    # the check reads the amplitudes the value was assembled from
    value, sums, amps = _solved_ode(problem, _finite_t(args.t))
    derivs = _derivatives_at_zero(sums, amps)
    exact = all(d == c for d, c in zip(derivs, problem.initial))
    if not exact:
        raise VerificationError("initial derivatives not reproduced exactly")
    # the float value is not checked; the list shows the one check that ran
    return _with_checks({
        "t": args.t,
        "value": value,
        "initialDerivatives": [str(d) for d in derivs],
    }, [("initial derivatives", "passed")])


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flagpde",
        description="Exact operator-series solvers for flag PDEs and related families.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the result JSON (or CSV for grids) here")

    p = sub.add_parser("basis", help="generate a verified solution family")
    p.add_argument("kind", choices=["constant", "harmonic", "flag", "dissipative", "anisym"])
    # a kind-specific option defaults to None, so that _cmd_basis can refuse
    # one given to a kind that does not read it
    p.add_argument("--orders", help="comma-separated derivative orders (constant)")
    p.add_argument("--n", type=int, help="number of spatial variables (harmonic, dissipative, "
                                         "anisym; default 2)")
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--spec", help="flag equation JSON (flag)")
    p.add_argument("--lambda", dest="lam", help="time-weight parameter (anisym)")
    p.add_argument("--epsilon", type=int, choices=[1, -1], help="sign of the Laplacian term (anisym; default 1)")
    p.add_argument("--no-independence", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("solve", help="closed solvers")
    solve_sub = p.add_subparsers(dest="what", required=True)
    kg = solve_sub.add_parser("klein-gordon")
    kg.add_argument("--a", required=True, help="rational frequency, e.g. 1/2")
    kg.add_argument("--monomial", required=True, help="m1,m2,m3 seed exponents")
    common(kg)
    kg.set_defaults(func=_cmd_solve_kg)

    p = sub.add_parser("tree", help="tree model and splitting checks")
    p.add_argument("action", choices=["validate", "xi", "check-splitting"])
    p.add_argument("--tree", required=True)
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--tcap", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("ivp", help="initial value solvers")
    ivp_sub = p.add_subparsers(dest="what", required=True)
    fl = ivp_sub.add_parser("flag")
    fl.add_argument("--orders", type=int, required=True)
    fl.add_argument("--symbols", required=True)
    fl.add_argument("--data", required=True)
    fl.add_argument("--grid", required=True, help="e.g. 5x5")
    common(fl)
    fl.set_defaults(func=_cmd_ivp_flag)
    tw = ivp_sub.add_parser("tree-wave")
    tw.add_argument("--tree", required=True)
    tw.add_argument("--data", required=True)
    tw.add_argument("--t", type=float, required=True)
    tw.add_argument("--grid", required=True, help="e.g. 3x3x3")
    common(tw)
    tw.set_defaults(func=_cmd_ivp_tree)

    p = sub.add_parser("lie", help="module bases and structure checks")
    p.add_argument("kind", choices=["harmonic", "sl", "g2", "check"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l1", type=int, default=1)
    p.add_argument("--l2", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_lie)

    p = sub.add_parser("ode", help="constant-coefficient ODE by the series kernel")
    p.add_argument("--coeffs", required=True, help="b1,b2,... (y^(m) = b1 y^(m-1) + ...)")
    p.add_argument("--init", required=True, help="c0,c1,... initial derivatives")
    p.add_argument("--t", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_ode)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    args._argv = argv
    args._digest = hashlib.sha256(json.dumps(argv, sort_keys=True).encode())
    started = time.monotonic()
    try:
        payload = args.func(args)
        _emit(args, payload)
    except ValueError as err:  # InputError and trees.InvalidTreeError among them
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except VerificationError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 3
    except SeriesTerminationError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    print(f"wall time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 3 if any(check["status"] == "failed" for check in payload.get("checks", ())) else 0


if __name__ == "__main__":
    sys.exit(main())
