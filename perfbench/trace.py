"""In-memory span recorder that wraps the public functions of each flagpde module.

Spans are opened only while an operation is being timed, so set-up and the
reference checks leave no trace.  A span records its name, start, end,
parent span and operation id; a layer's self time is its duration minus the
time covered by its child spans.  When a wrapped function calls another one
filed under the same name (``a - b`` calls ``-b`` and ``a + (-b)``), the
inner call is folded into the outer span, so ``calls`` counts requests made
from outside that group.  ``<module>.errors`` counts exceptions that leave a
module's outermost span.

``install`` replaces each wrapped function in every flagpde namespace that
holds it, because modules re-bind names with ``from ... import`` (``bases``
imports ``polys_rank``, ``cli`` the IVP solvers), and methods on their
classes.  ``combinatorics`` is not wrapped; its time counts in its callers.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# (module, attribute or Class.method, span name); the module label is the
# span name's first component
FUNCTIONS = [
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.__pow__", "poly.mul"),
    ("poly", "Polynomial.__truediv__", "poly.mul"),
    ("poly", "Polynomial.__add__", "poly.add"),
    ("poly", "Polynomial.__sub__", "poly.add"),
    ("poly", "Polynomial.__rsub__", "poly.add"),
    ("poly", "Polynomial.__neg__", "poly.add"),
    ("poly", "Polynomial.diff", "poly.calculus"),
    ("poly", "Polynomial.integrate", "poly.calculus"),
    ("poly", "Polynomial.integrate_n", "poly.calculus"),
    ("poly", "Polynomial.evaluate", "poly.evaluate"),
    ("poly", "Polynomial.__eq__", "poly.other"),
    ("poly", "Polynomial.substitute", "poly.other"),
    ("poly", "Polynomial.with_variables", "poly.other"),
    ("poly", "Polynomial.real_part", "poly.other"),
    ("poly", "Polynomial.imag_part", "poly.other"),
    ("poly", "Polynomial.to_json_terms", "poly.other"),
    ("operators", "NestedRightInverse.apply", "operators.nested_inverse"),
    ("operators", "solve_by_series", "operators.series"),
    ("operators", "right_inverse_series", "operators.series"),
    ("operators", "operators_agree_on_sample", "operators.other"),
    ("operators", "op_to_json", "operators.other"),
    ("operators", "op_from_json", "operators.other"),
    ("bases", "constant_coefficient_basis", "bases.generate"),
    ("bases", "harmonic_basis", "bases.generate"),
    ("bases", "harmonic_element", "bases.generate"),
    ("bases", "flag_basis", "bases.generate"),
    ("bases", "power_perturbation_solve", "bases.generate"),
    ("bases", "riemannian_wave_solution", "bases.generate"),
    ("bases", "twisted_flag_solve", "bases.generate"),
    ("bases", "BasisFamily.verify_annihilation", "bases.verify_annihilation"),
    ("bases", "BasisFamily.verify_independence", "bases.verify_independence"),
    ("bases", "BasisFamily.to_json", "bases.other"),
    ("dissipative", "dissipative_wave_basis", "dissipative.generate"),
    ("dissipative", "anisymmetric_basis", "dissipative.generate"),
    ("dissipative", "klein_gordon_solutions", "dissipative.generate"),
    ("dissipative", "dissipation_polynomial", "dissipative.generate"),
    ("dissipative", "epd_transform", "dissipative.generate"),
    ("trees", "check_splitting", "trees.check_splitting"),
    ("trees", "compute_splitting", "trees.other"),
    ("trees", "tricomi_operator", "trees.other"),
    ("trees", "evaluate_symbol", "trees.other"),
    ("lie", "harmonic_module_basis", "lie.module_basis"),
    ("lie", "sl_module_basis", "lie.module_basis"),
    ("lie", "g2_module_basis", "lie.module_basis"),
    ("lie", "commutation_checks", "lie.commutation_checks"),
    ("lie", "verify_singular", "lie.verify_singular"),
    ("lie", "g2_polynomial_action", "lie.other"),
    ("lie", "g2_bracket_report", "lie.other"),
    ("lie", "select_g2_laplacian_reading", "lie.other"),
    ("linalg", "polys_rank", "linalg.rank"),
    ("linalg", "matrix_rank", "linalg.rank"),
    ("linalg", "kernel_on_slice", "linalg.kernel"),
    ("linalg", "nullspace", "linalg.kernel"),
    ("linalg", "polys_in_span", "linalg.span"),
    ("linalg", "polys_to_matrix", "linalg.other"),
    ("linalg", "monomials_of_degree", "linalg.other"),
    ("linalg", "monomials_up_to_degree", "linalg.other"),
    ("linalg", "bidegree_monomials", "linalg.other"),
    ("ivp", "solve_flag_ivp", "ivp.flag"),
    ("ivp", "solve_constant_ode", "ivp.ode"),
    ("ivp", "ode_derivatives_at_zero", "ivp.ode"),
    ("ivp", "solve_tree_wave_series", "ivp.tree_series"),
    ("ivp", "solve_tree_wave_ivp", "ivp.tree_quad"),
    ("cli", "main", "cli"),
]

# every operator class's apply and apply_trig is an "operators.apply" span
OPERATOR_CLASSES = ("Derivative", "Integrate", "MultiplyBy", "Scale", "Sum", "Compose", "DampedIntegration")

MODULES = ("poly", "operators", "bases", "dissipative", "trees", "lie", "linalg", "ivp", "cli")


def _modes(sol):
    if hasattr(sol, "carriers"):
        return len(sol.carriers)
    if hasattr(sol, "modes"):
        return len(sol.modes)
    return len(set(sol.g0.modes) | set(sol.g1.modes))


def _out_bytes(args, kwargs):
    import os

    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" in argv[:-1]:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


# counters read off a wrapped call: name -> function(args, kwargs, result) -> amount
AFTER = {
    "Polynomial.__mul__": ("poly.mul.terms_out", lambda a, k, r: len(getattr(r, "terms", ()))),
    "check_splitting": ("trees.monomials_checked", lambda a, k, r: r.monomials_checked),
    "solve_flag_ivp": ("ivp.modes", lambda a, k, r: _modes(r)),
    "solve_tree_wave_series": ("ivp.modes", lambda a, k, r: _modes(r)),
    "solve_tree_wave_ivp": ("ivp.modes", lambda a, k, r: _modes(r)),
    "main": ("cli.out_bytes", lambda a, k, r: _out_bytes(a, k)),
}

# counted on every call made inside an operation, without a span
BEFORE = {
    ("bases", "_checked"): ("bases.elements", lambda a, k: len(a[0])),
    ("linalg", "_row_reduce"): ("linalg.matrix_cells", lambda a, k: len(a[0]) * len(a[0][0]) if a[0] else 0),
}


class Recorder:
    def __init__(self, span_cap=200_000):
        self.op = None
        self.stack = []          # open frames: [name, start, child_time, span id]
        self.spans = []          # (name, start, end, parent span id, op id)
        self.span_cap = span_cap
        self.dropped = 0
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.errors = {m: 0 for m in MODULES}

    # -- operations ------------------------------------------------------------

    def begin(self, op_id):
        self.op = op_id
        self.stack = [["bench.op", perf_counter(), 0.0, self._store("bench.op", -1)]]

    def end(self):
        frame = self.stack.pop()
        self._finish(frame, perf_counter(), False)
        self.op = None

    # -- spans -------------------------------------------------------------------

    def _store(self, name, parent):
        """A span slot; start and end are filled in when the span closes."""
        if len(self.spans) >= self.span_cap:
            self.dropped += 1
            return -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        return len(self.spans) - 1

    def _finish(self, frame, end, failed):
        name, start, child, sid = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if sid >= 0:
            self.spans[sid][1] = start
            self.spans[sid][2] = end
        module = name.split(".")[0]
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            if failed and parent[0].split(".")[0] != module:
                self.errors[module] += 1

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack
            if rec.op is None or stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, rec._store(name, stack[-1][3])]
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                rec._finish(frame, end, True)
                raise
            end = perf_counter()
            stack.pop()
            rec._finish(frame, end, False)
            if after is not None:
                rec.count(after[0], after[1](args, kwargs, out))
            return out

        return wrapper

    def counting(self, fn, key, amount):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is not None:
                rec.count(key, amount(args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- output -------------------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "dropped": self.dropped,
                       "spans": self.spans}, fh)


def _namespaces():
    return [m for name, m in sys.modules.items() if name == "flagpde" or name.startswith("flagpde.")]


def _replace(orig, new):
    """Point every flagpde namespace and class attribute holding orig at new."""
    for mod in _namespaces():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
            elif isinstance(value, type) and value.__module__.startswith("flagpde"):
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        setattr(value, attr, new)


def install(rec):
    import flagpde  # noqa: F401  (loads every submodule)

    entries = list(FUNCTIONS)
    ops_mod = sys.modules["flagpde.operators"]
    for cls in OPERATOR_CLASSES:
        for meth in ("apply", "apply_trig"):
            if meth in vars(getattr(ops_mod, cls)):
                entries.append(("operators", f"{cls}.{meth}", "operators.apply"))
    done = set()
    for module, path, name in entries:
        obj = sys.modules[f"flagpde.{module}"]
        for part in path.split("."):
            obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
        if id(obj) in done:
            continue
        done.add(id(obj))
        _replace(obj, rec.wrap(obj, name, AFTER.get(path)))
    for (module, attr), (key, amount) in BEFORE.items():
        orig = getattr(sys.modules[f"flagpde.{module}"], attr)
        _replace(orig, rec.counting(orig, key, amount))


def layer_metrics(rec):
    """The per-layer figures of a traced phase, by metric name."""
    calls, selfs, counters = rec.calls, rec.self_s, rec.counters

    def total(prefix):
        return sum(v for k, v in selfs.items() if k == prefix or k.startswith(prefix + "."))

    out = {
        "poly.mul.calls": calls.get("poly.mul", 0),
        "poly.mul.self_s": selfs.get("poly.mul", 0.0),
        "poly.mul.terms_out": counters.get("poly.mul.terms_out", 0),
        "poly.add.calls": calls.get("poly.add", 0),
        "poly.add.self_s": selfs.get("poly.add", 0.0),
        "poly.calculus.calls": calls.get("poly.calculus", 0),
        "poly.calculus.self_s": selfs.get("poly.calculus", 0.0),
        "poly.evaluate.calls": calls.get("poly.evaluate", 0),
        "operators.nested_inverse.calls": calls.get("operators.nested_inverse", 0),
        "operators.nested_inverse.self_s": selfs.get("operators.nested_inverse", 0.0),
        "operators.series.calls": calls.get("operators.series", 0),
        "operators.series.self_s": selfs.get("operators.series", 0.0),
        "operators.apply.self_s": selfs.get("operators.apply", 0.0),
        "bases.generate.self_s": selfs.get("bases.generate", 0.0),
        "bases.elements": counters.get("bases.elements", 0),
        "bases.verify_annihilation.calls": calls.get("bases.verify_annihilation", 0),
        "bases.verify_annihilation.self_s": selfs.get("bases.verify_annihilation", 0.0),
        "linalg.rank.calls": calls.get("linalg.rank", 0),
        "linalg.rank.self_s": selfs.get("linalg.rank", 0.0),
        "linalg.matrix_cells": counters.get("linalg.matrix_cells", 0),
        "linalg.kernel.self_s": selfs.get("linalg.kernel", 0.0),
        "trees.check_splitting.self_s": selfs.get("trees.check_splitting", 0.0),
        "trees.monomials_checked": counters.get("trees.monomials_checked", 0),
        "lie.commutation_checks.self_s": selfs.get("lie.commutation_checks", 0.0),
        "lie.module_basis.self_s": selfs.get("lie.module_basis", 0.0),
        "ivp.flag.self_s": selfs.get("ivp.flag", 0.0),
        "ivp.ode.self_s": selfs.get("ivp.ode", 0.0),
        "ivp.tree_series.self_s": selfs.get("ivp.tree_series", 0.0),
        "ivp.tree_quad.self_s": selfs.get("ivp.tree_quad", 0.0),
        "ivp.modes": counters.get("ivp.modes", 0),
        "cli.calls": calls.get("cli", 0),
        "cli.self_s": selfs.get("cli", 0.0),
        "cli.out_bytes": counters.get("cli.out_bytes", 0),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = total(module)
        out[f"{module}.errors"] = rec.errors[module]
    return out
