"""Layer spans and kernel counters recorded from outside the program.

The tracer wraps public functions and methods of the hopfpi modules for
the length of one traced pass and restores them afterwards; the
program's source is never edited.  A module-level function is replaced
in every hopfpi module that holds it (``from .linalg import kernel``
copies the name), and a method is replaced on its class.

Layer boundaries become spans (name, start, end, parent span, job id),
kept in memory and written out once at the end.  Kernel calls are too
many to keep one span each, so they are aggregated: a call count, and
for rref, products and Kronecker products the total time.  None of the
kernel functions calls another timed one, so those totals are self
times.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

# (module, function or Class.method) -> span name
SPANS = {
    ("docio", "load_document"): "docio.load",
    ("reporting", "Report.to_json"): "reporting.render",
    ("reporting", "Report.to_text"): "reporting.render",
    ("hopf", "verify_pi_coalgebra"): "hopf.verify",
    ("hopf", "verify_hopf"): "hopf.verify",
    ("calculus", "zero_ideal"): "calculus.build",
    ("calculus", "right_ideal_from_generators"): "calculus.build",
    ("calculus", "universal_calculus"): "calculus.build",
    ("calculus", "calculus_from_ideal"): "calculus.build",
    ("calculus", "calculus_from_ideal_right"): "calculus.build",
    ("calculus", "calculus_from_kernels"): "calculus.build",
    ("calculus", "check_left_covariant"): "calculus.covariance",
    ("calculus", "check_right_covariant"): "calculus.covariance",
    ("calculus", "check_bicovariant"): "calculus.covariance",
    ("calculus", "Fodc.to_bimodule"): "calculus.to_bimodule",
    ("calculus", "Fodc.leibniz_report"): "calculus.leibniz",
    ("calculus", "check_ad_invariant"): "calculus.ad",
    ("calculus", "enumerate_right_ideals"): "calculus.enumerate",
    ("structure", "CovariantBimodule.verify"): "structure.bimodule_laws",
    ("structure", "extract_structure"): "structure.extract",
    ("structure", "coefficient_maps"): "structure.coefficient_maps",
    ("structure", "functionals_f"): "structure.functionals_f",
    ("structure", "functionals_g"): "structure.functionals_g",
    ("structure", "matrix_R"): "structure.matrix_R",
    ("structure", "eta_basis"): "structure.eta",
    ("structure", "check_eta_left_coaction"): "structure.eta",
    ("structure", "check_intertwiner"): "structure.intertwiner",
    ("structure", "reconstruct"): "structure.reconstruct",
    ("structure", "reconstruction_matches"): "structure.reconstruct",
}

# (module, function or Class.method) -> (counter name, timed)
KERNEL = {
    ("linalg", "rref"): ("rref", True),
    ("linalg", "Matrix.__matmul__"): ("matmul", True),
    ("linalg", "Matrix.kron"): ("kron", True),
    ("linalg", "solve"): ("solve", False),
    ("linalg", "Matrix.col"): ("col", False),
    ("linalg", "Matrix.apply"): ("apply", False),
    ("linalg", "Matrix.inverse"): ("inverse", False),
    ("linalg", "Rationals.mul"): ("scalar_mul", False),
    ("linalg", "PrimeField.mul"): ("scalar_mul", False),
    ("linalg", "Rationals.add"): ("scalar_add", False),
    ("linalg", "PrimeField.add"): ("scalar_add", False),
    ("linalg", "Rationals.sub"): ("scalar_add", False),
    ("linalg", "PrimeField.sub"): ("scalar_add", False),
}

MODULES = ("linalg", "groups", "hopf", "calculus", "structure", "docio", "reporting", "cli")

# Covariance decisions whose (calculus, side) pairs are counted.
COVARIANCE_SIDES = {"check_left_covariant": "left", "check_right_covariant": "right"}

# Span names whose metric is the whole span rather than its self time.
INCLUSIVE = {"structure.extract"}


def is_permutation(m) -> bool:
    """Square 0/1 matrix with exactly one 1 in every row and column."""
    if m.rows != m.cols or len(m.entries) != m.rows:
        return False
    one = m.field.one()
    rows, cols = set(), set()
    for (r, c), v in m.entries.items():
        if v != one:
            return False
        rows.add(r)
        cols.add(c)
    return len(rows) == m.rows and len(cols) == m.cols


class Tracer:
    """Spans and counters of one traced pass; install() … uninstall()."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"hopfpi.{name}") for name in MODULES}
        self.package = importlib.import_module("hopfpi")
        self.spans: list = []          # [name, start, end, parent, job]
        self.jobs: list = []           # job labels, indexed by job id
        self.calls: dict = {}
        self.seconds: dict = {}
        self.missing: list = []        # targets the program no longer has
        self.ideals_found = 0
        self.doc_bytes = 0
        self.solve_distinct = 0
        self.covariance_distinct = 0
        self._stack: list = []
        self._job = None
        self._solve_seen: set = set()
        self._cov_seen: set = set()
        self._keep: list = []          # keeps decided calculi alive so ids stay unique
        self._patches: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for (mod, target), span in SPANS.items():
            self._patch(mod, target, lambda fn, t=target, s=span: self._span_wrapper(s, t, fn))
        for (mod, target), (counter, timed) in KERNEL.items():
            self._patch(mod, target, lambda fn, c=counter, tm=timed: self._kernel_wrapper(c, tm, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, mod: str, target: str, make) -> None:
        module = self.modules[mod]
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod}.{target}")
                return
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(module, target, None)
        if original is None:
            self.missing.append(f"{mod}.{target}")
            return
        wrapped = make(original)
        for owner in (*self.modules.values(), self.package):
            if getattr(owner, target, None) is original:
                self._patches.append((owner, target, original))
                setattr(owner, target, wrapped)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, target: str, fn):
        tracer = self
        side = COVARIANCE_SIDES.get(target)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if side is not None:
                tracer._covariance(args[0], side)
            if name == "docio.load":
                tracer.doc_bytes += os.path.getsize(args[0])
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer._job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if name == "calculus.enumerate":
                tracer.ideals_found += len(result)
            return result
        return wrapper

    def _kernel_wrapper(self, counter: str, timed: bool, fn):
        calls = self.calls
        seconds = self.seconds
        calls.setdefault(counter, 0)
        if counter == "matmul":
            calls.setdefault("perm_matmul", 0)
        if timed:
            seconds.setdefault(counter, 0.0)

            @functools.wraps(fn)
            def timed_wrapper(*args, **kwargs):
                calls[counter] += 1
                if counter == "matmul" and (is_permutation(args[0]) or is_permutation(args[1])):
                    calls["perm_matmul"] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[counter] += perf_counter() - t0
            return timed_wrapper

        if counter == "solve":
            tracer = self

            @functools.wraps(fn)
            def solve_wrapper(m, *args, **kwargs):
                calls["solve"] += 1
                tracer._solve_seen.add((m.rows, m.cols, frozenset(m.entries.items())))
                return fn(m, *args, **kwargs)
            return solve_wrapper

        @functools.wraps(fn)
        def counting_wrapper(*args, **kwargs):
            calls[counter] += 1
            return fn(*args, **kwargs)
        return counting_wrapper

    def _covariance(self, calc, side: str) -> None:
        self.calls["covariance"] = self.calls.get("covariance", 0) + 1
        key = (id(calc), side)
        if key not in self._cov_seen:
            self._cov_seen.add(key)
            self._keep.append(calc)

    # -- jobs ---------------------------------------------------------------

    def run_job(self, label: str, fn):
        """Run fn() as one job under a root `cli.main` span."""
        self._job = len(self.jobs)
        self.jobs.append(label)
        record = ["cli.main", perf_counter(), 0.0, None, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn()
        finally:
            record[2] = perf_counter()
            self._stack.clear()
            self.solve_distinct += len(self._solve_seen)
            self.covariance_distinct += len(self._cov_seen)
            self._solve_seen.clear()
            self._cov_seen.clear()
            self._keep.clear()
            self._job = None

    # -- results ------------------------------------------------------------

    def layer_seconds(self) -> dict:
        """Seconds per span name: self time, or whole span for INCLUSIVE names."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            own = end - start if name in INCLUSIVE else end - start - child[i]
            out[name] = out.get(name, 0.0) + own
        return out

    def span_counts(self) -> dict:
        out: dict = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def dump(self) -> dict:
        return {
            "jobs": self.jobs,
            "span_fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "calls": self.calls,
            "kernel_seconds": self.seconds,
            "missing_targets": self.missing,
        }
