"""Outside-in layer trace for the jetlift benchmark.

Wrappers are installed around public jetlift functions from here, never from the
program's files: every module namespace that holds a traced function (its home
module and every module that imported the name) is patched, as are the `Poly`
methods and the attributes of the active kernel module.  Spans are recorded
only inside an operation span opened by the harness, kept in memory as flat
arrays with their parent index, and reduced to per-name calls, total time and
self time (span minus the time covered by its child spans) after the pass.
`uninstall()` puts every original object back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# span name -> (module, attribute path).  The kernel entries name the attribute
# of `jetlift._backend.kernel`, whichever backend it is.
TARGETS = {
    "kernel.mul_terms": ("kernel", "mul_terms"),
    "kernel.derive_terms": ("kernel", "derive_terms"),
    "kernel.add_terms": ("kernel", "add_terms"),
    "kernel.partial_terms": ("kernel", "partial_terms"),
    "kernel.neg_terms": ("kernel", "neg_terms"),
    "kernel.scale_terms": ("kernel", "scale_terms"),
    "algebra.substitute": ("jetlift.algebra", "Poly.substitute"),
    "algebra.eval": ("jetlift.algebra", "Poly.eval"),
    "algebra.pow": ("jetlift.algebra", "Poly.__pow__"),
    "algebra.compose_series": ("jetlift.algebra", "Poly.compose_series"),
    "algebra.series_mul": ("jetlift.algebra", "series_mul"),
    "vectorfields.apply_derivation": ("jetlift.vectorfields", "apply_derivation"),
    "vectorfields.iterated_bracket": ("jetlift.vectorfields", "iterated_bracket"),
    "flows.verify_dj": ("jetlift.flows", "verify_dj"),
    "flows.flow_jet": ("jetlift.flows", "flow_jet"),
    "flows.flow_series_picard": ("jetlift.flows", "flow_series_picard"),
    "flows.stratum_invariance_check": ("jetlift.flows", "stratum_invariance_check"),
    "jets.jet_project": ("jetlift.jets", "jet_project"),
    "jets.jet_difference": ("jetlift.jets", "jet_difference"),
    "jets.jet_translate": ("jetlift.jets", "jet_translate"),
    "jets.jet_to_series": ("jetlift.jets", "jet_to_series"),
    "jets.jet_from_series": ("jetlift.jets", "jet_from_series"),
    "linalg.rref": ("jetlift.linalg", "rref"),
    "linalg.solve_with_residual": ("jetlift.linalg", "solve_with_residual"),
    "cech.evaluate_along_curve": ("jetlift.cech", "evaluate_along_curve"),
    "cech.solve_coboundary": ("jetlift.cech", "solve_coboundary"),
    "cech.restrict_section": ("jetlift.cech", "restrict_section"),
    "lifting.lift_step": ("jetlift.lifting", "lift_step"),
    "lifting.local_jet_section": ("jetlift.lifting", "local_jet_section"),
    "lifting.defect_cochain": ("jetlift.lifting", "defect_cochain"),
    "lifting.transition_jet_section": ("jetlift.lifting", "transition_jet_section"),
    "frobenius.rank_at": ("jetlift.frobenius", "rank_at"),
    "frobenius.involutivity_certificate": ("jetlift.frobenius", "involutivity_certificate"),
    "frobenius.strata_sample": ("jetlift.frobenius", "strata_sample"),
    "scenario.parse_scenario": ("jetlift.scenario", "parse_scenario"),
    "parsing.parse_poly": ("jetlift.parsing", "parse_poly"),
    "cli.main": ("jetlift.cli", "main"),
}


class Trace:
    """Spans of one traced pass, plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {"kernel.mul_terms.terms_out": 0,
                       "kernel.derive_terms.terms_out": 0,
                       "linalg.cells": 0, "linalg.max_rows": 0, "linalg.max_cols": 0,
                       "lifting.window_width_max": 0}
        self._stack = []
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ----------------------------------------------------------------

    def begin_op(self, kind):
        """Open the root span of one operation; wrapped calls record only inside one."""
        idx = len(self.start)
        self.name_id.append(self._id("op." + kind.split("/")[0]))
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())

    def end_op(self):
        self.end[self._stack.pop()] = time.perf_counter()

    def _wrap(self, name, fn, after):
        nid = self._id(name)
        stack = self._stack
        name_id, parent = self.name_id.append, self.parent.append
        start, end = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id(nid)
            parent(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_terms(self, key):
        def after(args, result):
            self.counts[key] += len(result)
        return after

    def _count_matrix(self, args, result):
        matrix = args[0]
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        counts = self.counts
        counts["linalg.cells"] += rows * cols
        counts["linalg.max_rows"] = max(counts["linalg.max_rows"], rows)
        counts["linalg.max_cols"] = max(counts["linalg.max_cols"], cols)

    def _count_window(self, args, result):
        lo, hi = result[0].window
        self.counts["lifting.window_width_max"] = max(
            self.counts["lifting.window_width_max"], hi - lo)

    # -- installing ---------------------------------------------------------------

    def install(self):
        """Patch every namespace that holds a traced function."""
        from jetlift import _backend
        after = {"kernel.mul_terms": self._count_terms("kernel.mul_terms.terms_out"),
                 "kernel.derive_terms": self._count_terms("kernel.derive_terms.terms_out"),
                 "linalg.rref": self._count_matrix,
                 "linalg.solve_with_residual": self._count_matrix,
                 "lifting.lift_step": self._count_window}
        homes = {name: (_backend.kernel if module_name == "kernel"
                        else importlib.import_module(module_name))
                 for name, (module_name, _) in TARGETS.items()}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "jetlift" or name.startswith("jetlift."))]
        try:
            for name, (_, path) in TARGETS.items():
                owner = homes[name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, after.get(name))
                if outer:                       # a method: patch the class
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:          # a function: every importer
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- reducing -----------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total_s (inclusive), self_s; and whether spans nest."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        covered = [0.0] * n
        nested = True
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
                if start[i] < start[p] or end[i] > end[p]:
                    nested = False
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        wall = 0.0
        for i in range(n):
            row = table[self.names[name_id[i]]]
            duration = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
            if parent[i] < 0:
                wall += duration
        self_sum = sum(row["self_s"] for row in table.values())
        return {"spans": n, "nested": nested, "wall_s": wall, "self_sum_s": self_sum,
                "layers": table, "counts": dict(self.counts)}

    def write(self, stem, summary):
        """Write the summary as JSON and the raw spans as flat binary arrays."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{stem}.spans", "wb") as handle:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)
        layout = [["name_id", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]]
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "names": self.names,
                       "spans_file": f"{stem.name}.spans",
                       "spans_layout": layout}, handle, indent=1)
