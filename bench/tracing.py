"""Outside-in tracing of ribbonlab for the traced benchmark run.

Wrappers are installed from here, around the public functions of each
module, at every place the name is looked up: a name imported with
``from .x import f`` is patched in the importing module too, and methods
are patched on their class.  Nothing under ``src/`` changes.

Timed wrappers record a span (name, start, end, parent span, job id) in
compact in-memory columns that are written out when the run ends.
``series`` and ``local2d`` wrappers only count: they run tens of thousands of
times per job, and a timed span on each would distort their numbers.

Layer metrics are means per job.  A ``*_s`` metric is the summed duration
of that layer's spans; ``cli.self_s`` is ``cli.main`` time minus the time
its child spans cover (argparse, JSON text I/O, printing).
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

COLUMNS = (("start", "d"), ("end", "d"), ("name", "i"), ("parent", "i"), ("job", "i"))

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "series.scalar_ops": "count",
    "series.field_scalar_calls": "count",
    "series.field_constructions": "count",
    "series.laurent_from_json_calls": "count",
    "local2d.mul_calls": "count",
    "local2d.mul_terms_out": "count",
    "local2d.from_dict_calls": "count",
    "local2d.sub_calls": "count",
    "linalg.echelon_calls": "count",
    "linalg.echelon_rows_in": "count",
    "linalg.echelon_s": "s",
    "linalg.reduce_vector_calls": "count",
    "linalg.reduce_vector_s": "s",
    "linalg.row_sub_calls": "count",
    "linalg.rank_calls": "count",
    "fredholm.membership_calls": "count",
    "fredholm.membership_s": "s",
    "fredholm.row_dicts_calls": "count",
    "fredholm.echelonize_calls": "count",
    "fredholm.echelonize_s": "s",
    "fredholm.index_s": "s",
    "schur.check_s": "s",
    "schur.products_formed": "count",
    "schur.products_distinct": "count",
    "schur.products_repeat_share": "ratio",
    "schur.layered_membership_calls": "count",
    "schur.layered_membership_s": "s",
    "schur.validate_witnesses_s": "s",
    "schur.hilbert_s": "s",
    "schur.pair_load_s": "s",
    "schur.pair_dump_s": "s",
    "schur.tally_checked": "count",
    "schur.tally_deferred": "count",
    "schur.tally_escaped": "count",
    "geometry.forward_krichever_s": "s",
    "geometry.forward_krichever_calls": "count",
    "cohomology.ribbon_cohomology_s": "s",
    "cohomology.cech_line_bundle_calls": "count",
    "cohomology.picard_s": "s",
    "cohomology.echelon_calls_per_cohomology": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.job_s.p50": "s",
    "trace.overhead_s": "s",
}

# Metrics that must read nonzero on a workload, because that workload is the
# one they should move.  A zero means a wrapper no longer intercepts the work.
# series.field_constructions is left out on purpose: fixing the rebuilt
# Field in Field.from_tag may rightly drive it to zero.
_SCHUR_LAYERS = (
    "series.scalar_ops", "local2d.mul_calls", "local2d.mul_terms_out",
    "local2d.from_dict_calls", "local2d.sub_calls", "linalg.reduce_vector_calls",
    "linalg.reduce_vector_s", "fredholm.membership_calls", "fredholm.membership_s",
    "fredholm.row_dicts_calls", "schur.products_formed", "schur.products_distinct",
    "cli.calls", "cli.self_s",
)
REQUIRED_NONZERO = {
    "schur-monomial": _SCHUR_LAYERS + (
        "schur.layered_membership_calls", "geometry.forward_krichever_s",
        "geometry.forward_krichever_calls"),
    "schur-perturbed": _SCHUR_LAYERS + ("schur.pair_load_s",),
    "cech-stack": (
        "linalg.echelon_calls", "linalg.echelon_rows_in", "linalg.echelon_s",
        "cohomology.ribbon_cohomology_s", "cohomology.cech_line_bundle_calls",
        "cohomology.picard_s", "cohomology.echelon_calls_per_cohomology",
        "cli.calls", "cli.self_s"),
}

# span name -> the metric its summed duration reports
_SPAN_METRICS = {
    "linalg.echelon": "linalg.echelon_s",
    "linalg.reduce_vector": "linalg.reduce_vector_s",
    "fredholm.membership": "fredholm.membership_s",
    "fredholm.echelonize": "fredholm.echelonize_s",
    "fredholm.fredholm_index": "fredholm.index_s",
    "schur.check_schur_pair": "schur.check_s",
    "schur.layered_membership": "schur.layered_membership_s",
    "schur.validate_witnesses": "schur.validate_witnesses_s",
    "schur.hilbert_function": "schur.hilbert_s",
    "schur.point_ideal_check": "schur.hilbert_s",
    "schur.SchurPair.from_json": "schur.pair_load_s",
    "schur.SchurPair.to_json": "schur.pair_dump_s",
    "geometry.forward_krichever": "geometry.forward_krichever_s",
    "cohomology.ribbon_cohomology": "cohomology.ribbon_cohomology_s",
    "cohomology.picard_dimension": "cohomology.picard_s",
}

# span name -> the metric its call count reports
_SPAN_CALLS = {
    "linalg.echelon": "linalg.echelon_calls",
    "linalg.reduce_vector": "linalg.reduce_vector_calls",
    "fredholm.membership": "fredholm.membership_calls",
    "fredholm.echelonize": "fredholm.echelonize_calls",
    "schur.layered_membership": "schur.layered_membership_calls",
    "geometry.forward_krichever": "geometry.forward_krichever_calls",
    "cli.main": "cli.calls",
}


class Tracer:
    """Span columns and counters for one traced run (single-threaded)."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.cols = {name: array(code) for name, code in COLUMNS}
        self.stack: list = []
        self.job_id = -1
        self.counts: dict = {}
        self.products: set = set()

    def counter(self, metric: str) -> list:
        return self.counts.setdefault(metric, [0])

    def begin_job(self, job_id: int):
        self.job_id = job_id
        self.products = set()

    def end_job(self):
        self.counter("schur.products_distinct")[0] += len(self.products)

    def timed(self, name: str, fn):
        """Wrap ``fn`` so every call records a span named ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        start, end = self.cols["start"], self.cols["end"]
        names, parent, job = self.cols["name"], self.cols["parent"], self.cols["job"]
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            return out

        return wrapper

    def counted(self, metric: str, fn, after=None):
        """Wrap ``fn`` so every call adds one to ``metric``."""
        c = self.counter(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c[0] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def spans(self) -> int:
        return len(self.cols["start"])

    def layer_totals(self) -> dict:
        """Run totals of every span- and counter-based layer metric."""
        start, end = self.cols["start"], self.cols["end"]
        names, parent = self.cols["name"], self.cols["parent"]
        n = len(start)
        dur_by_name = [0.0] * len(self.names)
        calls_by_name = [0] * len(self.names)
        child = array("d", bytes(8 * n))
        for i in range(n):
            d = end[i] - start[i]
            dur_by_name[names[i]] += d
            calls_by_name[names[i]] += 1
            p = parent[i]
            if p >= 0:
                child[p] += d
        totals = {metric: c[0] for metric, c in self.counts.items()}
        for nid, name in enumerate(self.names):
            if name in _SPAN_METRICS:
                key = _SPAN_METRICS[name]
                totals[key] = totals.get(key, 0.0) + dur_by_name[nid]
            if name in _SPAN_CALLS:
                totals[_SPAN_CALLS[name]] = calls_by_name[nid]
        cli_id = self._ids.get("cli.main")
        totals["cli.self_s"] = sum(end[i] - start[i] - child[i]
                                   for i in range(n) if names[i] == cli_id)
        # echelon calls made inside a ribbon_cohomology call
        coh_id = self._ids.get("cohomology.ribbon_cohomology")
        ech_id = self._ids.get("linalg.echelon")
        under = 0
        for i in range(n):
            if names[i] == ech_id:
                p = parent[i]
                while p >= 0 and names[p] != coh_id:
                    p = parent[p]
                under += p >= 0
        totals["cohomology.echelon_calls_in_cohomology"] = under
        totals["cohomology.ribbon_cohomology_calls"] = (
            calls_by_name[coh_id] if coh_id is not None else 0)
        return totals

    def write(self, path_stem: str, header: dict):
        """Write the spans: ``<stem>.json`` header, ``<stem>.spans`` columns."""
        os.makedirs(os.path.dirname(path_stem), exist_ok=True)
        meta = dict(header, names=self.names, spans=self.spans(),
                    columns=[[name, code] for name, code in COLUMNS])
        with open(path_stem + ".spans", "wb") as fh:
            for name, _code in COLUMNS:
                self.cols[name].tofile(fh)
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)


def load_spans(path_stem: str) -> tuple:
    """Read back a span file: (header, {column: array})."""
    with open(path_stem + ".json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    cols = {}
    with open(path_stem + ".spans", "rb") as fh:
        for name, code in meta["columns"]:
            cols[name] = array(code)
            cols[name].fromfile(fh, meta["spans"])
    return meta, cols


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value, expect=None):
        """Replace ``owner.attr``; with ``expect``, insist it is bound to that."""
        raw = vars(owner)[attr]
        if expect is not None and raw is not expect:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the traced function")
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer) -> Patches:
    """Wrap ribbonlab's public functions; returns the patches to undo."""
    from ribbonlab import _linalg, cli, cohomology, fredholm, geometry, local2d, schur, series

    patches = Patches()

    def at_sites(wrapper, fn, *owners):
        for owner in owners:
            patches.set(owner, fn.__name__, wrapper, expect=fn)

    def timed(name, fn, *owners):
        at_sites(tracer.timed(name, fn), fn, *owners)

    def method(cls, attr, wrap):
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            patches.set(cls, attr, staticmethod(wrap(raw.__func__)))
        else:
            patches.set(cls, attr, wrap(raw))

    # cli entry point and the names cli imports
    timed("cli.main", cli.main, cli)
    timed("schur.check_schur_pair", schur.check_schur_pair, cli, schur)
    timed("schur.hilbert_function", schur.hilbert_function, cli)
    timed("schur.point_ideal_check", schur.point_ideal_check, cli, schur)
    timed("geometry.forward_krichever", geometry.forward_krichever, cli, geometry)
    timed("cohomology.ribbon_cohomology", cohomology.ribbon_cohomology, cli, cohomology)
    timed("cohomology.picard_dimension", cohomology.picard_dimension, cli, cohomology)
    at_sites(tracer.counted("cohomology.cech_line_bundle_calls", cohomology.cech_line_bundle),
             cohomology.cech_line_bundle, cohomology)

    # schur and the fredholm names it imports
    timed("schur.layered_membership", schur.layered_membership, schur)
    timed("fredholm.membership", fredholm.membership, schur, fredholm)
    timed("fredholm.fredholm_index", fredholm.fredholm_index, schur, geometry, fredholm)
    timed("fredholm.echelonize", fredholm.echelonize, geometry, fredholm)
    method(schur.SchurPair, "from_json", lambda f: tracer.timed("schur.SchurPair.from_json", f))
    method(schur.SchurPair, "to_json", lambda f: tracer.timed("schur.SchurPair.to_json", f))
    method(schur.LayeredSubspace, "validate_witnesses",
           lambda f: tracer.timed("schur.validate_witnesses", f))
    method(fredholm.WindowedSubspace, "row_dicts",
           lambda f: tracer.counted("fredholm.row_dicts_calls", f))

    def product(args, out):
        tracer.products.add(tuple(x.terms for x in out))

    at_sites(tracer.counted("schur.products_formed", schur.scalar_times_vector, product),
             schur.scalar_times_vector, schur)

    # _linalg: every caller goes through the module attribute
    rows_in = tracer.counter("linalg.echelon_rows_in")
    echelon_fn = _linalg.echelon

    def echelon(rows):
        rows = list(rows)
        rows_in[0] += len(rows)
        return echelon_fn(rows)

    at_sites(tracer.timed("linalg.echelon", functools.wraps(echelon_fn)(echelon)),
             echelon_fn, _linalg)
    timed("linalg.reduce_vector", _linalg.reduce_vector, _linalg)
    at_sites(tracer.counted("linalg.row_sub_calls", _linalg.row_sub), _linalg.row_sub, _linalg)
    at_sites(tracer.counted("linalg.rank_calls", _linalg.rank), _linalg.rank, _linalg)

    # local2d and series: counts only
    terms_out = tracer.counter("local2d.mul_terms_out")

    def mul_terms(args, out):
        terms_out[0] += len(out.terms)

    method(local2d.Local2DElement, "__mul__",
           lambda f: tracer.counted("local2d.mul_calls", f, mul_terms))
    method(local2d.Local2DElement, "__sub__", lambda f: tracer.counted("local2d.sub_calls", f))
    method(local2d.Local2DElement, "from_dict",
           lambda f: tracer.counted("local2d.from_dict_calls", f))
    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
               "__neg__", "inverse"):
        method(series.Scalar, op, lambda f: tracer.counted("series.scalar_ops", f))
    method(series.Field, "scalar", lambda f: tracer.counted("series.field_scalar_calls", f))
    method(series.Field, "__post_init__",
           lambda f: tracer.counted("series.field_constructions", f))
    method(series.LaurentPoly, "from_json",
           lambda f: tracer.counted("series.laurent_from_json_calls", f))
    return patches

