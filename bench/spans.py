"""Spans and counters for the traced benchmark run.

The tracer wraps the public functions of the `exhopf` modules from the
outside, including the names that modules import from each other
(`bst.buchberger`, `steenrod.wu_formula`, ...), since a wrapper on the
defining module alone would miss those calls.  A span has a name, start,
end and parent; spans are kept in memory and written out at exit.  Self
time is a span's duration minus the time its child spans cover.  Very hot
functions (`RingContext.order_key`, `Polynomial.__mul__`) are counted, not
timed, so that their cost does not swamp the spans around them.

Nothing is recorded outside a phase: the benchmark opens the `setup` phase
while it loads inputs and the `timed` phase around each operation, and
checks outputs with the tracer idle.
"""

import functools
import gzip
import json
from array import array
from time import perf_counter_ns

from workloads import PAIRS, label

BST_METHODS = ("instability-zero", "method1", "method2", "case1", "method1-fallback", "both")
HOPF_METHODS = ("multiply", "bockstein", "mu_star", "tensor_power", "reduced_power", "sq")


def _size(result):
    return len(result.terms)


class Tracer:
    def __init__(self):
        self.phase = None
        self.stack = []  # open spans: [index, name, start_ns, child_ns]
        # closed spans, one column each; name is an index into `names`
        self.names = []
        self._name_index = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.totals = {}  # (phase, name) -> [calls, total_ns, self_ns, size]
        self.counts = {}  # (phase, name) -> calls
        self.entries = {}  # (phase, method) -> b-table entries returned
        self._undo = []

    # -- recording ----------------------------------------------------------

    def open(self, name):
        index = len(self.start)
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._name_index[name])
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.start.append(0)
        self.end.append(0)
        frame = [index, name, perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def close(self, frame, size=0):
        end = perf_counter_ns()
        self.stack.pop()
        index, name, start, child = frame
        self.start[index] = start
        self.end[index] = end
        dur = end - start
        if self.stack:
            self.stack[-1][3] += dur
        tot = self.totals.setdefault((self.phase, name), [0, 0, 0, 0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        tot[3] += size

    def record_entries(self, table):
        for entry in table.entries.values():
            key = (self.phase, entry.method)
            self.entries[key] = self.entries.get(key, 0) + 1

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owners, attr, name, size=None):
        """Time every call of `attr` on each of `owners` as span `name`."""
        orig = getattr(owners[0], attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return orig(*args, **kwargs)
            frame = self.open(name)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                self.close(frame, size(result) if size and result is not None else 0)

        for owner in owners:
            self._patch(owner, attr, wrapper)

    def count(self, owner, attrs, name):
        """Count the calls of each of `attrs` on `owner` as `name`."""
        orig = getattr(owner, attrs[0])
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args):
            if self.phase is not None:
                key = (self.phase, name)
                counts[key] = counts.get(key, 0) + 1
            return orig(*args)

        for attr in attrs:
            self._patch(owner, attr, wrapper)

    def install(self):
        from exhopf import bst, ffpoly, groebner, hopf, liedata, steenrod, symfun

        self.span([liedata], "theta_set", "liedata.theta_set")
        self.span([liedata], "expand_in_weights", "liedata.expand_in_weights", _size)
        self.span([symfun, steenrod], "wu_formula", "symfun.wu_formula", _size)
        self.span([steenrod], "power", "steenrod.power", _size)
        self.span([groebner, bst], "buchberger", "groebner.buchberger", len)
        self.span([groebner], "normal_form", "groebner.normal_form",
                  lambda r: len(r.remainder.terms))
        self.span([groebner, bst], "solve_linear_coefficient",
                  "groebner.solve_linear_coefficient")
        self.span([bst], "compute_bst_method1", "bst.method1")
        self.span([bst], "compute_bst_method2", "bst.method2")
        for method in HOPF_METHODS:
            self.span([hopf.HopfModel], method, f"hopf.{method}")
        self.count(ffpoly.RingContext, ("order_key",), "ffpoly.order_key")
        self.count(ffpoly.Polynomial, ("__mul__", "__rmul__"), "ffpoly.mul")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def dump(self, path):
        """Write every span, one column per field, as gzipped JSON.

        Times are in ns from the first span; `parent` is a span index or -1.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": [t - t0 for t in self.start],
                "end_ns": [t - t0 for t in self.end],
            }, fh)

    def metrics(self):
        """Per-layer metrics; all from the timed phase except theta loading."""
        def tot(name, phase="timed"):
            return self.totals.get((phase, name), [0, 0, 0, 0])

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def calls_s(name, s_key="s", s_index=1):
            t = tot(name)
            put(f"{name}.calls", t[0], "count")
            put(f"{name}.{s_key}", t[s_index] / 1e9, "s")
            return t

        put("symfun.wu_formula.terms", calls_s("symfun.wu_formula")[3], "count")
        put("groebner.normal_form.remainder_terms", calls_s("groebner.normal_form")[3], "count")
        put("groebner.basis_size", calls_s("groebner.buchberger")[3], "count")
        calls_s("groebner.solve_linear_coefficient")
        put("steenrod.power.terms",
            calls_s("steenrod.power", "self_s", 2)[3], "count")
        put("liedata.theta_set.s", tot("liedata.theta_set", "setup")[1] / 1e9, "s")
        expand = tot("liedata.expand_in_weights")
        put("liedata.expand_in_weights.s", expand[1] / 1e9, "s")
        put("liedata.expand_in_weights.terms", expand[3], "count")
        put("ffpoly.order_key.calls", self.counts.get(("timed", "ffpoly.order_key"), 0), "count")
        put("ffpoly.mul.calls", self.counts.get(("timed", "ffpoly.mul"), 0), "count")

        for pair in PAIRS:
            put(f"bst.full_table.{label(pair)}.s",
                tot(f"op.full_table.{label(pair)}")[1] / 1e9, "s")
        for method in BST_METHODS:
            put(f"bst.entries.{method}", self.entries.get(("timed", method), 0), "count")
        attempts = tot("bst.method2")[0]
        put("bst.method2.attempts", attempts, "count")
        fallback = self.entries.get(("timed", "method1-fallback"), 0)
        put("bst.fallback_share", fallback / attempts if attempts else 0.0, "ratio")
        put("bst.method1.calls", tot("bst.method1")[0], "count")

        for stage in ("build_model", "derive_coproducts"):
            put(f"hopf.{stage}.s",
                sum(tot(f"op.{stage}.{label(pair)}")[1] for pair in PAIRS) / 1e9, "s")
        for pair in PAIRS:
            put(f"hopf.check_suite.{label(pair)}.s",
                tot(f"op.check_suite.{label(pair)}")[1] / 1e9, "s")
        for method in HOPF_METHODS:
            calls_s(f"hopf.{method}", "self_s", 2)
        return out
