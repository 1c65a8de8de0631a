"""Per-layer tracing, installed from outside the package.

`Tracer.install` rebinds the public functions of each `contracta` layer to
wrappers, in every module that holds a reference (the `from .words import
concat` style included) and on the classes whose methods are traced.  While
an op runs, a span wrapper records (name, parent span, op id, start, end) in
flat arrays; a count wrapper only counts.  The hottest calls (`words.*`,
`MarkedGroup.contains`) are counted, not spanned.  The spans stay in memory
and are written to a file when the worker ends; `layer_metrics` reads the file
back and derives each layer's self time from the span tree.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute) of each traced callable; the metric name is
# "<module>.<last part of the attribute>"
SPANNED = (
    ("recursion", "WreathRecursion.section"),
    ("recursion", "WreathRecursion.word_perm"),
    ("recursion", "WreathRecursion.level_permutation"),
    ("contraction", "section_closure"),
    ("contraction", "is_trivial"),
    ("contraction", "nucleus"),
    ("growth", "ball_sizes"),
    ("catalog", "cover_for"),
    ("catalog", "grig_cover"),
    ("cli", "main"),
    ("rewriting", "complete"),
    ("rewriting", "normal_form"),
    ("cosets", "enumerate_cosets"),
    ("covers", "universal_cover"),
    ("covers", "standard_cover"),
    ("covers", "kernel_member"),
    ("grig", "reduce_word"),
    ("gomega", "omega_is_trivial"),
    ("gomega", "omega_kernel_member"),
    ("metabelian", "met_eval"),
    ("metabelian", "britton_reduce"),
    ("marked", "valuation"),
)
COUNTED = (
    ("words", "free_reduce"),
    ("words", "concat"),
    ("words", "invert"),
    ("marked", "MarkedGroup.contains"),
)
# work counts taken at the same boundaries: (metric, unit, better)
EXTRA = (
    ("contraction.section_closure.states", "count", "lower"),
    ("contraction.budget_exceeded", "count", "lower"),
    ("growth.equal.calls", "count", "lower"),
    ("growth.equal_per_element", "ratio", "lower"),
    ("rewriting.complete.rules", "count", "lower"),
    ("rewriting.complete.incomplete", "count", "lower"),
    ("cosets.budget_exceeded", "count", "lower"),
    ("marked.oracle.calls", "count", "lower"),
    ("marked.cache_hit_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, attr in SPANNED:
        name = metric_name(module, attr)
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(f"{metric_name(m, a)}.calls", "count", "lower") for m, a in COUNTED]
    return out + list(EXTRA)


class Tracer:
    def __init__(self):
        self.names = ["op"]
        self.nid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.on = False
        self.op_id = -1
        self.counts = Counter()
        self._contraction_ids = set()

    # -- recording -----------------------------------------------------------

    def _open(self, nid):
        i = len(self.start)
        self.nid.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op_id = op_id
        self.stack = [-1]
        self.on = True
        self._open(0)

    def end_op(self):
        self._close(self.stack[-1])
        self.on = False

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, on_result=None, wrap_args=None):
        nid = len(self.names)
        self.names.append(name)
        if name.startswith("contraction."):
            self._contraction_ids.add(nid)
        budget_exceeded = self._budget_exceeded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except budget_exceeded:
                self._close(i)
                self._count_budget(name, nid, i)
                raise
            except BaseException:
                self._close(i)
                raise
            self._close(i)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_budget(self, name, nid, i):
        if name == "cosets.enumerate_cosets":
            self.counts["cosets.budget_exceeded"] += 1
        elif nid in self._contraction_ids:
            # count each exhausted budget once, where it leaves the layer
            p = self.parent[i]
            if p < 0 or self.nid[p] not in self._contraction_ids:
                self.counts["contraction.budget_exceeded"] += 1

    def install(self):
        """Rebind every traced callable that the installed package has."""
        from contracta.errors import BudgetExceeded

        self._budget_exceeded = BudgetExceeded
        modules = [m for k, m in sys.modules.items()
                   if (k == "contracta" or k.startswith("contracta.")) and m is not None]
        hooks = self._hooks()
        for targets, spanned in ((SPANNED, True), (COUNTED, False)):
            for module, attr in targets:
                owner, leaf, fn = _resolve(module, attr)
                if fn is None:
                    continue
                name = metric_name(module, attr)
                if spanned:
                    wrapped = self._span(fn, name, *hooks.get(name, (None, None)))
                else:
                    wrapped = self._counter(fn, f"{name}.calls")
                if isinstance(owner, type):
                    setattr(owner, leaf, wrapped)
                else:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, key, wrapped)
        self._wrap_oracles()

    def _hooks(self):
        counts = self.counts

        def closure_states(auto):
            counts["contraction.section_closure.states"] += len(auto.states)

        def system_size(system):
            counts["rewriting.complete.rules"] += len(system.rules)
            counts["rewriting.complete.incomplete"] += not system.complete

        def ball_found(table):
            counts["growth.elements"] += table.gamma[-1] if table.gamma else 0

        def counted_equal(args, kwargs):
            # ball_sizes(equal, ...): count the equality oracle's calls
            if args:
                args = (self._counter(args[0], "growth.equal.calls"),) + args[1:]
            elif "equal" in kwargs:
                kwargs = dict(kwargs, equal=self._counter(kwargs["equal"], "growth.equal.calls"))
            return args, kwargs

        return {
            "contraction.section_closure": (closure_states, None),
            "rewriting.complete": (system_size, None),
            "growth.ball_sizes": (ball_found, counted_equal),
        }

    def _wrap_oracles(self):
        """Count membership-oracle calls behind `MarkedGroup.contains`."""
        owner, _, init = _resolve("marked", "MarkedGroup.__init__")
        if init is None:
            return
        counter = self._counter

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if callable(getattr(obj, "oracle", None)):
                obj.oracle = counter(obj.oracle, "marked.oracle.calls")

        owner.__init__ = __init__

    # -- output --------------------------------------------------------------

    def write(self, path):
        header = {"names": self.names, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.nid, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def _resolve(module, attr):
    mod = sys.modules.get(f"contracta.{module}")
    owner = mod
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    return owner, parts[-1], fn


# -- analysis ------------------------------------------------------------------


def read_spans(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header["names"], arrays


def self_times(parent, start, end):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.  Spans must be listed in start order (the
    order a tracer opens them), so each parent's children arrive sorted."""
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the covered part so far, per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_metrics(path, counts):
    """Per-layer metrics of one traced pass, from its span file and counts."""
    names, (nid, parent, _, start, end) = read_spans(path)
    self_s = self_times(parent, start, end)
    calls = Counter()
    busy = Counter()
    for i, k in enumerate(nid):
        calls[names[k]] += 1
        busy[names[k]] += self_s[i]
    out = {}
    for module, attr in SPANNED:
        name = metric_name(module, attr)
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = busy[name]
    for module, attr in COUNTED:
        name = f"{metric_name(module, attr)}.calls"
        out[name] = counts.get(name, 0)
    for name, _, _ in EXTRA:
        out[name] = counts.get(name, 0)
    elements = counts.get("growth.elements", 0)
    out["growth.equal_per_element"] = out["growth.equal.calls"] / elements if elements else 0.0
    contains = out["marked.contains.calls"]
    out["marked.cache_hit_ratio"] = (
        (contains - out["marked.oracle.calls"]) / contains if contains else 0.0)
    return out
