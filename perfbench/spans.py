"""In-memory span tracing of kdeclass, installed from outside the package.

A `Tracer` wraps public functions and methods of each kdeclass module in
place.  Modules import names directly (`from .selector import
select_bandwidths`), so a wrapper is bound under every module attribute that
holds the original object, not only in the defining module.  `uninstall`
restores every binding; `installed_wrappers` lists any that remain.

A span is `[name, start, end, parent, op, attrs, wrap_s]`: `parent` is the
index of the enclosing span (-1 at top level), `op` the benchmark operation
it ran under, `attrs` an optional dict of work counts computed from the
call's arguments and result, and `wrap_s` the wrapper's own time outside
`start..end` (the label, the record, the work counts).  The wrapper runs in
its caller, so self times subtract `wrap_s` from the parent along with the
child's span time; only the Python call into the wrapper and its return stay
in the parent's self time.  Span timing is single-threaded: do not run traced
code on several threads.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from time import perf_counter

import numpy as np

_ORIGINAL = "__perfbench_original__"


def _kde_call_name(args):
    return "kde.scalar" if np.ndim(args[1]) == 0 else "kde.eval"


def _kernel_elems(args, out):
    return {"elems": int(np.size(args[1]))}


def _kde_pairs(args, out):
    """Dense pairs (points x sample size) of an array evaluation, and the
    pairs inside the open kernel support, where the kernel is nonzero."""
    est, x = args[0], args[1]
    if np.ndim(x) == 0:
        return None
    x = np.asarray(x, dtype=float).ravel()
    half = est.h * float(est.kernel.support_halfwidth)
    inside = (np.searchsorted(est.data, x + half, side="left")
              - np.searchsorted(est.data, x - half, side="right"))
    return {"pairs_dense": int(x.size) * est.count,
            "pairs_support": int(np.sum(inside))}


def _select_attrs(args, out):
    i = int(np.flatnonzero(out.grid_h1 == out.h1)[0])
    j = int(np.flatnonzero(out.grid_h2 == out.h2)[0])
    edge = i in (0, out.grid_h1.size - 1) or j in (0, out.grid_h2.size - 1)
    return {"size": int(np.size(args[1])), "edge": int(edge)}


def _segments_out(args, out):
    return {"out": len(out)}


#: (module, attribute path, span name or name function, attrs function).
#: The functions read positional arguments only, as every caller passes them.
TARGETS = (
    ("kdeclass.kernels", "Kernel.__call__", "kernels.call", _kernel_elems),
    ("kdeclass.kernels", "Kernel.sample", "kernels.sample", None),
    ("kdeclass.kde", "KdeEstimate.__init__", "kde.init", None),
    ("kdeclass.kde", "KdeEstimate.__call__", _kde_call_name, _kde_pairs),
    ("kdeclass.kde", "KdeEstimate.loo_all", "kde.loo", None),
    ("kdeclass.kde", "smoothed_bootstrap", "kde.bootstrap", None),
    ("kdeclass.selector", "select_bandwidths", "selector.select", _select_attrs),
    ("kdeclass.selector", "pilot_bandwidth", "selector.pilot", None),
    ("kdeclass.selector", "cv_err", "selector.cv_err", None),
    ("kdeclass.classifier", "fit_classifier", "classifier.fit", None),
    ("kdeclass.classifier", "decision_segments", "classifier.segments", _segments_out),
    ("kdeclass.classifier", "TrainedClassifier.deltahat", "classifier.deltahat", None),
    ("kdeclass.classifier", "classify_ahat", "classifier.ahat", None),
    ("kdeclass.classifier", "classify_tail", "classifier.tail", None),
    ("kdeclass.risk", "empirical_risk", "risk.empirical", None),
    ("kdeclass.risk", "bayes_risk", "risk.bayes", None),
    ("kdeclass.risk", "optimal_bandwidths", "risk.optimal", None),
    ("kdeclass.densities", "DensityPair.sample", "densities.sample", None),
    ("kdeclass.densities", "crossings", "densities.crossings", None),
    ("kdeclass.densities", "make_pair", "densities.make_pair", None),
    ("kdeclass.simulate", "run_cv_comparison", "simulate.cv", None),
    ("kdeclass.simulate", "run_study", "simulate.study", None),
)


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "kdeclass" or k.startswith("kdeclass."))]


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            label = name(args) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, out)
            rec[6] = perf_counter() - enter - (rec[2] - rec[1])
            return out

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for mod_name, path, name, attrs_fn in TARGETS:
            owner = sys.modules[mod_name]
            if "." in path:  # a method: patch the class once
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._bind(cls, attr, original, self._wrap(original, name, attrs_fn))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name, attrs_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, attr, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block; on leaving it, check that no wrapper is
        left anywhere, so the code that follows runs untraced."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
        leftover = installed_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers left installed: {leftover}")

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, attrs, wrap_s in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "attrs": attrs,
                                     "wrap_s": wrap_s}) + "\n")


def installed_wrappers() -> list[str]:
    """Every kdeclass module attribute or class attribute that still holds a
    tracing wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _ORIGINAL):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{attr}.{k}"
                             for k, v in vars(value).items() if hasattr(v, _ORIGINAL))
    return found


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct child spans and the
    time of their wrappers."""
    out = [t1 - t0 for _, t0, t1, _, _, _, _ in spans]
    for _, t0, t1, parent, _, _, wrap_s in spans:
        if parent >= 0:
            out[parent] -= t1 - t0 + wrap_s
    return out


def net_times(spans) -> list[float]:
    """Span duration minus the wrapper time of every span nested in it.
    A child is recorded after its parent, so one reverse pass suffices."""
    nested = [0.0] * len(spans)
    for k in range(len(spans) - 1, -1, -1):
        parent, wrap_s = spans[k][3], spans[k][6]
        if parent >= 0:
            nested[parent] += nested[k] + wrap_s
    return [t1 - t0 - w for (_, t0, t1, *_), w in zip(spans, nested)]


def span_table(spans) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, summed attrs."""
    table: dict[str, dict] = {}
    for (name, t0, t1, _, _, attrs, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
        row["n"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += own
        for key, value in (attrs or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics the benchmark reports; zero where the traced
    workload never entered the span."""
    table = span_table(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    out = {}
    for name in ("kernels.call", "kde.init", "kde.eval", "kde.scalar",
                 "selector.select", "selector.cv_err", "classifier.segments",
                 "classifier.deltahat", "classifier.ahat", "classifier.tail"):
        out[f"{name}.n"] = get(name, "n")
    for name in ("kernels.call", "kernels.sample", "kde.init", "kde.eval",
                 "kde.scalar", "kde.bootstrap", "kde.loo", "selector.select",
                 "selector.pilot", "selector.cv_err", "classifier.fit",
                 "classifier.segments", "risk.empirical", "risk.bayes",
                 "risk.optimal", "densities.sample", "densities.crossings",
                 "simulate.cv"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["kernels.call.elems"] = get("kernels.call", "elems")
    out["kde.eval.pairs_dense"] = get("kde.eval", "pairs_dense")
    out["kde.eval.pairs_support"] = get("kde.eval", "pairs_support")
    dense = out["kde.eval.pairs_dense"]
    out["kde.eval.support_frac"] = out["kde.eval.pairs_support"] / dense if dense else 0.0
    out["classifier.segments.out"] = get("classifier.segments", "out")

    selects = [(rec[5], net) for rec, net in zip(spans, net_times(spans))
               if rec[0] == "selector.select"]
    for n in (20, 200):
        times = [dt for attrs, dt in selects if attrs and attrs["size"] == n]
        out[f"selector.select.call_s.n{n}"] = statistics.fmean(times) if times else 0.0
    edges = [attrs["edge"] for attrs, _ in selects if attrs]
    out["selector.select.edge_frac"] = statistics.fmean(edges) if edges else 0.0
    return out
