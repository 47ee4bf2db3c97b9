"""Spans around imbindex's public functions, and the per-layer metrics derived from them.

A traced benchmark iteration calls :meth:`Tracer.install` after importing
``imbindex.cli``.  Every function in ``TARGETS`` is then replaced by a wrapper
that records one span per call: its name, start, end and the span that was
open when it was called (its parent).  A function imported by name into
several modules (``evaluate`` lives in ``cli``, ``audit`` and ``lab``) is
replaced in each of them; a method is replaced on its class.  Spans are kept
in flat arrays in memory and written out once, by :meth:`Tracer.dump`, when
the iteration ends.  :func:`layer_metrics` turns a written span file into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute); a dotted attribute names a method.
TARGETS = {
    "cli.main": ("imbindex.cli", "main"),
    "io.read_label_pairs": ("imbindex.io", "read_label_pairs"),
    "io.write_matrix_csv": ("imbindex.io", "write_matrix_csv"),
    "confusion.ConfusionMatrix": ("imbindex.confusion", "ConfusionMatrix.__post_init__"),
    "confusion.ingest_labels": ("imbindex.confusion", "ingest_labels"),
    "confusion.apply_scaling": ("imbindex.confusion", "apply_scaling"),
    "registry.evaluate": ("imbindex.registry", "evaluate"),
    "registry.exact": ("imbindex.registry", "exact"),
    "audit.audit_condition1": ("imbindex.audit", "audit_condition1"),
    "audit.sample_matrix": ("imbindex.audit", "sample_matrix"),
    "audit.sample_scaling": ("imbindex.audit", "sample_scaling"),
    "audit.audit_condition2_many": ("imbindex.audit", "audit_condition2_many"),
    "audit.iter_matrices": ("imbindex.audit", "iter_matrices"),
    "audit.audit_condition3": ("imbindex.audit", "audit_condition3"),
    "audit.reports_to_json": ("imbindex.audit", "reports_to_json"),
    "lab.load_spec": ("imbindex.lab", "load_spec"),
    "lab.generate_gaussian_dataset": ("imbindex.lab", "generate_gaussian_dataset"),
    "lab.resample_points_to_rrt": ("imbindex.lab", "resample_points_to_rrt"),
    "lab.threshold_classifier_confusion": ("imbindex.lab", "threshold_classifier_confusion"),
    "lab.rescale_matrix_to_rrt": ("imbindex.lab", "rescale_matrix_to_rrt"),
    "lab.rescale_matrix_to_counts": ("imbindex.lab", "rescale_matrix_to_counts"),
    "lab.run_experiment": ("imbindex.lab", "run_experiment"),
    "lab.write_csv": ("imbindex.lab", "ExperimentResult.write_csv"),
}

# Generator functions get one span per item produced, with value 1 per item.
GENERATORS = frozenset({"audit.iter_matrices"})


# span name -> (args, result) -> the integer stored as the span's value.
VALUES = {
    "io.read_label_pairs": lambda args, result: len(result),
    "confusion.ingest_labels": lambda args, result: len(args[0]),
    "registry.evaluate": lambda args, result: int(result.value is None),
    "registry.exact": lambda args, result: int(result is None),
    "lab.write_csv": lambda args, result: sum(path.stat().st_size for path in result),
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("q")
        self.nested = array("b")  # 1 when a span of the same name was already open
        self._stack = [-1]
        self._active = [0] * len(self.names)

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap every target in every loaded imbindex module that holds it."""
        tracer = cls()
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "imbindex" or name.startswith("imbindex.")
        ]
        for nid, (span, (module_name, attr)) in enumerate(TARGETS.items()):
            owner = importlib.import_module(module_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            if span in GENERATORS:
                wrapper = tracer._wrap_generator(nid, original)
            else:
                wrapper = tracer._wrap(nid, original, VALUES.get(span))
            if path:
                setattr(owner, last, wrapper)
                continue
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, key, wrapper)
        return tracer

    def _wrap(self, nid, fn, value_of):
        names, starts, ends = self.name, self.start, self.end
        parents, values, nested = self.parent, self.value, self.nested
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(active[nid] > 0)
            values.append(0)
            ends.append(0.0)
            active[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if value_of is not None:
                values[idx] = value_of(args, result)
            return result

        return traced

    def _wrap_generator(self, nid, fn):
        names, starts, ends = self.name, self.start, self.end
        parents, values, nested = self.parent, self.value, self.nested
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                nested.append(0)
                values.append(0)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                values[idx] = 1
                yield item

        return traced

    def dump(self, path, run_id: int) -> None:
        """Write all spans, tagged with the iteration's run id, as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            value=np.frombuffer(self.value, dtype=np.int64),
            nested=np.frombuffer(self.nested, dtype=np.int8),
            run=np.full(len(self.start), run_id, dtype=np.int32),
        )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its span file.

    ``busy_s`` sums the durations of a name's outermost spans; ``self_s``
    sums each span's duration minus the durations of its direct children;
    ``calls`` counts spans.  A layer that did not run reports zeros.
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name, parent, value = z["name"], z["parent"], z["value"]
        dur = z["end"] - z["start"]
        outermost = z["nested"] == 0
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - children

    calls, busy, self_s, total = {}, {}, {}, {}
    for nid, span in enumerate(names):
        mask = name == nid
        calls[span] = int(mask.sum())
        busy[span] = float(dur[mask & outermost].sum())
        self_s[span] = float(own[mask].sum())
        total[span] = int(value[mask].sum())

    draws = calls["audit.sample_matrix"]
    trials = calls["audit.sample_scaling"]
    matrices = total["audit.iter_matrices"]
    return {
        "cli.main.self_s": self_s["cli.main"],
        "io.read_label_pairs.busy_s": busy["io.read_label_pairs"],
        "io.read_label_pairs.rows_per_s": _rate(
            total["io.read_label_pairs"], busy["io.read_label_pairs"]),
        "io.write_matrix_csv.busy_s": busy["io.write_matrix_csv"],
        "confusion.ConfusionMatrix.calls": calls["confusion.ConfusionMatrix"],
        "confusion.ConfusionMatrix.busy_s": busy["confusion.ConfusionMatrix"],
        "confusion.ingest_labels.busy_s": busy["confusion.ingest_labels"],
        "confusion.ingest_labels.rows_per_s": _rate(
            total["confusion.ingest_labels"], busy["confusion.ingest_labels"]),
        "confusion.apply_scaling.calls": calls["confusion.apply_scaling"],
        "confusion.apply_scaling.busy_s": busy["confusion.apply_scaling"],
        "registry.evaluate.calls": calls["registry.evaluate"],
        "registry.evaluate.busy_s": busy["registry.evaluate"],
        "registry.evaluate.undefined": total["registry.evaluate"],
        "registry.exact.calls": calls["registry.exact"],
        "registry.exact.busy_s": busy["registry.exact"],
        "registry.exact.undefined": total["registry.exact"],
        "audit.audit_condition1.self_s": self_s["audit.audit_condition1"],
        # every trial draws until the index is defined, then draws one scaling
        "audit.audit_condition1.trials_run": trials,
        "audit.sample.busy_s": busy["audit.sample_matrix"] + busy["audit.sample_scaling"],
        "audit.sample.useful_frac": _rate(trials, draws),
        "audit.audit_condition2_many.self_s": self_s["audit.audit_condition2_many"],
        "audit.iter_matrices.matrices": matrices,
        "audit.iter_matrices.matrices_per_s": _rate(
            matrices, busy["audit.audit_condition2_many"]),
        "audit.audit_condition3.busy_s": busy["audit.audit_condition3"],
        "audit.reports_to_json.busy_s": busy["audit.reports_to_json"],
        "lab.load_spec.busy_s": busy["lab.load_spec"],
        "lab.generate_gaussian_dataset.busy_s": busy["lab.generate_gaussian_dataset"],
        "lab.resample_points_to_rrt.calls": calls["lab.resample_points_to_rrt"],
        "lab.resample_points_to_rrt.busy_s": busy["lab.resample_points_to_rrt"],
        "lab.threshold_classifier_confusion.calls": calls["lab.threshold_classifier_confusion"],
        "lab.threshold_classifier_confusion.busy_s": busy["lab.threshold_classifier_confusion"],
        "lab.rescale_matrix.busy_s": (
            busy["lab.rescale_matrix_to_rrt"] + busy["lab.rescale_matrix_to_counts"]),
        "lab.run_experiment.self_s": self_s["lab.run_experiment"],
        "lab.write_csv.busy_s": busy["lab.write_csv"],
        "lab.write_csv.bytes": total["lab.write_csv"],
        "trace.spans": len(dur),
    }
