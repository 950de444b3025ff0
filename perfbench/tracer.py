"""Spans around calls into the public functions of each coorbit_lab layer.

``Tracer.installed()`` wraps the callables named in ``TARGETS`` wherever a
loaded ``coorbit_lab`` module holds a reference to them, so calls the package
makes to itself are seen as well as the benchmark's own calls.  Nothing in the
package is edited; the originals are restored when the block exits.

A span has a name, a start, an end and a parent span.  Spans stay in memory
(four flat arrays) until ``dump`` writes them out.  Per name the tracer also
keeps the call count, the total time and the self time: a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# module -> callables to wrap; "Class.method" wraps a method on the class
TARGETS = {
    "gaussian": ("Gaussian.__init__", "log_inner", "chirp_stft_modulus", "stft_closed", "log_stft_modulus"),
    "groups": ("multiply", "quotient_multiply"),
    "representations": ("apply_rep", "homomorphism_check", "unitarity_check"),
    "coorbit": (
        "coorbit_norm_log",
        "modulation_norm_log",
        "fit_log_quadratic",
        "_probe_center",
        "LogQuadratic.conditioned",
        "LogQuadratic.total",
    ),
    "frames": ("locate", "tiling_check", "lattice_points_in_box", "frame_bounds_estimate"),
    "numerics": ("dft_stft",),
    "cli": ("parse_config", "run"),
}

# (inner, outer): count calls of inner made while outer is on the stack
NESTED = (
    ("gaussian.log_inner", "coorbit.fit_log_quadratic"),
    ("coorbit.fit_log_quadratic", "coorbit.coorbit_norm_log"),
    ("coorbit.fit_log_quadratic", "coorbit._probe_center"),
)


def span_name(module: str, target: str) -> str:
    """Constructors are named after their class: gaussian.Gaussian."""
    return f"{module}.{target.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self._active: list[int] = []
        self._stack: list[tuple[int, list]] = []
        self._watch: dict[int, list[int]] = {}
        self.nested: dict[tuple[str, str], int] = {pair: 0 for pair in NESTED}
        for inner, outer in NESTED:
            self._watch.setdefault(self._id(inner), []).append(self._id(outer))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        watched = [(outer, (name, self.names[outer])) for outer in self._watch.get(nid, ())]
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            for outer, pair in watched:
                if active[outer]:
                    self.nested[pair] += 1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            children = [0.0]
            stack.append((idx, children))
            active[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[nid] -= 1
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                dur = t1 - t0
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - children[0]
                if stack:
                    stack[-1][1][0] += dur

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module, targets in TARGETS.items():
                mod = importlib.import_module(f"coorbit_lab.{module}")
                for target in targets:
                    name = span_name(module, target)
                    if "." in target:
                        cls_name, attr = target.split(".")
                        cls = getattr(mod, cls_name)
                        original = cls.__dict__[attr]
                        setattr(cls, attr, self.wrap(name, original))
                        undo.append((cls, attr, original))
                        continue
                    original = getattr(mod, target)
                    wrapped = self.wrap(name, original)
                    for holder in _package_modules():
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, key, wrapped)
                                undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s; plus the nested counts."""
        return {
            "spans": {
                name: {"calls": self.calls[i], "total_s": self.total_s[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)
            },
            "nested": {f"{inner} in {outer}": n for (inner, outer), n in self.nested.items()},
        }

    def dump(self, path) -> None:
        """Write every span: name index, parent span index (-1 at the root), start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and name.split(".")[0] == "coorbit_lab"]


def merge_summaries(summaries) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"spans": {}, "nested": {}}
    for summ in summaries:
        for name, agg in summ["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for key, n in summ["nested"].items():
            out["nested"][key] = out["nested"].get(key, 0) + n
    return out
