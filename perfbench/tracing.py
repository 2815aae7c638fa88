"""Span tracing of fpkit's public functions from outside the package.

``install`` replaces each traced function wherever an fpkit module looks it
up (``fpkit.iteration.evaluate``, ``fpkit.harness.picard``, the package
namespace, ...) with a wrapper that records a span, so calls made inside fpkit
nest under the calls that made them without any edit to ``src/fpkit``.
``PairSampler.draw`` is a method and is wrapped on its class. ``uninstall``
puts every original back.

Spans live in flat in-memory arrays (name, start, end, parent, op id, failed)
and are written out once, when the run ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Recorder of nested spans and per-layer counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.counters: Counter = Counter()
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[sid] = 1

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` as a compressed .npz archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, inclusive and self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, nid in enumerate(self.name_id):
            t = totals[self.names[nid]]
            t["calls"] += 1
            t["failed"] += self.failed[i]
            t["total_s"] += self.end[i] - self.start[i]
            t["self_s"] += selfs[i]
        return totals

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        pid, cid = self._name_ids[parent_name], self._name_ids[child_name]
        return sum(
            1
            for i, nid in enumerate(self.name_id)
            if nid == cid and self.parent[i] >= 0 and self.name_id[self.parent[i]] == pid
        )


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    are counted once, so a self time is never negative.
    """
    out = [e - s for s, e in zip(starts, ends)]
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_s = run_e = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if run_e is None or s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = s, e
            else:
                run_e = max(run_e, e)
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


def _count_rows(tracer, args, kwargs, result):
    tracer.counters["mappings.evaluate_many.rows"] += result.shape[0]


def _count_pairs(tracer, args, kwargs, result):
    tracer.counters["enrichment.PairSampler.draw.pairs"] += result[0].shape[0]


def _count_steps(tracer, args, kwargs, result):
    tracer.counters["iteration.picard.steps"] += result.iterations
    tracer.counters["iteration.picard.returned"] += 1
    tracer.counters["iteration.picard.converged"] += result.status.value == "converged"


def _count_found(tracer, args, kwargs, result):
    tracer.counters["enrichment.min_b_affine.returned"] += 1
    tracer.counters["enrichment.min_b_affine.found"] += result is not None


# (span name, defining module, attribute, counter hook). The span names are
# the per-layer metric prefixes; write_trace_csv lives in fpkit.iteration but
# is artifact writing, which the harness owns.
TRACED = [
    ("spaces.norm", "fpkit.spaces", "norm", None),
    ("spaces.operator_norm", "fpkit.spaces", "operator_norm", None),
    ("mappings.evaluate", "fpkit.mappings", "evaluate", None),
    ("mappings.evaluate_many", "fpkit.mappings", "evaluate_many", _count_rows),
    ("mappings.as_affine", "fpkit.mappings", "as_affine", None),
    ("enrichment.PairSampler.draw", "fpkit.enrichment", "PairSampler.draw", _count_pairs),
    ("enrichment.verify_condition", "fpkit.enrichment", "verify_condition", None),
    ("enrichment.min_b_affine", "fpkit.enrichment", "min_b_affine", _count_found),
    ("iteration.picard", "fpkit.iteration", "picard", _count_steps),
    ("iteration.solve_modified", "fpkit.iteration", "solve_modified", None),
    ("harness.write_trace_csv", "fpkit.iteration", "write_trace_csv", None),
    ("harness.parse_config", "fpkit.harness", "parse_config", None),
    ("harness.config_digest", "fpkit.harness", "config_digest", None),
    ("harness.run_experiment", "fpkit.harness", "run_experiment", None),
    ("harness.bench_compare", "fpkit.harness", "bench_compare", None),
    ("harness.generate_affine_family", "fpkit.harness", "generate_affine_family", None),
    ("cli.main", "fpkit.cli", "main", None),
]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, failed=True)
            raise
        tracer.close(sid)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function at each fpkit lookup site; return the undo list."""
    undo = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "fpkit" or n.startswith("fpkit.")]
    for name, module, attr, hook in TRACED:
        owner = sys.modules[module]
        if "." in attr:  # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrap(tracer, name, orig, hook))
            continue
        orig = getattr(owner, attr)
        wrapper = _wrap(tracer, name, orig, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)
