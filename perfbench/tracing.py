"""Spans recorded around calls into the wulff_tvl1 modules, from outside.

`Tracer.patched()` swaps wrappers in for the module attributes the program
calls through (the names `cli`, `solver` and `certificate` bind at import,
and three `Gauge` methods) and restores the originals on exit.  While
`Tracer.active` is false the wrappers pass calls straight through, so the
benchmark's own checks never show up as spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (module attribute, span name).  Span names start with their layer.
CLI_TARGETS = [
    ("main", "cli.main"),
    ("cmd_denoise", "cli.cmd_denoise"),
    ("cmd_certify", "cli.cmd_certify"),
    ("solve", "solver.solve"),
    ("check_certificate", "certificate.check"),
    ("read_pgm", "fileio.read"),
    ("read_field", "fileio.read"),
    ("write_pgm", "fileio.write"),
    ("write_field", "fileio.write"),
]
SOLVER_TARGETS = [
    ("_grad_forward_raw", "grid.grad_forward"),
    ("_grad_backward_raw", "grid.grad_backward"),
    ("_div_adjoint_raw", "grid.div"),
    ("divergence", "grid.divergence"),
    ("forward_gradient", "grid.forward_gradient"),
    ("tv_phi", "grid.tv_phi"),
]
CERTIFICATE_TARGETS = [
    ("divergence", "grid.divergence"),
    ("forward_divergence", "grid.forward_divergence"),
    ("tv_phi", "grid.tv_phi"),
    ("dual_pairing", "grid.dual_pairing"),
]
GAUGE_TARGETS = [
    ("__call__", "gauge.eval"),
    ("project_minus_wulff", "gauge.project"),
    ("dual", "gauge.dual"),
]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index] plus byte counters,
    kept in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.bytes = defaultdict(int)
        self.active = False
        self._stack = []

    def wrap(self, name, fn, counts_bytes=False):
        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter_ns(), 0,
                    self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                if counts_bytes and args:
                    self.bytes[name] += _file_bytes(args[0])
        return traced

    @contextmanager
    def patched(self):
        from wulff_tvl1 import certificate, cli, solver
        from wulff_tvl1.gauge import Gauge

        saved = []
        for owner, targets in ((cli, CLI_TARGETS), (solver, SOLVER_TARGETS),
                               (certificate, CERTIFICATE_TARGETS),
                               (Gauge, GAUGE_TARGETS)):
            for attr, name in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original,
                                               counts_bytes=name.startswith("fileio.")))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def self_times(spans) -> list:
    """Self time (ns) of each span: its duration minus the part of it that
    the union of its direct children's intervals covers."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; per layer
    (the name's first component): self seconds."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(float)
    for (name, start, end, _), self_ns in zip(spans, selfs):
        entry = by_name[name]
        entry["calls"] += 1
        entry["s"] += (end - start) * 1e-9
        entry["self_s"] += self_ns * 1e-9
        by_layer[name.split(".", 1)[0]] += self_ns * 1e-9
    return {"names": dict(by_name), "layers": dict(by_layer)}
