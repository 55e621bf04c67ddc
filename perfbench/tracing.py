"""Spans around calls into the library, recorded from outside it.

Each traced target is replaced, in every ``segreopt`` module that binds it,
by a wrapper that records one span per call: its name, the label of the
benchmark phase it ran in, its parent span, and its start and end in
nanoseconds.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time

# (module, attribute) of every traced call.  Class methods are patched on
# the class.  A target that the library no longer has is reported as absent.
TARGETS = (
    ("tensor", "batched_contract_all_but"),
    ("tensor", "outer_rank_one"),
    ("tensor", "contract_all_but"),
    ("tensor", "khatri_rao"),
    ("operators", "GaussianDesignOp.apply"),
    ("operators", "GaussianDesignOp.adjoint"),
    ("operators", "GaussianDesignOp.from_seed"),
    ("manifold", "retract_thosvd"),
    ("manifold", "project_tangent"),
    ("manifold", "tangent_from_coords"),
    ("manifold", "complement_bases"),
    ("manifold", "align_and_error"),
    ("solvers", "solve_tangent_ls"),
    ("solvers", "run"),
    ("als", "cp_als_regress"),
    ("als", "cp_als_decompose"),
    ("initialization", "init_regression"),
    ("initialization", "init_decomposition"),
    ("harness", "gen_instance"),
)


def span_name(module: str, attr: str) -> str:
    """``operators.GaussianDesignOp.apply`` is reported as ``operators.apply``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory span store.  ``label`` tags every span opened while it is set."""

    def __init__(self):
        self.label = ""
        self.spans: list[list] = []  # [name, label, parent, start_ns, end_ns]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self.label, self._stack[-1] if self._stack else -1, 0, 0]
            self.spans.append(span)
            self._stack.append(idx)
            span[3] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                self._stack.pop()
        return traced

    def totals(self) -> dict[tuple[str, str], list[int]]:
        """``(label, name) -> [calls, self_ns]`` over every recorded span."""
        out: dict[tuple[str, str], list[int]] = {}
        for (name, label, _, _, _), own in zip(self.spans, self_times(self.spans)):
            acc = out.setdefault((label, name), [0, 0])
            acc[0] += 1
            acc[1] += own
        return out

    def write(self, path) -> None:
        """Gzipped CSV, one span per row; ``parent`` is a row index or -1."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,label,parent,start_ns,end_ns\n")
            for name, label, parent, start, end in self.spans:
                fh.write(f"{name},{label},{parent},{start},{end}\n")


def self_times(spans: list[list]) -> list[int]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[2] >= 0:
            children.setdefault(span[2], []).append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][3], spans[c][4]) for c in children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every target for the duration of the block; yields the names of
    absent targets.  Every patch is undone on exit."""
    package = "segreopt"
    undo: list[tuple[object, str, object]] = []
    absent: list[str] = []
    try:
        for module, attr in TARGETS:
            name = span_name(module, attr)
            try:
                owner = importlib.import_module(f"{package}.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                absent.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    new = tracer.wrap(name, raw)
                undo.append((owner, leaf, raw))
                setattr(owner, leaf, new)
                continue
            # modules bind their own references to imported functions, so
            # patch the binding wherever the original object is bound
            new = tracer.wrap(name, raw)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                if mod.__dict__.get(leaf) is raw:
                    undo.append((mod, leaf, raw))
                    setattr(mod, leaf, new)
        yield absent
    finally:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)
