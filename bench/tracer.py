"""Span tracing of ttolab from the outside, by patching module namespaces.

The tracer wraps every public function of each ttolab module, the public
methods of the classes those modules define, and the 45 check methods of the
verify battery.  A wrapper replaces the original under every name that binds
it in any loaded module (``ttolab.tto.build_tto`` and the copies bound by
``from .tto import build_tto`` elsewhere), so no program file changes.  Spans
stay in memory and are written out once, when the run ends.

Self time is a span's duration minus the part covered by wrapped child calls,
so the self times of all spans and the harness's own time between requests add
up to the wall time of the traced rounds.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("blaschke", "model_space", "tto", "classification", "crofoot_clark",
           "sampling", "verify", "cli")


class Stat:
    __slots__ = ("calls", "busy", "self", "failed")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.failed = 0


class Tracer:
    """Installs and removes wrappers; accumulates per-span statistics."""

    def __init__(self, ttolab_pkg):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._error = ttolab_pkg.TTOLabError
        self._patches: list[tuple] = []
        self._build(ttolab_pkg)

    # -- wrapper construction -------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        error = self._error
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error:
                stat.failed += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.busy += dur
                stat.self += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                spans.append((span_id, parent, name, start, end, self.request))

        return functools.update_wrapper(traced, fn)

    def _counting_build_refined(self, fn):
        """Counts circle points evaluated over all refinement steps."""
        counts = self.counts

        def build_refined(space, values_fn, *args, **kwargs):
            sizes = []

            def counted(pts, u_vals):
                sizes.append(len(pts))
                return values_fn(pts, u_vals)

            try:
                result = fn(space, counted, *args, **kwargs)
            finally:
                counts["tto.build_refined.points"] += sum(sizes)
            counts["tto.build_refined.last_grid_points"] += sizes[-1]
            return result

        return build_refined

    def _counting_space_init(self, fn):
        counts = self.counts

        def __init__(space, *args, **kwargs):
            fn(space, *args, **kwargs)
            counts["model_space.quad_points"] += space.quad_points

        return __init__

    def _targets(self, pkg):
        """(span name, owner, attribute, original) for everything to wrap."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"{pkg.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((f"{short}.{attr}", None, attr, obj))
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not inspect.isfunction(fn):
                            continue
                        if meth == "__init__" and attr == "ModelSpace":
                            out.append((f"{short}.ModelSpace", obj, meth, fn))
                        elif not meth.startswith("_"):
                            out.append((f"{short}.{attr}.{meth}", obj, meth, fn))
        verifier = sys.modules[f"{pkg.__name__}.verify"]._Verifier
        for check, _bound, meth in sys.modules[f"{pkg.__name__}.verify"].CHECKS:
            out.append((f"verify.{check}", verifier, meth, vars(verifier)[meth]))
        return out

    def _build(self, pkg):
        special = {
            "tto.build_refined": self._counting_build_refined,
            "model_space.ModelSpace": self._counting_space_init,
        }
        namespaces = [vars(m) for m in list(sys.modules.values())
                      if m is not None and hasattr(m, "__dict__")]
        for span, owner, attr, original in self._targets(pkg):
            inner = special[span](original) if span in special else original
            wrapper = self._wrap(span, inner)
            if owner is not None:
                self._patches.append((owner, attr, original, wrapper, True))
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original, wrapper, False))

    # -- switching ------------------------------------------------------------

    def install(self):
        for owner, attr, _orig, wrapper, is_class in self._patches:
            if is_class:
                setattr(owner, attr, wrapper)
            else:
                owner[attr] = wrapper

    def remove(self):
        for owner, attr, orig, _wrapper, is_class in self._patches:
            if is_class:
                setattr(owner, attr, orig)
            else:
                owner[attr] = orig

    def module_self(self) -> dict[str, float]:
        """Self time summed per ttolab module (the layers)."""
        out = {short: 0.0 for short in MODULES}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self
        return out

    def write_spans(self, path):
        """One JSON object per span, gzip-compressed (a battery run holds ~300k)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span_id, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "request": request}) + "\n")
