"""Span tracing of delayfeed's public functions, installed from outside
the package.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (id, name, start, end, parent id). Spans are
aggregated as they close into calls, inclusive and self time per name
(self = span minus the time its child spans cover) and call counts per
(parent, child) edge; only the first `keep` raw spans are held, to be
written out when the run ends. `uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

from delayfeed import core, datagen, ensemble, harness, regressor, variants

# (span name, owner, attribute). Module-level functions are also replaced
# in every delayfeed module that imported them by name.
TARGETS = (
    ("datagen.generate", datagen, "generate"),
    ("harness.run", harness, "run"),
    ("harness.compare", harness, "compare"),
    ("variants.serve", variants.SingleDelayModel, "serve"),
    ("variants.train_on", variants.SingleDelayModel, "train_on"),
    ("ensemble.serve", ensemble.SubModelEnsemble, "serve"),
    ("ensemble.train_on", ensemble.SubModelEnsemble, "train_on"),
    ("ensemble.training_label", ensemble.SubModelEnsemble, "training_label"),
    ("ensemble.features_for", ensemble.SubModelEnsemble, "features_for"),
    ("regressor.train_step", regressor.PoissonRegressor, "train_step"),
    ("regressor.forward", regressor.PoissonRegressor, "forward"),
    ("core.observed_prefix", core, "observed_prefix"),
    ("core.slice_label", core, "slice_label"),
    ("core.split_signed", core, "split_signed"),
    ("core.mature_label", core, "mature_label"),
    ("core.record", core.MetricsAccumulator, "record"),
)


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans = []          # (id, name, start_ns, end_ns, parent id or -1)
        self._stack = []         # open spans: [id, name, child_ns]
        self._next_id = 0
        self._patched = []       # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Clear the aggregates (raw spans already kept stay)."""
        self.agg = {name: [0, 0, 0] for name, _, _ in TARGETS}  # calls, ns, self ns
        self.edges = {}          # (parent name, child name) -> calls

    def snapshot(self) -> dict:
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "edges": dict(self.edges),
        }

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        keep = self.keep
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                a = tracer.agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    edge = (parent[1], name)
                    tracer.edges[edge] = tracer.edges.get(edge, 0) + 1
                    pid = parent[0]
                else:
                    pid = -1
                if len(spans) < keep:
                    spans.append((sid, name, start, end, pid))

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "delayfeed" or k.startswith("delayfeed.")]
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            owners = [owner]
            if isinstance(owner, type(core)):
                owners = [m for m in modules if getattr(m, attr, None) is original]
            for o in owners:
                self._patched.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
