"""Span recording around calls into cfee's modules.

The tracer patches public functions and methods of the already imported
modules with wrappers that record one span per call: id, parent span,
operation id, layer name, start and end.  Nothing under ``src/`` is
edited; the originals are put back by ``Tracer.uninstall``.  Spans stay
in memory until the run ends and are then written as one CSV file.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import time

# layer name -> (unit of its per-call median, [(owner, attribute), ...]).
# An owner is a module attribute path or a class; a function imported into
# several modules is patched in each namespace that calls it.
LAYERS = {
    "ppo.ppo_update": ("ms", [("ppo", "ppo_update")]),
    "nets.adam_step": ("us", [("nets", "Adam.step")]),
    "nets.forward_cache": ("us", [("ppo", "forward_cache")]),
    "nets.backward": ("us", [("ppo", "backward")]),
    "nets.forward": ("us", [("ppo", "forward")]),
    "ppo.sample": ("us", [("ppo", "SquashedGaussianPolicy.sample")]),
    "env.step": ("us", [("env", "CellFreeEnv.step")]),
    "netgen.scenario_from_rng": ("us", [("env", "scenario_from_rng"),
                                        ("netgen", "scenario_from_rng")]),
    "netgen.generate_scenario": ("us", [("harness", "generate_scenario"),
                                        ("netgen", "generate_scenario")]),
    "alloc.realize": ("us", [("alloc", "realize"), ("env", "realize"),
                             ("harness", "realize")]),
    "alloc.allocate_power": ("us", [("alloc", "allocate_power")]),
    "perf.evaluate": ("us", [("perf", "evaluate"), ("env", "evaluate"),
                             ("harness", "evaluate")]),
    "harness.grid_oracle_one": ("s", [("harness", "grid_oracle_one")]),
    "perf.mc_se_oracle": ("s", [("perf", "mc_se_oracle"),
                                ("harness", "mc_se_oracle")]),
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent, op, name, start, end, self)
        self._stack = []       # [span id, time covered by child spans]
        self._patched = []     # (owner, attribute, original)
        self._ids = itertools.count()
        self.op_id = -1

    def _enter(self):
        self._stack.append([next(self._ids), 0.0])
        return time.perf_counter()

    def _exit(self, name, start):
        end = time.perf_counter()
        sid, covered = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((sid, parent, self.op_id, name, start, end,
                           end - start - covered))

    @contextlib.contextmanager
    def op(self, op_id):
        """One benchmark operation: the root span of its layer spans."""
        self.op_id = op_id
        start = self._enter()
        try:
            yield
        finally:
            self._exit(OP, start)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:   # outside an operation: a check's call
                return fn(*args, **kwargs)
            start = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
        return traced

    def install(self, modules):
        """Patch every layer target found in ``modules`` (name -> module)."""
        for name, (_unit, targets) in LAYERS.items():
            for mod_name, attr in targets:
                owner = modules[mod_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf, None)
                if original is None:
                    continue
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def metrics(self):
        """Per layer: median time per call, calls per operation, and self
        time as a share of the time spent inside operations."""
        ops = [s for s in self.spans if s[3] == OP]
        op_time = sum(s[5] - s[4] for s in ops)
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s[3], []).append(s)
        out = {}
        for name, (unit, _targets) in LAYERS.items():
            spans = by_name.get(name, [])
            durs = [s[5] - s[4] for s in spans]
            med = statistics.median(durs) * SCALE[unit] if durs else 0.0
            out[f"{name}_{unit}"] = (med, unit)
            out[f"{name}_calls"] = (len(spans) / max(len(ops), 1), "count/op")
            self_share = 100.0 * sum(s[6] for s in spans) / op_time \
                if op_time > 0 else 0.0
            out[f"{name}_self_pct"] = (self_share, "%")
        return out

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("span_id,parent_id,op_id,name,start_s,end_s,self_s\n")
            for s in sorted(self.spans):
                f.write("%d,%d,%d,%s,%.9f,%.9f,%.9f\n" % s)
