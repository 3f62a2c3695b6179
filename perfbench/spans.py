"""In-memory span tracing around the package's public functions.

``Tracer.install`` wraps every function listed in ``__all__`` of the
traced modules, plus ``tvflow.cli.main``, and rebinds every ``tvflow.*``
module attribute that refers to one of those function objects, so calls
between modules are traced as well.  ``uninstall`` restores the originals.
Each call records a span (function, start, end, parent span, instance id)
in flat arrays; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import itertools
import os
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("io", "graph", "signal", "solver", "flow", "cli")
_TRACED_MODULES = ("io", "graph", "signal", "solver", "flow")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # Spans are appended when they end: (id, function, parent id,
        # instance) into _ints and (start, end) into _times.  Ids count
        # span starts, so a parent's id is known while its children run.
        self._ints: array = array("q")
        self._times: array = array("d")
        self._ids = itertools.count()
        self._stack = [-1]
        self._current = [-1]
        # (instance, counter name) -> value; counters are bumped after the
        # wrapped call returns, outside its span.
        self.counters: dict[tuple[int, str], float] = {}
        self._bindings: list[tuple[types.ModuleType, str, object, object]] = []

    def set_instance(self, instance: int) -> None:
        self._current[0] = instance

    def _count(self, counter: str, amount: float) -> None:
        key = (self._current[0], counter)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _after_hook(self, qualname: str):
        if qualname == "solver.duality_gap":
            return lambda args, result: self._count(
                "solver.certified_probes", float(bool(getattr(result, "certified", False)))
            )
        short = qualname.split(".", 1)[1]
        if qualname.startswith("io.") and short.startswith(("read_", "write_")):
            counter = "io.bytes_read" if short.startswith("read_") else "io.bytes_written"

            def count_bytes(args, result):
                try:
                    self._count(counter, float(os.stat(args[0]).st_size))
                except (IndexError, TypeError, OSError):
                    pass

            return count_bytes
        return None

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        ints, times, ids, stack, current = self._ints, self._times, self._ids, self._stack, self._current
        after = self._after_hook(qualname)

        def traced(*args, **kwargs):
            idx = next(ids)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ints.extend((idx, fid, stack[-1], current[0]))
                times.extend((t0, t1))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions (once) and rebind them everywhere."""
        if not self._bindings:
            self._bindings = self._plan()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _plan(self):
        import tvflow.cli

        targets = [("cli", "main", tvflow.cli.main)]
        for short in _TRACED_MODULES:
            module = sys.modules[f"tvflow.{short}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType):
                    targets.append((short, attr, fn))
        # Keyed by id: the originals stay alive in ``targets``, so ids are unique.
        wrappers = {id(fn): self._wrap(f"{short}.{attr}", fn) for short, attr, fn in targets}
        bindings = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "tvflow" or modname.startswith("tvflow.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    bindings.append((module, attr, value, wrappers[id(value)]))
        return bindings

    def spans(self) -> dict[str, np.ndarray]:
        """Span columns in start order; a span's id is its row."""
        ints = np.array(self._ints, dtype=np.int64).reshape(-1, 4)
        times = np.array(self._times, dtype=np.float64).reshape(-1, 2)
        order = np.argsort(ints[:, 0])
        return {
            "name": ints[order, 1],
            "parent": ints[order, 2],
            "instance": ints[order, 3],
            "start": times[order, 0],
            "end": times[order, 1],
        }

    def write_jsonl(self, path: Path) -> None:
        s = self.spans()
        origin = float(s["start"].min()) if s["start"].size else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for idx, (fid, parent, inst, t0, t1) in enumerate(zip(
                s["name"].tolist(), s["parent"].tolist(), s["instance"].tolist(),
                ((s["start"] - origin) * 1e6).tolist(), ((s["end"] - origin) * 1e6).tolist(),
            )):
                out.write(
                    f'{{"id":{idx},"name":"{self.names[fid]}","start_us":{t0:.3f},'
                    f'"end_us":{t1:.3f},"parent":{parent},"instance":{inst}}}\n'
                )

    def summary(self, pipeline_s: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics over the traced instances ``pipeline_s`` (instance
        id -> traced pipeline wall time): per-instance medians of self times,
        call counts and bytes, per-call means, and the unattributed share."""
        s = self.spans()
        instances = sorted(pipeline_s)
        slot = {inst: k for k, inst in enumerate(instances)}
        n_inst, n_fn = len(instances), len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        row = np.array([slot.get(i, -1) for i in range(int(s["instance"].max(initial=-1)) + 1)] + [-1])
        inst_row = row[s["instance"]]  # instance -1 maps to the trailing -1
        ok = inst_row >= 0
        key = inst_row[ok] * n_fn + s["name"][ok]
        shape = (n_inst, n_fn)
        self_by = np.bincount(key, weights=self_time[ok], minlength=n_inst * n_fn).reshape(shape)
        dur_by = np.bincount(key, weights=dur[ok], minlength=n_inst * n_fn).reshape(shape)
        calls_by = np.bincount(key, minlength=n_inst * n_fn).reshape(shape)
        fid = {name: k for k, name in enumerate(self.names)}

        def per_instance(name, table):
            return table[:, fid[name]] if name in fid else np.zeros(n_inst)

        def median(values):
            return float(np.median(values)) if len(values) else 0.0

        def per_call(name, table):
            calls = per_instance(name, calls_by).sum()
            return float(per_instance(name, table).sum() / calls * 1e6) if calls else 0.0

        def counter(name):
            return [self.counters.get((inst, name), 0.0) for inst in instances]

        m: dict[str, float] = {}
        for name in (
            "io.read_graph_csv", "io.read_observations_csv", "io.read_partition_csv",
            "io.read_flow_csv", "io.write_signal_csv", "io.write_flow_csv", "io.write_json",
            "graph.build_graph", "solver.run", "flow.construct_tree_certificate",
            "flow.verify_certificate", "flow.reconstruct_primal", "cli.main",
        ):
            m[f"{name}.self_s"] = median(per_instance(name, self_by))
        for name in ("graph.incidence_apply", "graph.divergence", "solver.pd_step",
                     "solver.duality_gap"):
            m[f"{name}.calls"] = median(per_instance(name, calls_by))
        for name in ("graph.incidence_apply", "graph.divergence", "solver.duality_gap",
                     "signal.primal_objective"):
            m[f"{name}.us_per_call"] = per_call(name, dur_by)
        m["solver.pd_step.self_us_per_call"] = per_call("solver.pd_step", self_by)
        probes = per_instance("solver.duality_gap", calls_by).sum()
        m["solver.certified_probe_ratio"] = (
            sum(counter("solver.certified_probes")) / probes if probes else 0.0
        )
        m["io.bytes_read"] = median(counter("io.bytes_read"))
        m["io.bytes_written"] = median(counter("io.bytes_written"))
        for layer in LAYERS:
            cols = [k for k, name in enumerate(self.names) if name.split(".")[0] == layer]
            m[f"{layer}.self_s"] = median(self_by[:, cols].sum(axis=1))
        attributed = self_by.sum()
        total = sum(pipeline_s.values())
        m["trace.unattributed_frac"] = float(1.0 - attributed / total) if total else 0.0
        return m

