"""Spans around the public functions of each kppwaves layer, recorded from
the benchmark's side: nothing under src/ changes.

``Tracer.install`` replaces every binding of each wrapped function in the
loaded kppwaves modules (``cli`` imports io and phaseplane names directly,
``pde.evolve`` calls ``step`` through its module globals), so a call is seen
whichever name it goes through.  Spans live in memory as
(name, start_ns, end_ns, parent, count) and are written out by ``write``;
their clock is the process's CPU time, like the benchmark's other times.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, span name, count taken from (args, result))
WRAPPED = (
    ("kppwaves.cli", "main", "cli.main", None),
    ("kppwaves.config", "load_config", "config.load", None),
    ("kppwaves.io", "write_csv", "io.write", lambda a, r: os.path.getsize(a[0])),
    ("kppwaves.io", "write_json", "io.write", lambda a, r: os.path.getsize(a[0])),
    ("kppwaves.io", "write_profile_csv", "io.write", lambda a, r: os.path.getsize(a[0])),
    ("kppwaves.io", "read_profile_csv", "io.read", None),
    ("kppwaves.io", "read_json", "io.read", None),
    ("kppwaves.phaseplane", "build_system", "phaseplane.build", None),
    ("kppwaves.phaseplane", "fixed_points", "phaseplane.fixed_points", None),
    ("kppwaves.connect", "classify_connection", "connect.classify",
     lambda a, r: (0, 0) if r.trajectory is None
     else (len(r.trajectory.tau), len(r.trajectory.events))),
    ("kppwaves.connect", "reconstruct_profile", "connect.reconstruct",
     lambda a, r: int(((r.f > 0.1) & (r.f < 0.9)).sum())),
    ("kppwaves.pde", "advect_profile_test", "pde.advect", None),
    ("kppwaves.pde", "step", "pde.step", lambda a, r: a[0].n_cells),
    ("kppwaves.pde", "front_position", "pde.front_position", None),
)

ROUND = "round"

# per-layer metrics: (name, unit, better); every one is a per-round figure
PER_LAYER = (
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("io.write_s", "s", "lower"),
    ("io.write_bytes", "B", "lower"),
    ("io.read_s", "s", "lower"),
    ("phaseplane.build_s", "s", "lower"),
    ("phaseplane.fixed_points_s", "s", "lower"),
    ("connect.classify_s", "s", "lower"),
    ("connect.classify_calls", "count", "lower"),
    ("connect.solver_steps", "count", "lower"),
    ("connect.events", "count", "lower"),
    ("connect.reconstruct_s", "s", "lower"),
    ("connect.reconstruct_calls", "count", "lower"),
    ("connect.front_samples_min", "count", "higher"),
    ("pde.advect_s", "s", "lower"),
    ("pde.advect_calls", "count", "lower"),
    ("pde.steps", "count", "lower"),
    ("pde.cell_updates", "count", "lower"),
    ("pde.step_us", "us", "lower"),
    ("pde.step_s", "s", "lower"),
    ("pde.front_position_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# counts that depend only on the inputs; every round must give the same ones
EXACT = ("connect.solver_steps", "connect.events", "pde.steps",
         "pde.cell_updates", "io.write_bytes")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append((name, time.process_time_ns(), 0, parent, None))
        return idx

    def _close(self, idx: int) -> None:
        end = time.process_time_ns()
        self._stack.pop()
        name, start, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, None)

    def _count(self, idx: int, count) -> None:
        self.spans[idx] = self.spans[idx][:4] + (count,)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx)
            if count is not None:
                self._count(idx, count(args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "kppwaves" or n.startswith("kppwaves.")) and m is not None]
        for mod_name, fn_name, span, count in WRAPPED:
            orig = getattr(sys.modules[mod_name], fn_name)
            traced = self._wrap(orig, span, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    @contextmanager
    def round(self):
        """Parent span for one round; every wrapped call must happen inside one."""
        idx = self._open(ROUND)
        try:
            yield
        finally:
            self._close(idx)

    def write(self, path) -> None:
        """Spans as CSV: id, parent, name, start and end in ns from the first span, count."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,count\n")
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                if isinstance(count, tuple):
                    count = "/".join(map(str, count))
                fh.write(f"{i},{parent},{name},{start - t0},{end - t0},"
                         f"{'' if count is None else count}\n")

    def per_round(self) -> list[dict]:
        """Per-layer sums for each traced round (times in s)."""
        rounds: list[dict] = []
        owner: list[int] = []     # index into rounds for each span
        kids = defaultdict(float)  # duration of direct children, per span
        for i, (name, start, end, parent, count) in enumerate(self.spans):
            if name == ROUND:
                owner.append(len(rounds))
                rounds.append(defaultdict(float))
                continue
            owner.append(owner[parent])
            agg = rounds[owner[parent]]
            dur = (end - start) * 1e-9
            kids[parent] += dur
            parent_name = self.spans[parent][0]
            if name == parent_name:
                continue      # io.write_profile_csv calls io.write_csv: count once
            agg[f"{name}_s"] += dur
            agg[f"{name}_calls"] += 1
            if count is None:
                continue
            if name == "io.write":
                agg["io.write_bytes"] += count
            elif name == "connect.classify":
                agg["connect.solver_steps"] += count[0]
                agg["connect.events"] += count[1]
            elif name == "connect.reconstruct":
                agg["connect.front_samples_min"] = min(
                    agg.get("connect.front_samples_min", count), count)
            elif name == "pde.step":
                agg["pde.cell_updates"] += count
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == "cli.main":
                rounds[owner[i]]["cli.self_s"] += (end - start) * 1e-9 - kids[i]
        for agg in rounds:
            agg["pde.steps"] = agg["pde.step_calls"]
        return [dict(a) for a in rounds]


def layer_metrics(rounds: list[dict], overhead_s: float) -> tuple[dict, list[str]]:
    """Per-round means of every per-layer metric, and any exact count that
    differed between rounds."""
    problems = [f"{key} differs between rounds: {[r.get(key, 0) for r in rounds]}"
                for key in EXACT if len({r.get(key, 0) for r in rounds}) > 1]
    n = len(rounds)
    mean = {key: sum(r.get(key, 0.0) for r in rounds) / n for key, _, _ in PER_LAYER}
    mean["connect.front_samples_min"] = min(
        (r.get("connect.front_samples_min", 0) for r in rounds), default=0)
    for key in ("connect.classify_calls", "connect.reconstruct_calls",
                "pde.advect_calls") + EXACT:
        mean[key] = rounds[0].get(key, 0)
    steps = mean["pde.steps"]
    mean["pde.step_us"] = 1e6 * mean["pde.step_s"] / steps if steps else 0.0
    mean["trace.overhead_s"] = overhead_s
    return {key: {"value": int(mean[key]) if unit in ("count", "B") else mean[key],
                  "unit": unit}
            for key, unit, _ in PER_LAYER}, problems
