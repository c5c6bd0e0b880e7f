"""Spans around the calls into dilastab's modules, for the benchmark's traced run.

The tracer replaces a function at the name its caller looks it up under (for
example `dilastab.ecf.derive_rng`, which `simulate_ensemble` calls) with a
wrapper that records one span per call: id, name, start, end, parent span and
an optional count, plus whether the call raised.  Nothing under `src/`
changes, and `uninstall` puts every original back.

Spans nest through a per-thread stack.  A span opened on a thread pool worker
whose own stack is empty takes as parent the innermost open span of the
thread running the command, which is the call that started the pool.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter, process_time
from typing import NamedTuple

ROOT = "cli.main"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    count: float
    error: bool


def _targets():
    """(owner, attribute, span name, count function, measure CPU) per wrap."""
    from dilastab import cli, ecf, processes

    r_steps_default = inspect.signature(ecf.estimate_log_cf).parameters["r_steps"].default

    def cf_evals(args, kwargs, out):
        r_steps = kwargs.get("r_steps", args[3] if len(args) > 3 else r_steps_default)
        return args[0].n_paths * r_steps

    return [
        (cli, "_write_text", "cli.write", lambda a, k, o: len(a[1].encode()), False),
        (cli, "simulate_ensemble", "ecf.simulate_ensemble", None, True),
        (cli, "check_scaling", "ecf.check_scaling", lambda a, k, o: len(o.rows), False),
        (ecf, "plan_dilative", "processes.plan_dilative", None, False),
        (ecf, "derive_rng", "ecf.derive_rng", None, False),
        (ecf, "apply_transforms", "ecf.apply_transforms", None, False),
        (ecf, "estimate_log_cf", "ecf.estimate_log_cf", cf_evals, False),
        (processes.SimulationPlan, "run", "processes.run", lambda a, k, o: o.size, False),
        (
            processes,
            "sample_increments",
            "drivers.sample_increments",
            lambda a, k, o: len(a[1]),
            False,
        ),
    ]


class Tracer:
    """Records the spans of one command at a time and keeps them all in memory."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = []
        self._saved = []
        self.spans = []
        # next() on itertools.count is atomic, so pool threads count without a lock
        self._paths_built = itertools.count()
        self._grids_built = itertools.count()
        self.names = []
        self.store = array("d")  # id, name index, start, end, parent, count, error, command

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name, count, cpu):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root_stack[-1]
            sid = next(self._ids)
            stack.append(sid)
            out, error = None, True
            cpu0 = process_time() if cpu else 0.0
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                end = perf_counter()
                stack.pop()
                if cpu:
                    n = process_time() - cpu0
                else:
                    n = count(args, kwargs, out) if count and not error else 0
                self.spans.append(Span(sid, name, start, end, parent, n, error))

        return traced

    def install(self):
        from dilastab import integrator

        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count, cpu in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count, cpu))
        for cls, counter in (
            (integrator.SamplePath, "_paths_built"),
            (integrator.TimeGrid, "_grids_built"),
        ):
            fn = cls.__post_init__
            self._saved.append((cls, "__post_init__", fn))

            def counted(obj, fn=fn, counter=counter):
                next(getattr(self, counter))
                fn(obj)

            cls.__post_init__ = counted

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def traced(self, call):
        """run(call) with the wrappers installed only for its duration."""
        self.install()
        try:
            return self.run(call)
        finally:
            self.uninstall()

    def run(self, call):
        """Run call() as one traced command; returns (result, wall seconds, layer metrics)."""
        self.spans = []
        self._paths_built = itertools.count()
        self._grids_built = itertools.count()
        sid = next(self._ids)
        self._root_stack = self._stack()
        self._root_stack.append(sid)
        start = perf_counter()
        try:
            result = call()
        finally:
            end = perf_counter()
            self._root_stack.pop()
        self.spans.append(Span(sid, ROOT, start, end, -1, 0, False))
        metrics = layer_metrics(self.spans, next(self._paths_built), next(self._grids_built))
        self._keep(self.spans)
        return result, end - start, metrics

    def _keep(self, spans):
        command = float(spans[-1].id)
        for s in spans:
            if s.name not in self.names:
                self.names.append(s.name)
            name = self.names.index(s.name)
            self.store.extend((s.id, name, s.start, s.end, s.parent, s.count, s.error, command))

    def write(self, path):
        """Write every span kept so far: raw float64 rows, plus a JSON header."""
        with open(path, "wb") as fh:
            self.store.tofile(fh)
        header = {
            "format": f"float64, {sys.byteorder}-endian, one row per span",
            "columns": ["id", "name", "start", "end", "parent", "count", "error", "command"],
            "names": self.names,
            "rows": len(self.store) // 8,
        }
        with open(str(path) + ".json", "w") as fh:
            json.dump(header, fh, indent=1)


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, paths_built, grids_built):
    """The additive per-layer quantities of one command from its spans and counters."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append((s.start, s.end))

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    def own(name):
        return sum(s.end - s.start - covered(children[s.id]) for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def counted(name):
        return sum(s.count for s in by_name[name])

    return {
        "cli.self_s": own(ROOT),
        "cli.write_s": busy("cli.write"),
        "cli.output_bytes": counted("cli.write"),
        "ecf.derive_rng_s": busy("ecf.derive_rng"),
        "ecf.derive_rng_calls": calls("ecf.derive_rng"),
        "drivers.sample_increments_s": busy("drivers.sample_increments"),
        "drivers.sample_increments_calls": calls("drivers.sample_increments"),
        "drivers.increments_drawn": counted("drivers.sample_increments"),
        "processes.outputs": counted("processes.run"),
        "processes.plan_dilative_s": busy("processes.plan_dilative"),
        "processes.run_s": busy("processes.run"),
        "processes.run_self_s": own("processes.run"),
        "processes.run_calls": calls("processes.run"),
        "ecf.apply_transforms_s": busy("ecf.apply_transforms"),
        "ecf.apply_transforms_calls": calls("ecf.apply_transforms"),
        "integrator.sample_paths_built": paths_built,
        "integrator.time_grids_built": grids_built,
        "ecf.check_scaling_s": busy("ecf.check_scaling"),
        "ecf.estimate_log_cf_s": busy("ecf.estimate_log_cf"),
        "ecf.estimate_log_cf_calls": calls("ecf.estimate_log_cf"),
        "ecf.cf_evals": counted("ecf.estimate_log_cf"),
        "ecf.rows": counted("ecf.check_scaling"),
        "ecf.rows_unestimable": sum(s.error for s in by_name["ecf.estimate_log_cf"]),
        "ecf.simulate_ensemble_s": busy("ecf.simulate_ensemble"),
        "ecf.simulate_ensemble_self_s": own("ecf.simulate_ensemble"),
        "ecf.simulate_ensemble_cpu_s": counted("ecf.simulate_ensemble"),
    }


def summarize(commands):
    """Per-command means of the layer metrics of several commands.

    The ratios are taken between the mean counts, so that they repeat
    exactly from run to run whenever the counts do.
    """
    means = {name: statistics.fmean(c[name] for c in commands) for name in commands[0]}
    draws, runs = means["drivers.increments_drawn"], means["processes.run_calls"]
    means["processes.cells_per_path"] = draws / runs if runs else 0.0
    means["processes.outputs_per_draw"] = means.pop("processes.outputs") / draws if draws else 0.0
    return means
