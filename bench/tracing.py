"""Span tracing for the benchmark's traced runs.

The layer functions listed in ``TRACED`` are swapped, at run time, for
timing wrappers at every ``duality_lab`` module that binds them, so a call
through ``duality_lab.cli.run_sweep`` is recorded just like one through
``duality_lab.ensemble.run_sweep``. Nothing in the package changes on disk.

Each call becomes one span: id, function, start and end on the monotonic
clock, start and end of the calling thread's CPU time, and the id of the
span that made the call. Spans are held in per-thread buffers while the program runs, with a parent
stack per thread because the sweep evaluates samples on a thread pool, and
are written to a file once the program has finished. ``layer_metrics`` turns
such a file into per-function call counts, inclusive time and self time
(span time minus the time of its child spans). Under the interpreter lock a
span's wall time includes waiting for the lock; its CPU time does not.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (module, function): the public layer functions whose calls are recorded.
TRACED = (
    ("ensemble", "sample_rng"),
    ("ensemble", "sample_spec"),
    ("ensemble", "run_sweep"),
    ("ensemble", "boundary_envelope"),
    ("ensemble", "write_points_csv"),
    ("ensemble", "write_manifest"),
    ("states", "spec_from_probabilities"),
    ("states", "build_symmetric_set"),
    ("states", "enumerate_uniform_specs"),
    ("duality", "evaluate_point"),
    ("duality", "knowledge_me"),
    ("duality", "knowledge_frio"),
    ("duality", "knowledge_concatenated"),
    ("duality", "coherence"),
    ("duality", "holevo_ceiling"),
    ("duality", "shannon_entropy"),
    ("measurements", "separation_params"),
    ("measurements", "conditional_conclusive"),
    ("measurements", "conditional_failure"),
    ("measurements", "build_me_measurement"),
    ("measurements", "build_frio_standard"),
    ("measurements", "build_frio_concatenated"),
    ("measurements", "oracle_outcome_table"),
    ("saturation", "saturation_scan"),
    ("saturation", "saturation_report"),
    ("saturation", "dft_distribution"),
    ("saturation", "is_saturating"),
    ("saturation", "classify_support"),
    ("saturation", "write_saturation_csv"),
    ("verify", "run_verification"),
    ("cli", "main"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TRACED)
_ID = {name: index for index, name in enumerate(NAMES)}

# Functions whose inclusive time is reported too: the outermost calls of a
# sweep and of a census.
TOTALS = ("ensemble.run_sweep", "saturation.saturation_scan")

# Spans that make up the sweep's per-sample work, and the part of it that
# draws the sample and builds its spec.
SWEEP_WORK = ("ensemble.sample_rng", "ensemble.sample_spec", "duality.evaluate_point")
SWEEP_DRAW = ("ensemble.sample_rng", "ensemble.sample_spec", "states.spec_from_probabilities")

_FIELDS = 7  # id, function, start, end, CPU start, CPU end, parent id (-1 for none)


class Recorder:
    """Span buffers for one traced program run."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()

    def _thread_state(self) -> tuple[array, list[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = (array("q"), [])
            with self._lock:
                self._buffers.append(state[0])
            self._local.state = state
        return state

    def wrap(self, name: str, function):
        function_id = _ID[name]
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            buffer, stack = self._thread_state()
            parent = stack[-1] if stack else -1
            span_id = next(self._ids)
            stack.append(span_id)
            cpu_start = cpu_clock()
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                cpu_end = cpu_clock()
                stack.pop()
                buffer.extend((span_id, function_id, start, end, cpu_start, cpu_end, parent))

        return traced

    def write(self, path) -> None:
        with open(path, "wb") as handle:
            for buffer in self._buffers:
                buffer.tofile(handle)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "duality_lab" or name.startswith("duality_lab."))
    ]


def install(recorder: Recorder) -> list[tuple[object, str, object, object]]:
    """Swap a wrapper in for every binding of every traced function.

    Returns ``(module, attribute, original, wrapper)`` per replaced binding.
    """
    modules = _package_modules()
    swapped = []
    for module_name, function_name in TRACED:
        original = getattr(sys.modules[f"duality_lab.{module_name}"], function_name)
        wrapper = recorder.wrap(f"{module_name}.{function_name}", original)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    swapped.append((module, attribute, original, wrapper))
    return swapped


def restore(swapped) -> bool:
    """Put every original back; True when no package module still binds a
    wrapper anywhere."""
    for module, attribute, original, _ in swapped:
        setattr(module, attribute, original)
    wrappers = {id(wrapper) for *_, wrapper in swapped}
    return all(
        id(value) not in wrappers
        for module in _package_modules()
        for value in vars(module).values()
    )


def layer_metrics(path, workers: int) -> dict[str, float]:
    """Per-function ``calls``, ``self_s`` and (for ``TOTALS``) ``total_s``,
    plus the sweep pool's busy share and the draw share of its work.

    ``ensemble.run_sweep.busy_over_wall`` is the CPU time of the sweep's
    per-sample spans over (sweep wall time x resolved workers), so one minus
    it is the share of worker time spent waiting, mostly for the interpreter
    lock. ``ensemble.draw_share`` is the CPU self time of the draw spans over
    that CPU time. Both are 0 when no sweep ran.
    """
    spans = np.fromfile(path, dtype=np.int64).reshape(-1, _FIELDS)
    span_id, function, start, end, cpu_start, cpu_end, parent = spans.T
    row = np.zeros(int(span_id.max()) + 1 if len(spans) else 0, dtype=np.int64)
    row[span_id] = np.arange(len(spans))
    nested = parent >= 0

    def self_time(duration):
        children = np.bincount(row[parent[nested]], weights=duration[nested], minlength=len(spans))
        return duration - children

    wall = (end - start).astype(float)
    cpu = (cpu_end - cpu_start).astype(float)
    count = len(NAMES)
    calls = np.bincount(function, minlength=count)
    total = np.bincount(function, weights=wall, minlength=count)
    own = np.bincount(function, weights=self_time(wall), minlength=count)
    metrics = {}
    for index, name in enumerate(NAMES):
        metrics[f"{name}.calls"] = int(calls[index])
        metrics[f"{name}.self_s"] = own[index] / 1e9
        if name in TOTALS:
            metrics[f"{name}.total_s"] = total[index] / 1e9

    in_sweep = np.zeros(len(spans), dtype=bool)
    for sweep in spans[function == _ID["ensemble.run_sweep"]]:
        in_sweep |= (start >= sweep[2]) & (end <= sweep[3])

    def summed(names, weights):
        mask = in_sweep & np.isin(function, [_ID[name] for name in names])
        return float(weights[mask].sum())

    busy = summed(SWEEP_WORK, cpu)
    sweep_wall = metrics["ensemble.run_sweep.total_s"] * 1e9
    metrics["ensemble.run_sweep.busy_over_wall"] = busy / (sweep_wall * workers) if sweep_wall else 0.0
    metrics["ensemble.draw_share"] = summed(SWEEP_DRAW, self_time(cpu)) / busy if busy else 0.0
    return metrics
