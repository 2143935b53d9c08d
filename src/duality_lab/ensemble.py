"""Seeded random-scenario sampling, strategy sweeps, and scatter datasets.

Randomness contract: sample ``i`` of a sweep draws from its own generator,
``PCG64(SeedSequence(seed, spawn_key=(i,)))``, so the stream partition is
independent of worker count and scheduling; output ordering is by sample
index. Coefficient probabilities are drawn flat on the simplex (normalized
unit exponentials) and supports uniformly over the C(N, n) subsets. The
fixed per-sample draw order is: subspace dimension (only when sweeping all
dimensions), support, coefficients.

Evaluation is batched: the samples of a chunk are grouped by subspace
dimension and each group goes through :func:`duality.evaluate_specs` once
per (strategy, xi) pair, which works in blocks whose memory is bounded at
any N. Points are put back in sample order, strategies innermost, so
neither the grouping nor the worker count changes the output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .duality import EVAL_BLOCK_ROWS, DualityPoint, evaluate_specs
from .measurements import Strategy
from .saturation import SCAN_MAX_PATHS
from .states import (
    DetectorSpec,
    ValidationError,
    enumerate_uniform_specs,
    is_int,
    spec_from_probabilities,
    uniform_spec,
)

__all__ = [
    "SweepConfig",
    "ScatterDataset",
    "sample_rng",
    "sample_spec",
    "run_sweep",
    "two_path_grid_dataset",
    "boundary_envelope",
    "write_points_csv",
    "write_manifest",
    "resolve_workers",
    "POINTS_CSV_HEADER",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "DUALITY_LAB_THREADS"
# Samples per chunk: each chunk is one unit of work for the thread pool.
_CHUNK = EVAL_BLOCK_ROWS
# Most points the uniform enumeration may add to a sweep, which holds them
# all: 2^18 points take a few hundred MB, as N = 18 with every dimension.
UNIFORM_OVERLAY_MAX_POINTS = 1 << 18


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; ``n = None`` draws the subspace dimension per sample.

    ``strategies`` pairs a strategy tag with a separation level; the level is
    ignored for the minimum-error strategy. With
    ``include_uniform_enumeration`` the dataset also gets every uniform
    scenario of dimension 1 up to ``n`` (or up to N when sweeping all
    dimensions), the overlay marking cusps and saturation contacts.
    """

    N: int
    n: int | None
    samples: int
    strategies: tuple[tuple[Strategy, float], ...]
    seed: int
    include_uniform_enumeration: bool = False

    def __post_init__(self) -> None:
        if not is_int(self.N) or self.N < 2:
            raise ValidationError(f"path count must be an integer >= 2, got {self.N!r}")
        if self.n is not None and (not is_int(self.n) or not 1 <= self.n <= self.N):
            raise ValidationError(
                f"subspace dimension must satisfy 1 <= n <= {self.N} or be None, got {self.n!r}"
            )
        if not is_int(self.samples) or self.samples < 0:
            raise ValidationError(f"sample count must be a nonnegative integer, got {self.samples!r}")
        if self.samples == 0 and not self.include_uniform_enumeration:
            raise ValidationError("nothing to sweep: zero samples and no uniform enumeration")
        if self.include_uniform_enumeration and self.N > SCAN_MAX_PATHS:
            raise ValidationError(
                f"the uniform enumeration is limited to N <= {SCAN_MAX_PATHS} paths "
                f"(it holds up to 2^N - 1 scenarios), got N = {self.N}"
            )
        strategies = tuple((Strategy(tag), float(xi)) for tag, xi in self.strategies)
        if not strategies:
            raise ValidationError("at least one (strategy, xi) pair is required")
        if self.include_uniform_enumeration:
            top = self.n if self.n is not None else self.N
            scenarios = sum(math.comb(self.N, k) for k in range(1, top + 1))
            if scenarios * len(strategies) > UNIFORM_OVERLAY_MAX_POINTS:
                raise ValidationError(
                    f"the uniform enumeration would add {scenarios} scenarios x "
                    f"{len(strategies)} (strategy, xi) pairs, more than the limit of "
                    f"{UNIFORM_OVERLAY_MAX_POINTS} points; lower n"
                )
        for _, xi in strategies:
            if not 0.0 <= xi <= 1.0:
                raise ValidationError(f"separation level must lie in [0, 1], got {xi!r}")
        object.__setattr__(self, "strategies", strategies)
        if not is_int(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "n": self.n if self.n is not None else "all",
            "samples": self.samples,
            "strategies": [[tag.value, xi] for tag, xi in self.strategies],
            "seed": self.seed,
            "include_uniform_enumeration": self.include_uniform_enumeration,
        }


@dataclass(frozen=True, eq=False)
class ScatterDataset:
    """Points from one sweep, with the configuration echo and optional envelope."""

    config: dict
    points: tuple[DualityPoint, ...]
    envelope: tuple[tuple[float, float, float], ...] | None = None


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The private generator of sample ``index`` under the given sweep seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def sample_spec(N: int, n: int, rng: np.random.Generator) -> DetectorSpec:
    """Draw one scenario: uniform random support, flat-simplex probabilities."""
    if not 1 <= n <= N:
        raise ValidationError(f"subspace dimension must satisfy 1 <= n <= {N}, got {n!r}")
    indices = np.sort(rng.choice(N, size=n, replace=False))
    weights = rng.standard_exponential(n)
    return spec_from_probabilities(N, indices.tolist(), (weights / weights.sum()).tolist())


def _evaluate_columns(specs, strategies) -> list[list[DualityPoint]]:
    """One column of points per (strategy, xi) pair, aligned with ``specs``.

    Specs of one subspace dimension share a kernel call per pair.
    """
    by_dim: dict[int, list[int]] = {}
    for position, spec in enumerate(specs):
        by_dim.setdefault(spec.n, []).append(position)
    columns = []
    for tag, xi in strategies:
        column = [None] * len(specs)
        for positions in by_dim.values():
            batch = evaluate_specs([specs[p] for p in positions], tag, xi)
            for position, point in zip(positions, batch):
                column[position] = point
        columns.append(column)
    return columns


def _spec_major(specs, strategies) -> list[DualityPoint]:
    """Points ordered by spec, then by (strategy, xi) pair."""
    return [point for row in zip(*_evaluate_columns(specs, strategies)) for point in row]


def _evaluate_samples(cfg: SweepConfig, start: int, stop: int) -> list[DualityPoint]:
    specs = []
    for index in range(start, stop):
        rng = sample_rng(cfg.seed, index)
        n = cfg.n if cfg.n is not None else int(rng.integers(1, cfg.N + 1))
        specs.append(sample_spec(cfg.N, n, rng))
    return _spec_major(specs, cfg.strategies)


def run_sweep(
    cfg: SweepConfig,
    *,
    workers: int | None = None,
    envelope_bins: int | None = None,
) -> ScatterDataset:
    """Evaluate all (sample, strategy) pairs, then any uniform enumeration.

    Deterministic for a fixed config: the per-sample generators make the
    result independent of ``workers``, and points are merged in sample order.
    """
    workers = resolve_workers(workers)
    spans = [(lo, min(lo + _CHUNK, cfg.samples)) for lo in range(0, cfg.samples, _CHUNK)]
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda span: _evaluate_samples(cfg, *span), spans))
    else:
        chunks = [_evaluate_samples(cfg, *span) for span in spans]
    points = [point for chunk in chunks for point in chunk]
    if cfg.include_uniform_enumeration:
        top = cfg.n if cfg.n is not None else cfg.N
        for n in range(1, top + 1):
            points.extend(_spec_major(enumerate_uniform_specs(cfg.N, n), cfg.strategies))
    envelope = boundary_envelope(points, envelope_bins) if envelope_bins else None
    return ScatterDataset(config=cfg.to_json_dict(), points=tuple(points), envelope=envelope)


def two_path_grid_dataset(
    strategies,
    steps: int = 200,
    *,
    envelope_bins: int | None = None,
) -> ScatterDataset:
    """Deterministic two-path dataset over a grid of minimum probabilities.

    The grid runs the smaller squared coefficient over [0, 1/2] in ``steps``
    points; the zero endpoint degenerates to a one-dimensional support and
    the 1/2 endpoint to orthogonal states, so every curve connects the two
    trivial saturation points. Points are ordered per strategy, then by grid
    position.
    """
    if not is_int(steps) or steps < 2:
        raise ValidationError(f"grid steps must be an integer >= 2, got {steps!r}")
    strategies = tuple((Strategy(tag), float(xi)) for tag, xi in strategies)
    specs = []
    for p_min in np.linspace(0.0, 0.5, steps):
        if p_min <= 0.0:
            specs.append(uniform_spec(2, (0,)))
        else:
            specs.append(spec_from_probabilities(2, (0, 1), (1.0 - p_min, p_min)))
    points = [point for column in _evaluate_columns(specs, strategies) for point in column]
    envelope = boundary_envelope(points, envelope_bins) if envelope_bins else None
    config = {
        "mode": "two-path-grid",
        "N": 2,
        "steps": steps,
        "strategies": [[tag.value, xi] for tag, xi in strategies],
    }
    return ScatterDataset(config=config, points=tuple(points), envelope=envelope)


def boundary_envelope(points, bins: int) -> tuple[tuple[float, float, float], ...]:
    """Binwise coherence extremes over the knowledge axis.

    Partitions [0, 1] into ``bins`` equal knowledge bins and records
    ``(bin_center, min_coherence, max_coherence)`` for each nonempty bin, a
    reproducible stand-in for a boundary polygon.
    """
    points = list(points)
    if not points:
        raise ValidationError("boundary envelope needs at least one point")
    if not is_int(bins) or bins < 2:
        raise ValidationError(f"bin count must be an integer >= 2, got {bins!r}")
    lows = [None] * bins
    highs = [None] * bins
    for point in points:
        slot = min(int(point.knowledge * bins), bins - 1)
        c = point.coherence
        if lows[slot] is None or c < lows[slot]:
            lows[slot] = c
        if highs[slot] is None or c > highs[slot]:
            highs[slot] = c
    return tuple(
        ((slot + 0.5) / bins, lows[slot], highs[slot])
        for slot in range(bins)
        if lows[slot] is not None
    )


POINTS_CSV_HEADER = ["N", "n", "strategy", "xi", "K", "C", "sum", "support"]


def write_points_csv(points, fileobj) -> None:
    """CSV rows for duality points (header included, LF endings, full-precision
    floats via repr)."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(POINTS_CSV_HEADER)
    for point in points:
        writer.writerow(
            [
                point.N,
                point.n,
                point.strategy.value,
                repr(point.xi),
                repr(point.knowledge),
                repr(point.coherence),
                repr(point.duality_sum),
                point.spec.support.label(),
            ]
        )


def write_manifest(fileobj, *, config: dict, wall_time: float, point_count: int, envelope) -> None:
    """JSON run manifest: configuration echo, wall time, point count, envelope."""
    payload = {
        "config": config,
        "wall_time": wall_time,
        "point_count": point_count,
        "envelope": [list(entry) for entry in envelope] if envelope is not None else None,
    }
    json.dump(payload, fileobj, indent=2)
    fileobj.write("\n")


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the request (default one per CPU) capped by the
    ``DUALITY_LAB_THREADS`` environment variable."""
    if requested is not None and (not is_int(requested) or requested < 1):
        raise ValidationError(f"worker count must be a positive integer, got {requested!r}")
    cap_text = os.environ.get(THREADS_ENV_VAR)
    cap = None
    if cap_text is not None:
        try:
            cap = int(cap_text)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValidationError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {cap_text!r}"
            )
    workers = requested if requested is not None else (os.cpu_count() or 1)
    if cap is not None:
        workers = min(workers, cap)
    return max(workers, 1)
