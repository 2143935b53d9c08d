"""Fuzz the public API: every function that ``duality_lab`` exports through
``__all__`` returns a finite result or raises ``ValidationError`` when it is
called with well-typed edge values.

Arguments have the types the signatures document: integers for path counts,
dimensions, indices, seeds and sizes; real numbers for levels and squared
coefficients; scenarios built from those. Their values are edges: 0, -0.0,
subnormals, 1e308, nan, inf, bools, numpy scalars and huge integers, next to
ordinary values, so that calls get past their first check. Wrong-typed
arguments (a string for a path count, None for a scenario) are out of scope.

A sample count has no upper limit: a huge one asks for a long run, which is
not a failure, so sample counts stay small. Every other size is drawn from
the edges and must be rejected when it is too large to run.
"""

import dataclasses
import enum
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import duality_lab
from duality_lab import (
    DetectorSpec,
    ScatterDataset,
    Support,
    SweepConfig,
    build_frio_concatenated,
    build_frio_standard,
    build_me_measurement,
    build_symmetric_set,
    spec_from_probabilities,
    uniform_spec,
)
from duality_lab.ensemble import two_path_grid
from duality_lab.states import ValidationError

INTS = [0, 1, 2, 3, 6, -1, True, False, np.int64(4), np.uint8(3)]
INTS += [2**31, 2**40, 2**63 - 1, 2**64, 10**30]
SMALL = [0, 1, 2, 3, -1, True, False, np.int64(2)]
FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.25, 0.5, 1.0]
FLOATS += [1e308, math.nan, math.inf, -math.inf, True, False, 1, np.float64(0.3), np.float32(0.75)]
STRATEGIES = ["me", "frio-standard", "frio-concatenated", duality_lab.Strategy.FRIO_CONCATENATED]

ints, small, floats = (st.sampled_from(values) for values in (INTS, SMALL, FLOATS))


@st.composite
def indices(draw, N):
    """Sorted distinct indices in range for a valid N, or edge values."""
    if isinstance(N, int) and N >= 2 and draw(st.booleans()):
        pool = sorted({0, 1, N // 2, N - 1})
        return sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)))
    return draw(st.lists(ints, min_size=1, max_size=3))


@st.composite
def probabilities(draw, size):
    """An edge value, with the rest of the unit mass spread over the other entries."""
    p = draw(floats)
    return [p] + [(1.0 - p) / (size - 1)] * (size - 1) if size > 1 else [p]


def spec(draw):
    """A scenario from edge values; building it may raise ValidationError."""
    N = draw(ints)
    support = draw(indices(N))
    if draw(st.booleans()):
        return uniform_spec(N, support)
    return spec_from_probabilities(N, support, draw(probabilities(len(support))))


@st.composite
def pairs(draw):
    return draw(st.lists(st.tuples(st.sampled_from(STRATEGIES), floats), min_size=1, max_size=2))


def coefficients(draw, size):
    """Amplitudes: the square roots of :func:`probabilities`, where they exist."""
    return tuple(p**0.5 if p >= 0 else p for p in draw(probabilities(size)))


def sweep_config(draw):
    N = draw(ints)
    n = draw(st.one_of(st.none(), ints))
    return SweepConfig(N, n, draw(small), draw(pairs()), draw(ints), draw(st.booleans()))


def detector_spec(draw):
    support = spec(draw).support
    return DetectorSpec(support, coefficients(draw, support.n))


def measurement(draw):
    scenario, kind = spec(draw), draw(st.sampled_from(["me", "standard", "concatenated"]))
    if kind == "me":
        return scenario, build_me_measurement(scenario)
    build = build_frio_standard if kind == "standard" else build_frio_concatenated
    return scenario, build(scenario, draw(floats))


def outcome_table(draw):
    scenario, built = measurement(draw)
    return duality_lab.oracle_outcome_table(build_symmetric_set(scenario), built)


# Public name -> a call of it with drawn arguments.
CALLS = {
    "Support": lambda d: Support(d(ints), tuple(d(indices(d(ints))))),
    "DetectorSpec": detector_spec,
    "build_symmetric_set": lambda d: build_symmetric_set(spec(d)),
    "enumerate_uniform_specs": lambda d: duality_lab.enumerate_uniform_specs(d(ints), d(ints)),
    "uniform_spec": lambda d: uniform_spec(d(ints), d(indices(d(ints)))),
    "spec_from_probabilities": lambda d: spec_from_probabilities(
        d(ints), d(indices(d(ints))), d(probabilities(d(st.integers(1, 3))))
    ),
    "spec_to_json_dict": lambda d: duality_lab.spec_to_json_dict(spec(d)),
    "spec_from_json_dict": lambda d: duality_lab.spec_from_json_dict(
        {"N": d(ints), "support": d(indices(d(ints))), "coeffs_sq": d(probabilities(2))}
    ),
    "separation_params": lambda d: duality_lab.separation_params(spec(d), d(floats)),
    "build_me_measurement": lambda d: build_me_measurement(spec(d)),
    "build_frio_standard": lambda d: build_frio_standard(spec(d), d(floats)),
    "build_frio_concatenated": lambda d: build_frio_concatenated(spec(d), d(floats)),
    "conditional_conclusive": lambda d: duality_lab.conditional_conclusive(spec(d), d(floats)),
    "conditional_failure": lambda d: duality_lab.conditional_failure(spec(d)),
    "oracle_outcome_table": outcome_table,
    "measurement_to_json_dict": lambda d: duality_lab.measurement_to_json_dict(measurement(d)[1]),
    "shannon_entropy": lambda d: duality_lab.shannon_entropy(
        d(probabilities(d(st.integers(1, 3))))
    ),
    "coherence": lambda d: duality_lab.coherence(spec(d)),
    "knowledge_frio": lambda d: duality_lab.knowledge_frio(spec(d), d(floats)),
    "knowledge_concatenated": lambda d: duality_lab.knowledge_concatenated(spec(d), d(floats)),
    "knowledge_me": lambda d: duality_lab.knowledge_me(spec(d)),
    "holevo_ceiling": lambda d: duality_lab.holevo_ceiling(spec(d)),
    "evaluate_point": lambda d: duality_lab.evaluate_point(
        spec(d), d(st.sampled_from(STRATEGIES)), d(floats)
    ),
    "dft_distribution": lambda d: duality_lab.dft_distribution(spec(d)),
    "saturating_spec": lambda d: duality_lab.saturating_spec(d(ints), d(ints), d(ints)),
    "is_saturating": lambda d: duality_lab.is_saturating(spec(d)),
    "classify_support": lambda d: duality_lab.classify_support(spec(d).support),
    "saturating_dimensions": lambda d: duality_lab.saturating_dimensions(d(ints)),
    "saturation_scan": lambda d: duality_lab.saturation_scan(d(ints)),
    "schmidt_coefficients": lambda d: duality_lab.schmidt_coefficients(spec(d)),
    "SweepConfig": sweep_config,
    "sample_spec": lambda d: duality_lab.sample_spec(d(ints), d(ints), np.random.default_rng(0)),
    "run_sweep": lambda d: duality_lab.run_sweep(sweep_config(d)),
    "boundary_envelope": lambda d: duality_lab.boundary_envelope(
        ScatterDataset(*two_path_grid([("me", 0.0)], 3)), d(ints)
    ),
}

# Exported types that only hold values, with no checks of their own, and the
# exception type.
RECORDS = {
    "ValidationError", "Strategy", "SupportStructure", "SeparationParams",
    "Measurement", "OutcomeTable", "DualityPoint", "SaturationReport", "ScatterDataset",
}  # fmt: skip


def finite(value) -> bool:
    """Every number in a result, through containers and dataclasses, is finite."""
    if value is None or isinstance(value, (str, enum.Enum, bool, np.bool_)):
        return True
    if isinstance(value, (int, np.integer)):
        return True
    if isinstance(value, (float, complex, np.inexact)):
        return bool(np.isfinite(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biu" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise AssertionError(f"no finiteness rule for {type(value).__name__}")


def test_every_public_function_is_fuzzed():
    public = {name for name in duality_lab.__all__ if callable(getattr(duality_lab, name))}
    assert public - RECORDS == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_finite_result_or_validation_error(name, data):
    try:
        result = CALLS[name](data.draw)
    except ValidationError:
        return
    assert finite(result), f"{name} returned a non-finite value: {result!r}"
