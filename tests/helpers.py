"""Shared test utilities: seeded spec sampling and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from duality_lab.duality import coherence, knowledge_concatenated, knowledge_frio, knowledge_me
from duality_lab.ensemble import sample_rng, sample_spec
from duality_lab.measurements import Strategy
from duality_lab.states import spec_from_probabilities, uniform_spec


def draw_spec(seed: int, index: int, n_range=(2, 8), min_dim: int = 1):
    """One random scenario, matching the verification suites' draw order."""
    rng = sample_rng(seed, index)
    n_paths = int(rng.integers(n_range[0], n_range[1] + 1))
    n = int(rng.integers(min_dim, n_paths + 1))
    return sample_spec(n_paths, n, rng)


def iter_specs(count: int, seed: int, n_range=(2, 8), min_dim: int = 1):
    for index in range(count):
        yield draw_spec(seed, index, n_range, min_dim)


def scalar_point(spec, strategy, xi):
    """(K, C, C + K) from the scalar formulas: the batched kernel's reference."""
    strategy = Strategy(strategy)
    if strategy is Strategy.ME:
        knowledge = knowledge_me(spec)
    elif strategy is Strategy.FRIO_STANDARD:
        knowledge = knowledge_frio(spec, xi)
    else:
        knowledge = knowledge_concatenated(spec, xi)
    c = coherence(spec)
    return (knowledge, c, c + knowledge)


@st.composite
def detector_specs(draw, min_paths=2, max_paths=8, uniform=False):
    n_paths = draw(st.integers(min_paths, max_paths))
    n = draw(st.integers(1, n_paths))
    indices = tuple(sorted(draw(st.sets(st.integers(0, n_paths - 1), min_size=n, max_size=n))))
    if uniform:
        return uniform_spec(n_paths, indices)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return spec_from_probabilities(n_paths, indices, [w / total for w in weights])


separation_levels = st.floats(0.0, 1.0)
