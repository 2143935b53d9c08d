"""Entropic quantifiers of the wave/particle trade-off.

Coherence of the traversing system, which-path knowledge extracted by each
discrimination strategy, and the duality-sum records produced by scans. All
entropies are in bits and all quantifiers are normalized by log2(N), so both
coherence and knowledge live in [0, 1] and their sum never exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurements import Strategy, _spectrum, conditional_failure, separation_params
from .states import DetectorSpec, ValidationError

__all__ = [
    "DualityPoint",
    "shannon_entropy",
    "shannon_entropies",
    "coherence",
    "knowledge_frio",
    "knowledge_concatenated",
    "knowledge_me",
    "holevo_ceiling",
    "evaluate_point",
]

ENTRY_ATOL = 1e-12
SUM_ATOL = 1e-9
DUALITY_SUM_ATOL = 1e-9


def shannon_entropy(probabilities) -> float:
    """Shannon entropy in bits, with the 0*log(0) = 0 convention.

    Entries may be negative by at most 1e-12 (roundoff) and are clamped into
    [0, 1]; the vector must sum to 1 within 1e-9.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.size == 0 or float(probs.min()) < -ENTRY_ATOL:
        raise ValidationError(
            "entropy input must be a nonempty vector of entries >= -1e-12"
        )
    probs = np.clip(probs, 0.0, 1.0)
    total = float(probs.sum())
    if abs(total - 1.0) > SUM_ATOL:
        raise ValidationError(f"entropy input must sum to 1 within {SUM_ATOL} (got {total!r})")
    positive = probs[probs > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def shannon_entropies(probabilities) -> np.ndarray:
    """Shannon entropy in bits of each row of a 2-D array.

    Validates and clamps every row as :func:`shannon_entropy` does. Each row's
    strictly positive entries are summed as one contiguous vector, in the
    order :func:`shannon_entropy` sums them, so entry ``i`` equals
    ``shannon_entropy(probabilities[i])`` bit for bit; summing zero-padded
    rows instead would change the pairwise order and the last digit.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2 or probs.size == 0 or float(probs.min()) < -ENTRY_ATOL:
        raise ValidationError(
            "entropy input must be a nonempty 2-D array of entries >= -1e-12"
        )
    probs = np.clip(probs, 0.0, 1.0)
    totals = probs.sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > SUM_ATOL)
    if off.size:
        raise ValidationError(
            f"entropy input must sum to 1 within {SUM_ATOL} "
            f"(row {off[0]} sums to {float(totals[off[0]])!r})"
        )
    positive = probs > 0.0
    counts = positive.sum(axis=1)
    entropies = np.empty(len(probs))
    for count in np.unique(counts):
        rows = counts == count
        compact = probs[rows][positive[rows]].reshape(-1, count)
        entropies[rows] = -(compact * np.log2(compact)).sum(axis=1)
    return entropies


def _normalized_info(probabilities, n_paths: int) -> float:
    """1 - H(p)/log2(N), clamped into [0, 1] against roundoff."""
    value = 1.0 - shannon_entropy(probabilities) / math.log2(n_paths)
    return min(max(value, 0.0), 1.0)


def coherence(spec: DetectorSpec) -> float:
    """Normalized coherence of the traversing system in the path basis.

    1 for a one-dimensional support (all detector states identical), 0 for
    orthogonal detector states (full uniform support).
    """
    return _normalized_info(spec.probabilities, spec.N)


def knowledge_frio(spec: DetectorSpec, xi: float) -> float:
    """Which-path knowledge of the standard separation strategy at level ``xi``.

    Mutual information between path label and measurement outcome, normalized
    by log2(N): the success probability times the information carried by the
    conclusive conditional distribution. Inconclusive outcomes contribute
    nothing (their conditional is uniform).
    """
    params = separation_params(spec, xi)
    conditional = _spectrum(spec, params.success_profile)
    return params.p_success * _normalized_info(conditional, spec.N)


def knowledge_concatenated(spec: DetectorSpec, xi: float) -> float:
    """Which-path knowledge when the failure branch is also discriminated.

    Adds the failure branch's information share to :func:`knowledge_frio`;
    the extra term is zero when the failure branch is absent.
    """
    value = knowledge_frio(spec, xi)
    failure_conditional = conditional_failure(spec)
    if failure_conditional is not None:
        value += separation_params(spec, xi).p_fail * _normalized_info(failure_conditional, spec.N)
    return value


def knowledge_me(spec: DetectorSpec) -> float:
    """Which-path knowledge of the minimum-error measurement (xi = 0)."""
    return knowledge_frio(spec, 0.0)


def holevo_ceiling(spec: DetectorSpec) -> float:
    """Largest knowledge any measurement could reach: 1 - coherence.

    This is the entropy of the detector's reduced state over log2(N), the
    mutual-information ceiling for the path/outcome channel.
    """
    return 1.0 - coherence(spec)


@dataclass(frozen=True)
class DualityPoint:
    """One (knowledge, coherence) sample: the scatter-plot atom.

    ``spec`` is the generating scenario, kept so datasets can be replayed;
    CSV output serializes its support.
    """

    N: int
    n: int
    strategy: Strategy
    xi: float
    coherence: float
    knowledge: float
    duality_sum: float
    spec: DetectorSpec


def evaluate_point(spec: DetectorSpec, strategy, xi: float = 0.0) -> DualityPoint:
    """Bundle coherence and knowledge for one scenario and strategy.

    The ME strategy ignores ``xi`` (it is the xi = 0 endpoint). Raises if the
    duality bound C + K <= 1 is violated beyond tolerance, which would signal
    an implementation bug rather than bad input.
    """
    strategy = Strategy(strategy)
    if strategy is Strategy.ME:
        xi = 0.0
        knowledge = knowledge_me(spec)
    elif strategy is Strategy.FRIO_STANDARD:
        knowledge = knowledge_frio(spec, xi)
    else:
        knowledge = knowledge_concatenated(spec, xi)
    coh = coherence(spec)
    total = coh + knowledge
    if total > 1.0 + DUALITY_SUM_ATOL:
        raise ValidationError(
            f"duality bound violated: C + K = {total!r} for spec "
            f"{spec.support.indices} (internal error)"
        )
    return DualityPoint(
        N=spec.N,
        n=spec.n,
        strategy=strategy,
        xi=float(xi),
        coherence=coh,
        knowledge=knowledge,
        duality_sum=total,
        spec=spec,
    )
