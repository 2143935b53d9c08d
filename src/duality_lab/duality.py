"""Entropic quantifiers of the wave/particle trade-off.

Coherence of the traversing system, which-path knowledge extracted by each
discrimination strategy, and the duality-sum records produced by scans. All
entropies are in bits and all quantifiers are normalized by log2(N), so both
coherence and knowledge live in [0, 1] and their sum never exceeds 1.

Scans evaluate many scenarios through one batched kernel,
:func:`evaluate_specs`, which runs blocks of scenarios through one FFT and
one entropy call each. The scalar functions (:func:`coherence`,
:func:`knowledge_frio`, ...) evaluate one scenario; they serve
``verify`` and are the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurements import (
    MIN_COEFF_CLAMP_ATOL,
    Strategy,
    _spectrum,
    conditional_failure,
    separation_params,
)
from .states import DEGENERATE_FAILURE_ATOL, DetectorSpec, ValidationError

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
    "evaluate_specs",
]

ENTRY_ATOL = 1e-12
SUM_ATOL = 1e-9
DUALITY_SUM_ATOL = 1e-9

# Scenarios per evaluation block, and the most zero-padded spectrum entries
# (rows x N) one block may hold: 2^18 complex entries take 4 MiB, so a
# block's arrays stay a few MB at any path count.
EVAL_BLOCK_ROWS = 4096
EVAL_BLOCK_ENTRIES = 1 << 18


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


def _normalized_infos(probabilities: np.ndarray, n_paths: int) -> np.ndarray:
    """:func:`_normalized_info` of each row of a 2-D array."""
    return np.clip(1.0 - shannon_entropies(probabilities) / math.log2(n_paths), 0.0, 1.0)


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
    an implementation bug rather than bad input. A one-row
    :func:`evaluate_specs` call.
    """
    return evaluate_specs((spec,), strategy, xi)[0]


def evaluate_specs(specs, strategy, xi: float = 0.0) -> list[DualityPoint]:
    """:func:`evaluate_point` for many scenarios that share N and n.

    Scenarios go through in blocks of at most ``EVAL_BLOCK_ROWS`` rows and
    ``EVAL_BLOCK_ENTRIES`` padded spectrum entries, so memory stays bounded
    at any N. Each block takes one FFT and one entropy call per distribution
    kind, with the arithmetic of the scalar functions in the same order, so
    every point equals :func:`coherence` and ``knowledge_*`` bit for bit.
    """
    strategy = Strategy(strategy)
    xi = 0.0 if strategy is Strategy.ME else float(xi)
    if not 0.0 <= xi <= 1.0:
        raise ValidationError(f"separation level must lie in [0, 1], got {xi!r}")
    specs = list(specs)
    if not specs:
        return []
    n_paths, n = specs[0].N, specs[0].n
    if any(spec.N != n_paths or spec.n != n for spec in specs):
        raise ValidationError("evaluate_specs needs scenarios that share N and n")
    rows = max(1, min(EVAL_BLOCK_ROWS, EVAL_BLOCK_ENTRIES // n_paths))
    points = []
    for lo in range(0, len(specs), rows):
        points.extend(_evaluate_block(specs[lo : lo + rows], strategy, xi))
    return points


def _spectra(n_paths: int, indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise ``measurements._spectrum``: ``|FFT|^2`` of each weight row
    placed at its support indices in a zero row of length N."""
    padded = np.zeros((len(weights), n_paths))
    np.put_along_axis(padded, indices, weights, axis=1)
    return np.abs(np.fft.fft(padded, axis=1)) ** 2


def _evaluate_block(specs: list[DetectorSpec], strategy: Strategy, xi: float) -> list[DualityPoint]:
    n_paths, n = specs[0].N, specs[0].n
    amps = np.array([spec.coeffs for spec in specs])
    indices = np.array([spec.support.indices for spec in specs])
    probs = amps**2
    p_min = probs.min(axis=1)
    uniform = 1.0 - n * p_min <= DEGENERATE_FAILURE_ATOL
    coh = _normalized_infos(probs, n_paths)

    # separation_params and knowledge_frio, row by row.
    success = np.sqrt((1.0 - xi + xi / (n * probs)) / n_paths)
    p_success = np.where(uniform, 1.0, n * p_min / ((1.0 - xi) * n * p_min + xi))
    conclusive = _spectra(n_paths, indices, amps * success)
    knowledge = p_success * _normalized_infos(conclusive, n_paths)

    if strategy is Strategy.FRIO_CONCATENATED:
        # conditional_failure on the rows that have a failure branch.
        fail = np.flatnonzero(~uniform)
        p, m = probs[fail], p_min[fail, None]
        h_sq = (p - m) / ((1.0 - n * m) * n_paths * p)
        a = amps[fail]
        h_sq[a - a.min(axis=1, keepdims=True) <= MIN_COEFF_CLAMP_ATOL] = 0.0
        live = h_sq.any(axis=1)
        fail = fail[live]
        if fail.size:
            spectra = _spectra(n_paths, indices[fail], a[live] * np.sqrt(h_sq[live]))
            spectra = spectra / spectra.sum(axis=1, keepdims=True)
            knowledge[fail] += (1.0 - p_success[fail]) * _normalized_infos(spectra, n_paths)

    total = coh + knowledge
    bad = np.flatnonzero(total > 1.0 + DUALITY_SUM_ATOL)
    if bad.size:
        raise ValidationError(
            f"duality bound violated: C + K = {float(total[bad[0]])!r} for spec "
            f"{specs[bad[0]].support.indices} (internal error)"
        )
    return [
        DualityPoint(
            N=n_paths,
            n=n,
            strategy=strategy,
            xi=xi,
            coherence=c,
            knowledge=k,
            duality_sum=t,
            spec=spec,
        )
        for spec, c, k, t in zip(specs, coh.tolist(), knowledge.tolist(), total.tolist())
    ]
