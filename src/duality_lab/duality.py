"""Entropic quantifiers of the wave/particle trade-off.

Coherence of the traversing system, which-path knowledge extracted by each
discrimination strategy, and the duality-sum records produced by scans. All
entropies are in bits and all quantifiers are normalized by log2(N), so both
coherence and knowledge live in [0, 1] and their sum never exceeds 1.

Scans evaluate many scenarios through one batched kernel,
:func:`evaluate_block`: it takes an array block of scenarios of one (N, n)
(``states.SweepBlock``), computes coherence once per row and knowledge for
all (strategy, xi) pairs at once, from closed forms on a level axis
(:func:`_level_forms`, :func:`_failure_branch` and the K_std/K_conc table
:func:`_knowledge_table`) that ``verify`` checks too. The scalar functions
(:func:`coherence`, :func:`knowledge_frio`, ...) evaluate one scenario
through the same separation and spectrum formulas; they are the reference
the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measurements import (
    Strategy,
    _failure_profile,
    _failure_spectra,
    _level,
    _spectrum,
    _success,
    conditional_failure,
    separation_params,
)
from .states import (
    BLOCK_ROWS,
    EVAL_BLOCK_ENTRIES,
    DetectorSpec,
    SweepBlock,
    ValidationError,
    block_from_specs,
)

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
    "evaluate_block",
    "strategy_pair",
    "strategy_pairs",
]

ENTRY_ATOL = 1e-12
SUM_ATOL = 1e-9
DUALITY_SUM_ATOL = 1e-9


def _checked(probabilities, ndim: int) -> np.ndarray:
    """Entropy input as a float array of ``ndim`` (1 or 2) dimensions, clamped
    into [0, 1]. Raw entries must lie within 1e-12 of [0, 1] (NaN and
    infinities fail), and each row (last axis) must sum to 1 within 1e-9."""
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != ndim or not (
        probs.size and -ENTRY_ATOL <= float(probs.min()) and float(probs.max()) <= 1 + ENTRY_ATOL
    ):
        raise ValidationError(
            f"entropy input must be a nonempty {('vector', '2-D array')[ndim - 1]} "
            "of entries in [-1e-12, 1 + 1e-12]"
        )
    probs = np.clip(probs, 0.0, 1.0)
    totals = probs.reshape(-1, probs.shape[-1]).sum(axis=1)
    off = np.flatnonzero(~(np.abs(totals - 1.0) <= SUM_ATOL))
    if off.size:
        raise ValidationError(
            f"entropy input must sum to 1 within {SUM_ATOL} "
            f"(row {off[0]} sums to {float(totals[off[0]])!r})"
        )
    return probs


def shannon_entropy(probabilities) -> float:
    """Shannon entropy in bits, with the 0*log(0) = 0 convention.

    The input must be a nonempty 1-D vector. Entries may lie outside [0, 1]
    by at most 1e-12 (roundoff) and are then clamped into it; the vector must
    sum to 1 within 1e-9. NaN and infinities fail. A deterministic
    distribution gives +0.0.
    """
    probs = _checked(probabilities, 1)
    positive = probs[probs > 0.0]
    # 0.0 - x is -x, except that an all-zero sum gives +0.0, not -0.0.
    return float(0.0 - (positive * np.log2(positive)).sum())


def shannon_entropies(probabilities) -> np.ndarray:
    """Shannon entropy in bits of each row of a 2-D array.

    Validates and clamps every row as :func:`shannon_entropy` does. Each row's
    strictly positive entries are summed as one contiguous vector, in the
    order :func:`shannon_entropy` sums them, so entry ``i`` equals
    ``shannon_entropy(probabilities[i])`` bit for bit; summing zero-padded
    rows instead would change the pairwise order and the last digit.
    """
    probs = _checked(probabilities, 2)
    positive = probs > 0.0
    counts = positive.sum(axis=1)
    entropies = np.empty(len(probs))
    for count in np.flatnonzero(np.bincount(counts)):
        rows = counts == count
        compact = probs[rows][positive[rows]].reshape(-1, count)
        entropies[rows] = 0.0 - (compact * np.log2(compact)).sum(axis=1)
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
    conclusive = _spectrum(spec.N, spec.support.indices, spec.amplitudes * params.success_profile)
    return params.p_success * _normalized_info(conclusive, spec.N)


def knowledge_concatenated(spec: DetectorSpec, xi: float) -> float:
    """Which-path knowledge when the failure branch is also discriminated.

    Adds the failure branch's information share to :func:`knowledge_frio`;
    the extra term is zero when the failure branch is absent.
    """
    knowledge, failure = knowledge_frio(spec, xi), conditional_failure(spec)
    if failure is None:
        return knowledge
    return knowledge + separation_params(spec, xi).p_fail * _normalized_info(failure, spec.N)


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
    an implementation bug rather than bad input. One :func:`evaluate_block`
    call on the scenario's one-row block.
    """
    block = evaluate_block(block_from_specs((spec,)), ((strategy, xi),))
    return _block_points(block, 0, (spec,))[0]


def _block_points(block: SweepBlock, column: int, specs) -> list[DualityPoint]:
    """The points of one (strategy, xi) column of an evaluated block, whose
    rows are ``specs``."""
    pair = block.pairs[column]
    knowledge, total = block.knowledge[:, column].tolist(), block.duality_sum[:, column].tolist()
    return [
        DualityPoint(block.N, block.n, *pair, coherence=c, knowledge=k, duality_sum=t, spec=spec)
        for spec, c, k, t in zip(specs, block.coherence.tolist(), knowledge, total)
    ]


def strategy_pair(strategy, xi: float) -> tuple[Strategy, float]:
    """The (strategy, xi) pair a point records: the ME strategy is the xi = 0
    endpoint, and every other level must lie in [0, 1]."""
    try:
        tag, _ = Strategy(strategy), float(xi)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid (strategy, xi) pair {(strategy, xi)!r}: {exc}") from exc
    return tag, 0.0 if tag is Strategy.ME else _level(xi)


def strategy_pairs(pairs) -> tuple[tuple[Strategy, float], ...]:
    """A nonempty list of distinct (strategy, xi) pairs, each through :func:`strategy_pair`."""
    try:
        pairs = tuple(strategy_pair(*pair) for pair in pairs)
    except TypeError as exc:
        raise ValidationError(f"expected a list of (strategy, xi) pairs, got {pairs!r}") from exc
    if not pairs:
        raise ValidationError("at least one (strategy, xi) pair is required")
    if len(set(pairs)) < len(pairs):
        tag, xi = next(pair for i, pair in enumerate(pairs) if pair in pairs[:i])
        raise ValidationError(f"repeated (strategy, xi) pair {(tag.value, xi)!r}")
    return pairs


def evaluate_block(block: SweepBlock, pairs) -> SweepBlock:
    """The block with its result columns, labelled by the normalized ``pairs``
    (see :func:`strategy_pairs`): coherence per row, and knowledge and C + K per row and pair.

    Slices hold at most ``BLOCK_ROWS`` rows and ``EVAL_BLOCK_ENTRIES`` padded
    spectrum entries over their pairs (pairs go in groups where one row's
    exceed it), so memory stays bounded at any N. A slice takes one FFT and
    one entropy call per distribution kind, and the failure branch only for
    a ``frio-concatenated`` pair, whose entropies it takes once for all the
    slice's pair groups; every value equals :func:`coherence` and
    ``knowledge_*`` bit for bit. Raises if C + K exceeds 1 beyond tolerance.
    """
    pairs = strategy_pairs(pairs)
    levels = [xi for _, xi in pairs]
    concatenated = np.array([tag is Strategy.FRIO_CONCATENATED for tag, _ in pairs])
    probs = block.amps**2
    coh = _normalized_infos(probs, block.N) if len(block) else np.empty(0)
    knowledge = np.empty((len(block), len(pairs)))
    width = min(len(pairs), max(1, EVAL_BLOCK_ENTRIES // block.N))
    rows = max(1, min(BLOCK_ROWS, EVAL_BLOCK_ENTRIES // (block.N * width)))
    for lo in range(0, len(block), rows):
        part = slice(lo, lo + rows)
        indices, amps, squares = block.indices[part], block.amps[part], probs[part]
        failure = ()
        if concatenated.any():
            live, spectra = _failure_branch(block.N, indices, amps, squares)[2:]
            infos = _normalized_infos(spectra, block.N) if live.any() else None
            failure = live, infos
        for cols in (slice(c, c + width) for c in range(0, len(pairs), width)):
            _, p_success, conclusive = _level_forms(block.N, indices, amps, squares, levels[cols])
            table = _knowledge_table(block.N, conclusive, p_success, *failure)
            knowledge[part, cols] = np.where(concatenated[cols], table[1], table[0])
    total = coh[:, None] + knowledge
    bad = np.flatnonzero(total > 1.0 + DUALITY_SUM_ATOL)
    if bad.size:
        row, column = divmod(int(bad[0]), len(pairs))
        raise ValidationError(
            f"duality bound violated: C + K = {float(total[row, column])!r} for spec "
            f"{tuple(block.indices[row].tolist())} (internal error)"
        )
    return replace(block, pairs=pairs, coherence=coh, knowledge=knowledge, duality_sum=total)


def _level_forms(n_paths: int, indices, amps, probs, levels):
    """Success profiles ``[G, L, n]``, success probabilities ``[G, L]`` and
    conclusive spectra ``[G, L, N]`` of block rows at each of ``levels``."""
    profiles, p_success = _success(probs[:, None], np.asarray(levels), n_paths)
    return profiles, p_success, _spectrum(n_paths, indices[:, None], amps[:, None] * profiles)


def _failure_branch(n_paths: int, indices, amps, probs):
    """The level-free failure branch of block rows: failure profiles, which
    rows have a branch, which have a failure conditional, and theirs."""
    profile, branch = _failure_profile(amps, probs, n_paths)
    return (profile, branch, *_failure_spectra(n_paths, indices, amps, profile))


def _knowledge_table(n_paths: int, conclusive, p_success, live=None, failure=None):
    """``knowledge_frio`` and ``knowledge_concatenated`` ``[G, L]`` from the
    :func:`_level_forms` and the ``failure`` information (``_normalized_infos``
    of the failure conditionals) of the ``live`` rows; without them, K_conc
    is K_std."""
    infos = _normalized_infos(conclusive.reshape(-1, n_paths), n_paths)
    standard = p_success * infos.reshape(p_success.shape)
    concatenated = standard.copy()
    if live is not None and live.any():
        concatenated[live] += (1.0 - p_success[live]) * failure[:, None]
    return standard, concatenated
