"""Randomized property suites over the whole pipeline.

Six suites run over a seeded sample of scenarios: POVM completeness and
positivity, closed-form versus matrix-oracle agreement, the theorem-backed
hierarchy links and duality bound, monotonicity in the separation level
(success probability everywhere, and the concatenation gain for
non-uniform scenarios with a clearly unique minimum coefficient), Parseval
for the DFT spectrum, and the support-size uncertainty bound. Violations
carry the failing scenario's checked block row as JSON, to replay it.

Scenarios are checked as array blocks, drawn in index order in chunks of at
most ``BLOCK_ROWS`` through the sweep's chunk draw path,
``ensemble._chunk_blocks``: each draws its path count over ``n_range``, then
its dimension, support and weights, and each (N, n) group of a chunk is one
``block_from_probabilities`` block. A group's closed forms come from the
functions the sweep kernel runs, ``duality._level_forms``,
``_failure_branch`` and ``_knowledge_table``, on the levels of
``DEFAULT_XI_GRID``, so the suites check the numbers that ``scan`` writes.
Its measurements are built by the block rules behind the POVM builders for
stacks of consecutive scenarios, in the support frame: each element is its
n x n block on the support, where the POVM builders' N x N matrices are zero
elsewhere. They go in report order through batches of consecutive
measurements within ``STACK_ENTRIES`` entries, with one ``eigvalsh`` call
and one oracle call per batch; a stack is one batch when its scenarios fit.
Oracle rows are compared with the closed forms by position, in the fixed
outcome order of the POVM builders. Every check is an array over a group or
a stack, counted whole; only failed checks are worded, in the array's
row-major order, and a chunk's violations are then put in index order. Every
suite also keeps the largest gap it saw against each tolerance.

Only theorems are asserted. The square-root measurement minimises the error
probability, not the mutual information, so at xi > 0 either separation
strategy can extract more which-path knowledge than it does, and knowledge
need not fall as xi grows. Counterexamples exist for dependent families
(n < N) and at full support, with a degenerate or a clearly unique minimum
coefficient; ``tests/test_duality.py`` pins them against an independent
50-digit reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .duality import _failure_branch, _knowledge_table, _level_forms, _normalized_infos
from .ensemble import _chunk_blocks
from .measurements import (
    COMPLETENESS_ATOL,
    MAX_POVM_PATHS,
    POSITIVITY_ATOL,
    OracleArrays,
    Strategy,
    _me_elements,
    _success,
    _two_step_elements,
    _two_step_labels,
    oracle_arrays,
)
from .saturation import SPECTRUM_SUPPORT_ATOL, _dft
from .states import (
    BLOCK_ROWS,
    SweepBlock,
    ValidationError,
    _profile_states,
    is_int,
)

__all__ = [
    "SuiteResult",
    "run_verification",
    "SUITES",
    "DEFAULT_XI_GRID",
    "MONOTONICITY_XI_GRID",
    "TOLERANCES",
]

# Levels of the oracle and hierarchy suites, ascending. The first, xi = 0,
# is the minimum-error level, whose closed forms serve the ME measurement.
DEFAULT_XI_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
MONOTONICITY_XI_GRID = tuple(round(0.1 * k, 1) for k in range(11))

ORACLE_ATOL = 1e-10
SHIFT_ATOL = 1e-12
REDUCTION_ATOL = 1e-12
HIERARCHY_ATOL = 1e-9
MONOTONICITY_ATOL = 1e-9
SUCCESS_MONOTONICITY_ATOL = 1e-12
PARSEVAL_ATOL = 1e-10

# Most entries one batch of measurements may hold. An element counts its
# n x n support block and 3N entries for its oracle rows over the N states,
# so one scenario counts (N + L(3N + 1)) * (n^2 + 3N), L being the number
# of levels. A stack of consecutive scenarios of one (N, n) is one batch
# when they fit: 63 at N = 2 and n = 1, 8 at N = 5 and n = 3, one at
# N = n = 9. Past the cap a stack is one scenario in batches of consecutive
# measurements, built one level at a time: three batches at N = n = 12, and
# from N = n = 20 each measurement is a batch of its own. 2^14 complex
# entries take 256 KiB, and a batch's temporaries a few times as much.
STACK_ENTRIES = 1 << 14

# Every tolerance a suite checks a gap against; a check passes when its gap
# is at most the tolerance, so a negative worst gap means slack.
TOLERANCES = {
    "COMPLETENESS_ATOL": COMPLETENESS_ATOL,
    "POSITIVITY_ATOL": POSITIVITY_ATOL,
    "ORACLE_ATOL": ORACLE_ATOL,
    "SHIFT_ATOL": SHIFT_ATOL,
    "REDUCTION_ATOL": REDUCTION_ATOL,
    "HIERARCHY_ATOL": HIERARCHY_ATOL,
    "MONOTONICITY_ATOL": MONOTONICITY_ATOL,
    "SUCCESS_MONOTONICITY_ATOL": SUCCESS_MONOTONICITY_ATOL,
    "PARSEVAL_ATOL": PARSEVAL_ATOL,
}

# Deliberately corrupted formulas that the suites must report.
FAULTS = ("gk-sign",)

# The suites, in the order ``run_verification`` returns them.
SUITES = (
    "povm-completeness", "oracle-agreement", "hierarchy",
    "monotonicity", "parseval", "donoho-stark",
)  # fmt: skip

_LEVELS = len(DEFAULT_XI_GRID)
_TWO_STEP = (Strategy.FRIO_STANDARD.value, Strategy.FRIO_CONCATENATED.value)
# A scenario's measurements in report order: the minimum-error one, then
# each level's standard and concatenated one.
_HEADS = (f"{Strategy.ME.value} xi=0.0: ",) + tuple(
    f"{tag} xi={xi}: " for xi in DEFAULT_XI_GRID for tag in _TWO_STEP
)

# Relative gap between the smallest and second-smallest squared coefficient
# above which the minimum counts as clearly unique.
ISOLATED_MINIMUM_GAP = 0.05


@dataclass
class SuiteResult:
    """Outcome of one property suite: check count, violation messages, and
    the largest gap seen against each tolerance it checks (``worst``)."""

    name: str
    checks: int = 0
    violations: list[str] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def margin(self, tolerance: str, gaps) -> None:
        """Keep the largest of ``gaps`` seen against the named tolerance."""
        gaps = np.asarray(gaps, dtype=float)
        if gaps.size:
            # A NaN gap sticks, from any block, as it does within gaps.max().
            worst = float(gaps.max())
            self.worst[tolerance] = float(np.maximum(self.worst.get(tolerance, worst), worst))


class _Chunk:
    """Scenarios ``start``..``stop - 1`` of a run as ``(rows, block,
    probabilities)`` groups in ascending (N, n) order, rows in index order,
    and the violations found in them, held per suite until :meth:`flush`
    puts them in index order."""

    def __init__(self, seed: int, n_range: tuple[int, int], start: int, stop: int) -> None:
        self.groups = list(_chunk_blocks(seed, n_range, None, start, stop))
        self.found: dict[str, list] = {}

    def violate(self, result: SuiteResult, row, detail: str) -> None:
        self.found.setdefault(result.name, []).append((int(row), detail))

    def flush(self, results) -> None:
        """Append each suite's violations in index order, each with its
        scenario's replay JSON in ``spec_to_json_dict``'s format: the checked
        row's support and the probabilities it was built from. A scenario's
        own violations keep the order they were found in."""
        failing = {row for found in self.found.values() for row, _ in found}
        replays = {
            row: json.dumps({"N": block.N, "support": support.tolist(), "coeffs_sq": p.tolist()})
            for rows, block, probs in self.groups
            if failing.intersection(rows.tolist())
            for row, support, p in zip(rows.tolist(), block.indices, probs)
            if row in failing
        }
        for result in results:
            for row, detail in sorted(self.found.get(result.name, ()), key=lambda item: item[0]):
                result.violations.append(f"{detail} | replay spec: {replays[row]}")


@dataclass(frozen=True, eq=False)
class _Forms:
    """What the suites compare a group of scenarios of one (N, n) against,
    one row per scenario and one level per entry of ``DEFAULT_XI_GRID``.

    Row ``g`` of each field equals the scalar function in its comment for
    that scenario, bit for bit; ``tests/test_verify.py`` holds them to that.
    Level 0, at xi = 0, is the minimum-error level, so ``standard[:, 0]`` is
    ``knowledge_me``.
    """

    p_success: np.ndarray  # [G, L]: separation_params(spec, xi).p_success
    profiles: np.ndarray  # [G, L, n]: its success_profile
    failure_profile: np.ndarray  # [G, n]: its failure_profile, zero where None
    branch: np.ndarray  # [G]: the failure_profile is not None
    conclusive: np.ndarray  # [G, L, N]: conditional_conclusive(spec, xi)
    failure: np.ndarray  # [G, N]: conditional_failure(spec), inf where None
    live: np.ndarray  # [G]: conditional_failure(spec) is not None
    standard: np.ndarray  # [G, L]: knowledge_frio(spec, xi), NaN where failed
    concatenated: np.ndarray  # [G, L]: knowledge_concatenated(spec, xi), NaN where failed
    errors: dict  # row -> why its knowledge could not be computed
    coherence: np.ndarray  # [G]: coherence(spec)
    ceiling: np.ndarray  # [G]: holevo_ceiling(spec)

    @property
    def failed(self) -> np.ndarray:
        """[G]: the rows in ``errors``."""
        failed = np.zeros(len(self.coherence), dtype=bool)
        failed[list(self.errors)] = True
        return failed


def _group_forms(n_paths: int, indices: np.ndarray, amps: np.ndarray) -> _Forms:
    probs = amps**2
    profiles, p_success, conclusive = _level_forms(n_paths, indices, amps, probs, DEFAULT_XI_GRID)
    failure_profile, branch, live, spectra = _failure_branch(n_paths, indices, amps, probs)
    failure = np.full((len(amps), n_paths), np.inf)
    failure[live] = spectra
    infos = np.full(len(amps), np.nan)  # of the failure conditionals
    standard, concatenated = np.full((2,) + p_success.shape, np.nan)

    def failure_infos(rows):
        infos[rows] = _normalized_infos(failure[rows], n_paths)

    def table(rows):
        standard[rows], concatenated[rows] = _knowledge_table(
            n_paths, conclusive[rows], p_success[rows], live[rows], infos[rows][live[rows]]
        )

    # A conclusive input's rejection overwrites its row's failure one, as
    # the conclusive entropies come first in a scalar knowledge call.
    errors = {}
    _by_rows(failure_infos, np.flatnonzero(live), errors)
    _by_rows(table, np.arange(len(amps)), errors)
    standard[list(errors)] = concatenated[list(errors)] = np.nan
    coh = _normalized_infos(probs, n_paths)
    return _Forms(
        p_success, profiles, failure_profile, branch, conclusive, failure, live,
        standard, concatenated, errors, coh, 1.0 - coh,
    )  # fmt: skip


def _by_rows(compute, rows: np.ndarray, errors: dict) -> None:
    """``compute(rows)`` on all ``rows`` at once or, when the entropy rejects
    some row's input, on each row alone; ``errors`` maps a rejected row to
    why."""
    if not rows.size:
        return
    try:
        compute(rows)
    except ValidationError:
        for i in range(len(rows)):
            try:
                compute(rows[i : i + 1])
            except ValidationError as exc:
                errors[int(rows[i])] = str(exc)


def _gk_sign(probs: np.ndarray, n_paths: int) -> np.ndarray:
    """The ``gk-sign`` fault: each level's conclusive profiles ``[G, L, n]``
    with the sign of their xi/(n*p_k) term flipped."""
    xi = np.array(DEFAULT_XI_GRID)[:, None]
    g_sq = (1.0 - xi - xi / (probs.shape[1] * probs[:, None])) / n_paths
    return np.sqrt(np.clip(g_sq, 0.0, None))


def _povm_gaps(elements: np.ndarray, lengths: list, n_paths: int):
    """Hermiticity gap ``max |E - E^H|``, smallest eigenvalue and
    completeness gap ``[S, M]`` of the measurements of ``elements``, support
    blocks ``[S, E, n, n]`` of ``lengths`` elements each, from one
    ``eigvalsh`` call. Off the support an element is zero, so its smallest
    eigenvalue is at most 0 when n < N, and completeness is against I_n."""
    starts = list(accumulate(lengths, initial=0))
    # One sum per measurement: np.add.reduceat would change the last bits.
    sums = np.stack([elements[:, lo:hi].sum(axis=1) for lo, hi in zip(starts, starts[1:])], axis=1)
    completeness = np.abs(sums - np.eye(elements.shape[-1])).max(axis=(-2, -1))
    re, im = elements.real, elements.imag
    gap = re - np.swapaxes(re, -1, -2)
    np.hypot(gap, im + np.swapaxes(im, -1, -2), out=gap)
    hermitian = np.maximum.reduceat(gap.max(axis=(-2, -1)), starts[:-1], axis=1)
    smallest = np.minimum.reduceat(np.linalg.eigvalsh(elements).min(axis=-1), starts[:-1], axis=1)
    if elements.shape[-1] < n_paths:
        np.minimum(smallest, 0.0, out=smallest)
    return hermitian, smallest, completeness


def _joined(parts) -> np.ndarray:
    """``parts`` joined along axis 1; a lone part is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _measurements(n_paths: int, indices, forms: _Forms, profiles, rows: slice, step: int):
    """The measurements ``[S, E_m, n, n]`` of a group's scenarios ``rows`` in
    report order, in the support frame: views of the block rules' arrays,
    ``step`` levels per build."""
    yield _me_elements(n_paths, indices)
    for lo in range(0, _LEVELS, step):
        levels = slice(lo, lo + step)
        two = _two_step_elements(
            n_paths, indices[:, None], forms.p_success[rows, levels], profiles[rows, levels],
            forms.failure_profile[rows, None], forms.branch[rows, None],
        )  # fmt: skip
        for level in range(two.shape[1]):
            yield two[:, level, : n_paths + 1]
            yield two[:, level, n_paths + 1 :]


def _batches(measurements, weight: int):
    """Runs of consecutive measurements within ``STACK_ENTRIES``, an element
    counting ``weight`` entries, one over the cap alone; a yielded run's list
    is the only reference to it."""
    batch, entries = [], 0
    for measurement in measurements:
        size = measurement.shape[0] * measurement.shape[1] * weight
        if batch and entries + size > STACK_ENTRIES:
            yield batch
            batch, entries = [], 0
        batch.append(measurement)
        entries += size
    del measurement
    yield batch


def _stacks(n_paths: int, indices, amps, forms: _Forms, profiles):
    """A group's element stacks: per stack, the rows it covers, the
    :func:`_povm_gaps` of their measurements ``[S, 1 + 2L]`` and their
    oracle arrays ``[S, E]``, in report order. Each batch of a stack's
    measurements takes one ``eigvalsh`` and one oracle call, all in the
    support frame."""
    weight = indices.shape[1] ** 2 + 3 * n_paths  # see STACK_ENTRIES
    size = (n_paths + _LEVELS * (3 * n_paths + 1)) * weight
    per, step = max(STACK_ENTRIES // size, 1), _LEVELS if size <= STACK_ENTRIES else 1
    for lo in range(0, len(amps), per):
        rows = slice(lo, lo + per)
        # build_symmetric_set's states on the support
        states = _profile_states(n_paths, indices[rows], 1.0, amps[rows])
        gaps, parts = [], []
        measurements = _measurements(n_paths, indices[rows], forms, profiles, rows, step)
        for batch in _batches(measurements, weight):
            elements, lengths = _joined(batch), [m.shape[1] for m in batch]
            batch.clear()  # frees the block rules' arrays that ``elements`` copied
            gaps.append(_povm_gaps(elements, lengths, n_paths))
            parts.append(oracle_arrays(states, elements))
        oracle = OracleArrays(*map(_joined, zip(*(vars(part).values() for part in parts))))
        yield rows, tuple(map(_joined, zip(*gaps))), oracle


def _report(result: SuiteResult, chunk: _Chunk, rows, ok: np.ndarray, detail) -> None:
    """Count the checks ``ok[s, ...]`` of the scenarios ``rows[s]`` and report
    each failed one in row-major order, the suite's report order, worded by
    ``detail(s, *index)``."""
    result.checks += ok.size
    for s, *index in np.argwhere(~ok):
        chunk.violate(result, rows[s], detail(s, *index))


def _check_povm(result: SuiteResult, chunk: _Chunk, rows, hermitian, min_eig, completeness) -> None:
    """Hermiticity, positivity and completeness of each measurement of some
    scenarios, three checks per measurement; the arrays are ``[S, 1 + 2L]``."""
    ok, gaps, words = zip(
        (hermitian <= COMPLETENESS_ATOL, hermitian, "non-Hermitian element (gap"),
        (min_eig >= -POSITIVITY_ATOL, min_eig, "element not PSD (min eigenvalue"),
        (completeness <= COMPLETENESS_ATOL, completeness, "completeness violated (max deviation"),
    )
    _report(
        result, chunk, rows, np.stack(ok, axis=2),
        lambda s, m, check: f"{_HEADS[m]}{words[check]} {gaps[check][s, m]:.3e})",
    )  # fmt: skip
    result.margin("COMPLETENESS_ATOL", np.concatenate([hermitian.ravel(), completeness.ravel()]))
    result.margin("POSITIVITY_ATOL", -min_eig)


def _sequential_sums(values: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right from +0.0 as Python's
    ``sum`` adds floats."""
    start = np.zeros(values.shape[:-1] + (1,))
    return np.concatenate([start, values], axis=-1).cumsum(axis=-1)[..., -1]


def _check_oracle(
    result: SuiteResult, chunk: _Chunk, rows, oracle: OracleArrays, forms: _Forms, part: slice
) -> None:
    """Compare the oracle with the closed forms for every two-step
    measurement of some scenarios of one group, rows ``part`` of ``forms``.

    ``oracle`` covers, per scenario, the outcomes in the order the builders
    fix: the minimum-error measurement's ``c0..c{N-1}``, then per level a
    block of 3N + 1, the standard measurement's ``c0..c{N-1}, f`` and the
    concatenated one's ``c0..c{N-1}, fc0..fc{N-1}``. Per measurement: the
    outcome probabilities sum to 1; each outcome probability and each
    defined conditional match the closed form, and each conditional sums to
    1; same-kind conditionals are cyclic shifts of each other; and at xi = 0
    the outcomes reduce to the minimum-error ones.
    """
    count, n_paths = len(oracle.probs), oracle.conditionals.shape[-1]
    block, labels = 3 * n_paths + 1, _two_step_labels(n_paths)
    # A level's standard, then concatenated measurement: block spans.
    spans = ((0, n_paths + 1), (n_paths + 1, block))
    probs = oracle.probs[:, n_paths:].reshape(count, _LEVELS, block)
    conds = oracle.conditionals[:, n_paths:].reshape(count, _LEVELS, block, n_paths)
    defined = oracle.defined[:, n_paths:].reshape(count, _LEVELS, block)

    # Outcome probabilities and totals: c outcomes against p_success/N, f
    # against p_fail and fc outcomes against p_fail/N.
    p_success = forms.p_success[part]
    p_fail = 1.0 - p_success
    rates = np.stack([p_success / n_paths, p_fail, p_fail / n_paths], axis=-1)
    expected_probs = rates[..., np.repeat([0, 1, 0, 2], (n_paths, 1, n_paths, n_paths))]
    prob_gap = np.abs(probs - expected_probs)
    totals = np.stack([_sequential_sums(probs[..., lo:hi]) for lo, hi in spans], axis=-1)
    total_gap = np.abs(totals - 1.0)

    # Conditionals against the closed-form row shifted by the label's j,
    # ``roll[j, l] = (l - j) % N``; an absent failure branch leaves nothing
    # to match (infinite gap).
    steps = np.arange(n_paths)
    roll = (steps[None, :] - steps[:, None]) % n_paths
    shifted = forms.conclusive[part][:, :, roll]
    uniform = np.full((count, _LEVELS, 1, n_paths), 1.0 / n_paths)
    failure_shifted = np.broadcast_to(forms.failure[part][:, None][:, :, roll], shifted.shape)
    bases = np.concatenate([shifted, uniform, shifted, failure_shifted], axis=2)
    deviation = np.abs(conds - bases).max(axis=3)
    sums = conds.sum(axis=3)
    sum_gap = np.abs(sums - 1.0)

    # Cyclic shifts between same-kind conditionals, oracle only; checked
    # where the {kind}0 conditional is defined. Row g of ``positions`` holds
    # the block positions of {kind}0..{kind}{N-1} of cyclic[g].
    cyclic = ((0, "c"), (1, "c"), (1, "fc"))
    positions = steps + np.array([[0], [n_paths + 1], [2 * n_paths + 1]])
    reference = conds[:, :, positions[:, 0]]
    shift_gap = np.abs(conds[:, :, positions] - reference[..., roll]).max(axis=4)
    shift_worst = np.where(defined[:, :, positions], shift_gap, np.inf).max(axis=3)
    shift_checked = defined[:, :, positions[:, 0]]

    # Reduction to the minimum-error outcomes at xi = 0, the first level:
    # each measurement's c0..c{N-1} against the minimum-error ones.
    me_defined = oracle.defined[:, None, :n_paths]
    table = positions[:2]
    table_defined = defined[:, 0][:, table]
    cond_gap = np.abs(conds[:, 0][:, table] - oracle.conditionals[:, None, :n_paths]).max(axis=3)
    # Both undefined counts as agreement, one undefined as an infinite gap.
    reduction_cond = np.where(
        table_defined & me_defined,
        cond_gap,
        np.where(table_defined == me_defined, 0.0, np.inf),
    )
    reduction_prob = np.abs(probs[:, 0][:, table] - oracle.probs[:, None, :n_paths])
    reduction_ok = (reduction_cond <= REDUCTION_ATOL) & (reduction_prob <= REDUCTION_ATOL)

    total_ok = total_gap <= ORACLE_ATOL
    prob_ok = prob_gap <= ORACLE_ATOL
    deviation_ok = deviation <= ORACLE_ATOL
    sum_ok = sum_gap <= ORACLE_ATOL
    shift_ok = shift_worst <= SHIFT_ATOL
    oracle_gaps = [total_gap.ravel(), prob_gap.ravel(), deviation[defined], sum_gap[defined]]
    result.margin("ORACLE_ATOL", np.concatenate(oracle_gaps))
    result.margin("SHIFT_ATOL", shift_worst[shift_checked])
    result.margin("REDUCTION_ATOL", np.maximum(reduction_cond, reduction_prob))
    result.checks += int(
        total_ok.size + prob_ok.size + 2 * defined.sum() + shift_checked.sum() + reduction_ok.size
    )
    oks = (total_ok, prob_ok, deviation_ok & sum_ok | ~defined, shift_ok | ~shift_checked)
    passed = np.logical_and.reduce([ok.all(axis=(1, 2)) for ok in (*oks, reduction_ok)])

    def violations(s: int):
        """Scenario ``s``'s failed checks, measurement by measurement in report order."""
        for level, xi in enumerate(DEFAULT_XI_GRID):
            for m, (lo, hi) in enumerate(spans):
                head = f"{_TWO_STEP[m]} xi={xi}: "
                if not total_ok[s, level, m]:
                    yield head + f"outcome probs sum to {float(totals[s, level, m])!r}"
                for i in np.flatnonzero(~prob_ok[s, level, lo:hi]):
                    yield head + (
                        f"outcome {labels[m][i]} prob "
                        f"{float(probs[s, level, lo + i])!r} != closed form "
                        f"{float(expected_probs[s, level, lo + i])!r}"
                    )
                for b in lo + np.flatnonzero(defined[s, level, lo:hi]):
                    label = labels[m][b - lo]
                    if not deviation_ok[s, level, b]:
                        yield head + (
                            f"conditional {label} deviates from closed form "
                            f"by {deviation[s, level, b]:.3e}"
                        )
                    if not sum_ok[s, level, b]:
                        yield head + f"conditional {label} sums to {float(sums[s, level, b])!r}"
                for g, (owner, kind) in enumerate(cyclic):
                    if owner == m and shift_checked[s, level, g] and not shift_ok[s, level, g]:
                        yield head + (
                            f"cyclic-shift relation off by {shift_worst[s, level, g]:.3e} "
                            f"for kind {kind!r}"
                        )
                if level == 0:
                    for i in np.flatnonzero(~reduction_ok[s, m]):
                        yield (
                            f"{_TWO_STEP[m]}: xi=0 table differs from minimum-error table at "
                            f"c{i} (cond {reduction_cond[s, m, i]:.3e}, "
                            f"prob {reduction_prob[s, m, i]:.3e})"
                        )

    for s in np.flatnonzero(~passed):
        for detail in violations(s):
            chunk.violate(result, rows[s], detail)


def _check_hierarchy(result: SuiteResult, chunk: _Chunk, rows, forms: _Forms) -> None:
    """The chain and the sum check at each level of each scenario; a
    scenario whose knowledge could not be computed fails one check per level."""
    failed = sorted(forms.errors)
    errors = [forms.errors[g] for g in failed]
    _report(
        result, chunk, rows[failed], np.zeros((len(failed), _LEVELS), dtype=bool),
        lambda s, level: f"xi={DEFAULT_XI_GRID[level]}: knowledge failed: {errors[s]}",
    )  # fmt: skip
    good = ~forms.failed
    rows, k_std, k_conc = rows[good], forms.standard[good], forms.concatenated[good]
    ceiling = forms.ceiling[good][:, None]
    k_me = k_std[:, :1]
    # Discarding the failure outcomes coarse-grains the concatenated
    # measurement, hence k_std <= k_conc. Neither is bounded by k_me at
    # xi > 0 (see the module docstring).
    chain_ok = (k_std <= k_conc + HIERARCHY_ATOL) & (k_me <= ceiling + HIERARCHY_ATOL)
    total = forms.coherence[good][:, None] + np.maximum(np.maximum(k_conc, k_std), k_me)
    ok = np.stack([chain_ok, total <= 1.0 + HIERARCHY_ATOL], axis=2)

    def detail(s, level, check):
        return f"xi={DEFAULT_XI_GRID[level]}: " + (
            f"hierarchy broken (frio {float(k_std[s, level])!r}, "
            f"conc {float(k_conc[s, level])!r}, me {float(k_me[s, 0])!r}, "
            f"ceiling {float(ceiling[s, 0])!r})",
            f"duality sum {float(total[s, level])!r} exceeds 1",
        )[check]

    _report(result, chunk, rows, ok, detail)
    gaps = [(k_std - k_conc).ravel(), (k_me - ceiling).ravel(), (total - 1.0).ravel()]
    result.margin("HIERARCHY_ATOL", np.concatenate(gaps))


def _has_isolated_minimum(probs: np.ndarray) -> np.ndarray:
    """Whether each row's smallest squared coefficient is clearly unique."""
    if probs.shape[1] < 2:
        return np.zeros(len(probs), dtype=bool)
    ordered = np.sort(probs, axis=1)
    return (ordered[:, 1] - ordered[:, 0]) / ordered[:, 0] >= ISOLATED_MINIMUM_GAP


def _check_monotonicity(
    result: SuiteResult, chunk: _Chunk, rows, forms: _Forms, probs: np.ndarray, n_paths: int
) -> None:
    """Each scenario's success probability along ``MONOTONICITY_XI_GRID``
    and, where its minimum coefficient is clearly unique, its concatenation
    gain along ``DEFAULT_XI_GRID``."""
    # Separation success probability is non-increasing in xi for every
    # scenario; that follows directly from its closed form.
    curve = _success(probs[:, None], np.array(MONOTONICITY_XI_GRID), n_paths)[1]
    rise = np.diff(curve, axis=1).max(axis=1)
    _report(
        result, chunk, rows, rise <= SUCCESS_MONOTONICITY_ATOL,
        lambda g: f"success probability increased by {rise[g]:.3e} along the xi grid",
    )  # fmt: skip
    result.margin("SUCCESS_MONOTONICITY_ATOL", rise)
    # The gain k_conc - k_std is p_fail(xi) times the failure branch's
    # information, which does not depend on xi, so it never decreases.
    # Knowledge itself may rise with xi. The check holds for every
    # non-uniform scenario; the selection only fixes how many checks the
    # suite reports.
    checked = forms.branch & _has_isolated_minimum(probs)
    failed = forms.failed
    gains = forms.concatenated[~failed] - forms.standard[~failed]
    drop = np.zeros(len(rows))
    drop[~failed] = (gains[:, :-1] - gains[:, 1:]).max(axis=1)
    drop, failed = drop[checked], failed[checked]
    _report(
        result, chunk, rows[checked], ~failed & (drop <= MONOTONICITY_ATOL),
        lambda s: f"concatenation gain decreased by {drop[s]:.3e} along the xi grid "
        f"(knowledge failed at {_LEVELS if failed[s] else 0} levels)",
    )  # fmt: skip
    result.margin("MONOTONICITY_ATOL", drop)


def _check_spectra(
    parseval: SuiteResult, uncertainty: SuiteResult, chunk: _Chunk, rows, n_paths, indices, amps
) -> None:
    """Parseval and the support-size uncertainty bound for each scenario's
    ``dft_distribution`` spectrum."""
    spectra = _dft(n_paths, indices, amps)
    totals = spectra.sum(axis=1)
    gaps = np.abs(totals - 1.0)
    _report(
        parseval, chunk, rows, gaps <= PARSEVAL_ATOL,
        lambda g: f"spectrum sums to {float(totals[g])!r}",
    )  # fmt: skip
    parseval.margin("PARSEVAL_ATOL", gaps)
    support, n = (spectra > SPECTRUM_SUPPORT_ATOL).sum(axis=1), indices.shape[1]
    _report(
        uncertainty, chunk, rows, n * support >= n_paths,
        lambda g: f"support product {n} * {support[g]} < {n_paths}",
    )  # fmt: skip


def _check_group(results, chunk: _Chunk, rows, block: SweepBlock, fault: str | None) -> None:
    """All six suites on the scenarios ``rows`` of a chunk, the rows of ``block``."""
    completeness, oracle, hierarchy, monotonicity, parseval, uncertainty = results
    n_paths, indices, amps = block.N, block.indices, block.amps
    forms = _group_forms(n_paths, indices, amps)
    _check_hierarchy(hierarchy, chunk, rows, forms)
    _check_monotonicity(monotonicity, chunk, rows, forms, amps**2, n_paths)
    _check_spectra(parseval, uncertainty, chunk, rows, n_paths, indices, amps)
    profiles = _gk_sign(amps**2, n_paths) if fault == "gk-sign" else forms.profiles
    for part, povm, arrays in _stacks(n_paths, indices, amps, forms, profiles):
        _check_povm(completeness, chunk, rows[part], *povm)
        _check_oracle(oracle, chunk, rows[part], arrays, forms, part)


def run_verification(
    samples: int = 1000,
    seed: int = 0,
    n_range: tuple[int, int] = (2, 8),
    fault: str | None = None,
) -> list[SuiteResult]:
    """Run all six suites over ``samples`` seeded random scenarios.

    ``n_range`` bounds the path count (inclusive). The oracle and hierarchy
    suites check each level of ``DEFAULT_XI_GRID``, the first being the ME one.
    ``fault`` names one of ``FAULTS``: the run's two-step measurements are
    then built from corrupted separation data, which the suites must report.
    """
    if not is_int(samples) or samples < 1:
        raise ValidationError(f"sample count must be a positive integer, got {samples!r}")
    if not is_int(seed) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    try:
        lo, hi = n_range
    except (TypeError, ValueError):
        lo = hi = None
    if not (is_int(lo) and is_int(hi) and 2 <= lo <= hi <= MAX_POVM_PATHS):
        raise ValidationError(
            f"path-count range must satisfy 2 <= lo <= hi <= {MAX_POVM_PATHS}, got {n_range!r}"
        )
    if fault is not None and fault not in FAULTS:
        raise ValidationError(f"unknown fault mode {fault!r}; known: {FAULTS}")
    results = [SuiteResult(name) for name in SUITES]
    # Chunks of at most BLOCK_ROWS scenarios keep memory flat in ``samples``.
    for start in range(0, samples, BLOCK_ROWS):
        chunk = _Chunk(seed, (lo, hi), start, min(start + BLOCK_ROWS, samples))
        for rows, block, _ in chunk.groups:
            _check_group(results, chunk, rows, block, fault)
        chunk.flush(results)
    return results
