"""Randomized property suites over the whole pipeline.

Six suites run over a seeded sample of scenarios: POVM completeness and
positivity, closed-form versus matrix-oracle agreement, the theorem-backed
hierarchy links and duality bound, monotonicity in the separation level
(success probability everywhere, and the concatenation gain for
non-uniform scenarios with a clearly unique minimum coefficient), Parseval
for the DFT spectrum, and the support-size uncertainty bound. Violations
carry the offending scenario serialized as JSON so a failure can be
replayed.

Each scenario is checked with array operations: its closed forms are
computed once, with every level's separation data and conclusive spectrum
from one array call each, its measurements go through as few element
stacks as ``STACK_ENTRIES`` allows (one ``eigvalsh`` call and one oracle
call each, a single stack at small path counts), and oracle rows are
compared with the closed forms by position, in the fixed outcome order of
the POVM builders. Violation messages are only formatted for checks that fail.
Every suite also keeps the largest gap it saw against each tolerance.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .duality import _normalized_info, _normalized_infos, coherence, holevo_ceiling
from .ensemble import sample_rng, sample_spec
from .measurements import (
    COMPLETENESS_ATOL,
    MAX_POVM_PATHS,
    POSITIVITY_ATOL,
    Measurement,
    OracleArrays,
    SeparationParams,
    Strategy,
    _failure_spectrum,
    _separations,
    _spectrum,
    _success,
    build_me_measurement,
    build_two_step_measurements,
    oracle_arrays,
)
from .saturation import dft_distribution
from .states import DetectorSpec, ValidationError, build_symmetric_set, is_int, spec_to_json_dict

__all__ = [
    "SuiteResult",
    "run_verification",
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

# Most matrix entries (elements x N x N) one element stack may hold: a
# scenario's measurements go through as few stacks as fit, one up to
# N = 24, one per measurement at N = 64. 2^18 complex entries take 4 MiB.
STACK_ENTRIES = 1 << 18

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

    def record(self, ok: bool, spec: DetectorSpec, detail) -> None:
        """One check; ``detail()`` builds its message when it fails."""
        self.checks += 1
        if not ok:
            self._violation(spec, detail())

    def record_all(self, ok: np.ndarray, spec: DetectorSpec, detail) -> None:
        """One check per entry of ``ok``; ``detail(i)`` builds the message of
        failing entry ``i``, in row-major order."""
        self.checks += ok.size
        if not ok.all():
            for i in np.flatnonzero(~ok):
                self._violation(spec, detail(int(i)))

    def margin(self, tolerance: str, gaps) -> None:
        """Keep the largest of ``gaps`` seen against the named tolerance."""
        gaps = np.asarray(gaps, dtype=float)
        if gaps.size:
            # A NaN gap sticks, from any scenario, as it does within gaps.max().
            worst = float(gaps.max())
            self.worst[tolerance] = float(np.maximum(self.worst.get(tolerance, worst), worst))

    def _violation(self, spec: DetectorSpec, detail: str) -> None:
        self.violations.append(f"{detail} | replay spec: {json.dumps(spec_to_json_dict(spec))}")


def _support_projector(spec: DetectorSpec) -> np.ndarray:
    projector = np.zeros((spec.N, spec.N), dtype=complex)
    idx = list(spec.support.indices)
    projector[idx, idx] = 1.0
    return projector


# Relative gap between the smallest and second-smallest squared coefficient
# above which the minimum counts as clearly unique.
ISOLATED_MINIMUM_GAP = 0.05


def _has_isolated_minimum(spec: DetectorSpec) -> bool:
    if spec.n < 2:
        return False
    ordered = np.sort(spec.probabilities)
    return (ordered[1] - ordered[0]) / ordered[0] >= ISOLATED_MINIMUM_GAP


def _check_povm(
    result: SuiteResult,
    spec: DetectorSpec,
    measurements: list[Measurement],
    elements: np.ndarray,
) -> None:
    """Hermiticity, positivity and completeness of each measurement, three
    checks per measurement; ``elements`` is their element arrays, concatenated."""
    starts = np.cumsum([0] + [len(measurement.elements) for measurement in measurements])
    min_eig = np.minimum.reduceat(np.linalg.eigvalsh(elements).min(axis=1), starts[:-1])
    # Per measurement, so temporaries stay the size of one measurement and
    # each sum adds its elements in the order a stack of its own would.
    blocks = [elements[lo:hi] for lo, hi in zip(starts, starts[1:])]
    hermitian = np.array([np.abs(b - b.conj().transpose(0, 2, 1)).max() for b in blocks])
    sums = np.stack([block.sum(axis=0) for block in blocks])
    completeness = np.abs(sums - _support_projector(spec)).max(axis=(1, 2))

    def detail(i: int) -> str:
        m, check = divmod(i, 3)
        head = f"{measurements[m].strategy.value} xi={measurements[m].xi}: "
        if check == 0:
            return head + f"non-Hermitian element (gap {hermitian[m]:.3e})"
        if check == 1:
            return head + f"element not PSD (min eigenvalue {min_eig[m]:.3e})"
        return head + f"completeness violated (max deviation {completeness[m]:.3e})"

    ok = np.stack(
        [
            hermitian <= COMPLETENESS_ATOL,
            min_eig >= -POSITIVITY_ATOL,
            completeness <= COMPLETENESS_ATOL,
        ],
        axis=1,
    )
    result.record_all(ok, spec, detail)
    result.margin("COMPLETENESS_ATOL", np.concatenate([hermitian, completeness]))
    result.margin("POSITIVITY_ATOL", -min_eig)


@dataclass(frozen=True, eq=False)
class _ClosedForms:
    """What the suites compare one scenario against.

    ``levels[i]`` is ``separation_params(spec, DEFAULT_XI_GRID[i])``, all
    from one array expression; ``levels[0]``, at xi = 0, is the minimum-error
    level, so ``standard[0]`` is ``knowledge_me(spec)``. Each other field
    equals the scalar function in its comment bit for bit;
    ``tests/test_verify.py`` holds them to that.
    """

    levels: tuple[SeparationParams, ...]
    conclusive: np.ndarray  # [L, N]: conditional_conclusive(spec, xi) per level
    failure: np.ndarray | None  # conditional_failure(spec)
    standard: np.ndarray | None  # [L]: knowledge_frio(spec, xi) per level
    concatenated: np.ndarray | None  # [L]: knowledge_concatenated(spec, xi) per level
    knowledge_error: str | None  # why both knowledge arrays are None
    coherence: float  # coherence(spec)
    ceiling: float  # holevo_ceiling(spec)


def _closed_forms(spec: DetectorSpec) -> _ClosedForms:
    # The failure profile does not depend on the level.
    levels = _separations(spec, DEFAULT_XI_GRID)
    profiles = np.array([params.success_profile for params in levels])
    conclusive = _spectrum(spec.N, spec.support.indices, spec.amplitudes * profiles)
    failure = _failure_spectrum(spec, levels[0].failure_profile)
    p_success, p_fail = np.array([(params.p_success, params.p_fail) for params in levels]).T
    error = None
    try:
        k_std = k_conc = p_success * _normalized_infos(conclusive, spec.N)
        if failure is not None:
            k_conc = k_std + p_fail * _normalized_info(failure, spec.N)
    except ValidationError as exc:
        k_std, k_conc, error = None, None, str(exc)
    return _ClosedForms(
        levels, conclusive, failure, k_std, k_conc, error, coherence(spec), holevo_ceiling(spec)
    )


def _measurements(spec: DetectorSpec, forms: _ClosedForms, fault: str | None):
    """The minimum-error measurement, then each level's two-step
    measurements, built as they are consumed so that a large-N scenario
    never holds all of its element matrices at once."""
    yield build_me_measurement(spec)
    for params in forms.levels:
        if fault == "gk-sign":
            # Flip the sign of the xi/(n*p_k) term of the conclusive profile.
            g_sq = (1.0 - params.xi - params.xi / (spec.n * spec.probabilities)) / spec.N
            params = replace(params, success_profile=np.sqrt(np.clip(g_sq, 0.0, None)))
        yield from build_two_step_measurements(spec, params)


def _check_stack(
    result: SuiteResult, spec: DetectorSpec, symmetric_set, measurements: list[Measurement]
) -> OracleArrays:
    """:func:`_check_povm` and the oracle of some measurements, through one element stack."""
    parts = [m.elements for m in measurements]  # a lone array is not copied: N = 64 peak memory
    elements = np.concatenate(parts) if len(parts) > 1 else parts[0]
    _check_povm(result, spec, measurements, elements)
    return oracle_arrays(symmetric_set, elements)


def _outcome_label(m: int, i: int, n_paths: int) -> str:
    """Label of outcome ``i`` of a level's standard (m = 0) or concatenated
    (m = 1) measurement."""
    return f"c{i}" if i < n_paths else ("f", f"fc{i - n_paths}")[m]


def _check_oracle(
    result: SuiteResult, spec: DetectorSpec, oracle: OracleArrays, forms: _ClosedForms
) -> None:
    """Compare the oracle with the closed forms for every two-step
    measurement of a scenario.

    ``oracle`` covers the outcomes in the order the builders fix: the
    minimum-error measurement's ``c0..c{N-1}``, then per level a block of
    3N + 1, the standard measurement's ``c0..c{N-1}, f`` and the concatenated
    one's ``c0..c{N-1}, fc0..fc{N-1}``. Per measurement: the outcome
    probabilities sum to 1; each outcome probability and each defined
    conditional match the closed form, and each conditional sums to 1;
    same-kind conditionals are cyclic shifts of each other; and at xi = 0
    the outcomes reduce to the minimum-error ones.
    """
    n_levels, n_paths = len(DEFAULT_XI_GRID), spec.N
    block = 3 * n_paths + 1
    # A level's standard, then concatenated measurement: tags and block spans.
    tags = (Strategy.FRIO_STANDARD.value, Strategy.FRIO_CONCATENATED.value)
    spans = ((0, n_paths + 1), (n_paths + 1, block))
    probs = oracle.probs[n_paths:].reshape(n_levels, block)
    conds = oracle.conditionals[n_paths:].reshape(n_levels, block, n_paths)
    defined = oracle.defined[n_paths:].reshape(n_levels, block)

    # Outcome probabilities and totals: c outcomes against p_success/N, f
    # against p_fail and fc outcomes against p_fail/N.
    rates = np.array([(p.p_success / n_paths, p.p_fail, p.p_fail / n_paths) for p in forms.levels])
    expected_probs = rates[:, np.repeat([0, 1, 0, 2], (n_paths, 1, n_paths, n_paths))]
    prob_gap = np.abs(probs - expected_probs)
    # Python's sum in label order, as over the values of oracle_outcome_table.
    totals = np.array([[sum(row[lo:hi]) for lo, hi in spans] for row in probs.tolist()])
    total_gap = np.abs(totals - 1.0)

    # Conditionals against the closed-form row shifted by the label's j,
    # ``roll[j, l] = (l - j) % N``; an absent failure branch leaves nothing
    # to match (infinite gap).
    steps = np.arange(n_paths)
    roll = (steps[None, :] - steps[:, None]) % n_paths
    failure = forms.failure if forms.failure is not None else np.full(n_paths, np.inf)
    shifted = forms.conclusive[:, roll]
    uniform = np.full((n_levels, 1, n_paths), 1.0 / n_paths)
    failure_shifted = np.broadcast_to(failure[roll], shifted.shape)
    bases = np.concatenate([shifted, uniform, shifted, failure_shifted], axis=1)
    deviation = np.abs(conds - bases).max(axis=2)
    sums = conds.sum(axis=2)
    sum_gap = np.abs(sums - 1.0)

    # Cyclic shifts between same-kind conditionals, oracle only; checked
    # where the {kind}0 conditional is defined. Row g of ``positions`` holds
    # the block positions of {kind}0..{kind}{N-1} of cyclic[g].
    cyclic = ((0, "c"), (1, "c"), (1, "fc"))
    positions = steps + np.array([[0], [n_paths + 1], [2 * n_paths + 1]])
    reference = conds[:, positions[:, 0]]
    shift_gap = np.abs(conds[:, positions] - reference[:, :, roll]).max(axis=3)
    shift_worst = np.where(defined[:, positions], shift_gap, np.inf).max(axis=2)
    shift_checked = defined[:, positions[:, 0]]

    # Reduction to the minimum-error outcomes at xi = 0, the first level:
    # each measurement's c0..c{N-1} against the minimum-error ones.
    me_defined = oracle.defined[:n_paths]
    table = positions[:2]
    table_defined = defined[0, table]
    cond_gap = np.abs(conds[0, table] - oracle.conditionals[:n_paths]).max(axis=2)
    # Both undefined counts as agreement, one undefined as an infinite gap.
    reduction_cond = np.where(
        table_defined & me_defined,
        cond_gap,
        np.where(table_defined == me_defined, 0.0, np.inf),
    )
    reduction_prob = np.abs(probs[0, table] - oracle.probs[:n_paths])
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
    # Record measurement by measurement, in report order.
    for level, xi in enumerate(DEFAULT_XI_GRID):
        for m, (lo, hi) in enumerate(spans):
            tag = tags[m]
            result.record(
                total_ok[level, m],
                spec,
                lambda: f"{tag} xi={xi}: outcome probs sum to {float(totals[level, m])!r}",
            )
            result.record_all(
                prob_ok[level, lo:hi],
                spec,
                lambda i: f"{tag} xi={xi}: outcome {_outcome_label(m, i, n_paths)} prob "
                f"{float(probs[level, lo + i])!r} != closed form "
                f"{float(expected_probs[level, lo + i])!r}",
            )
            live = lo + np.flatnonzero(defined[level, lo:hi])

            def conditional(i: int) -> str:
                b = live[i // 2]
                label = _outcome_label(m, b - lo, n_paths)
                if i % 2 == 0:
                    return (
                        f"{tag} xi={xi}: conditional {label} deviates from closed form "
                        f"by {deviation[level, b]:.3e}"
                    )
                return f"{tag} xi={xi}: conditional {label} sums to {float(sums[level, b])!r}"

            result.record_all(
                np.stack([deviation_ok[level, live], sum_ok[level, live]], axis=1),
                spec,
                conditional,
            )
            for g, (owner, kind) in enumerate(cyclic):
                if owner == m and shift_checked[level, g]:
                    result.record(
                        shift_ok[level, g],
                        spec,
                        lambda: f"{tag} xi={xi}: cyclic-shift relation off by "
                        f"{shift_worst[level, g]:.3e} for kind {kind!r}",
                    )
            if level == 0:
                result.record_all(
                    reduction_ok[m],
                    spec,
                    lambda i: f"{tag}: xi=0 table differs from minimum-error table at "
                    f"c{i} (cond {reduction_cond[m, i]:.3e}, "
                    f"prob {reduction_prob[m, i]:.3e})",
                )


def _check_hierarchy(result: SuiteResult, spec: DetectorSpec, forms: _ClosedForms) -> np.ndarray:
    """The chain and the sum check at each level; returns each level's
    concatenation gain, or none when the knowledge could not be computed."""
    grid, error = DEFAULT_XI_GRID, forms.knowledge_error
    if error is not None:
        failed = np.zeros(len(grid), dtype=bool)
        result.record_all(failed, spec, lambda i: f"xi={grid[i]}: knowledge failed: {error}")
        return np.empty(0)
    k_std, k_conc, ceiling = forms.standard, forms.concatenated, forms.ceiling
    k_me = k_std[0]
    # Discarding the failure outcomes coarse-grains the concatenated
    # measurement, hence k_std <= k_conc. Neither is bounded by k_me at
    # xi > 0 (see the module docstring).
    chain_ok = (k_std <= k_conc + HIERARCHY_ATOL) & (k_me <= ceiling + HIERARCHY_ATOL)
    total = forms.coherence + np.maximum(np.maximum(k_conc, k_std), k_me)
    details = (
        lambda i: f"hierarchy broken (frio {float(k_std[i])!r}, conc {float(k_conc[i])!r}, "
        f"me {float(k_me)!r}, ceiling {ceiling!r})",
        lambda i: f"duality sum {float(total[i])!r} exceeds 1",
    )
    ok = np.stack([chain_ok, total <= 1.0 + HIERARCHY_ATOL], axis=1)
    result.record_all(ok, spec, lambda i: f"xi={grid[i // 2]}: " + details[i % 2](i // 2))
    result.margin("HIERARCHY_ATOL", np.concatenate([k_std - k_conc, [k_me - ceiling], total - 1.0]))
    return k_conc - k_std


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
    completeness = SuiteResult("povm-completeness")
    oracle = SuiteResult("oracle-agreement")
    hierarchy = SuiteResult("hierarchy")
    monotonicity = SuiteResult("monotonicity")
    parseval = SuiteResult("parseval")
    uncertainty = SuiteResult("donoho-stark")

    for index in range(samples):
        rng = sample_rng(seed, index)
        n_paths = int(rng.integers(lo, hi + 1))
        n = int(rng.integers(1, n_paths + 1))
        spec = sample_spec(n_paths, n, rng)

        forms = _closed_forms(spec)
        symmetric_set = build_symmetric_set(spec)
        batch, parts = [], []
        for measurement in _measurements(spec, forms, fault):
            stacked = sum(len(m.elements) for m in batch) + len(measurement.elements)
            if batch and stacked * spec.N**2 > STACK_ENTRIES:
                parts.append(_check_stack(completeness, spec, symmetric_set, batch))
                batch = []
            batch.append(measurement)
        parts.append(_check_stack(completeness, spec, symmetric_set, batch))
        arrays = OracleArrays(
            probs=np.concatenate([part.probs for part in parts]),
            conditionals=np.concatenate([part.conditionals for part in parts]),
            defined=np.concatenate([part.defined for part in parts]),
        )
        _check_oracle(oracle, spec, arrays, forms)
        gains = _check_hierarchy(hierarchy, spec, forms)

        # Separation success probability is non-increasing in xi for every
        # scenario; that follows directly from its closed form.
        levels = np.array(MONOTONICITY_XI_GRID)[:, None]
        success_curve = _success(spec.probabilities, levels, spec.N)[1]
        worst = float(np.diff(success_curve, axis=0).max())
        monotonicity.record(
            worst <= SUCCESS_MONOTONICITY_ATOL,
            spec,
            lambda: f"success probability increased by {worst:.3e} along the xi grid",
        )
        monotonicity.margin("SUCCESS_MONOTONICITY_ATOL", worst)
        if not spec.is_uniform and _has_isolated_minimum(spec):
            # The gain k_conc - k_std is p_fail(xi) times the failure
            # branch's information, which does not depend on xi, so it
            # never decreases. Knowledge itself may rise with xi. The
            # check holds for every non-uniform scenario; the selection
            # only fixes how many checks the suite reports.
            worst = float((gains[:-1] - gains[1:]).max()) if gains.size > 1 else 0.0
            monotonicity.record(
                len(gains) == len(DEFAULT_XI_GRID) and worst <= MONOTONICITY_ATOL,
                spec,
                lambda: f"concatenation gain decreased by {worst:.3e} along the xi grid "
                f"(knowledge failed at {len(DEFAULT_XI_GRID) - len(gains)} levels)",
            )
            monotonicity.margin("MONOTONICITY_ATOL", worst)

        spectrum = dft_distribution(spec)
        total = float(spectrum.sum())
        parseval.record(
            abs(total - 1.0) <= PARSEVAL_ATOL, spec, lambda: f"spectrum sums to {total!r}"
        )
        parseval.margin("PARSEVAL_ATOL", abs(total - 1.0))
        spectrum_support = int((spectrum > 1e-12).sum())
        uncertainty.record(
            spec.n * spectrum_support >= spec.N,
            spec,
            lambda: f"support product {spec.n} * {spectrum_support} < {spec.N}",
        )

    return [completeness, oracle, hierarchy, monotonicity, parseval, uncertainty]
