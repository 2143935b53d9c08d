"""Randomized property suites over the whole pipeline.

Six suites run over a seeded sample of scenarios: POVM completeness and
positivity, closed-form versus matrix-oracle agreement, the theorem-backed
hierarchy links and duality bound, monotonicity in the separation level
(success probability everywhere, and the concatenation gain for
non-uniform scenarios with a clearly unique minimum coefficient), Parseval
for the DFT spectrum, and the support-size uncertainty bound. Violations
carry the offending scenario serialized as JSON so a failure can be
replayed.

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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .duality import knowledge_concatenated, knowledge_frio, knowledge_me, holevo_ceiling, coherence
from .ensemble import sample_rng, sample_spec
from .measurements import (
    Measurement,
    build_me_measurement,
    build_two_step_measurements,
    conditional_conclusive,
    conditional_failure,
    oracle_outcome_table,
    separation_params,
    COMPLETENESS_ATOL,
    MAX_POVM_PATHS,
    POSITIVITY_ATOL,
)
from .saturation import dft_distribution
from .states import DetectorSpec, ValidationError, build_symmetric_set, is_int, spec_to_json_dict

__all__ = ["SuiteResult", "run_verification", "DEFAULT_XI_GRID", "MONOTONICITY_XI_GRID"]

DEFAULT_XI_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
MONOTONICITY_XI_GRID = tuple(round(0.1 * k, 1) for k in range(11))

ORACLE_ATOL = 1e-10
SHIFT_ATOL = 1e-12
REDUCTION_ATOL = 1e-12
HIERARCHY_ATOL = 1e-9
MONOTONICITY_ATOL = 1e-9
PARSEVAL_ATOL = 1e-10

# Deliberately corrupted formulas that the suites must report.
FAULTS = ("gk-sign",)


@dataclass
class SuiteResult:
    """Outcome of one property suite: check count and violation messages."""

    name: str
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, ok: bool, spec: DetectorSpec, detail: str) -> None:
        self.checks += 1
        if not ok:
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


def _check_povm(result: SuiteResult, spec: DetectorSpec, measurement: Measurement) -> None:
    matrices = np.stack([matrix for _, matrix in measurement.elements])
    hermitian_gap = float(np.abs(matrices - matrices.conj().transpose(0, 2, 1)).max())
    result.record(
        hermitian_gap <= COMPLETENESS_ATOL,
        spec,
        f"{measurement.strategy.value} xi={measurement.xi}: non-Hermitian element "
        f"(gap {hermitian_gap:.3e})",
    )
    min_eig = float(np.linalg.eigvalsh(matrices).min())
    result.record(
        min_eig >= -POSITIVITY_ATOL,
        spec,
        f"{measurement.strategy.value} xi={measurement.xi}: element not PSD "
        f"(min eigenvalue {min_eig:.3e})",
    )
    completeness_gap = float(
        np.abs(matrices.sum(axis=0) - _support_projector(spec)).max()
    )
    result.record(
        completeness_gap <= COMPLETENESS_ATOL,
        spec,
        f"{measurement.strategy.value} xi={measurement.xi}: completeness violated "
        f"(max deviation {completeness_gap:.3e})",
    )


def _max_gap(left: np.ndarray | None, right: np.ndarray | None) -> float:
    if left is None or right is None:
        return 0.0 if left is right else math.inf
    return float(np.abs(left - right).max())


def _check_oracle(
    result: SuiteResult,
    spec: DetectorSpec,
    measurement: Measurement,
    xi: float,
    me_table,
) -> None:
    table = oracle_outcome_table(build_symmetric_set(spec), measurement)
    params = separation_params(spec, xi)
    conclusive = conditional_conclusive(spec, xi)
    failure = conditional_failure(spec)
    n_paths = spec.N
    tag = measurement.strategy.value

    total = sum(table.outcome_probs.values())
    result.record(
        abs(total - 1.0) <= ORACLE_ATOL, spec, f"{tag} xi={xi}: outcome probs sum to {total!r}"
    )
    for label, prob in table.outcome_probs.items():
        if label == "f":
            expected = params.p_fail
        elif label.startswith("fc"):
            expected = params.p_fail / n_paths
        else:
            expected = params.p_success / n_paths
        result.record(
            abs(prob - expected) <= ORACLE_ATOL,
            spec,
            f"{tag} xi={xi}: outcome {label} prob {prob!r} != closed form {expected!r}",
        )

    base = {"c": conclusive, "fc": failure, "f": np.full(n_paths, 1.0 / n_paths)}
    for label, conditional in table.conditionals.items():
        if conditional is None:
            continue
        shift = 0 if label == "f" else int(label.lstrip("cf"))
        kind = "f" if label == "f" else ("fc" if label.startswith("fc") else "c")
        expected = base[kind]
        expected = expected if shift == 0 or expected is None else np.roll(expected, shift)
        gap = _max_gap(conditional, expected)
        result.record(
            gap <= ORACLE_ATOL,
            spec,
            f"{tag} xi={xi}: conditional {label} deviates from closed form by {gap:.3e}",
        )
        total = float(conditional.sum())
        result.record(
            abs(total - 1.0) <= ORACLE_ATOL,
            spec,
            f"{tag} xi={xi}: conditional {label} sums to {total!r}",
        )

    # Cyclic-shift relation between same-kind conditionals, oracle only.
    for kind in ("c", "fc"):
        reference = table.conditionals.get(f"{kind}0")
        if reference is None:
            continue
        worst = max(
            _max_gap(table.conditionals.get(f"{kind}{j}"), np.roll(reference, j))
            for j in range(n_paths)
        )
        result.record(
            worst <= SHIFT_ATOL,
            spec,
            f"{tag} xi={xi}: cyclic-shift relation off by {worst:.3e} for kind {kind!r}",
        )

    if xi == 0.0 and me_table is not None:
        for label, conditional in me_table.conditionals.items():
            gap = _max_gap(table.conditionals.get(label), conditional)
            prob_gap = abs(table.outcome_probs[label] - me_table.outcome_probs[label])
            result.record(
                gap <= REDUCTION_ATOL and prob_gap <= REDUCTION_ATOL,
                spec,
                f"{tag}: xi=0 table differs from minimum-error table at {label} "
                f"(cond {gap:.3e}, prob {prob_gap:.3e})",
            )


def run_verification(
    samples: int = 1000,
    seed: int = 0,
    n_range: tuple[int, int] = (2, 8),
    xi_grid=DEFAULT_XI_GRID,
    fault: str | None = None,
) -> list[SuiteResult]:
    """Run all six suites over ``samples`` seeded random scenarios.

    ``n_range`` bounds the path count (inclusive). ``xi_grid`` holds the
    separation levels of the oracle and hierarchy suites, in ascending order.
    ``fault`` names one of ``FAULTS``: the run's two-step measurements are
    then built from corrupted separation data, which the suites must report.
    """
    if not is_int(samples) or samples < 1:
        raise ValidationError(f"sample count must be a positive integer, got {samples!r}")
    if not is_int(seed) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    lo, hi = n_range
    if not 2 <= lo <= hi <= MAX_POVM_PATHS:
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

        me = build_me_measurement(spec)
        _check_povm(completeness, spec, me)
        me_table = oracle_outcome_table(build_symmetric_set(spec), me)
        ceiling = holevo_ceiling(spec)
        gains = []
        for xi in xi_grid:
            params = separation_params(spec, xi)
            if fault == "gk-sign":
                # Flip the sign of the xi/(n*p_k) term of the conclusive profile.
                g_sq = (1.0 - xi - xi / (spec.n * spec.probabilities)) / spec.N
                params = replace(params, success_profile=np.sqrt(np.clip(g_sq, 0.0, None)))
            standard, concatenated = build_two_step_measurements(spec, params)
            _check_povm(completeness, spec, standard)
            _check_povm(completeness, spec, concatenated)
            _check_oracle(oracle, spec, standard, xi, me_table)
            _check_oracle(oracle, spec, concatenated, xi, me_table)

            try:
                k_std = knowledge_frio(spec, xi)
                k_conc = knowledge_concatenated(spec, xi)
                k_me = knowledge_me(spec)
            except ValidationError as exc:
                hierarchy.record(False, spec, f"xi={xi}: knowledge failed: {exc}")
                continue
            gains.append(k_conc - k_std)
            # Discarding the failure outcomes coarse-grains the
            # concatenated measurement, hence k_std <= k_conc. Neither is
            # bounded by k_me at xi > 0 (see the module docstring).
            chain_ok = k_std <= k_conc + HIERARCHY_ATOL and k_me <= ceiling + HIERARCHY_ATOL
            hierarchy.record(
                chain_ok,
                spec,
                f"xi={xi}: hierarchy broken "
                f"(frio {k_std!r}, conc {k_conc!r}, me {k_me!r}, ceiling {ceiling!r})",
            )
            total = coherence(spec) + max(k_conc, k_std, k_me)
            hierarchy.record(
                total <= 1.0 + HIERARCHY_ATOL,
                spec,
                f"xi={xi}: duality sum {total!r} exceeds 1",
            )

        # Separation success probability is non-increasing in xi for every
        # scenario; that follows directly from its closed form.
        success_curve = [separation_params(spec, xi).p_success for xi in MONOTONICITY_XI_GRID]
        worst = max(b - a for a, b in zip(success_curve, success_curve[1:]))
        monotonicity.record(
            worst <= 1e-12,
            spec,
            f"success probability increased by {worst:.3e} along the xi grid",
        )
        if not spec.is_uniform and _has_isolated_minimum(spec):
            # The gain k_conc - k_std is p_fail(xi) times the failure
            # branch's information, which does not depend on xi, so it
            # never decreases. Knowledge itself may rise with xi. The
            # check holds for every non-uniform scenario; the selection
            # only fixes how many checks the suite reports.
            worst = max((a - b for a, b in zip(gains, gains[1:])), default=0.0)
            monotonicity.record(
                len(gains) == len(xi_grid) and worst <= MONOTONICITY_ATOL,
                spec,
                f"concatenation gain decreased by {worst:.3e} along the xi grid "
                f"(knowledge failed at {len(xi_grid) - len(gains)} levels)",
            )

        spectrum = dft_distribution(spec)
        total = float(spectrum.sum())
        parseval.record(
            abs(total - 1.0) <= PARSEVAL_ATOL, spec, f"spectrum sums to {total!r}"
        )
        spectrum_support = int((spectrum > 1e-12).sum())
        uncertainty.record(
            spec.n * spectrum_support >= spec.N,
            spec,
            f"support product {spec.n} * {spectrum_support} < {spec.N}",
        )

    return [completeness, oracle, hierarchy, monotonicity, parseval, uncertainty]
