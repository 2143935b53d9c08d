"""The array form of ``verify``: its failure path, the closed forms it shares
per scenario, and how often it calls the per-scenario builders."""

import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

import duality_lab.verify as verify
from duality_lab.duality import (
    coherence,
    holevo_ceiling,
    knowledge_concatenated,
    knowledge_frio,
    knowledge_me,
)
from duality_lab.measurements import conditional_conclusive, conditional_failure
from duality_lab.states import ValidationError
from duality_lab.verify import DEFAULT_XI_GRID, MONOTONICITY_XI_GRID, run_verification

from helpers import iter_specs


def suite(results, name):
    return next(result for result in results if result.name == name)


class TestFailurePath:
    def test_shifted_failure_conditional_is_reported_per_fc_label(self, monkeypatch):
        reference = suite(run_verification(40, seed=0), "oracle-agreement")
        failure_spectrum = verify._failure_spectrum

        def shifted(spec, profile):
            spectrum = failure_spectrum(spec, profile)
            return None if spectrum is None else np.roll(spectrum, 1)

        monkeypatch.setattr(verify, "_failure_spectrum", shifted)
        oracle = suite(run_verification(40, seed=0), "oracle-agreement")
        assert oracle.checks == reference.checks
        assert not oracle.passed
        assert all(
            "frio-concatenated xi=" in v
            and ": conditional fc" in v
            and "deviates from closed form by" in v
            and "| replay spec: {" in v
            for v in oracle.violations
        )
        labels = {v.split(": conditional ")[1].split()[0] for v in oracle.violations}
        assert {"fc0", "fc1"} <= labels


class TestKnowledgeFailure:
    def test_rejected_entropy_input_is_recorded_per_level(self, monkeypatch):
        def rejected(probabilities, n_paths):
            raise ValidationError("rejected")

        monkeypatch.setattr(verify, "_normalized_infos", rejected)
        results = run_verification(30, seed=0)
        hierarchy = suite(results, "hierarchy")
        assert hierarchy.checks == 30 * len(DEFAULT_XI_GRID)
        assert len(hierarchy.violations) == hierarchy.checks
        assert hierarchy.violations[0].startswith("xi=0.0: knowledge failed: rejected | replay")
        gains = [v for v in suite(results, "monotonicity").violations if "gain" in v]
        assert gains and all(
            f"(knowledge failed at {len(DEFAULT_XI_GRID)} levels)" in v for v in gains
        )


class TestPinnedReport:
    def test_report_digest(self):
        # Names, check counts, violation texts and worst gaps of every suite:
        # two faulted runs (small and large path counts) and a clean one.
        # Recorded with Python 3.11.7 and numpy 2.4.6.
        digest = hashlib.sha256()
        for results in (
            run_verification(60, seed=0, fault="gk-sign"),
            run_verification(30, seed=2, n_range=(9, 20), fault="gk-sign"),
            run_verification(200, seed=5),
        ):
            for r in results:
                worst = sorted((k, repr(v)) for k, v in r.worst.items())
                digest.update(json.dumps([r.name, r.checks, r.violations, worst]).encode())
        assert digest.hexdigest() == (
            "26b77282e761b1ea9efadae5f39c3a940804c200ee545bd67b6d3b41c97931c3"
        )


class TestPathCountRange:
    @pytest.mark.parametrize(
        "n_range",
        [(2.5, 4), (2, 4.0), "24", (2, 3, 4), (2,), None, 8, (True, 4), (np.int64(2), 4)],
    )
    def test_anything_but_two_integers_rejected(self, n_range):
        with pytest.raises(ValidationError, match="path-count range"):
            run_verification(1, n_range=n_range)

    @pytest.mark.parametrize("n_range", [(1, 4), (5, 4), (2, 65)])
    def test_out_of_order_or_out_of_bounds_rejected(self, n_range):
        with pytest.raises(ValidationError, match="path-count range"):
            run_verification(1, n_range=n_range)

    def test_list_of_two_integers_runs(self):
        assert [r.checks for r in run_verification(2, n_range=[3, 4])] == [
            r.checks for r in run_verification(2, n_range=(3, 4))
        ]


class TestSharedClosedForms:
    def test_level_grid_starts_at_the_minimum_error_level(self):
        # The closed forms of level 0 serve the minimum-error measurement.
        assert DEFAULT_XI_GRID[0] == 0.0
        assert all(a < b for a, b in zip(DEFAULT_XI_GRID, DEFAULT_XI_GRID[1:]))

    def test_equal_to_the_scalar_functions(self):
        # 560 verify-style scenarios, path counts 2..16, every level.
        specs = [*iter_specs(500, seed=0), *iter_specs(60, seed=1, n_range=(9, 16))]
        for spec in specs:
            forms = verify._closed_forms(spec)
            assert forms.coherence == coherence(spec)
            assert forms.ceiling == holevo_ceiling(spec)
            failure = conditional_failure(spec)
            assert (forms.failure is None) == (failure is None)
            if failure is not None:
                assert np.array_equal(forms.failure, failure)
            for level, xi in enumerate(DEFAULT_XI_GRID):
                assert forms.levels[level].xi == xi
                assert np.array_equal(forms.conclusive[level], conditional_conclusive(spec, xi))
                assert forms.standard[level] == knowledge_frio(spec, xi)
                assert forms.concatenated[level] == knowledge_concatenated(spec, xi)
            assert forms.standard[0] == knowledge_me(spec)


class TestWorstGaps:
    def test_nan_gap_sticks_after_a_finite_one(self):
        result = verify.SuiteResult("s")
        result.margin("ORACLE_ATOL", [1e-12, 2e-12])
        result.margin("ORACLE_ATOL", [np.nan])
        result.margin("ORACLE_ATOL", [3e-12])
        assert np.isnan(result.worst["ORACLE_ATOL"])


class TestLargePathCounts:
    def test_n64_scenario_peak_memory(self):
        # One N = 64 scenario: its measurements hold 1,029 matrices of
        # 64 x 64 (67 MB), so they must not all be stacked at once.
        tracemalloc.start()
        try:
            results = run_verification(1, seed=0, n_range=(64, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(result.passed for result in results)
        assert peak < 48 * 2**20


class TestCallBudget:
    def count_calls(self, monkeypatch, name, module_name):
        """Count calls to a function through every package binding of it."""
        original = getattr(sys.modules[f"duality_lab.{module_name}"], name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("duality_lab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    def test_per_scenario_work_is_not_repeated_per_label(self, monkeypatch):
        symmetric = self.count_calls(monkeypatch, "build_symmetric_set", "states")
        separation = self.count_calls(monkeypatch, "separation_params", "measurements")
        samples = 20
        run_verification(samples)
        assert symmetric[0] == samples
        budget = len(DEFAULT_XI_GRID) + len(MONOTONICITY_XI_GRID) + 1
        assert separation[0] <= budget * samples
