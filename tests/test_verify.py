"""The block form of ``verify``: its failure paths, the closed forms it
computes per (N, n) group, its chunks and element stacks, and that it calls
none of the per-scenario builders."""

import hashlib
import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import duality_lab.duality as duality
import duality_lab.verify as verify
from duality_lab.duality import (
    coherence,
    holevo_ceiling,
    knowledge_concatenated,
    knowledge_frio,
    knowledge_me,
)
from duality_lab.measurements import (
    MIN_COEFF_CLAMP_ATOL,
    build_me_measurement,
    build_two_step_measurements,
    conditional_conclusive,
    conditional_failure,
    separation_params,
)
from duality_lab.states import (
    BLOCK_ROWS,
    ValidationError,
    _profile_states,
    build_symmetric_set,
    spec_from_json_dict,
    spec_from_probabilities,
    uniform_spec,
)
from duality_lab.verify import DEFAULT_XI_GRID, run_verification

from helpers import draw_replay, draw_spec, iter_specs


def suite(results, name):
    return next(result for result in results if result.name == name)


class TestFailurePath:
    def test_shifted_failure_conditional_is_reported_per_fc_label(self, monkeypatch):
        reference = suite(run_verification(40, seed=0), "oracle-agreement")
        failure_spectra = duality._failure_spectra

        def shifted(*args):
            live, spectra = failure_spectra(*args)
            return live, np.roll(spectra, 1, axis=-1)

        monkeypatch.setattr(duality, "_failure_spectra", shifted)
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
        def rejected(*args):
            raise ValidationError("rejected")

        monkeypatch.setattr(verify, "_knowledge_table", rejected)
        results = run_verification(30, seed=0)
        hierarchy = suite(results, "hierarchy")
        assert hierarchy.checks == 30 * len(DEFAULT_XI_GRID)
        assert len(hierarchy.violations) == hierarchy.checks
        assert hierarchy.violations[0].startswith("xi=0.0: knowledge failed: rejected | replay")
        gains = [v for v in suite(results, "monotonicity").violations if "gain" in v]
        assert gains and all(
            f"(knowledge failed at {len(DEFAULT_XI_GRID)} levels)" in v for v in gains
        )

    def test_only_the_rejected_scenario_fails(self, monkeypatch):
        # The entropy input of one scenario's conclusive rows is rejected:
        # its group is computed again row by row, so only that scenario's
        # five hierarchy checks and its gain check fail.
        specs = list(iter_specs(30, seed=0))
        target = next(
            i
            for i, spec in enumerate(specs)
            if spec.n >= 2
            and not spec.is_uniform
            and sum(other.N == spec.N and other.n == spec.n for other in specs) >= 3
            and np.diff(np.sort(spec.probabilities)[:2])[0] >= 0.05 * spec.min_probability
        )
        rejected_row = conditional_conclusive(specs[target], 0.0)
        normalized_infos = duality._normalized_infos

        def rejecting(probabilities, n_paths):
            rows = np.asarray(probabilities)
            if rows.shape[-1] == rejected_row.size and (rows == rejected_row).all(axis=-1).any():
                raise ValidationError("rejected")
            return normalized_infos(probabilities, n_paths)

        reference = run_verification(30, seed=0)
        monkeypatch.setattr(duality, "_normalized_infos", rejecting)
        results = run_verification(30, seed=0)
        replay = draw_replay(0, target)
        hierarchy = suite(results, "hierarchy")
        assert hierarchy.checks == suite(reference, "hierarchy").checks - len(DEFAULT_XI_GRID)
        assert hierarchy.violations == [
            f"xi={xi}: knowledge failed: rejected | replay spec: {replay}" for xi in DEFAULT_XI_GRID
        ]
        monotonicity = suite(results, "monotonicity")
        assert monotonicity.checks == suite(reference, "monotonicity").checks
        assert monotonicity.violations == [
            "concatenation gain decreased by 0.000e+00 along the xi grid "
            f"(knowledge failed at {len(DEFAULT_XI_GRID)} levels) | replay spec: {replay}"
        ]
        for before, after in zip(reference, results):
            if after.name not in ("hierarchy", "monotonicity"):
                assert (after.checks, after.violations, after.worst) == (
                    before.checks,
                    before.violations,
                    before.worst,
                )

    def test_only_the_rejected_failure_branch_fails(self, monkeypatch):
        # One scenario's failure conditional is rejected: the group's failure
        # branch is taken again row by row, so only that scenario's five
        # hierarchy checks and its gain check fail, with the message of the
        # rejected input.
        specs = list(iter_specs(30, seed=0))
        target = next(
            i
            for i, spec in enumerate(specs)
            if conditional_failure(spec) is not None
            and sum(other.N == spec.N and other.n == spec.n for other in specs) >= 3
            and np.diff(np.sort(spec.probabilities)[:2])[0] >= 0.05 * spec.min_probability
        )
        rejected_row = conditional_failure(specs[target])
        normalized_infos = verify._normalized_infos

        def rejecting(probabilities, n_paths):
            rows = np.asarray(probabilities)
            if rows.shape[-1] == rejected_row.size and (rows == rejected_row).all(axis=-1).any():
                raise ValidationError("rejected failure")
            return normalized_infos(probabilities, n_paths)

        reference = run_verification(30, seed=0)
        monkeypatch.setattr(verify, "_normalized_infos", rejecting)
        results = run_verification(30, seed=0)
        replay = draw_replay(0, target)
        hierarchy = suite(results, "hierarchy")
        assert hierarchy.checks == suite(reference, "hierarchy").checks - len(DEFAULT_XI_GRID)
        assert hierarchy.violations == [
            f"xi={xi}: knowledge failed: rejected failure | replay spec: {replay}"
            for xi in DEFAULT_XI_GRID
        ]
        monotonicity = suite(results, "monotonicity")
        assert monotonicity.checks == suite(reference, "monotonicity").checks
        assert monotonicity.violations == [
            "concatenation gain decreased by 0.000e+00 along the xi grid "
            f"(knowledge failed at {len(DEFAULT_XI_GRID)} levels) | replay spec: {replay}"
        ]


def assert_reported(result, expected, seed=0, n_range=(2, 3)):
    """``result``'s violations are the ``(index, text)`` pairs of ``expected``,
    in order, each carrying a replay of the scenario of its index."""
    reported = [violation.split(" | replay spec: ") for violation in result.violations]
    assert [detail for detail, _ in reported] == [text for _, text in expected]
    for (_, replay), (index, _) in zip(reported, expected):
        replayed, drawn = spec_from_json_dict(json.loads(replay)), draw_spec(seed, index, n_range)
        assert (replayed.N, replayed.support) == (drawn.N, drawn.support)
        np.testing.assert_allclose(replayed.coeffs, drawn.coeffs, rtol=1e-15, atol=0)


class TestViolationKinds:
    """Each violation kind that the pinned runs do not produce, forced by
    corrupting one input of ``verify`` in a run of six scenarios: indices
    0..2 are N = n = 3, index 3 is N = 3 and n = 2, index 4 is N = n = 2
    and index 5 is N = 2 and n = 1. Texts are exact and in report order:
    scenario index first, then the suite's measurement and check order."""

    SAMPLES, SEED, N_RANGE = 6, 0, (2, 3)

    def run(self, name):
        return suite(run_verification(self.SAMPLES, self.SEED, self.N_RANGE), name)

    def specs(self):
        return list(iter_specs(self.SAMPLES, self.SEED, self.N_RANGE))

    def test_non_hermitian_and_not_psd_elements(self, monkeypatch):
        povm_gaps = verify._povm_gaps

        def corrupted(*args):
            hermitian, smallest, completeness = povm_gaps(*args)
            hermitian[:, 1] = 1.0  # frio-standard xi=0.0
            hermitian[:, 4] = 0.5  # frio-concatenated xi=0.25
            smallest[:, 4] = -0.25
            return hermitian, smallest, completeness

        monkeypatch.setattr(verify, "_povm_gaps", corrupted)
        result = self.run("povm-completeness")
        assert result.checks == 33 * self.SAMPLES
        per_scenario = [
            "frio-standard xi=0.0: non-Hermitian element (gap 1.000e+00)",
            "frio-concatenated xi=0.25: non-Hermitian element (gap 5.000e-01)",
            "frio-concatenated xi=0.25: element not PSD (min eigenvalue -2.500e-01)",
        ]
        assert_reported(result, [(i, text) for i in range(self.SAMPLES) for text in per_scenario])

    def test_hierarchy_broken_and_duality_sum_exceeded(self, monkeypatch):
        table = verify._knowledge_table

        def corrupted(*args):
            standard, concatenated = map(np.array, table(*args))
            standard[:, 1], concatenated[:, 1] = 2.0, 1.0
            standard[:, 3] = concatenated[:, 3] = 1.5
            return standard, concatenated

        monkeypatch.setattr(verify, "_knowledge_table", corrupted)
        result = self.run("hierarchy")
        assert result.checks == 10 * self.SAMPLES
        expected = []
        for i, spec in enumerate(self.specs()):
            me, ceiling, coh = knowledge_me(spec), holevo_ceiling(spec), coherence(spec)
            chain = f"frio 2.0, conc 1.0, me {me!r}, ceiling {ceiling!r}"
            expected += [
                (i, f"xi=0.25: hierarchy broken ({chain})"),
                (i, f"xi=0.25: duality sum {coh + 2.0!r} exceeds 1"),
                (i, f"xi=0.75: duality sum {coh + 1.5!r} exceeds 1"),
            ]
        assert_reported(result, expected)

    def test_success_probability_increased_before_gain_decreased(self, monkeypatch):
        success, table = verify._success, verify._knowledge_table

        def rising(probs, xi, n_paths):
            profile, curve = success(probs, xi, n_paths)
            curve = np.zeros_like(curve)
            curve[:, 4] = 0.5
            return profile, curve

        def dropping(*args):
            standard, concatenated = map(np.zeros_like, table(*args))
            concatenated[:] = [0.0, 0.5, 0.25, 0.25, 0.25]
            return standard, concatenated

        monkeypatch.setattr(verify, "_success", rising)
        monkeypatch.setattr(verify, "_knowledge_table", dropping)
        result = self.run("monotonicity")
        # Scenarios 1..4 have a failure branch and a clearly unique minimum
        # coefficient, so their gain is checked.
        gain_checked = (1, 2, 3, 4)
        assert result.checks == self.SAMPLES + len(gain_checked)
        expected = []
        for i in range(self.SAMPLES):
            expected.append((i, "success probability increased by 5.000e-01 along the xi grid"))
            if i in gain_checked:
                expected.append(
                    (i, "concatenation gain decreased by 2.500e-01 along the xi grid "
                        "(knowledge failed at 0 levels)")
                )  # fmt: skip
        assert_reported(result, expected)

    def test_spectrum_sum_and_support_product(self, monkeypatch):
        def corrupted(n_paths, indices, amps):
            spectra = np.zeros((len(amps), n_paths))
            spectra[:, 0] = 0.5
            return spectra

        monkeypatch.setattr(verify, "_dft", corrupted)
        results = run_verification(self.SAMPLES, self.SEED, self.N_RANGE)
        parseval, uncertainty = suite(results, "parseval"), suite(results, "donoho-stark")
        assert parseval.checks == uncertainty.checks == self.SAMPLES
        assert_reported(parseval, [(i, "spectrum sums to 0.5") for i in range(self.SAMPLES)])
        assert_reported(
            uncertainty, [(3, "support product 2 * 1 < 3"), (5, "support product 1 * 1 < 2")]
        )

    def corrupt_oracle(self, monkeypatch, corrupt):
        """Run with ``corrupt(probs, conditionals, n_paths)`` applied to each
        oracle call's copied arrays, every scenario's measurements in one
        call: the minimum-error ``c0..c{N-1}`` first, then per level its
        standard ``c0..c{N-1}, f`` and concatenated ``c0..c{N-1},
        fc0..fc{N-1}``."""
        oracle_arrays = verify.oracle_arrays

        def corrupted(states, elements):
            arrays = oracle_arrays(states, elements)
            probs, conditionals = arrays.probs.copy(), arrays.conditionals.copy()
            corrupt(probs, conditionals, conditionals.shape[-1])
            return replace(arrays, probs=probs, conditionals=conditionals)

        monkeypatch.setattr(verify, "oracle_arrays", corrupted)
        return self.run("oracle-agreement")

    @staticmethod
    def level(n_paths, level):
        """Position of a level's first outcome."""
        return n_paths + level * (3 * n_paths + 1)

    def test_f_and_fc_outcome_probabilities(self, monkeypatch):
        # At xi = 0.5 each c outcome gets 0.25 and the failure outcomes the
        # rest, so the totals stay 1 and the outcome probabilities differ.
        def corrupt(probs, conditionals, n_paths):
            lo = self.level(n_paths, 2)
            probs[:, lo : lo + n_paths] = probs[:, lo + n_paths + 1 : lo + 2 * n_paths + 1] = 0.25
            probs[:, lo + n_paths] = 1.0 - 0.25 * n_paths
            probs[:, lo + 2 * n_paths + 1 : lo + 3 * n_paths + 1] = (1.0 - 0.25 * n_paths) / n_paths

        result = self.corrupt_oracle(monkeypatch, corrupt)
        expected = []
        for i, spec in enumerate(self.specs()):
            p_success = separation_params(spec, 0.5).p_success
            p_fail, failed = 1.0 - p_success, 1.0 - 0.25 * spec.N
            conclusive = [
                f"c{j} prob 0.25 != closed form {p_success / spec.N!r}" for j in range(spec.N)
            ]
            failure = [
                f"fc{j} prob {failed / spec.N!r} != closed form {p_fail / spec.N!r}"
                for j in range(spec.N)
            ]
            standard = [*conclusive, f"f prob {failed!r} != closed form {p_fail!r}"]
            expected += [(i, f"frio-standard xi=0.5: outcome {text}") for text in standard]
            expected += [
                (i, f"frio-concatenated xi=0.5: outcome {text}") for text in conclusive + failure
            ]
        assert_reported(result, expected)

    def test_conditional_sums(self, monkeypatch):
        # At xi = 0.25 every c conditional of the concatenated measurement is
        # the same constant row: it deviates and sums wrong, but the c
        # conditionals stay cyclic shifts of each other.
        def corrupt(probs, conditionals, n_paths):
            lo = self.level(n_paths, 1) + n_paths + 1
            conditionals[:, lo : lo + n_paths] = 0.75

        result = self.corrupt_oracle(monkeypatch, corrupt)
        expected = []
        for i, spec in enumerate(self.specs()):
            deviation = np.abs(0.75 - conditional_conclusive(spec, 0.25)).max()
            for j in range(spec.N):
                expected += [
                    (i, f"frio-concatenated xi=0.25: conditional c{j} deviates from closed form "
                        f"by {deviation:.3e}"),
                    (i, f"frio-concatenated xi=0.25: conditional c{j} sums to {0.75 * spec.N!r}"),
                ]  # fmt: skip
        assert_reported(result, expected)

    def test_cyclic_shift_relation(self, monkeypatch):
        # Within tolerance of the closed form, but not a cyclic shift of c0.
        def corrupt(probs, conditionals, n_paths):
            c1 = self.level(n_paths, 3) + n_paths + 2
            conditionals[:, c1, 0] += 5e-11
            conditionals[:, c1, 1] -= 5e-11

        result = self.corrupt_oracle(monkeypatch, corrupt)
        text = "frio-concatenated xi=0.75: cyclic-shift relation off by 5.000e-11 for kind 'c'"
        assert_reported(result, [(i, text) for i in range(self.SAMPLES)])

    def test_xi0_table_differs(self, monkeypatch):
        def corrupt(probs, conditionals, n_paths):
            probs[:, 0] += 1e-6
            conditionals[:, 0] += 1e-6

        result = self.corrupt_oracle(monkeypatch, corrupt)
        expected = [
            (i, f"{m}: xi=0 table differs from minimum-error table at c0 "
                "(cond 1.000e-06, prob 1.000e-06)")
            for i in range(self.SAMPLES)
            for m in ("frio-standard", "frio-concatenated")
        ]  # fmt: skip
        assert_reported(result, expected)


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
            "69ab38713a503fd7974849a021f9286ba659d71a0944344b3bfd43b10fdc68f7"
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
        # 560 verify-style scenarios, path counts 2..16, every level, one
        # group per (N, n).
        specs = [*iter_specs(500, seed=0), *iter_specs(60, seed=1, n_range=(9, 16))]
        groups = {}
        for spec in specs:
            groups.setdefault((spec.N, spec.n), []).append(spec)
        for group in groups.values():
            assert_rows_are_the_scalar_functions(group)

    def test_edge_rows_in_one_group(self):
        # A uniform row (no failure branch), a non-uniform row whose failure
        # profile is clamped to zero everywhere, and generic rows.
        clamped = spec_from_probabilities(6, (1, 2), (0.5 - 6e-13, 0.5 + 6e-13))
        assert not clamped.is_uniform
        assert np.ptp(clamped.amplitudes) <= MIN_COEFF_CLAMP_ATOL
        assert conditional_failure(clamped) is None
        group = [
            spec_from_probabilities(6, (0, 1), (0.2, 0.8)),
            uniform_spec(6, (0, 3)),
            clamped,
            spec_from_probabilities(6, (2, 5), (0.9, 0.1)),
            spec_from_probabilities(6, (1, 4), (0.45, 0.55)),
        ]
        forms = assert_rows_are_the_scalar_functions(group)
        assert forms.branch.tolist() == [True, False, True, True, True]
        assert forms.live.tolist() == [True, False, False, True, True]


class TestFrame:
    @pytest.mark.parametrize("fault", [None, "gk-sign"])
    def test_checked_blocks_are_the_public_elements_on_the_support(self, fault):
        # verify checks the states and each POVM element as their support
        # blocks. Off the support the public builders' states and elements
        # are exactly zero (of either sign). On it, the states and every
        # rank-1 element equal the checked blocks bit for bit; the standard
        # measurement's f, a sum of N rank-1 elements reduced in another
        # shape, agrees within 2e-15.
        groups = {}
        for spec in [
            *iter_specs(200, seed=3, n_range=(2, 6)),
            *iter_specs(10, seed=3, n_range=(7, 64)),
            *iter_specs(2, seed=3, n_range=(64, 64)),
        ]:
            groups.setdefault((spec.N, spec.n), []).append(spec)
        for (n_paths, n), specs in groups.items():
            indices = np.array([spec.support.indices for spec in specs])
            amps = np.array([spec.coeffs for spec in specs])
            forms = verify._group_forms(n_paths, indices, amps)
            profiles = verify._gk_sign(amps**2, n_paths) if fault else forms.profiles
            off = np.ones((len(specs), n_paths), dtype=bool)
            off[np.arange(len(specs))[:, None], indices] = False
            outside = off[:, :, None] | off[:, None, :]
            states = _profile_states(n_paths, indices, 1.0, amps)
            for g, spec in enumerate(specs):
                public = build_symmetric_set(spec)
                assert not public[:, off[g]].any()
                assert public[:, indices[g]].tobytes() == states[g].tobytes()
            public = [
                public_elements(spec, profiles[g] if fault else None)
                for g, spec in enumerate(specs)
            ]
            blocks = verify._measurements(n_paths, indices, forms, profiles, slice(None), 1)
            for m, (checked, *expected) in enumerate(zip(blocks, *public)):
                for g, elements in enumerate(expected):
                    assert not elements[:, outside[g]].any()
                    support = elements[:, indices[g][:, None], indices[g]]
                    if m % 2:  # a standard measurement: c0..c{N-1}, f
                        assert support[:-1].tobytes() == checked[g][:-1].tobytes()
                        assert np.abs(support[-1] - checked[g][-1]).max() <= 2e-15
                    else:
                        assert support.tobytes() == checked[g].tobytes()
            assert m == 2 * len(DEFAULT_XI_GRID)


def public_elements(spec, profiles=None):
    """The element arrays of one scenario's measurements from the public
    builders, in report order; ``profiles`` replaces each level's success
    profile."""
    yield build_me_measurement(spec).elements
    for level, xi in enumerate(DEFAULT_XI_GRID):
        params = separation_params(spec, xi)
        if profiles is not None:
            params = replace(params, success_profile=profiles[level])
        for measurement in build_two_step_measurements(spec, params):
            yield measurement.elements


def assert_rows_are_the_scalar_functions(specs):
    """verify's closed forms of scenarios that share N and n, computed as one
    group, equal the scalar functions row by row, bit for bit."""
    indices = np.array([spec.support.indices for spec in specs])
    amps = np.array([spec.coeffs for spec in specs])
    forms = verify._group_forms(specs[0].N, indices, amps)
    assert forms.errors == {}
    for g, spec in enumerate(specs):
        assert forms.coherence[g] == coherence(spec)
        assert forms.ceiling[g] == holevo_ceiling(spec)
        failure = conditional_failure(spec)
        assert forms.live[g] == (failure is not None)
        if failure is not None:
            assert np.array_equal(forms.failure[g], failure)
        for level, xi in enumerate(DEFAULT_XI_GRID):
            params = separation_params(spec, xi)
            assert forms.p_success[g, level] == params.p_success
            assert np.array_equal(forms.profiles[g, level], params.success_profile)
            assert np.array_equal(forms.conclusive[g, level], conditional_conclusive(spec, xi))
            assert forms.standard[g, level] == knowledge_frio(spec, xi)
            assert forms.concatenated[g, level] == knowledge_concatenated(spec, xi)
        assert forms.standard[g, 0] == knowledge_me(spec)
        assert forms.branch[g] == (params.failure_profile is not None)
        if params.failure_profile is not None:
            assert np.array_equal(forms.failure_profile[g], params.failure_profile)
    return forms


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
    def count_calls(self, monkeypatch, module, name):
        """Count calls to a function through its module and every package
        binding of it."""
        original = getattr(module, name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        for module_name, bound in list(sys.modules.items()):
            if module_name.startswith("duality_lab") and getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, counted)
        return calls

    def count_batches(self, monkeypatch):
        """Count ``oracle_arrays`` and ``eigvalsh`` calls."""
        measurements = sys.modules["duality_lab.measurements"]
        oracle = self.count_calls(monkeypatch, measurements, "oracle_arrays")
        return oracle, self.count_calls(monkeypatch, np.linalg, "eigvalsh")

    def test_per_scenario_work_is_not_repeated_per_label(self, monkeypatch):
        # verify works on blocks: none of the one-scenario draws, builders
        # and formulas runs, and each element stack takes one oracle and one
        # eigvalsh call.
        per_scenario = {
            name: self.count_calls(monkeypatch, sys.modules[f"duality_lab.{module}"], name)
            for module, name in (
                ("ensemble", "sample_spec"),
                ("states", "spec_from_probabilities"),
                ("states", "build_symmetric_set"),
                ("measurements", "separation_params"),
                ("measurements", "build_me_measurement"),
                ("measurements", "build_two_step_measurements"),
                ("measurements", "conditional_conclusive"),
                ("measurements", "conditional_failure"),
                ("duality", "coherence"),
                ("duality", "shannon_entropy"),
                ("saturation", "dft_distribution"),
            )
        }
        oracle, eigvalsh = self.count_batches(monkeypatch)
        samples = 60
        run_verification(samples)
        assert {name: calls[0] for name, calls in per_scenario.items()} == dict.fromkeys(
            per_scenario, 0
        )
        stacks = 0
        for (n_paths, n), count in Counter((s.N, s.n) for s in iter_specs(samples, 0)).items():
            size = (n_paths + len(DEFAULT_XI_GRID) * (3 * n_paths + 1)) * (n**2 + 3 * n_paths)
            stacks += -(-count // (verify.STACK_ENTRIES // size))
        assert oracle[0] == eigvalsh[0] == stacks < samples

    def test_one_eigvalsh_per_batch_at_large_path_counts(self, monkeypatch):
        # Past the cap a scenario's measurements go in several batches, each
        # with one eigvalsh and one oracle call.
        oracle, eigvalsh = self.count_batches(monkeypatch)
        run_verification(40, seed=0, n_range=(9, 24))
        assert oracle[0] == eigvalsh[0] == 175

    def test_replays_are_the_checked_rows(self, monkeypatch):
        # A failing scenario's replay is built from the block row its checks
        # ran on, so a faulted run draws nothing a second time, and each
        # replay is the scenario that draw_spec builds for its index. The
        # one sample_rng call is the chunk's generator in
        # ensemble._chunk_draws: its seeding is checked, then it draws the
        # chunk's first scenario to check the emulation against.
        ensemble = sys.modules["duality_lab.ensemble"]
        draws = [self.count_calls(monkeypatch, ensemble, n) for n in ("sample_rng", "sample_spec")]
        samples = 60
        results = run_verification(samples, seed=0, fault="gk-sign")
        assert [calls[0] for calls in draws] == [1, 0]
        monkeypatch.undo()
        # A replay holds the probabilities the scenario was built from, so it
        # reads back as that scenario exactly. Violations come in index
        # order, so each is matched with the first scenario from the last
        # match on.
        scenarios = [draw_spec(0, index, (2, 8)) for index in range(samples)]
        replayed = set()
        for result in results:
            index = 0
            for violation in result.violations:
                replay = spec_from_json_dict(json.loads(violation.split(" | replay spec: ")[1]))
                index = next((i for i in range(index, samples) if scenarios[i] == replay), None)
                assert index is not None
                replayed.add(index)
        # Under the fault every scenario fails and is replayed.
        assert replayed == set(range(samples))


class TestChunks:
    @pytest.mark.parametrize(
        "seed, n_range, start, stop",
        [
            (0, (2, 8), 0, 200),
            (3, (2, 64), BLOCK_ROWS - 6, BLOCK_ROWS + 4),
            (2**64 + 12345, (2, 64), 0, 60),
            (2**200 + 1, (9, 24), BLOCK_ROWS - 6, BLOCK_ROWS + 4),
        ],
        ids=["n2to8", "n2to64-across-block-rows", "seed-2^64", "seed-2^200-across-block-rows"],
    )
    def test_groups_are_the_scalar_draws(self, seed, n_range, start, stop):
        # A chunk's blocks hold, row by row and in index order within each
        # (N, n) group, the scenarios that draw_spec builds one at a time:
        # the same indices and amplitudes, bit for bit.
        chunk = verify._Chunk(seed, n_range, start, stop)
        keys = [(block.N, block.n) for _, block, _ in chunk.groups]
        assert keys == sorted(set(keys))
        drawn = np.concatenate([rows for rows, _, _ in chunk.groups])
        assert sorted(drawn.tolist()) == list(range(stop - start))
        for rows, block, _ in chunk.groups:
            assert (np.diff(rows) > 0).all()
            for row, indices, amps in zip(rows.tolist(), block.indices, block.amps):
                spec = draw_spec(seed, start + row, n_range)
                assert (spec.N, spec.n) == (block.N, block.n)
                assert indices.tolist() == list(spec.support.indices)
                assert amps.tobytes() == np.array(spec.coeffs).tobytes()

    def test_counts_and_memory_across_a_chunk_boundary(self):
        # Three scenarios past one chunk: the counts fixed per scenario, and
        # a peak that does not grow with the sample count. The margin over a
        # 300-scenario run covers a full chunk's arrays, the closed forms of
        # groups of about 800 rows, and element stacks filled to the cap.
        # An unmeasured run first takes numpy's one-time allocations, which
        # would otherwise fall in the first peak when the test runs alone.
        run_verification(3, seed=4, n_range=(2, 3))

        def peak(samples):
            tracemalloc.start()
            try:
                results = run_verification(samples, seed=4, n_range=(2, 3))
                return results, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        samples = BLOCK_ROWS + 3
        results, large = peak(samples)
        counts = {result.name: result.checks for result in results}
        assert counts["povm-completeness"] == 33 * samples
        assert counts["hierarchy"] == 10 * samples
        assert counts["parseval"] == counts["donoho-stark"] == samples
        assert all(result.passed for result in results)
        assert large <= peak(300)[1] + 3 * 2**19
