import math
import sys

import numpy as np
import pytest
from hypothesis import given

from duality_lab.duality import knowledge_concatenated, knowledge_frio, knowledge_me
from duality_lab.measurements import (
    MAX_POVM_PATHS,
    Strategy,
    build_frio_concatenated,
    build_frio_standard,
    build_me_measurement,
    conditional_conclusive,
    conditional_failure,
    measurement_to_json_dict,
    oracle_outcome_table,
    separation_params,
)
from duality_lab.states import (
    ValidationError,
    build_symmetric_set,
    spec_from_probabilities,
    uniform_spec,
)
from duality_lab.verify import SuiteResult, _check_povm, run_verification

from helpers import detector_specs, iter_specs, separation_levels


def support_projector(spec):
    projector = np.zeros((spec.N, spec.N), dtype=complex)
    idx = list(spec.support.indices)
    projector[idx, idx] = 1.0
    return projector


def element_stack(measurement):
    return np.stack([matrix for _, matrix in measurement.elements])


class TestSeparationParams:
    @given(detector_specs())
    def test_zero_level_always_succeeds(self, spec):
        params = separation_params(spec, 0.0)
        assert params.p_success == pytest.approx(1.0, abs=1e-12)
        assert params.p_fail == pytest.approx(0.0, abs=1e-12)

    def test_full_separation_of_independent_states(self):
        spec = spec_from_probabilities(4, (0, 1, 2, 3), (0.4, 0.3, 0.2, 0.1))
        params = separation_params(spec, 1.0)
        assert params.p_success == pytest.approx(4 * 0.1, abs=1e-12)

    @given(detector_specs(uniform=True), separation_levels)
    def test_uniform_coefficients_have_no_failure_branch(self, spec, xi):
        params = separation_params(spec, xi)
        assert params.p_success == 1.0
        assert params.p_fail == 0.0
        assert params.failure_profile is None

    def test_profile_formulas(self):
        spec = spec_from_probabilities(5, (0, 3, 4), (0.5, 0.3, 0.2))
        xi = 0.4
        params = separation_params(spec, xi)
        probs = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(
            params.success_profile**2, (1 - xi + xi / (3 * probs)) / 5, atol=1e-14
        )
        np.testing.assert_allclose(
            params.failure_profile**2,
            (probs - 0.2) / ((1 - 3 * 0.2) * 5 * probs),
            atol=1e-14,
        )
        assert params.failure_profile[2] == 0.0

    @pytest.mark.parametrize("xi", [-0.1, 1.5, math.nan])
    def test_level_out_of_range(self, xi):
        with pytest.raises(ValidationError):
            separation_params(uniform_spec(3, (0, 1)), xi)


class TestMinimumErrorMeasurement:
    def test_two_path_projective(self):
        measurement = build_me_measurement(uniform_spec(2, (0, 1)))
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        np.testing.assert_allclose(measurement.element("c0"), np.outer(plus, plus), atol=1e-12)
        np.testing.assert_allclose(measurement.element("c1"), np.outer(minus, minus), atol=1e-12)

    def test_six_path_two_dimensional_elements(self):
        spec = uniform_spec(6, (0, 3))
        measurement = build_me_measurement(spec)
        assert measurement.labels() == tuple(f"c{j}" for j in range(6))
        stack = element_stack(measurement)
        for matrix in stack:
            eigenvalues = np.linalg.eigvalsh(matrix)
            assert eigenvalues[-1] == pytest.approx(2 / 6, abs=1e-12)
            assert np.abs(eigenvalues[:-1]).max() < 1e-12
        np.testing.assert_allclose(stack.sum(axis=0), support_projector(spec), atol=1e-10)

    def test_one_dimensional_support(self):
        measurement = build_me_measurement(uniform_spec(5, (2,)))
        expected = np.zeros((5, 5), dtype=complex)
        expected[2, 2] = 1 / 5
        for label, matrix in measurement.elements:
            np.testing.assert_allclose(matrix, expected, atol=1e-13)


class TestStandardMeasurement:
    @given(detector_specs())
    def test_zero_level_reduces_to_minimum_error(self, spec):
        standard = build_frio_standard(spec, 0.0)
        me = build_me_measurement(spec)
        assert np.abs(standard.element("f")).max() == 0.0
        for j in range(spec.N):
            gap = np.abs(standard.element(f"c{j}") - me.element(f"c{j}")).max()
            assert gap < 1e-12

    @given(detector_specs(uniform=True), separation_levels)
    def test_uniform_coefficients_pin_the_measurement(self, spec, xi):
        standard = build_frio_standard(spec, xi)
        me = build_me_measurement(spec)
        assert np.abs(standard.element("f")).max() == 0.0
        for j in range(spec.N):
            assert np.abs(standard.element(f"c{j}") - me.element(f"c{j}")).max() < 1e-12

    def test_two_path_full_separation_failure_rate(self):
        spec = spec_from_probabilities(2, (0, 1), (0.8, 0.2))
        measurement = build_frio_standard(spec, 1.0)
        table = oracle_outcome_table(build_symmetric_set(spec), measurement)
        assert table.outcome_probs["f"] == pytest.approx(1 - 2 * 0.2, abs=1e-12)

    @given(detector_specs(), separation_levels)
    def test_completeness_and_positivity(self, spec, xi):
        stack = element_stack(build_frio_standard(spec, xi))
        assert np.linalg.eigvalsh(stack).min() > -1e-10
        assert np.abs(stack.sum(axis=0) - support_projector(spec)).max() < 1e-10


class TestConcatenatedMeasurement:
    @given(detector_specs())
    def test_zero_level_failure_elements_vanish(self, spec):
        measurement = build_frio_concatenated(spec, 0.0)
        me = build_me_measurement(spec)
        for j in range(spec.N):
            assert np.abs(measurement.element(f"fc{j}")).max() < 1e-15
            assert np.abs(measurement.element(f"c{j}") - me.element(f"c{j}")).max() < 1e-12

    @given(separation_levels)
    def test_uniform_spec_equals_minimum_error(self, xi):
        spec = uniform_spec(6, (0, 3))
        measurement = build_frio_concatenated(spec, xi)
        me = build_me_measurement(spec)
        for j in range(6):
            assert np.abs(measurement.element(f"c{j}") - me.element(f"c{j}")).max() < 1e-12
            assert np.abs(measurement.element(f"fc{j}")).max() == 0.0

    def test_three_path_completeness(self):
        spec = spec_from_probabilities(3, (0, 1, 2), (0.6, 0.2, 0.2))
        stack = element_stack(build_frio_concatenated(spec, 0.5))
        assert np.abs(stack.sum(axis=0) - support_projector(spec)).max() < 1e-10

    @given(detector_specs(), separation_levels)
    def test_failure_block_matches_standard_inconclusive(self, spec, xi):
        standard = build_frio_standard(spec, xi)
        concatenated = build_frio_concatenated(spec, xi)
        failure_sum = sum(
            concatenated.element(f"fc{j}") for j in range(spec.N)
        )
        assert np.abs(failure_sum - standard.element("f")).max() < 1e-10


class TestClosedFormConditionals:
    def test_six_path_equally_spaced(self):
        spec = uniform_spec(6, (0, 3))
        expected = np.array([1, 0, 1, 0, 1, 0]) / 3
        np.testing.assert_allclose(conditional_conclusive(spec, 0.0), expected, atol=1e-12)

    def test_six_path_adjacent(self):
        spec = uniform_spec(6, (0, 1))
        expected = np.array([1 / 3, 1 / 4, 1 / 12, 0, 1 / 12, 1 / 4])
        np.testing.assert_allclose(conditional_conclusive(spec, 0.0), expected, atol=1e-12)

    def test_full_separation_of_independent_states_is_unambiguous(self):
        spec = spec_from_probabilities(4, (0, 1, 2, 3), (0.4, 0.3, 0.2, 0.1))
        conditional = conditional_conclusive(spec, 1.0)
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(conditional, expected, atol=1e-10)

    @given(detector_specs(), separation_levels)
    def test_normalization(self, spec, xi):
        assert conditional_conclusive(spec, xi).sum() == pytest.approx(1.0, abs=1e-10)

    def test_failure_branch_absent_for_uniform(self):
        assert conditional_failure(uniform_spec(6, (0, 2))) is None

    def test_single_failure_direction_gives_uniform_guess(self):
        spec = spec_from_probabilities(3, (0, 1, 2), (0.6, 0.2, 0.2))
        np.testing.assert_allclose(conditional_failure(spec), np.full(3, 1 / 3), atol=1e-12)

    def test_failure_conditional_normalization(self):
        spec = spec_from_probabilities(4, (0, 1, 2, 3), (0.4, 0.3, 0.2, 0.1))
        assert conditional_failure(spec).sum() == pytest.approx(1.0, abs=1e-10)

    def test_failure_branch_absent_when_the_clamp_zeroes_every_entry(self):
        # 1 - n*p_min = 1.4e-12 leaves a failure branch, but both amplitudes
        # lie within MIN_COEFF_CLAMP_ATOL of the minimum; normalizing the
        # all-zero spectrum would divide 0 by 0.
        a0 = np.sqrt(0.5) - 0.5e-12
        spec = spec_from_probabilities(2, (0, 1), (a0 * a0, 1 - a0 * a0))
        assert not spec.is_uniform
        assert not separation_params(spec, 0.5).failure_profile.any()
        assert conditional_failure(spec) is None


class TestOracleOutcomeTable:
    def test_perfect_discrimination_of_orthogonal_pair(self):
        spec = uniform_spec(2, (0, 1))
        table = oracle_outcome_table(
            build_symmetric_set(spec), build_me_measurement(spec)
        )
        np.testing.assert_allclose(table.conditionals["c0"], [1, 0], atol=1e-12)
        np.testing.assert_allclose(table.conditionals["c1"], [0, 1], atol=1e-12)

    def test_six_path_nonadjacent_conditional(self):
        spec = uniform_spec(6, (0, 2))
        table = oracle_outcome_table(
            build_symmetric_set(spec), build_me_measurement(spec)
        )
        expected = np.array([1 / 3, 1 / 12, 1 / 12, 1 / 3, 1 / 12, 1 / 12])
        np.testing.assert_allclose(table.conditionals["c0"], expected, atol=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        spec = spec_from_probabilities(5, (0, 1, 4), (0.5, 0.25, 0.25))
        for xi in (0.0, 0.6, 1.0):
            table = oracle_outcome_table(
                build_symmetric_set(spec), build_frio_concatenated(spec, xi)
            )
            assert sum(table.outcome_probs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_outcomes_have_no_conditional(self):
        spec = uniform_spec(4, (0, 2))
        table = oracle_outcome_table(
            build_symmetric_set(spec), build_frio_standard(spec, 0.7)
        )
        assert table.conditionals["f"] is None

    def test_closed_form_agreement_over_seeded_specs(self):
        for index, spec in enumerate(iter_specs(40, seed=505)):
            xi = (0.0, 0.25, 0.5, 0.75, 1.0)[index % 5]
            sym = build_symmetric_set(spec)
            params = separation_params(spec, xi)
            conclusive = conditional_conclusive(spec, xi)
            failure = conditional_failure(spec)
            for measurement in (
                build_frio_standard(spec, xi),
                build_frio_concatenated(spec, xi),
            ):
                table = oracle_outcome_table(sym, measurement)
                for label, prob in table.outcome_probs.items():
                    if label == "f":
                        expected = params.p_fail
                    elif label.startswith("fc"):
                        expected = params.p_fail / spec.N
                    else:
                        expected = params.p_success / spec.N
                    assert prob == pytest.approx(expected, abs=1e-10)
                for j in range(spec.N):
                    observed = table.conditionals[f"c{j}"]
                    if observed is not None:
                        assert np.abs(observed - np.roll(conclusive, j)).max() < 1e-10
                    label = f"fc{j}"
                    observed = table.conditionals.get(label)
                    if observed is not None:
                        assert np.abs(observed - np.roll(failure, j)).max() < 1e-10

    def test_cyclic_shift_relation_is_exact(self):
        for spec in iter_specs(20, seed=81):
            table = oracle_outcome_table(
                build_symmetric_set(spec), build_frio_standard(spec, 0.35)
            )
            reference = table.conditionals["c0"]
            for j in range(spec.N):
                assert np.abs(table.conditionals[f"c{j}"] - np.roll(reference, j)).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        sym = build_symmetric_set(uniform_spec(3, (0, 1)))
        measurement = build_me_measurement(uniform_spec(4, (0, 1)))
        with pytest.raises(ValidationError):
            oracle_outcome_table(sym, measurement)


class TestJsonDump:
    def test_structure_and_values(self):
        spec = uniform_spec(3, (0, 2))
        measurement = build_frio_standard(spec, 0.25)
        data = measurement_to_json_dict(measurement)
        assert data["strategy"] == "frio-standard"
        assert data["xi"] == 0.25
        assert data["N"] == 3
        assert [entry["label"] for entry in data["elements"]] == ["c0", "c1", "c2", "f"]
        first = np.array(
            [[complex(re, im) for re, im in row] for row in data["elements"][0]["matrix"]]
        )
        np.testing.assert_allclose(first, measurement.element("c0"), atol=1e-15)


class TestFaultInjection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            run_verification(samples=1, fault="bogus")

    def test_sign_fault_breaks_completeness(self):
        results = run_verification(samples=5, seed=0, n_range=(2, 5), fault="gk-sign")
        completeness = next(r for r in results if r.name == "povm-completeness")
        assert not completeness.passed
        assert any("completeness violated" in v for v in completeness.violations)


def assert_valid_povm(spec, measurement):
    result = SuiteResult("povm")
    _check_povm(result, spec, measurement)
    assert result.violations == []


class TestInputLimits:
    def test_squared_coefficient_below_floor_rejected(self):
        below = math.nextafter(sys.float_info.min, 0.0)
        with pytest.raises(ValidationError, match="smallest normal float"):
            spec_from_probabilities(3, (0, 1, 2), (0.5, 0.5, below))

    def test_floor_gives_finite_knowledge_and_valid_povms(self):
        spec = spec_from_probabilities(3, (0, 1, 2), (0.5, 0.5, sys.float_info.min))
        assert math.isfinite(knowledge_me(spec))
        for xi in (0.5, 1.0):
            assert math.isfinite(knowledge_frio(spec, xi))
            assert math.isfinite(knowledge_concatenated(spec, xi))
            assert_valid_povm(spec, build_frio_standard(spec, xi))
            assert_valid_povm(spec, build_frio_concatenated(spec, xi))

    def test_largest_path_count_builds(self):
        probs = np.random.default_rng(64).exponential(size=MAX_POVM_PATHS)
        spec = spec_from_probabilities(
            MAX_POVM_PATHS, range(MAX_POVM_PATHS), probs / probs.sum()
        )
        assert_valid_povm(spec, build_me_measurement(spec))
        assert_valid_povm(spec, build_frio_standard(spec, 0.5))
        assert_valid_povm(spec, build_frio_concatenated(spec, 1.0))

    @pytest.mark.parametrize(
        "build",
        [
            build_me_measurement,
            lambda spec: build_frio_standard(spec, 0.5),
            lambda spec: build_frio_concatenated(spec, 0.5),
        ],
        ids=["me", "standard", "concatenated"],
    )
    def test_one_more_path_rejected(self, build):
        with pytest.raises(ValidationError, match="at most 64 paths"):
            build(uniform_spec(MAX_POVM_PATHS + 1, (0, 1)))


class TestStrategyTags:
    def test_builders_tag_their_measurements(self):
        spec = uniform_spec(3, (0, 1))
        assert build_me_measurement(spec).strategy is Strategy.ME
        assert build_frio_standard(spec, 0.3).strategy is Strategy.FRIO_STANDARD
        assert build_frio_concatenated(spec, 0.3).strategy is Strategy.FRIO_CONCATENATED
