import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from duality_lab import duality
from duality_lab.duality import (
    coherence,
    evaluate_point,
    evaluate_specs,
    holevo_ceiling,
    knowledge_concatenated,
    knowledge_frio,
    knowledge_me,
    shannon_entropies,
    shannon_entropy,
)
from duality_lab.ensemble import sample_rng, sample_spec
from duality_lab.measurements import Strategy
from duality_lab.states import ValidationError, spec_from_probabilities, uniform_spec

from helpers import detector_specs, iter_specs, scalar_point, separation_levels

XI_GRID = [round(0.1 * k, 1) for k in range(11)]

# Scenarios where a separation strategy extracts more which-path knowledge than
# the minimum-error measurement, or where knowledge rises with xi:
# (N, support, squared coefficients, separation levels to certify).
DEPENDENT_FAILURE_BRANCH = (
    5, (0, 3, 4), (0.3052215992158848, 0.5343124989962247, 0.1604659017878905), (1.0,)
)
DEGENERATE_MINIMUM_FULL_SUPPORT = (4, (0, 1, 2, 3), (0.76, 0.08, 0.08, 0.08), (0.02,))
NEAR_DEGENERATE_MINIMUM = (
    6, (3, 4, 5), (0.08019213712034855, 0.07977445467663835, 0.8400334082030132), (0.1,)
)
ISOLATED_MINIMUM_FULL_SUPPORT = (
    5, (0, 1, 2, 3, 4), (0.9637, 0.0040, 0.0140, 0.0137, 0.0046), (0.3,)
)
ISOLATED_MINIMUM_DEPENDENT = (7, (2, 5, 6), (0.0030, 0.9937, 0.0033), (0.2,))
# Drawn by ``verify --samples 300 --seed 359174703 --N-range 2:8``.
ISOLATED_MINIMUM_RISING = (
    8,
    (1, 3, 4, 5, 7),
    (0.01655322909366085, 0.015119516902613846, 0.7407574234436419,
     0.11330792483010545, 0.11426190572997837),
    (0.9, 1.0),
)
CERTIFIED_CASES = {
    "dependent-failure-branch": DEPENDENT_FAILURE_BRANCH,
    "degenerate-minimum-full-support": DEGENERATE_MINIMUM_FULL_SUPPORT,
    "near-degenerate-minimum": NEAR_DEGENERATE_MINIMUM,
    "isolated-minimum-full-support": ISOLATED_MINIMUM_FULL_SUPPORT,
    "isolated-minimum-dependent": ISOLATED_MINIMUM_DEPENDENT,
    "isolated-minimum-rising": ISOLATED_MINIMUM_RISING,
}


def case_spec(case):
    N, support, coeffs_sq, _ = case
    return spec_from_probabilities(N, support, coeffs_sq)


class TestShannonEntropy:
    def test_balanced_bit(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_distribution(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_six_path_adjacent_distribution(self):
        distribution = [1 / 3, 1 / 4, 1 / 12, 0, 1 / 12, 1 / 4]
        knowledge = 1 - shannon_entropy(distribution) / math.log2(6)
        assert knowledge == pytest.approx(0.178, abs=5e-4)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            shannon_entropy([0.6, 0.5, -0.1])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValidationError):
            shannon_entropy([0.4, 0.4])

    def test_tiny_negative_roundoff_tolerated(self):
        assert shannon_entropy([1.0, -1e-13, 1e-13]) == pytest.approx(0.0, abs=1e-11)


class TestShannonEntropies:
    def test_rows_match_the_scalar_entropy_bit_for_bit(self):
        # Rows of 3 to 24 entries with 0 to 23 zeros, so the positive counts
        # cross numpy's 8-entry pairwise-summation block.
        rng = np.random.default_rng(17)
        rows = []
        for width in (3, 9, 16, 24):
            for _ in range(200):
                row = rng.random(width) * (rng.random(width) < rng.random())
                row[rng.integers(width)] += 1e-3
                rows.append(np.pad(row / row.sum(), (0, 24 - width)))
        rows = np.array(rows)
        assert shannon_entropies(rows).tolist() == [shannon_entropy(row) for row in rows]

    def test_tiny_negative_roundoff_tolerated(self):
        rows = [[1.0, -1e-13, 1e-13], [0.5, 0.5, 0.0]]
        assert shannon_entropies(rows).tolist() == [shannon_entropy(row) for row in rows]

    @pytest.mark.parametrize(
        "rows",
        [[[0.6, 0.5, -0.1]], [[0.5, 0.5], [0.4, 0.4]], [0.5, 0.5], np.zeros((0, 3))],
    )
    def test_invalid_rows_rejected(self, rows):
        with pytest.raises(ValidationError):
            shannon_entropies(rows)


class TestCoherence:
    def test_single_dimension_is_fully_coherent(self):
        assert coherence(uniform_spec(7, (3,))) == 1.0

    def test_orthogonal_states_kill_coherence(self):
        assert coherence(uniform_spec(5, (0, 1, 2, 3, 4))) == pytest.approx(0.0, abs=1e-12)

    def test_six_path_two_dimensional_value(self):
        assert coherence(uniform_spec(6, (0, 3))) == pytest.approx(0.613, abs=5e-4)


class TestKnowledge:
    def test_six_path_equally_spaced_value(self):
        assert knowledge_frio(uniform_spec(6, (0, 3)), 0.0) == pytest.approx(0.387, abs=5e-4)

    @given(separation_levels)
    def test_orthogonal_states_give_full_knowledge(self, xi):
        spec = uniform_spec(4, (0, 1, 2, 3))
        assert knowledge_frio(spec, xi) == pytest.approx(1.0, abs=1e-9)
        assert knowledge_concatenated(spec, xi) == pytest.approx(1.0, abs=1e-9)

    def test_full_separation_of_independent_states(self):
        spec = spec_from_probabilities(3, (0, 1, 2), (0.5, 0.3, 0.2))
        assert knowledge_frio(spec, 1.0) == pytest.approx(3 * 0.2, abs=1e-10)

    @given(detector_specs())
    def test_concatenated_matches_standard_at_zero_level(self, spec):
        assert knowledge_concatenated(spec, 0.0) == pytest.approx(
            knowledge_frio(spec, 0.0), abs=1e-12
        )

    @given(separation_levels)
    def test_uniform_spec_is_level_independent(self, xi):
        spec = uniform_spec(6, (0, 2))
        assert knowledge_concatenated(spec, xi) == pytest.approx(knowledge_me(spec), abs=1e-12)

    @given(separation_levels)
    def test_identical_failure_states_make_concatenation_ineffective(self, xi):
        spec = spec_from_probabilities(3, (0, 1, 2), (0.6, 0.2, 0.2))
        assert knowledge_concatenated(spec, xi) == pytest.approx(
            knowledge_frio(spec, xi), abs=1e-12
        )

    def test_minimum_error_values(self):
        assert knowledge_me(uniform_spec(6, (0, 1))) == pytest.approx(0.178, abs=5e-4)
        assert knowledge_me(uniform_spec(6, (0, 2))) == pytest.approx(0.129, abs=5e-4)
        assert knowledge_me(uniform_spec(3, (1,))) == 0.0


class TestHolevoCeiling:
    def test_orthogonal_states(self):
        assert holevo_ceiling(uniform_spec(4, (0, 1, 2, 3))) == pytest.approx(1.0, abs=1e-12)

    def test_six_path_two_dimensional(self):
        assert holevo_ceiling(uniform_spec(6, (0, 3))) == pytest.approx(0.387, abs=5e-4)

    def test_ceiling_dominates_minimum_error_knowledge(self):
        for spec in iter_specs(150, seed=4242):
            assert knowledge_me(spec) <= holevo_ceiling(spec) + 1e-9


class TestEvaluatePoint:
    def test_equally_spaced_point_saturates(self):
        point = evaluate_point(uniform_spec(6, (0, 3)), Strategy.ME)
        assert point.knowledge == pytest.approx(0.387, abs=5e-4)
        assert point.coherence == pytest.approx(0.613, abs=5e-4)
        assert point.duality_sum == pytest.approx(1.0, abs=1e-9)

    def test_adjacent_point(self):
        point = evaluate_point(uniform_spec(6, (0, 1)), "me")
        assert point.duality_sum == pytest.approx(0.791, abs=1e-3)

    def test_nonadjacent_point(self):
        point = evaluate_point(uniform_spec(6, (0, 2)), "me")
        assert point.duality_sum == pytest.approx(0.742, abs=1e-3)

    def test_minimum_error_ignores_level(self):
        point = evaluate_point(uniform_spec(6, (0, 1)), Strategy.ME, xi=0.8)
        assert point.xi == 0.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(uniform_spec(6, (0, 1)), "helstrom")


def kernel_points(specs, strategy, xi):
    return [(p.knowledge, p.coherence, p.duality_sum) for p in evaluate_specs(specs, strategy, xi)]


def spec_groups(N, seed):
    """Random, uniform and near-uniform scenarios of a few dimensions on N paths.

    Near-uniform scenarios have coefficients within MIN_COEFF_CLAMP_ATOL of
    the minimum, which the failure profile clamps to zero.
    """
    rng = np.random.default_rng(seed)
    for n in sorted({1, 2, max(1, N // 2), N}):
        yield [sample_spec(N, n, sample_rng(seed, index)) for index in range(12)]
        yield [
            uniform_spec(N, sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(4)
        ]
        if n >= 3:
            near = []
            for _ in range(6):
                probs = rng.random(n) + 0.1
                probs[0] = 0.5 * probs.min()
                probs[1] = probs[0] * (1 + rng.uniform(0, 1e-12))
                indices = sorted(rng.choice(N, size=n, replace=False).tolist())
                near.append(spec_from_probabilities(N, indices, probs / probs.sum()))
            yield near


class TestEvaluateSpecs:
    @pytest.mark.parametrize("N", [2, 3, 5, 6, 8, 12, 16, 24])
    def test_matches_the_scalar_formulas_bit_for_bit(self, N):
        for specs in spec_groups(N, seed=N):
            for strategy in Strategy:
                for xi in (0.0, 0.3, 1.0):
                    expected = [scalar_point(spec, strategy, xi) for spec in specs]
                    assert kernel_points(specs, strategy, xi) == expected

    def test_every_coefficient_within_the_clamp_of_the_minimum(self):
        # 1 - n*p_min exceeds DEGENERATE_FAILURE_ATOL, so a failure branch
        # exists, but both amplitudes lie within MIN_COEFF_CLAMP_ATOL of the
        # minimum and the clamp zeroes the whole failure profile.
        a0 = math.sqrt(0.5) - 0.5e-12
        spec = spec_from_probabilities(2, (0, 1), (a0 * a0, 1 - a0 * a0))
        assert not spec.is_uniform
        for xi in (0.3, 1.0):
            [point] = kernel_points([spec], Strategy.FRIO_CONCATENATED, xi)
            assert point == scalar_point(spec, Strategy.FRIO_CONCATENATED, xi)
            assert point[0] == knowledge_frio(spec, xi)

    def test_blocks_split_at_large_path_counts(self):
        N = 1024
        specs = [sample_spec(N, 4, sample_rng(8, index)) for index in range(300)]
        assert duality.EVAL_BLOCK_ENTRIES // N < len(specs)
        for strategy in Strategy:
            expected = [scalar_point(spec, strategy, 0.4) for spec in specs]
            assert kernel_points(specs, strategy, 0.4) == expected

    def test_points_carry_the_scenario_and_level(self):
        specs = [uniform_spec(6, (0, 2)), uniform_spec(6, (1, 4))]
        points = evaluate_specs(specs, "frio-standard", 0.25)
        assert [p.spec for p in points] == specs
        assert {(p.N, p.n, p.strategy, p.xi) for p in points} == {
            (6, 2, Strategy.FRIO_STANDARD, 0.25)
        }
        assert all(type(p.knowledge) is float for p in points)
        assert evaluate_specs(specs, "me", 0.8)[0].xi == 0.0
        assert evaluate_specs([], "me") == []

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="share N and n"):
            evaluate_specs([uniform_spec(6, (0,)), uniform_spec(6, (0, 1))], "me")
        with pytest.raises(ValidationError, match="share N and n"):
            evaluate_specs([uniform_spec(6, (0,)), uniform_spec(5, (0,))], "me")

    def test_level_validated(self):
        with pytest.raises(ValidationError, match="separation level"):
            evaluate_specs([uniform_spec(6, (0, 1))], "frio-standard", 1.5)

    def test_bound_violation_names_the_first_offending_spec(self, monkeypatch):
        # With the tolerance at -0.1 every row with C + K > 0.9 violates the
        # bound: (0, 1) and (0, 2) sum to 0.79 and 0.74, (0, 3) saturates.
        monkeypatch.setattr(duality, "DUALITY_SUM_ATOL", -0.1)
        specs = [uniform_spec(6, support) for support in ((0, 1), (0, 2), (0, 3), (1, 4))]
        with pytest.raises(ValidationError, match=r"C \+ K = 1\.0.* \(0, 3\)"):
            evaluate_specs(specs, "me")

    def test_memory_stays_bounded_at_large_path_counts(self):
        # 4096 padded rows at N = 2^16 would take 4 GiB as complex numbers.
        specs = [sample_spec(1 << 16, 3, sample_rng(2, index)) for index in range(4096)]
        tracemalloc.start()
        try:
            points = evaluate_specs(specs, "me")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 4096
        assert peak < 64 * 2**20


class TestDualityBound:
    @given(detector_specs(), separation_levels)
    def test_bound_holds_for_all_strategies(self, spec, xi):
        c = coherence(spec)
        for knowledge in (
            knowledge_me(spec),
            knowledge_frio(spec, xi),
            knowledge_concatenated(spec, xi),
        ):
            assert 0.0 <= knowledge <= 1.0
            assert c + knowledge <= 1.0 + 1e-9

    def test_bound_over_seeded_grid(self):
        for spec in iter_specs(200, seed=77):
            c = coherence(spec)
            for xi in (0.0, 0.5, 1.0):
                assert c + knowledge_frio(spec, xi) <= 1.0 + 1e-9
                assert c + knowledge_concatenated(spec, xi) <= 1.0 + 1e-9


class TestHierarchy:
    def test_standard_never_beats_concatenated(self):
        for spec in iter_specs(150, seed=901):
            for xi in (0.0, 0.3, 0.7, 1.0):
                assert knowledge_frio(spec, xi) <= knowledge_concatenated(spec, xi) + 1e-9

    def test_concatenated_below_minimum_error_for_generic_independent_states(self):
        # An ensemble statement: the certified counterexamples below refute it
        # scenario by scenario, even at full support.
        specs = [spec for spec in iter_specs(400, seed=3000) if spec.n == spec.N]
        assert len(specs) > 50
        mean_me = np.mean([knowledge_me(spec) for spec in specs])
        for xi in (0.25, 0.5, 0.75, 1.0):
            mean_conc = np.mean([knowledge_concatenated(spec, xi) for spec in specs])
            assert mean_conc < mean_me - 1e-9

    def test_dependent_states_can_beat_minimum_error_via_failure_branch(self):
        # For linearly dependent families the failure branch can carry enough
        # information that the two-step strategy extracts more mutual
        # information than the square-root measurement, which is only an
        # error-probability optimum.
        spec = case_spec(DEPENDENT_FAILURE_BRANCH)
        assert knowledge_concatenated(spec, 1.0) > knowledge_me(spec) + 1e-3

    def test_degenerate_minimum_beats_minimum_error_even_at_full_support(self):
        # A triply degenerate minimum keeps the failure branch uninformative,
        # yet the standard strategy itself overtakes its xi = 0 value in a
        # narrow window of small separation levels.
        spec = case_spec(DEGENERATE_MINIMUM_FULL_SUPPORT)
        assert knowledge_frio(spec, 0.02) > knowledge_me(spec) + 1e-5

    def test_isolated_minimum_does_not_protect_minimum_error(self):
        # A minimum 15% below the next coefficient at full support, and 10%
        # below it in a dependent family: a separation strategy still wins.
        spec = case_spec(ISOLATED_MINIMUM_FULL_SUPPORT)
        assert knowledge_concatenated(spec, 0.3) > knowledge_me(spec) + 1e-4
        spec = case_spec(ISOLATED_MINIMUM_DEPENDENT)
        assert knowledge_frio(spec, 0.2) > knowledge_me(spec) + 1e-5


class TestMonotonicity:
    def test_standard_knowledge_never_increases_for_generic_specs(self):
        # An ensemble statement: near-degenerate and clearly unique minimum
        # coefficients both admit genuine bumps for single scenarios, pinned
        # below.
        specs = [spec for spec in iter_specs(150, seed=515, min_dim=2) if not spec.is_uniform]
        assert len(specs) > 100
        means = [np.mean([knowledge_frio(spec, xi) for spec in specs]) for xi in XI_GRID]
        assert max(b - a for a, b in zip(means, means[1:])) < -1e-9

    def test_concatenated_knowledge_never_increases_for_generic_independent_states(self):
        # An ensemble statement, like the standard-strategy one above.
        specs = [
            spec
            for spec in iter_specs(400, seed=9100)
            if spec.n == spec.N and not spec.is_uniform
        ]
        assert len(specs) > 50
        means = [np.mean([knowledge_concatenated(spec, xi) for spec in specs]) for xi in XI_GRID]
        assert max(b - a for a, b in zip(means, means[1:])) < -1e-9

    def test_success_probability_never_increases(self):
        from duality_lab.measurements import separation_params

        for spec in iter_specs(150, seed=616):
            values = [separation_params(spec, xi).p_success for xi in XI_GRID]
            assert max(b - a for a, b in zip(values, values[1:])) <= 1e-12

    def test_near_degenerate_minimum_breaks_knowledge_monotonicity(self):
        # Two minimum coefficients 0.5% apart on a three-index support: the
        # standard strategy's knowledge genuinely rises along the grid.
        spec = case_spec(NEAR_DEGENERATE_MINIMUM)
        values = [knowledge_frio(spec, xi) for xi in XI_GRID]
        assert max(b - a for a, b in zip(values, values[1:])) > 1e-5

    def test_isolated_minimum_does_not_protect_monotonicity(self):
        # The minimum is 9.5% below the next coefficient, yet the standard
        # strategy's knowledge rises from xi = 0.9 to xi = 1.
        spec = case_spec(ISOLATED_MINIMUM_RISING)
        assert knowledge_frio(spec, 1.0) > knowledge_frio(spec, 0.9) + 3e-5


class TestReferenceCertification:
    """The pinned counterexamples are properties of the physics, not roundoff:
    an independent 50-digit computation gives the same knowledge values."""

    @pytest.mark.parametrize("name", sorted(CERTIFIED_CASES))
    def test_library_matches_reference(self, name):
        pytest.importorskip("mpmath")
        from mp_reference import reference_knowledge

        case = CERTIFIED_CASES[name]
        N, support, coeffs_sq, levels = case
        spec = case_spec(case)
        assert knowledge_me(spec) == pytest.approx(
            reference_knowledge(N, support, coeffs_sq), abs=1e-12
        )
        for xi in levels:
            assert knowledge_frio(spec, xi) == pytest.approx(
                reference_knowledge(N, support, coeffs_sq, xi), abs=1e-12
            )
            assert knowledge_concatenated(spec, xi) == pytest.approx(
                reference_knowledge(N, support, coeffs_sq, xi, concatenated=True), abs=1e-12
            )


class TestTrivialSaturation:
    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_dimensional_support(self, N, strategy):
        point = evaluate_point(uniform_spec(N, (1,)), strategy, xi=0.4)
        assert point.knowledge == pytest.approx(0.0, abs=1e-9)
        assert point.coherence == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_orthogonal_family(self, N, strategy):
        point = evaluate_point(uniform_spec(N, tuple(range(N))), strategy, xi=0.4)
        assert point.knowledge == pytest.approx(1.0, abs=1e-9)
        assert point.coherence == pytest.approx(0.0, abs=1e-9)


class TestTwoPathTightness:
    def test_minimum_error_meets_the_ceiling_only_at_trivial_points(self):
        grid = np.linspace(0.0, 0.5, 101)
        for p_min in grid:
            if p_min == 0.0:
                spec = uniform_spec(2, (0,))
            else:
                spec = spec_from_probabilities(2, (0, 1), (1 - p_min, p_min))
            gap = holevo_ceiling(spec) - knowledge_me(spec)
            if p_min in (0.0, 0.5):
                assert abs(gap) < 1e-9
            else:
                assert gap > 1e-9
