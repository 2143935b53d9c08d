import math

import numpy as np
import pytest
from hypothesis import given

from duality_lab.states import (
    DetectorSpec,
    Support,
    ValidationError,
    build_symmetric_set,
    detector_reduced_distribution,
    enumerate_uniform_specs,
    spec_from_json_dict,
    spec_from_probabilities,
    spec_to_json_dict,
    uniform_spec,
)

from helpers import detector_specs


class TestSupport:
    def test_cyclic_gaps_sum_to_path_count(self):
        support = Support(N=6, indices=(0, 2, 5))
        assert support.cyclic_gaps() == (2, 3, 1)
        assert sum(support.cyclic_gaps()) == 6

    def test_singleton_gap_is_path_count(self):
        assert Support(N=4, indices=(2,)).cyclic_gaps() == (4,)

    @pytest.mark.parametrize(
        "N, indices",
        [
            (1, (0,)),
            (6, ()),
            (6, (0, 6)),
            (6, (-1, 2)),
            (6, (2, 2)),
            (6, (3, 1)),
        ],
    )
    def test_invalid_supports_rejected(self, N, indices):
        with pytest.raises(ValidationError):
            Support(N=N, indices=indices)

    @pytest.mark.parametrize(
        "indices",
        [(True, 2), (0, False), (0, 1.7), (0.5,), (0, float("nan")), ("1",), (0, "2"), (None,)],
        ids=["bool", "false", "fraction", "half", "nan", "string", "string-tail", "none"],
    )
    def test_non_integer_indices_rejected(self, indices):
        with pytest.raises(ValidationError, match="must be integers"):
            Support(N=4, indices=indices)

    def test_python_and_numpy_integers_accepted(self):
        indices = (0, np.int64(1), np.uint8(2), np.intc(3))
        support = Support(N=5, indices=indices)
        assert support.indices == (0, 1, 2, 3)
        assert all(type(i) is int for i in support.indices)
        assert Support(N=5, indices=np.array([1, 4])).indices == (1, 4)
        assert Support(N=5, indices=(0, 2.0)).indices == (0, 2)


class TestDetectorSpec:
    def test_two_path_balanced(self):
        spec = spec_from_probabilities(2, (0, 1), (0.5, 0.5))
        assert spec.n == 2
        np.testing.assert_allclose(spec.probabilities, [0.5, 0.5], atol=1e-15)

    def test_near_normalized_inputs_are_renormalized(self):
        off = 1 + 5e-10
        spec = DetectorSpec(
            support=Support(N=2, indices=(0, 1)),
            coeffs=(math.sqrt(0.5 * off), math.sqrt(0.5 * off)),
        )
        assert math.isclose(sum(c * c for c in spec.coeffs), 1.0, abs_tol=1e-15)

    def test_badly_normalized_inputs_are_rejected(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            DetectorSpec(support=Support(N=2, indices=(0, 1)), coeffs=(0.8, 0.7))

    def test_zero_and_negative_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            spec_from_probabilities(3, (0, 1, 2), (0.5, 0.5, 0.0))
        with pytest.raises(ValidationError, match="strictly positive"):
            DetectorSpec(support=Support(N=2, indices=(0, 1)), coeffs=(-0.6, 0.8))

    def test_coefficient_count_must_match_support(self):
        with pytest.raises(ValidationError, match="one coefficient per support index"):
            DetectorSpec(support=Support(N=3, indices=(0, 1)), coeffs=(1.0,))

    def test_uniform_detection(self):
        assert uniform_spec(6, (0, 3)).is_uniform
        assert uniform_spec(4, (2,)).is_uniform
        assert not spec_from_probabilities(2, (0, 1), (0.8, 0.2)).is_uniform


class TestBuildSymmetricSet:
    def test_two_path_orthogonal_pair(self):
        sym = build_symmetric_set(uniform_spec(2, (0, 1)))
        inv_sqrt2 = 1 / math.sqrt(2)
        np.testing.assert_allclose(sym.states[0], [inv_sqrt2, inv_sqrt2], atol=1e-15)
        np.testing.assert_allclose(sym.states[1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)
        assert abs(np.vdot(sym.states[0], sym.states[1])) < 1e-12

    def test_six_path_equally_spaced_has_period_two(self):
        sym = build_symmetric_set(uniform_spec(6, (0, 3)))
        for level in range(6):
            np.testing.assert_allclose(
                sym.states[level], sym.states[(level + 2) % 6], atol=1e-12
            )
        np.testing.assert_allclose(
            sym.states[1][3], -sym.states[0][3], atol=1e-12
        )

    def test_one_dimensional_support_gives_identical_states(self):
        sym = build_symmetric_set(uniform_spec(4, (0,)))
        for level in range(4):
            np.testing.assert_allclose(sym.states[level], sym.states[0], atol=1e-15)

    @given(detector_specs())
    def test_states_are_unit_norm(self, spec):
        sym = build_symmetric_set(spec)
        np.testing.assert_allclose(
            np.linalg.norm(sym.states, axis=1), np.ones(spec.N), atol=1e-12
        )

    @given(detector_specs())
    def test_phase_action_steps_through_the_family(self, spec):
        sym = build_symmetric_set(spec)
        action = np.zeros(spec.N, dtype=complex)
        idx = list(spec.support.indices)
        action[idx] = np.exp(2j * np.pi * np.asarray(idx) / spec.N)
        for level in range(spec.N):
            np.testing.assert_allclose(
                sym.states[(level + 1) % spec.N], action * sym.states[level], atol=1e-12
            )

    @given(detector_specs())
    def test_gram_matrix_is_circulant(self, spec):
        gram = build_symmetric_set(spec).gram()
        rolled = np.roll(np.roll(gram, 1, axis=0), 1, axis=1)
        assert np.abs(gram - rolled).max() < 1e-12

    @given(detector_specs())
    def test_reduced_state_is_diagonal_in_the_coefficients(self, spec):
        sym = build_symmetric_set(spec)
        rho = sym.states.T @ sym.states.conj() / spec.N
        expected = np.zeros((spec.N, spec.N), dtype=complex)
        idx = list(spec.support.indices)
        expected[idx, idx] = spec.probabilities
        assert np.abs(rho - expected).max() < 1e-12


class TestOrthogonalityCharacterization:
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_uniform_sets_are_orthogonal_exactly_at_full_support(self, N):
        for n in range(1, N + 1):
            for spec in enumerate_uniform_specs(N, n):
                gram = build_symmetric_set(spec).gram()
                orthogonal = np.abs(gram - np.eye(N)).max() < 1e-12
                assert orthogonal == (n == N)

    def test_nonuniform_full_support_is_not_orthogonal(self):
        spec = spec_from_probabilities(4, (0, 1, 2, 3), (0.4, 0.3, 0.2, 0.1))
        gram = build_symmetric_set(spec).gram()
        assert np.abs(gram - np.eye(4)).max() > 1e-3


class TestReducedDistribution:
    def test_balanced_pair(self):
        np.testing.assert_allclose(
            detector_reduced_distribution(uniform_spec(2, (0, 1))), [0.5, 0.5], atol=1e-15
        )

    def test_three_path_values(self):
        spec = spec_from_probabilities(3, (0, 1, 2), (0.5, 0.3, 0.2))
        np.testing.assert_allclose(
            detector_reduced_distribution(spec), [0.5, 0.3, 0.2], atol=1e-12
        )

    @given(detector_specs())
    def test_normalization(self, spec):
        assert abs(detector_reduced_distribution(spec).sum() - 1.0) < 1e-12


class TestEnumeration:
    @pytest.mark.parametrize("N, n, count", [(4, 1, 4), (6, 2, 15), (12, 6, 924)])
    def test_counts(self, N, n, count):
        assert len(enumerate_uniform_specs(N, n)) == count

    def test_lexicographic_order_and_uniform_coefficients(self):
        specs = enumerate_uniform_specs(4, 2)
        supports = [spec.support.indices for spec in specs]
        assert supports == sorted(supports)
        assert supports[0] == (0, 1)
        for spec in specs:
            np.testing.assert_allclose(spec.probabilities, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("n", [0, 7, -1])
    def test_dimension_out_of_range(self, n):
        with pytest.raises(ValidationError):
            enumerate_uniform_specs(6, n)


class TestJsonRoundTrip:
    def test_round_trip(self):
        spec = spec_from_probabilities(5, (0, 2, 3), (0.5, 0.3, 0.2))
        data = spec_to_json_dict(spec)
        assert data == {"N": 5, "support": [0, 2, 3], "coeffs_sq": pytest.approx([0.5, 0.3, 0.2])}
        clone = spec_from_json_dict(data)
        assert clone.support == spec.support
        np.testing.assert_allclose(clone.amplitudes, spec.amplitudes, atol=1e-15)

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"N": 4, "support": [0, 1]},
            {"N": "4", "support": [0], "coeffs_sq": [1.0]},
            {"N": 4, "support": [0, 1], "coeffs_sq": [0.9, 0.2]},
        ],
    )
    def test_invalid_json_rejected(self, data):
        with pytest.raises(ValidationError):
            spec_from_json_dict(data)
