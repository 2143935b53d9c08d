import itertools
import math

import numpy as np
import pytest
from hypothesis import given

from duality_lab.duality import (
    coherence,
    evaluate_block,
    evaluate_point,
    knowledge_concatenated,
    knowledge_frio,
    knowledge_me,
)
from duality_lab.measurements import conditional_conclusive, conditional_failure
from duality_lab.saturation import (
    dft_distribution,
    is_saturating,
    saturation_report,
    schmidt_coefficients,
)
from duality_lab.states import (
    BLOCK_ROWS,
    DENSE_MAX_PATHS,
    EVAL_BLOCK_ENTRIES,
    DetectorSpec,
    Support,
    ValidationError,
    block_from_probabilities,
    block_from_specs,
    build_symmetric_set,
    enumerate_uniform_specs,
    spec_from_json_dict,
    spec_from_probabilities,
    spec_to_json_dict,
    uniform_block,
    uniform_spec,
    uniform_supports,
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
        "N, indices, gaps",
        [
            (2**70, (0, 2**62), (2**62, 2**70 - 2**62)),
            # The wrap-around sum 2^62 + N overflows intp; the gaps do not.
            (2**63 - 1, (2**62, 2**63 - 2), (2**62 - 2, 2**62 + 1)),
        ],
        ids=["beyond-intp", "at-intp-max"],
    )
    def test_gaps_of_path_counts_at_the_intp_limit(self, N, indices, gaps):
        assert Support(N=N, indices=indices).cyclic_gaps() == gaps

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

    def test_indices_beyond_intp_rejected(self):
        # Indices are held as intp: past it, a path count may be any size,
        # but its indices are rejected instead of overflowing.
        assert Support(N=10**30, indices=(0, 2**63 - 1)).indices == (0, 2**63 - 1)
        for indices in [(0, 2**70), (5 * 10**29,), (0, 2**63)]:
            with pytest.raises(ValidationError, match=f"must lie in 0..{2**63 - 1}"):
                Support(N=10**30, indices=indices)


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

    @pytest.mark.parametrize(
        "entry",
        [None, "a", 0.5 + 0j, np.complex128(0.5)],
        ids=["none", "string", "complex", "numpy-complex"],
    )
    def test_non_real_entries_rejected(self, entry):
        with pytest.raises(ValidationError, match="must be real numbers"):
            spec_from_probabilities(3, (0, 1), (0.5, entry))
        with pytest.raises(ValidationError, match="must be real numbers"):
            DetectorSpec(support=Support(N=3, indices=(0, 1)), coeffs=(entry, 1.0))

    def test_coefficient_count_must_match_support(self):
        with pytest.raises(ValidationError, match="one coefficient per support index"):
            DetectorSpec(support=Support(N=3, indices=(0, 1)), coeffs=(1.0,))

    def test_uniform_detection(self):
        assert uniform_spec(6, (0, 3)).is_uniform
        assert uniform_spec(4, (2,)).is_uniform
        assert not spec_from_probabilities(2, (0, 1), (0.8, 0.2)).is_uniform


class TestBuildSymmetricSet:
    def test_two_path_orthogonal_pair(self):
        states = build_symmetric_set(uniform_spec(2, (0, 1)))
        inv_sqrt2 = 1 / math.sqrt(2)
        np.testing.assert_allclose(states[0], [inv_sqrt2, inv_sqrt2], atol=1e-15)
        np.testing.assert_allclose(states[1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)
        assert abs(np.vdot(states[0], states[1])) < 1e-12

    def test_six_path_equally_spaced_has_period_two(self):
        states = build_symmetric_set(uniform_spec(6, (0, 3)))
        for level in range(6):
            np.testing.assert_allclose(
                states[level], states[(level + 2) % 6], atol=1e-12
            )
        np.testing.assert_allclose(
            states[1][3], -states[0][3], atol=1e-12
        )

    def test_one_dimensional_support_gives_identical_states(self):
        states = build_symmetric_set(uniform_spec(4, (0,)))
        for level in range(4):
            np.testing.assert_allclose(states[level], states[0], atol=1e-15)

    @given(detector_specs())
    def test_states_are_unit_norm(self, spec):
        states = build_symmetric_set(spec)
        np.testing.assert_allclose(
            np.linalg.norm(states, axis=1), np.ones(spec.N), atol=1e-12
        )

    @given(detector_specs())
    def test_phase_action_steps_through_the_family(self, spec):
        states = build_symmetric_set(spec)
        action = np.zeros(spec.N, dtype=complex)
        idx = list(spec.support.indices)
        action[idx] = np.exp(2j * np.pi * np.asarray(idx) / spec.N)
        for level in range(spec.N):
            np.testing.assert_allclose(
                states[(level + 1) % spec.N], action * states[level], atol=1e-12
            )

    @given(detector_specs())
    def test_gram_matrix_is_circulant(self, spec):
        states = build_symmetric_set(spec)
        gram = states.conj() @ states.T
        rolled = np.roll(np.roll(gram, 1, axis=0), 1, axis=1)
        assert np.abs(gram - rolled).max() < 1e-12

    @given(detector_specs())
    def test_reduced_state_is_diagonal_in_the_coefficients(self, spec):
        states = build_symmetric_set(spec)
        rho = states.T @ states.conj() / spec.N
        expected = np.zeros((spec.N, spec.N), dtype=complex)
        idx = list(spec.support.indices)
        expected[idx, idx] = spec.probabilities
        assert np.abs(rho - expected).max() < 1e-12


class TestOrthogonalityCharacterization:
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_uniform_sets_are_orthogonal_exactly_at_full_support(self, N):
        for n in range(1, N + 1):
            for spec in enumerate_uniform_specs(N, n):
                states = build_symmetric_set(spec)
                gram = states.conj() @ states.T
                orthogonal = np.abs(gram - np.eye(N)).max() < 1e-12
                assert orthogonal == (n == N)

    def test_nonuniform_full_support_is_not_orthogonal(self):
        spec = spec_from_probabilities(4, (0, 1, 2, 3), (0.4, 0.3, 0.2, 0.1))
        states = build_symmetric_set(spec)
        assert np.abs(states.conj() @ states.T - np.eye(4)).max() > 1e-3


class TestReducedDistribution:
    def test_balanced_pair(self):
        np.testing.assert_allclose(
            uniform_spec(2, (0, 1)).probabilities, [0.5, 0.5], atol=1e-15
        )

    def test_three_path_values(self):
        spec = spec_from_probabilities(3, (0, 1, 2), (0.5, 0.3, 0.2))
        np.testing.assert_allclose(
            spec.probabilities, [0.5, 0.3, 0.2], atol=1e-12
        )

    @given(detector_specs())
    def test_normalization(self, spec):
        assert abs(spec.probabilities.sum() - 1.0) < 1e-12


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

    @pytest.mark.parametrize(
        "N, n, sizes",
        [(15, 7, [BLOCK_ROWS, 2339]), (15, 1, [15]), (15, 15, [1])],
    )
    def test_supports_are_the_combinations(self, N, n, sizes):
        # C(15, 7) = 6,435 rows cross a block boundary.
        blocks = list(uniform_supports(N, n))
        assert [len(block) for block in blocks] == sizes
        for block in blocks:
            assert block.dtype == np.intp
            assert block.shape == (len(block), n)
            assert block.flags.c_contiguous
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert rows == list(itertools.combinations(range(N), n))

    @pytest.mark.parametrize("N", [2**64, EVAL_BLOCK_ENTRIES + 1])
    def test_path_count_beyond_the_enumeration_limit_rejected(self, N):
        # Rejected when called, before the pool of N indices is built.
        with pytest.raises(ValidationError, match=f"at most {EVAL_BLOCK_ENTRIES} paths"):
            uniform_supports(N, 1)
        with pytest.raises(ValidationError, match=f"at most {EVAL_BLOCK_ENTRIES} paths"):
            enumerate_uniform_specs(N, 1)

    @pytest.mark.parametrize("N, n", [(1, 1), (True, 1), (6, 0), (6, 7), (6, 2.0)])
    def test_supports_validate_their_arguments(self, N, n):
        with pytest.raises(ValidationError):
            uniform_supports(N, n)

    def test_largest_path_count_yields_its_first_block(self):
        block = next(uniform_supports(EVAL_BLOCK_ENTRIES, 1))
        assert np.array_equal(block, np.arange(BLOCK_ROWS)[:, None])


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


def flat_simplex_rows(rng, rows, n):
    weights = rng.standard_exponential((rows, n))
    return weights / weights.sum(axis=1, keepdims=True)


def random_supports(rng, N, rows, n):
    return np.sort(np.array([rng.choice(N, size=n, replace=False) for _ in range(rows)]), axis=1)


def scalar_coeffs(N, indices, probs):
    """The rows' DetectorSpec coefficients through spec_from_probabilities."""
    return np.array(
        [spec_from_probabilities(N, row, p).coeffs for row, p in zip(indices.tolist(), probs.tolist())]
    )


class TestSweepBlock:
    @pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129, 200])
    def test_random_rows_match_detector_spec_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        N = max(n, 2) + 3
        indices = random_supports(rng, N, 50, n)
        probs = flat_simplex_rows(rng, 50, n)
        block = block_from_probabilities(N, indices, probs)
        assert (block.amps == scalar_coeffs(N, indices, probs)).all()
        assert block.specs() == [
            spec_from_probabilities(N, row, p) for row, p in zip(indices.tolist(), probs.tolist())
        ]

    @pytest.mark.parametrize("n", range(1, 65))
    def test_uniform_rows_match_uniform_spec_bit_for_bit(self, n):
        N = 64
        indices = np.array([range(n), range(N - n, N)])
        block = uniform_block(N, indices)
        expected = [uniform_spec(N, row) for row in indices.tolist()]
        assert (block.amps == np.array([spec.coeffs for spec in expected])).all()
        assert block.specs() == expected
        if n == 2:
            # 1/sqrt(2) squares to a sum below 1.0, so the row is rescaled.
            assert (block.amps != block.coeffs).all()

    def test_rows_that_need_renormalization(self):
        rng = np.random.default_rng(5)
        probs = flat_simplex_rows(rng, 200, 7) * (1 + rng.uniform(-5e-10, 5e-10, (200, 1)))
        indices = random_supports(rng, 9, 200, 7)
        block = block_from_probabilities(9, indices, probs)
        assert (block.amps != block.coeffs).any(axis=1).sum() > 150
        assert (block.amps == scalar_coeffs(9, indices, probs)).all()

    def test_blocks_from_specs_keep_their_coefficients(self):
        specs = [spec_from_probabilities(5, (0, 2, 3), (0.2, 0.3, 0.5)), uniform_spec(5, (1, 2, 4))]
        block = block_from_specs(specs)
        assert (block.N, block.n, len(block)) == (5, 3, 2)
        assert (block.amps == np.array([spec.coeffs for spec in specs])).all()
        assert block.indices.tolist() == [[0, 2, 3], [1, 2, 4]]
        with pytest.raises(ValidationError, match="share N and n"):
            block_from_specs([uniform_spec(5, (0,)), uniform_spec(5, (0, 1))])

    @pytest.mark.parametrize(
        "row, probs",
        [
            ((0, 1, 2), (0.5, 0.5, 0.0)),
            ((0, 1, 2), (0.7, 0.5, -0.2)),
            ((0, 1, 2), (0.5, 0.5, float("nan"))),
            ((0, 1, 2), (0.5, 0.5, float("inf"))),
            ((0, 1, 2), (0.5, 0.5 - 1e-310, 1e-310)),
            ((0, 2, 1), (0.2, 0.3, 0.5)),
            ((0, 2, 2), (0.2, 0.3, 0.5)),
            ((0, 2, 6), (0.2, 0.3, 0.5)),
            ((-1, 2, 4), (0.2, 0.3, 0.5)),
            ((0, 1, 2), (0.2, 0.3, 0.5 + 2e-9)),
            ((0, 1, 2), (1e308, 1e308, 0.5)),
        ],
        ids=[
            "zero", "negative", "nan", "inf", "subnormal-square",
            "unsorted", "duplicate", "out-of-range", "negative-index", "sum-off",
            "sum-overflow",
        ],
    )  # fmt: skip
    def test_invalid_rows_rejected_as_the_scalar_builder_rejects_them(self, row, probs):
        with pytest.raises(ValidationError):
            spec_from_probabilities(6, row, probs)
        indices = np.array([(0, 1, 2), row, (3, 4, 5)])
        rows = np.array([(0.2, 0.3, 0.5), probs, (0.2, 0.3, 0.5)])
        with pytest.raises(ValidationError):
            block_from_probabilities(6, indices, rows)
        block_from_probabilities(6, indices[[0, 2]], rows[[0, 2]])


# Entry points that take an N-entry spectrum, and those that build N x N arrays.
SPECTRUM_ENTRY_POINTS = {
    "knowledge_me": knowledge_me,
    "knowledge_frio": lambda spec: knowledge_frio(spec, 0.5),
    "knowledge_concatenated": lambda spec: knowledge_concatenated(spec, 0.5),
    "conditional_conclusive": lambda spec: conditional_conclusive(spec, 0.5),
    "conditional_failure": conditional_failure,
    "dft_distribution": dft_distribution,
    "is_saturating": is_saturating,
    "saturation_report": saturation_report,
    "evaluate_point": lambda spec: evaluate_point(spec, "frio-concatenated", 0.5),
    "evaluate_block": lambda spec: evaluate_block(block_from_specs([spec]), [("me", 0.0)]),
}
DENSE_ENTRY_POINTS = {
    "build_symmetric_set": build_symmetric_set,
    "schmidt_coefficients": schmidt_coefficients,
}


class TestPathLimits:
    """Path counts past the array limits are rejected before anything of
    size N is allocated, where numpy raised MemoryError or ValueError."""

    @pytest.mark.parametrize("name", sorted(SPECTRUM_ENTRY_POINTS))
    @pytest.mark.parametrize("N", [EVAL_BLOCK_ENTRIES + 1, 2**40, 2**64])
    def test_spectra_beyond_the_limit_rejected(self, name, N):
        spec = spec_from_probabilities(N, (0, 1), (0.3, 0.7))
        with pytest.raises(ValidationError, match=f"spectra take at most {EVAL_BLOCK_ENTRIES} "):
            SPECTRUM_ENTRY_POINTS[name](spec)

    @pytest.mark.parametrize("name", sorted(SPECTRUM_ENTRY_POINTS))
    def test_spectra_at_the_limit_computed(self, name):
        spec = spec_from_probabilities(EVAL_BLOCK_ENTRIES, (0, 1), (0.3, 0.7))
        assert SPECTRUM_ENTRY_POINTS[name](spec) is not None

    @pytest.mark.parametrize("name", sorted(DENSE_ENTRY_POINTS))
    @pytest.mark.parametrize("N", [DENSE_MAX_PATHS + 1, 2**20, 2**40])
    def test_dense_arrays_beyond_the_limit_rejected(self, name, N):
        with pytest.raises(ValidationError, match=f"dense arrays take at most {DENSE_MAX_PATHS} "):
            DENSE_ENTRY_POINTS[name](uniform_spec(N, (0, 1)))

    def test_dense_states_at_the_limit_built(self):
        states = build_symmetric_set(uniform_spec(DENSE_MAX_PATHS, (0, 1)))
        assert states.shape == (DENSE_MAX_PATHS, DENSE_MAX_PATHS)

    def test_coherence_needs_no_spectrum(self):
        assert coherence(uniform_spec(2**64, (0, 1))) == pytest.approx(1.0 - 1.0 / 64)
