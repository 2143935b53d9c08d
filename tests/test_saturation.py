import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from duality_lab import saturation
from duality_lab.duality import shannon_entropy
from duality_lab.measurements import conditional_conclusive
from duality_lab.saturation import (
    CensusBlock,
    SupportStructure,
    census_blocks,
    classify_support,
    dft_distribution,
    is_saturating,
    saturating_dimensions,
    saturating_spec,
    saturation_report,
    saturation_scan,
    schmidt_coefficients,
    write_saturation_csv,
)
from duality_lab.states import (
    BLOCK_ROWS,
    Support,
    ValidationError,
    build_symmetric_set,
    spec_from_probabilities,
    uniform_spec,
)

from helpers import detector_specs, iter_specs


def divisors(N):
    return [d for d in range(1, N + 1) if N % d == 0]


def census_flagged(N):
    """Supports the streamed census flags as saturating."""
    return {
        tuple(row)
        for block in census_blocks(N)
        for row in block.indices[block.saturating].tolist()
    }


def equally_spaced_supports(N):
    """All supports of the exact-attainment construction, any divisor spacing."""
    out = set()
    for m in divisors(N):
        n = N // m
        for tau in range(m):
            out.add(tuple(tau + kappa * m for kappa in range(n)))
    return out


class TestDftDistribution:
    def test_single_index_spreads_flat(self):
        spec = uniform_spec(5, (3,))
        np.testing.assert_allclose(dft_distribution(spec), np.full(5, 0.2), atol=1e-12)

    def test_six_path_equally_spaced(self):
        spec = uniform_spec(6, (0, 3))
        expected = np.array([1, 0, 1, 0, 1, 0]) / 3
        np.testing.assert_allclose(dft_distribution(spec), expected, atol=1e-12)

    def test_full_uniform_support_concentrates(self):
        spec = uniform_spec(4, (0, 1, 2, 3))
        expected = np.array([1.0, 0, 0, 0])
        np.testing.assert_allclose(dft_distribution(spec), expected, atol=1e-12)

    @given(detector_specs())
    def test_matches_conclusive_conditional_at_zero_level(self, spec):
        gap = np.abs(dft_distribution(spec) - conditional_conclusive(spec, 0.0)).max()
        assert gap < 1e-12

    @given(detector_specs())
    def test_parseval(self, spec):
        assert dft_distribution(spec).sum() == pytest.approx(1.0, abs=1e-10)

    @given(detector_specs())
    def test_support_size_uncertainty_bound(self, spec):
        spectrum_support = int((dft_distribution(spec) > 1e-12).sum())
        assert spec.n * spectrum_support >= spec.N


class TestSaturatingSpec:
    def test_six_path_construction(self):
        spec = saturating_spec(6, 3, 0)
        assert spec.support.indices == (0, 3)
        np.testing.assert_allclose(spec.amplitudes, np.full(2, 1 / math.sqrt(2)), atol=1e-15)

    def test_offset_construction(self):
        assert saturating_spec(4, 2, 1).support.indices == (1, 3)

    def test_twelve_path_construction(self):
        spec = saturating_spec(12, 4, 2)
        assert spec.support.indices == (2, 6, 10)
        assert spec.n == 3

    # (2^40, 2, 0) asks for 2^39 indices, past the spectrum limit.
    @pytest.mark.parametrize(
        "N, m, tau", [(6, 4, 0), (6, 3, 3), (6, 3, -1), (6, 0, 0), (2**40, 2, 0)]
    )
    def test_invalid_parameters(self, N, m, tau):
        with pytest.raises(ValidationError):
            saturating_spec(N, m, tau)

    @pytest.mark.parametrize("N", range(2, 13))
    def test_exact_bound_attainment(self, N):
        for m in divisors(N):
            n = N // m
            for tau in range(m):
                spectrum = dft_distribution(saturating_spec(N, m, tau))
                attained = {ell for ell in range(N) if ell % n == 0}
                for ell in range(N):
                    target = n / N if ell in attained else 0.0
                    assert abs(spectrum[ell] - target) < 1e-12
                assert int((spectrum > 1e-12).sum()) == m


class TestIsSaturating:
    def test_equally_spaced_support_saturates(self):
        saturating, entropy_sum = is_saturating(saturating_spec(6, 3, 0))
        assert saturating
        assert entropy_sum == pytest.approx(math.log2(6), abs=1e-12)

    def test_adjacent_support_does_not(self):
        saturating, entropy_sum = is_saturating(uniform_spec(6, (0, 1)))
        assert not saturating
        assert entropy_sum > math.log2(6) + 0.05

    def test_trivial_cases(self):
        assert is_saturating(uniform_spec(5, (2,)))[0]
        assert is_saturating(uniform_spec(5, tuple(range(5))))[0]

    @pytest.mark.parametrize("N", [4, 6, 8, 9, 12])
    def test_random_nonuniform_specs_never_saturate(self, N):
        # 10^4 draws per path count; any nonuniform coefficient vector keeps
        # the entropy sum clear of the floor by far more than 1e-6.
        floor = math.log2(N)
        for spec in iter_specs(10_000, seed=N, n_range=(N, N), min_dim=2):
            _, entropy_sum = is_saturating(spec)
            assert entropy_sum > floor + 1e-6


class TestClassifySupport:
    @pytest.mark.parametrize(
        "N, indices, expected",
        [
            (6, (0, 3), SupportStructure.EQUALLY_SPACED),
            (6, (0, 1), SupportStructure.UNEQUALLY_SPACED_ADJACENT),
            (6, (0, 2), SupportStructure.UNEQUALLY_SPACED_NONADJACENT),
            (6, (0, 5), SupportStructure.UNEQUALLY_SPACED_ADJACENT),
            (6, (0, 2, 4), SupportStructure.EQUALLY_SPACED),
            (6, (0, 1, 2), SupportStructure.UNEQUALLY_SPACED_ADJACENT),
            (6, (1, 2, 3), SupportStructure.UNEQUALLY_SPACED_ADJACENT),
            (8, (0, 2, 5), SupportStructure.UNEQUALLY_SPACED_NONADJACENT),
            (6, (0, 1, 3), SupportStructure.OTHER),
            (4, (2,), SupportStructure.EQUALLY_SPACED),
            (4, (0, 1, 2, 3), SupportStructure.EQUALLY_SPACED),
            # The wrap-around gap N - last + first is exact at and beyond intp.
            (2**63 - 1, (5, 6), SupportStructure.UNEQUALLY_SPACED_ADJACENT),
            (2**63 - 1, (0, 2**62), SupportStructure.UNEQUALLY_SPACED_NONADJACENT),
            (2**63, (0, 2**62), SupportStructure.EQUALLY_SPACED),
            (2**64, (0, 1), SupportStructure.UNEQUALLY_SPACED_ADJACENT),
            (10**30, (0, 2, 3), SupportStructure.OTHER),
            (10**30, (7,), SupportStructure.EQUALLY_SPACED),
        ],
    )
    def test_classification(self, N, indices, expected):
        assert classify_support(Support(N=N, indices=indices)) is expected


class TestSaturatingDimensions:
    @pytest.mark.parametrize(
        "N, dims, count",
        [
            (12, [2, 3, 4, 6], 4),
            (18, [2, 3, 6, 9], 4),
            (5, [], 0),
            (2, [], 0),
            (4, [2], 1),
            (9, [3], 1),
            (36, [2, 3, 4, 6, 9, 12, 18], 7),
            (10**9 + 7, [], 0),
            (2**40, [2**k for k in range(1, 40)], 39),
        ],
    )
    def test_values(self, N, dims, count):
        assert saturating_dimensions(N) == (dims, count)

    def test_path_count_validated(self):
        with pytest.raises(ValidationError):
            saturating_dimensions(1)

    @pytest.mark.parametrize("N", [saturation.DIVISOR_MAX_PATHS + 1, 2**64, 10**30])
    def test_path_count_beyond_the_divisor_budget_rejected(self, N):
        # Trial division up to sqrt(2^64) would not return in practice.
        with pytest.raises(ValidationError, match="divisors are searched"):
            saturating_dimensions(N)


class TestSaturationScan:
    def test_six_path_census(self):
        reports = saturation_scan(6)
        assert len(reports) == 2**6 - 1
        flagged = {r.spec.support.indices for r in reports if r.saturating}
        assert flagged == equally_spaced_supports(6)
        assert all(r.bound_ok for r in reports)

    @pytest.mark.parametrize("N", [5, 7, 11, 13])
    def test_prime_path_count_has_only_trivial_saturation(self, N):
        # Tao (2005): at prime N only n = 1 and n = N saturate.
        assert census_flagged(N) == {(k,) for k in range(N)} | {tuple(range(N))}

    def test_composite_path_count_flags_exactly_the_equally_spaced_supports(self):
        assert census_flagged(15) == equally_spaced_supports(15)

    def test_four_path_nontrivial_supports(self):
        flagged = {
            r.spec.support.indices
            for r in saturation_scan(4)
            if r.saturating and 1 < r.support_size < 4
        }
        assert flagged == {(0, 2), (1, 3)}

    def test_budget_guard(self):
        with pytest.raises(ValidationError, match="budget"):
            saturation_scan(25)

    def test_report_computes_the_spectrum_once(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return dft_distribution(spec)

        monkeypatch.setattr(saturation, "dft_distribution", counted)
        saturation_report(uniform_spec(6, (0, 2)))
        assert len(calls) == 1

    def test_report_fields(self):
        report = saturation_report(uniform_spec(6, (0, 1)))
        assert report.support_size == 2
        assert report.lambda_support_size == 5
        assert report.bound_ok
        assert report.structure is SupportStructure.UNEQUALLY_SPACED_ADJACENT


class TestCensusBlocks:
    """The streamed census against the scalar per-support reference."""

    @pytest.mark.parametrize("N", range(2, 13))
    def test_streamed_csv_matches_scalar_reports(self, N):
        # Every field the CSV writes, compared bit for bit; the row format
        # itself is pinned by the independent f-string test below.
        reference = [
            saturation_report(uniform_spec(N, combo))
            for n in range(1, N + 1)
            for combo in itertools.combinations(range(N), n)
        ]
        structures = tuple(SupportStructure)
        rows = [
            (block, i) for block in census_blocks(N) for i in range(len(block.indices))
        ]
        assert [tuple(block.indices[i].tolist()) for block, i in rows] == [
            r.spec.support.indices for r in reference
        ]
        for (block, i), want in zip(rows, reference):
            assert np.array_equal(block.lambda_sq[i], want.lambda_sq)
            assert int(block.lambda_support[i]) == want.lambda_support_size
            assert repr(float(block.entropy_sum[i])) == repr(want.entropy_sum)
            assert bool(block.saturating[i]) == want.saturating
            assert structures[block.structure[i]] is want.structure
            assert (block.n * block.lambda_support[i] >= N) == want.bound_ok

    def test_block_lines_match_an_independent_row_format(self):
        # Rows built here with an f-string, independently of the block
        # formatter that the census writer uses.
        N = 16
        structures = tuple(SupportStructure)
        for block in census_blocks(N):
            cells = zip(
                block.indices.tolist(),
                block.lambda_support.tolist(),
                block.entropy_sum.tolist(),
                block.saturating.tolist(),
                block.structure.tolist(),
            )
            expected = "".join(
                f"{N},{block.n},{'-'.join(map(str, idx))},{size},{h!r},"
                f"{'true' if saturating else 'false'},{structures[code].value}\n"
                for idx, size, h, saturating, code in cells
            )
            assert block.csv_lines() == expected

    def test_two_index_supports_use_the_renormalized_amplitude(self):
        # The squares of (1/sqrt(2), 1/sqrt(2)) do not fsum to 1, so
        # DetectorSpec rescales them, and the rescaled value moves spectra.
        N = 12
        amplitude = uniform_spec(N, (0, 1)).coeffs[0]
        assert amplitude != 1 / math.sqrt(2)
        block = next(b for b in census_blocks(N) if b.n == 2)
        padded = np.zeros((len(block.indices), N))
        np.put_along_axis(padded, block.indices, 1 / math.sqrt(2), axis=1)
        unscaled = np.abs(np.fft.ifft(padded, axis=1) * math.sqrt(N)) ** 2
        assert not np.array_equal(unscaled, block.lambda_sq)
        reference = [saturation_report(uniform_spec(N, row)) for row in block.indices.tolist()]
        assert block.entropy_sum.tolist() == [r.entropy_sum for r in reference]

    def test_spectra_with_exact_zeros_match_the_scalar_entropy(self):
        # Summing zero-padded rows changes the pairwise order and the last
        # digit; the census must sum only the positive entries.
        rows = np.concatenate([b.lambda_sq for b in census_blocks(12)])
        rows = rows[(rows == 0.0).any(axis=1)]
        assert len(rows) > 1000
        padded_sums = -(
            np.where(rows > 0, rows * np.log2(np.where(rows > 0, rows, 1.0)), 0.0)
        ).sum(axis=1)
        exact = [shannon_entropy(row) for row in rows]
        assert padded_sums.tolist() != exact
        for block in census_blocks(12):
            zeros = (block.lambda_sq == 0.0).any(axis=1)
            coefficient = shannon_entropy(uniform_spec(12, range(block.n)).probabilities)
            for row, entropy_sum in zip(block.lambda_sq[zeros], block.entropy_sum[zeros]):
                assert entropy_sum == coefficient + shannon_entropy(row)

    def test_entropy_cells_are_each_rows_own_repr(self):
        # Repeated sums are formatted once per block, keyed by bit pattern:
        # float equality would merge 0.0 with -0.0.
        x = 2.584962500721156
        sums = np.array(
            [x, 0.0, -0.0, 1e-05, x, 1e16, 5e-324, np.nextafter(x, 0.0),
             np.nextafter(x, 4.0), -0.0, 0.0, 1e-05, 5e-324, x]
        )  # fmt: skip
        rows = len(sums)
        block = CensusBlock(
            N=6,
            n=2,
            indices=np.tile(np.array([0, 3]), (rows, 1)),
            lambda_sq=np.zeros((rows, 6)),
            lambda_support=np.full(rows, 3),
            entropy_sum=sums,
            saturating=np.zeros(rows, dtype=bool),
            structure=np.zeros(rows, dtype=np.intp),
        )
        lines = block.csv_lines().splitlines()
        assert [line.split(",")[4] for line in lines] == [repr(h) for h in sums.tolist()]

    def test_memory_stays_flat(self):
        # Streaming N = 16 peaks near 5 MiB; saturation_scan(16), which keeps
        # all 65,535 reports, peaks near 60 MiB.
        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            write_saturation_csv(census_blocks(16), Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_blocks_are_bounded_and_ordered(self):
        # C(16, 8) = 12,870 supports span several blocks.
        blocks = list(census_blocks(16))
        assert max(len(b.indices) for b in blocks) == BLOCK_ROWS
        assert [tuple(row) for b in blocks for row in b.indices.tolist()] == [
            combo for n in range(1, 17) for combo in itertools.combinations(range(16), n)
        ]


class TestSaturatingStatesStructure:
    @pytest.mark.parametrize("N, m, tau", [(6, 3, 0), (6, 3, 2), (8, 2, 1), (12, 4, 3)])
    def test_periodicity_and_orthonormality(self, N, m, tau):
        spec = saturating_spec(N, m, tau)
        n = N // m
        states = build_symmetric_set(spec)
        # Strip the irrelevant global phase so the family repeats exactly.
        phases = np.exp(-2j * np.pi * tau * np.arange(N) / N)
        stripped = states * phases[:, None]
        for level in range(N):
            np.testing.assert_allclose(
                stripped[(level + n) % N], stripped[level], atol=1e-12
            )
        gram = stripped[:n].conj() @ stripped[:n].T
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("N, m, tau", [(6, 3, 0), (9, 3, 1), (12, 6, 5), (8, 4, 0)])
    def test_schmidt_spectrum(self, N, m, tau):
        spec = saturating_spec(N, m, tau)
        n = N // m
        singular = schmidt_coefficients(spec)
        np.testing.assert_allclose(singular[:n], np.full(n, 1 / math.sqrt(n)), atol=1e-10)
        assert np.abs(singular[n:]).max() < 1e-10

    def test_schmidt_spectrum_equals_the_sorted_amplitudes(self):
        # The detector's reduced state is diagonal in the coefficients, so the
        # joint state's Schmidt coefficients are the amplitudes themselves.
        spec = spec_from_probabilities(6, (0, 2, 5), (0.6, 0.3, 0.1))
        singular = schmidt_coefficients(spec)
        expected = np.sort(spec.amplitudes)[::-1]
        np.testing.assert_allclose(singular[:3], expected, atol=1e-10)
        assert np.abs(singular[3:]).max() < 1e-10


class TestCsvOutput:
    def test_rows_and_header(self):
        buffer = io.StringIO()
        write_saturation_csv(census_blocks(6), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "N,n,support,lambda_support,entropy_sum,saturating,structure"
        assert len(lines) == 1 + 2**6 - 1
        (line,) = [line for line in lines if line.startswith("6,2,0-3,")]
        fields = line.split(",")
        assert fields[0] == "6"
        assert fields[1] == "2"
        assert fields[2] == "0-3"
        assert fields[3] == "3"
        assert fields[5] == "true"
        assert fields[6] == "equally-spaced"


class TestNonuniformSaturationGap:
    def test_spectrum_entropy_gap_scales_with_nonuniformity(self):
        spec = spec_from_probabilities(6, (0, 3), (0.6, 0.4))
        _, entropy_sum = is_saturating(spec)
        assert entropy_sum > math.log2(6) + 1e-4
