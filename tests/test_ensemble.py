import io
import json
import math

import numpy as np
import pytest

from duality_lab.ensemble import (
    SweepConfig,
    boundary_envelope,
    resolve_workers,
    run_sweep,
    sample_rng,
    sample_spec,
    two_path_grid_dataset,
    write_manifest,
    write_points_csv,
)
from duality_lab.measurements import Strategy
from duality_lab.states import ValidationError, enumerate_uniform_specs

from helpers import scalar_point


def scalar_row(spec, strategy, xi):
    """(N, n, strategy, xi, K, C, sum, spec) from the scalar formulas."""
    strategy = Strategy(strategy)
    xi = 0.0 if strategy is Strategy.ME else xi
    return (spec.N, spec.n, strategy, xi, *scalar_point(spec, strategy, xi), spec)


def point_row(point):
    return (
        point.N, point.n, point.strategy, point.xi,
        point.knowledge, point.coherence, point.duality_sum, point.spec,
    )  # fmt: skip


def csv_bytes(points):
    buffer = io.StringIO()
    write_points_csv(points, buffer)
    return buffer.getvalue()


class TestSampleSpec:
    def test_single_dimension_is_deterministic(self):
        spec = sample_spec(6, 1, sample_rng(3, 0))
        assert spec.coeffs == (1.0,)

    def test_same_stream_reproduces_the_spec(self):
        first = sample_spec(7, 4, sample_rng(11, 5))
        second = sample_spec(7, 4, sample_rng(11, 5))
        assert first.support == second.support
        assert first.coeffs == second.coeffs

    def test_flat_simplex_mean(self):
        # 10^5 full-support draws: each squared coefficient averages 1/6.
        total = np.zeros(6)
        draws = 100_000
        for index in range(draws):
            total += sample_spec(6, 6, sample_rng(99, index)).probabilities
        np.testing.assert_allclose(total / draws, np.full(6, 1 / 6), atol=5e-3)

    def test_dimension_validated(self):
        with pytest.raises(ValidationError):
            sample_spec(4, 5, sample_rng(0, 0))


class TestSweepConfig:
    def test_strategies_are_coerced(self):
        cfg = SweepConfig(N=4, n=2, samples=5, strategies=(("me", 0.0),), seed=1)
        assert cfg.strategies[0][0].value == "me"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=1, n=1, samples=5, strategies=(("me", 0.0),), seed=1),
            dict(N=4, n=5, samples=5, strategies=(("me", 0.0),), seed=1),
            dict(N=4, n=2, samples=-1, strategies=(("me", 0.0),), seed=1),
            dict(N=4, n=2, samples=0, strategies=(("me", 0.0),), seed=1),
            dict(N=4, n=2, samples=5, strategies=(), seed=1),
            dict(N=4, n=2, samples=5, strategies=(("frio-standard", 1.2),), seed=1),
            dict(N=4, n=2, samples=5, strategies=(("me", 0.0),), seed=-3),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SweepConfig(**kwargs)

    def test_zero_samples_allowed_with_enumeration(self):
        cfg = SweepConfig(
            N=4, n=2, samples=0, strategies=(("me", 0.0),), seed=1,
            include_uniform_enumeration=True,
        )
        assert cfg.samples == 0


class TestRunSweep:
    def test_point_count_and_determinism(self):
        cfg = SweepConfig(
            N=5, n=3, samples=400,
            strategies=(("frio-standard", 0.3), ("frio-concatenated", 0.3)),
            seed=42,
        )
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert len(first.points) == 800
        assert csv_bytes(first.points) == csv_bytes(second.points)

    def test_worker_count_does_not_change_the_dataset(self, monkeypatch):
        monkeypatch.delenv("DUALITY_LAB_THREADS", raising=False)
        cfg = SweepConfig(N=4, n=None, samples=5000, strategies=(("me", 0.0),), seed=9)
        serial = run_sweep(cfg, workers=1)
        threaded = run_sweep(cfg, workers=2)
        assert csv_bytes(serial.points) == csv_bytes(threaded.points)

    def test_uniform_enumeration_only(self):
        cfg = SweepConfig(
            N=6, n=6, samples=0, strategies=(("me", 0.0),), seed=0,
            include_uniform_enumeration=True,
        )
        dataset = run_sweep(cfg)
        assert len(dataset.points) == 2**6 - 1
        # The highest-coherence nontrivial cusp sits at the saturating
        # two-dimensional supports.
        c_two = 1 - math.log2(2) / math.log2(6)
        at_two = [p for p in dataset.points if abs(p.coherence - c_two) < 1e-9]
        best = max(at_two, key=lambda p: p.knowledge)
        assert best.knowledge == pytest.approx(1 - c_two, abs=1e-9)
        assert best.duality_sum == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    def test_trivial_saturation_points_are_covered(self, N):
        cfg = SweepConfig(
            N=N, n=None, samples=0, strategies=(("me", 0.0),), seed=0,
            include_uniform_enumeration=True,
        )
        dataset = run_sweep(cfg)
        assert any(
            abs(p.knowledge) < 1e-9 and abs(p.coherence - 1) < 1e-9 for p in dataset.points
        )
        assert any(
            abs(p.knowledge - 1) < 1e-9 and abs(p.coherence) < 1e-9 for p in dataset.points
        )

    def test_concatenated_cloud_sits_right_of_standard_cloud(self):
        base = dict(N=5, n=None, samples=600, seed=123)
        standard = run_sweep(
            SweepConfig(strategies=(("frio-standard", 0.6),), **base)
        )
        concatenated = run_sweep(
            SweepConfig(strategies=(("frio-concatenated", 0.6),), **base)
        )
        for left, right in zip(standard.points, concatenated.points):
            assert left.spec == right.spec
            assert right.knowledge >= left.knowledge - 1e-9

    def test_mixed_dimensions_match_the_scalar_formulas_in_sample_order(self):
        # 5,000 samples span two chunks; every chunk holds all eight
        # dimensions, each evaluated by its own kernel calls.
        strategies = (("frio-concatenated", 0.3), ("me", 0.0), ("frio-standard", 1.0))
        cfg = SweepConfig(N=8, n=None, samples=5000, strategies=strategies, seed=21)
        specs = []
        for index in range(cfg.samples):
            rng = sample_rng(cfg.seed, index)
            specs.append(sample_spec(8, int(rng.integers(1, 9)), rng))
        assert {spec.n for spec in specs[:4096]} == set(range(1, 9))
        expected = [scalar_row(spec, tag, xi) for spec in specs for tag, xi in strategies]
        assert [point_row(p) for p in run_sweep(cfg, workers=1).points] == expected

    def test_uniform_overlay_matches_the_scalar_formulas(self):
        strategies = (("frio-standard", 0.5), ("frio-concatenated", 1.0))
        cfg = SweepConfig(
            N=5, n=3, samples=0, strategies=strategies, seed=0,
            include_uniform_enumeration=True,
        )
        expected = [
            scalar_row(spec, tag, xi)
            for n in (1, 2, 3)
            for spec in enumerate_uniform_specs(5, n)
            for tag, xi in strategies
        ]
        assert [point_row(p) for p in run_sweep(cfg).points] == expected

    def test_all_dimensions_mode_draws_every_dimension(self):
        cfg = SweepConfig(N=4, n=None, samples=300, strategies=(("me", 0.0),), seed=5)
        dims = {p.n for p in run_sweep(cfg).points}
        assert dims == {1, 2, 3, 4}


class TestTwoPathGrid:
    def test_endpoints_hit_the_trivial_points(self):
        dataset = two_path_grid_dataset((("frio-standard", 0.6),), steps=50)
        first, last = dataset.points[0], dataset.points[-1]
        assert (first.knowledge, first.coherence) == pytest.approx((0.0, 1.0), abs=1e-9)
        assert (last.knowledge, last.coherence) == pytest.approx((1.0, 0.0), abs=1e-9)

    def test_points_are_grouped_per_strategy(self):
        dataset = two_path_grid_dataset(
            (("frio-standard", 0.0), ("frio-standard", 1.0)), steps=30
        )
        assert len(dataset.points) == 60
        assert all(p.xi == 0.0 for p in dataset.points[:30])
        assert all(p.xi == 1.0 for p in dataset.points[30:])

    def test_step_count_validated(self):
        with pytest.raises(ValidationError):
            two_path_grid_dataset((("me", 0.0),), steps=1)

    def test_grid_matches_the_scalar_formulas(self):
        # The first grid point is one-dimensional, the rest two-dimensional.
        strategies = (("me", 0.0), ("frio-standard", 0.3), ("frio-concatenated", 1.0))
        dataset = two_path_grid_dataset(strategies, steps=40)
        specs = [p.spec for p in dataset.points[:40]]
        assert [spec.n for spec in specs[:2]] == [1, 2]
        expected = [scalar_row(spec, tag, xi) for tag, xi in strategies for spec in specs]
        assert [point_row(p) for p in dataset.points] == expected


class TestBoundaryEnvelope:
    def test_single_point(self):
        point = two_path_grid_dataset((("me", 0.0),), steps=2).points[0]
        envelope = boundary_envelope([point], bins=10)
        assert len(envelope) == 1
        center, low, high = envelope[0]
        assert low == high == point.coherence

    def test_envelope_respects_the_duality_bound_binwise(self):
        cfg = SweepConfig(N=4, n=None, samples=2000, strategies=(("me", 0.0),), seed=17)
        dataset = run_sweep(cfg, envelope_bins=50)
        for center, low, high in dataset.envelope:
            bin_left = center - 0.5 / 50
            assert high <= 1 - bin_left + 1e-9
            assert low <= high

    def test_three_path_scan_reaches_full_coherence_at_low_knowledge(self):
        cfg = SweepConfig(N=3, n=3, samples=20_000, strategies=(("me", 0.0),), seed=31)
        dataset = run_sweep(cfg, envelope_bins=100)
        first_bin = dataset.envelope[0]
        assert first_bin[0] < 0.05
        assert first_bin[2] > 0.9

    def test_validation(self):
        with pytest.raises(ValidationError):
            boundary_envelope([], bins=10)
        point = two_path_grid_dataset((("me", 0.0),), steps=2).points[0]
        with pytest.raises(ValidationError):
            boundary_envelope([point], bins=1)


class TestOutputFormats:
    def test_csv_layout(self):
        dataset = two_path_grid_dataset((("frio-standard", 0.6),), steps=3)
        lines = csv_bytes(dataset.points).splitlines()
        assert lines[0] == "N,n,strategy,xi,K,C,sum,support"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert fields[2] == "frio-standard"
        assert fields[3] == "0.6"
        assert fields[7] == "0"
        assert float(fields[5]) == pytest.approx(1.0, abs=1e-12)

    def test_manifest_layout(self):
        dataset = two_path_grid_dataset((("me", 0.0),), steps=4, envelope_bins=10)
        buffer = io.StringIO()
        write_manifest(
            buffer,
            config=dataset.config,
            wall_time=0.25,
            point_count=len(dataset.points),
            envelope=dataset.envelope,
        )
        payload = json.loads(buffer.getvalue())
        assert payload["config"]["mode"] == "two-path-grid"
        assert payload["point_count"] == 4
        assert payload["wall_time"] == 0.25
        assert payload["envelope"]


class TestResolveWorkers:
    def test_environment_caps_the_request(self, monkeypatch):
        monkeypatch.setenv("DUALITY_LAB_THREADS", "2")
        assert resolve_workers(8) == 2

    def test_invalid_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv("DUALITY_LAB_THREADS", "zero")
        with pytest.raises(ValidationError):
            resolve_workers(2)
        monkeypatch.setenv("DUALITY_LAB_THREADS", "0")
        with pytest.raises(ValidationError):
            resolve_workers(2)

    def test_invalid_request_rejected(self, monkeypatch):
        monkeypatch.delenv("DUALITY_LAB_THREADS", raising=False)
        with pytest.raises(ValidationError):
            resolve_workers(0)
