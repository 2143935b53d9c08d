import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import duality_lab
from duality_lab import ensemble
from duality_lab.ensemble import (
    Envelope,
    ScatterDataset,
    SweepConfig,
    boundary_envelope,
    run_sweep,
    sample_rng,
    sample_spec,
    sweep_chunks,
    two_path_grid,
    write_chunks,
    write_manifest,
    write_points_csv,
)
from duality_lab.duality import EVAL_BLOCK_ENTRIES, evaluate_block, strategy_pair
from duality_lab.measurements import Strategy
from duality_lab.states import (
    BLOCK_ROWS,
    ValidationError,
    enumerate_uniform_specs,
    support_label,
    uniform_block,
)
from duality_lab.verify import run_verification

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


def csv_bytes(dataset):
    buffer = io.StringIO()
    write_points_csv(dataset, buffer)
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

    @pytest.mark.parametrize(
        "n_paths", [2.0, float("inf"), np.int64(4), True, 1, -3, None, "6", 2**63, 2**70]
    )
    def test_path_count_validated(self, n_paths):
        with pytest.raises(ValidationError, match="path"):
            sample_spec(n_paths, 1, sample_rng(0, 0))

    @pytest.mark.parametrize("n", [EVAL_BLOCK_ENTRIES + 1, 2**40])
    def test_dimension_beyond_the_sweep_limit_rejected(self, n):
        # A sweep draws at most EVAL_BLOCK_ENTRIES coefficients; a huge n made
        # numpy's choice raise MemoryError or crash.
        with pytest.raises(ValidationError, match="coefficients"):
            sample_spec(n, n, sample_rng(0, 0))

    def test_largest_int64_path_count_draws(self):
        spec = sample_spec(2**63 - 1, 1, sample_rng(0, 0))
        assert spec.N == 2**63 - 1 and spec.coeffs == (1.0,)


def sweep_config(strategies):
    return SweepConfig(N=4, n=2, samples=5, strategies=strategies, seed=1)


class TestStrategyPairs:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: strategy_pair("bogus", 0),
            lambda: strategy_pair("frio-standard", "x"),
            lambda: strategy_pair("frio-standard", None),
            lambda: sweep_config((("me", "x"),)),
            lambda: sweep_config((("bogus", 0.0),)),
            lambda: sweep_config(()),
            lambda: sweep_config((("me",),)),
            lambda: two_path_grid(()),
            lambda: two_path_grid((("bogus", 0.0),)),
            lambda: two_path_grid((("frio-concatenated", 1.5),)),
            lambda: evaluate_block(uniform_block(4, [[0, 1]]), ()),
            lambda: evaluate_block(uniform_block(4, [[0, 1]]), (("me", "x"),)),
            # Repeated once the minimum-error level is normalized to 0.0.
            lambda: sweep_config((("me", 0.0), ("frio-standard", 0.5), (Strategy.ME, 0.7))),
            lambda: strategy_pair("frio-standard", True),
            lambda: sweep_config((("frio-concatenated", np.bool_(False)),)),
        ],
        ids=[
            "unknown-strategy", "text-level", "missing-level", "config-text-level",
            "config-unknown-strategy", "config-empty", "config-short-pair", "grid-empty",
            "grid-unknown-strategy", "grid-level-range", "block-empty", "block-text-level",
            "config-repeated-pair", "bool-level", "config-bool-level",
        ],
    )  # fmt: skip
    def test_invalid_pairs_raise_validation_error(self, build):
        with pytest.raises(ValidationError):
            build()


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

    def test_minimum_error_level_is_recorded_as_zero(self):
        cfg = SweepConfig(N=4, n=2, samples=5, strategies=(("me", 0.7),), seed=1)
        assert cfg.strategies == ((Strategy.ME, 0.0),)
        assert cfg.to_json_dict()["strategies"] == [["me", 0.0]]

    def test_zero_samples_allowed_with_enumeration(self):
        cfg = SweepConfig(
            N=4, n=2, samples=0, strategies=(("me", 0.0),), seed=1,
            include_uniform_enumeration=True,
        )
        assert cfg.samples == 0


def reference_state(seed, index):
    state = sample_rng(seed, index).bit_generator.state["state"]
    return state["state"], state["inc"]


def derived_states(seed, start, stop):
    """``ensemble._pcg64_states`` as ``(state, inc)`` ints, one per sample."""
    state, inc = ensemble._pcg64_states(seed, start, stop)
    return list(zip(ensemble._ints(state), ensemble._ints(inc)))


class TestChunkSeeding:
    """The sweep derives each chunk's generator states in one pass instead of
    constructing ``sample_rng`` per sample; both must give the same streams."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1])
    def test_derived_states_equal_numpy_seeding(self, seed):
        # Across a chunk boundary, and across the switch to two-word indices.
        states = derived_states(seed, 0, 4098)
        for index in (0, 1, 4095, 4096, 4097):
            assert states[index] == reference_state(seed, index)
        states = derived_states(seed, 2**32 - 1, 2**32 + 8)
        for index in (2**32 - 1, 2**32, 2**32 + 7):
            assert states[index - (2**32 - 1)] == reference_state(seed, index)

    def test_a_draw_can_leave_a_buffered_half_word(self):
        # Why every sample's state resets `has_uint32`: three of six paths
        # leave half of a 64-bit draw behind.
        rng = sample_rng(0, 0)
        ensemble._draw(rng, 6, 3)
        assert rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("buffered", [0, 1])
    def test_a_one_value_path_count_draws_nothing(self, buffered):
        # Why a sweep's one N is the range (N, N): numpy returns the one
        # value without touching the stream or its buffered half-word.
        rng = sample_rng(0, 0)
        if buffered:
            ensemble._draw(rng, 6, 3)
        before = rng.bit_generator.state
        assert before["has_uint32"] == buffered
        assert rng.integers(6, 7) == 6
        assert rng.bit_generator.state == before

    # Each entry point's first chunk starts with a scenario that each fault
    # changes: the runtime check compares only a chunk's first sample.
    ENTRY_POINTS = {
        "scan": lambda: run_sweep(SweepConfig(N=6, n=6, samples=10, strategies=(("me", 0.0),), seed=3)),
        "verify": lambda: run_verification(10, seed=0, n_range=(2, 8)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_wrong_derived_state_fails_the_sweep(self, monkeypatch, entry):
        derive = ensemble._pcg64_states

        def shifted(seed, start, stop):
            state, inc = derive(seed, start, stop)
            return state ^ np.array([[1], [0]], dtype=np.uint64), inc

        monkeypatch.setattr(ensemble, "_pcg64_states", shifted)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds PCG64"):
            self.ENTRY_POINTS[entry]()

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("fault", ["consumption", "support"])
    def test_wrong_emulated_draws_fail_the_sweep(self, monkeypatch, fault, entry):
        if fault == "consumption":  # one raw word too many before the exponentials
            bounds, extra = ensemble._draw_bounds, np.uint64([2, 2])
            monkeypatch.setattr(ensemble, "_draw_bounds", lambda *args: np.append(bounds(*args), extra))
        else:  # Floyd's set without its collision rule
            monkeypatch.setattr(ensemble, "_floyd_picks", lambda values, N: values)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__} draws differently"):
            self.ENTRY_POINTS[entry]()


def counted_draws(monkeypatch):
    """Records every ``ensemble._draw`` call: the chunk's check of its first
    sample makes one, and each sample drawn by ``_draw_scenario`` instead of
    the emulation one more."""
    calls = []
    draw = ensemble._draw

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(ensemble, "_draw", counted)
    return calls


def chunk_draws(cfg, start, stop):
    """``ensemble._chunk_draws`` of a sweep's samples: its one N is the
    range ``(N, N)``."""
    return ensemble._chunk_draws(cfg.seed, (cfg.N, cfg.N), cfg.n, start, stop)


class TestChunkDraws:
    """A chunk emulates each sample's path-count, dimension and support
    draws from its raw PCG64 words; every sample must still get the numbers
    that numpy draws from ``sample_rng``."""

    @staticmethod
    def assert_draws_match(seed, paths, n, start, stop):
        draws = []
        for i in range(start, stop):
            rng = sample_rng(seed, i)
            N = int(rng.integers(paths[0], paths[1] + 1))
            draws.append((N, *ensemble._draw(rng, N, n)))
        groups = ensemble._chunk_draws(seed, paths, n, start, stop)
        assert [(N, supports.shape[1]) for N, _, supports, _ in groups] == sorted(
            {(N, len(weights)) for N, _, weights in draws}
        )
        got = {}
        for N, positions, supports, weights in groups:
            got.update((i, (N, *draw)) for i, draw in zip(positions.tolist(), zip(supports, weights)))
        assert sorted(got) == list(range(stop - start))
        for i, (N, support, weights) in enumerate(draws):
            assert got[i][0] == N
            np.testing.assert_array_equal(np.sort(got[i][1]), np.sort(support))
            np.testing.assert_array_equal(got[i][2], weights)

    @classmethod
    def assert_sweep_draws_match(cls, cfg, start, stop):
        cls.assert_draws_match(cfg.seed, (cfg.N, cfg.N), cfg.n, start, stop)

    @pytest.mark.parametrize("N", range(2, 25))
    def test_every_dimension_across_a_chunk_boundary(self, N):
        # A sweep takes N >= 2 paths, drawn from the one-value range (N, N).
        # n = None draws the dimension first.
        for n in [None, *range(1, N + 1)]:
            cfg = SweepConfig(N=N, n=n, samples=2 * BLOCK_ROWS, strategies=(("me", 0.0),), seed=N)
            size = 48 if n is None else 8
            self.assert_sweep_draws_match(cfg, BLOCK_ROWS - size, BLOCK_ROWS)
            self.assert_sweep_draws_match(cfg, BLOCK_ROWS, BLOCK_ROWS + size)

    @pytest.mark.parametrize(
        "seed, paths, n",
        [
            (0, (2, 8), None),
            (3, (2, 64), None),
            (2**64, (9, 24), None),
            (2**200 + 1, (2, 64), None),
            (5, (6, 9), 3),
            # Long Floyd chains: every step of a full-dimension support, and
            # 64 steps out of 200.
            (7, (64, 64), 64),
            (9, (200, 200), 64),
        ],
        ids=[
            "n2to8",
            "n2to64",
            "n9to24-seed-2^64",
            "n2to64-seed-2^200",
            "n6to9-fixed-dimension",
            "n64-full-dimension",
            "n200-dimension-64",
        ],
    )
    def test_path_count_ranges_across_a_chunk_boundary(self, seed, paths, n):
        # verify's ranges draw the path count first, from the first word's
        # low half, then the dimension from its high half.
        self.assert_draws_match(seed, paths, n, BLOCK_ROWS - 300, BLOCK_ROWS)
        self.assert_draws_match(seed, paths, n, BLOCK_ROWS, BLOCK_ROWS + 300)

    @pytest.mark.parametrize(
        "N, n, seed, start, stop",
        [
            # About one draw in 16,000 has a low product word below its
            # bound at 2^18 paths; two of these 4,096 samples have one.
            (EVAL_BLOCK_ENTRIES, 5, 0, 0, BLOCK_ROWS),
            # numpy rejects the dimension draw of sample 322,803.
            (10000, None, 1, 322800, 322806),
        ],
        ids=["support", "dimension"],
    )
    def test_draws_numpy_may_reject_are_redrawn(self, monkeypatch, N, n, seed, start, stop):
        cfg = SweepConfig(N=N, n=n, samples=stop, strategies=(("me", 0.0),), seed=seed)
        calls = counted_draws(monkeypatch)
        chunk_draws(cfg, start, stop)
        assert len(calls) >= 2
        monkeypatch.undo()
        self.assert_sweep_draws_match(cfg, start, stop)

    @pytest.mark.parametrize("n, redrawn", [(200, False), (201, True)])
    def test_tail_shuffled_choices_are_drawn_per_sample(self, monkeypatch, n, redrawn):
        # Above 10,000 paths numpy shuffles the tail of range(N) once
        # n > N // 50. At n = 200 none of these samples has a draw numpy may
        # reject, so with the dimension limit raised to n only the check
        # calls _draw.
        cfg = SweepConfig(N=10001, n=n, samples=24, strategies=(("me", 0.0),), seed=2)
        monkeypatch.setattr(ensemble, "_EMULATED_MAX_DIMENSION", n)
        calls = counted_draws(monkeypatch)
        chunk_draws(cfg, 0, 24)
        assert len(calls) == (1 + 24 if redrawn else 1)
        monkeypatch.undo()
        self.assert_sweep_draws_match(cfg, 0, 24)

    @pytest.mark.parametrize("above", [False, True])
    def test_dimensions_above_the_limit_are_drawn_per_sample(self, monkeypatch, above):
        # None of these samples has a draw numpy may reject.
        n = ensemble._EMULATED_MAX_DIMENSION + above
        cfg = SweepConfig(N=1000, n=n, samples=24, strategies=(("me", 0.0),), seed=4)
        calls = counted_draws(monkeypatch)
        chunk_draws(cfg, 0, 24)
        assert len(calls) == (1 + 24 if above else 1)
        monkeypatch.undo()
        self.assert_sweep_draws_match(cfg, 0, 24)

    def test_memory_stays_small_at_the_path_limit(self):
        # A (4096, N) membership table would take 1 GiB at N = 2^18.
        cfg = SweepConfig(N=EVAL_BLOCK_ENTRIES, n=5, samples=BLOCK_ROWS, strategies=(("me", 0.0),), seed=0)
        tracemalloc.start()
        try:
            chunk_draws(cfg, 0, BLOCK_ROWS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def first_slow_branches(seed, start, stop, N, n):
    """By sample, the branch of numpy's ziggurat at the first of its unit
    exponentials that leaves the fast path: "tail" (level 0), "accept" (the
    level test takes one more word) or "restart" (more words). Samples on
    the fast path throughout are left out."""
    branches = {}
    for index in range(start, stop):
        rng = sample_rng(seed, index)
        size = int(rng.integers(1, N + 1)) if n is None else n
        rng.choice(N, size=size, replace=False)
        bits = rng.bit_generator
        for _ in range(size):
            peek = np.random.PCG64()
            peek.state = bits.state
            level = int(peek.random_raw()) >> 3 & 0xFF
            rng.standard_exponential()
            used = 1
            while peek.state["state"] != bits.state["state"]:
                peek.random_raw()
                used += 1
            if used > 1:
                branches[index] = "tail" if level == 0 else "accept" if used == 2 else "restart"
                break
    return branches


class TestChunkExponentials:
    """The sweep takes each unit exponential that numpy's ziggurat draws on
    its fast path from the raw word, and has numpy draw the rest of a sample
    from its first other word; every sample must still get ``_draw``'s
    numbers."""

    @pytest.mark.parametrize("N, n, seed", [(6, 6, 5), (9, None, 8)], ids=["n=6", "n=all"])
    def test_rows_leaving_the_fast_path_by_each_branch(self, N, n, seed):
        branches = first_slow_branches(seed, 0, BLOCK_ROWS, N, n)
        assert set(branches.values()) == {"tail", "accept", "restart"}
        cfg = SweepConfig(N=N, n=n, samples=BLOCK_ROWS, strategies=(("me", 0.0),), seed=seed)
        TestChunkDraws.assert_sweep_draws_match(cfg, 0, BLOCK_ROWS)

    @pytest.mark.parametrize(
        "seed, start", [(3, 2**32 - BLOCK_ROWS // 2), (2**64, 0), (2**128 + 1, BLOCK_ROWS)]
    )
    def test_wide_seeds_and_indices(self, seed, start):
        # The first chunk crosses to two-word indices.
        stop = start + BLOCK_ROWS
        cfg = SweepConfig(N=6, n=6, samples=stop, strategies=(("me", 0.0),), seed=seed)
        TestChunkDraws.assert_sweep_draws_match(cfg, start, stop)


def exact_ke(rng, level):
    """The least ri that numpy's ziggurat does not take on its fast path at
    ``level``, by bisection: a fast draw takes one word."""
    low, high = 0, 1 << 53
    while low < high:
        ri = (low + high) // 2
        ensemble._set_words(rng, ri << 11 | level << 3, 1).standard_exponential()
        if rng.bit_generator.state["state"]["state"] == ri << 11 | level << 3:
            low = ri + 1
        else:
            high = ri
    return low


class TestExponentialTables:
    def test_probed_tables_agree_with_a_full_reprobe(self):
        rng = sample_rng(0, 0)
        we, ke = ensemble._exponential_tables()
        for level in range(256):
            exact = exact_ke(rng, level)
            assert ke[level] <= exact <= ke[level] + 2 * ensemble._KE_MARGIN
            if exact:  # ri = 2^20 is on the fast path and scales we exactly
                ensemble._set_words(rng, 1 << 31 | level << 3, 1)
                assert rng.standard_exponential() == 2.0**20 * we[level]
        assert ke[1] == 0

    @pytest.mark.parametrize("table", ["we", "ke"])
    def test_a_corrupted_entry_fails_the_check(self, table):
        rng = sample_rng(0, 0)
        we, ke = (values.copy() for values in ensemble._exponential_tables())
        if table == "we":
            we[100] = np.nextafter(we[100], 1.0)
        else:  # one past numpy's bound
            ke[100] = exact_ke(rng, 100) + 1
        message = f"numpy {np.__version__} draws standard exponentials"
        with pytest.raises(RuntimeError, match=message):
            ensemble._check_exponential_tables(rng, we, ke)

    def test_the_tables_are_read_only(self):
        we, ke = ensemble._exponential_tables()
        assert not (we.flags.writeable or ke.flags.writeable)


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
        assert csv_bytes(first) == csv_bytes(second)

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
        assert [point_row(p) for p in run_sweep(cfg).points] == expected

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
        dataset = ScatterDataset(*two_path_grid((("frio-standard", 0.6),), steps=50))
        first, last = dataset.points[0], dataset.points[-1]
        assert (first.knowledge, first.coherence) == pytest.approx((0.0, 1.0), abs=1e-9)
        assert (last.knowledge, last.coherence) == pytest.approx((1.0, 0.0), abs=1e-9)

    def test_points_are_grouped_per_strategy(self):
        dataset = ScatterDataset(
            *two_path_grid((("frio-standard", 0.0), ("frio-standard", 1.0)), steps=30)
        )
        assert len(dataset.points) == 60
        assert all(p.xi == 0.0 for p in dataset.points[:30])
        assert all(p.xi == 1.0 for p in dataset.points[30:])

    def test_step_count_validated(self):
        with pytest.raises(ValidationError):
            two_path_grid((("me", 0.0),), steps=1)

    def test_chunks_hold_one_pair_and_one_block_each(self):
        pairs = (("frio-standard", 0.2), ("frio-concatenated", 0.9))
        steps = 2 * BLOCK_ROWS + 3
        config, chunks = two_path_grid(pairs, steps)
        chunks = list(chunks)
        # The n = 1 row, then three blocks of the others, for each pair.
        assert len(chunks) == 2 * 4
        for c, (blocks, order) in enumerate(chunks):
            (block,) = blocks
            assert block.pairs == (strategy_pair(*pairs[c // 4]),)
            assert block.knowledge.shape == block.duality_sum.shape == (len(block), 1)
            assert 1 <= len(block) <= BLOCK_ROWS
            assert order.tolist() == list(range(len(block)))
        assert sum(len(order) for _, order in chunks) == 2 * steps
        assert config == {
            "mode": "two-path-grid", "N": 2, "steps": steps,
            "strategies": [["frio-standard", 0.2], ["frio-concatenated", 0.9]],
        }  # fmt: skip

    def test_grid_matches_the_scalar_formulas(self):
        # The first grid point is one-dimensional, the rest two-dimensional.
        strategies = (("me", 0.0), ("frio-standard", 0.3), ("frio-concatenated", 1.0))
        dataset = ScatterDataset(*two_path_grid(strategies, steps=40))
        specs = [p.spec for p in dataset.points[:40]]
        assert [spec.n for spec in specs[:2]] == [1, 2]
        expected = [scalar_row(spec, tag, xi) for tag, xi in strategies for spec in specs]
        assert [point_row(p) for p in dataset.points] == expected


class TestBoundaryEnvelope:
    def test_single_point(self):
        dataset = run_sweep(SweepConfig(N=3, n=2, samples=1, strategies=(("me", 0.0),), seed=0))
        (point,) = dataset.points
        envelope = boundary_envelope(dataset, bins=10)
        assert len(envelope) == 1
        center, low, high = envelope[0]
        assert low == high == point.coherence

    def test_envelope_respects_the_duality_bound_binwise(self):
        cfg = SweepConfig(N=4, n=None, samples=2000, strategies=(("me", 0.0),), seed=17)
        for center, low, high in boundary_envelope(run_sweep(cfg), 50):
            bin_left = center - 0.5 / 50
            assert high <= 1 - bin_left + 1e-9
            assert low <= high

    def test_three_path_scan_reaches_full_coherence_at_low_knowledge(self):
        cfg = SweepConfig(N=3, n=3, samples=20_000, strategies=(("me", 0.0),), seed=31)
        first_bin = boundary_envelope(run_sweep(cfg), 100)[0]
        assert first_bin[0] < 0.05
        assert first_bin[2] > 0.9

    def test_blocks_and_points_give_the_reference_envelope(self):
        cfg = SweepConfig(
            N=5, n=None, samples=700, seed=8,
            strategies=(("frio-concatenated", 0.4), ("frio-standard", 0.9)),
            include_uniform_enumeration=True,
        )
        dataset = run_sweep(cfg)
        lows, highs = {}, {}
        for point in dataset.points:
            slot = min(int(point.knowledge * 30), 29)
            lows[slot] = min(lows.get(slot, point.coherence), point.coherence)
            highs[slot] = max(highs.get(slot, point.coherence), point.coherence)
        expected = tuple(((slot + 0.5) / 30, lows[slot], highs[slot]) for slot in sorted(lows))
        assert boundary_envelope(dataset, 30) == expected

    def test_folding_in_parts_keeps_every_bit(self):
        # Equal extremes keep the first one seen, so the signed zeros show
        # the fold order; parts must give what one call gives.
        knowledge = np.array([0.1, 0.15, 0.9, 0.12, 0.95, 0.5])
        coherence = np.array([0.0, -0.0, 0.3, 0.0, -0.0, 0.2])
        whole, parts = Envelope(4), Envelope(4)
        whole.add(knowledge, coherence)
        for part in (slice(0, 1), slice(1, 4), slice(4, 4), slice(4, 6)):
            parts.add(knowledge[part], coherence[part])
        assert repr(parts.bounds()) == repr(whole.bounds())
        assert repr(whole.bounds()[0]) == "(0.125, 0.0, 0.0)"

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one point"):
            Envelope(10).bounds()
        dataset = ScatterDataset(*two_path_grid((("me", 0.0),), steps=2))
        with pytest.raises(ValidationError, match="bin count"):
            boundary_envelope(dataset, bins=1)

    @pytest.mark.parametrize("bins", [0, 1, -1, 2.5, True, EVAL_BLOCK_ENTRIES + 1])
    def test_bin_counts_outside_the_range_rejected(self, bins):
        with pytest.raises(ValidationError, match="bin count"):
            Envelope(bins)


class TestOutputFormats:
    def test_csv_layout(self):
        dataset = ScatterDataset(*two_path_grid((("frio-standard", 0.6),), steps=3))
        lines = csv_bytes(dataset).splitlines()
        assert lines[0] == "N,n,strategy,xi,K,C,sum,support"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert fields[2] == "frio-standard"
        assert fields[3] == "0.6"
        assert fields[7] == "0"
        assert float(fields[5]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dataset",
        [
            lambda: run_sweep(SweepConfig(
                N=7, n=None, samples=600, seed=12,
                strategies=(("frio-concatenated", 0.0), ("frio-concatenated", 0.7)),
                include_uniform_enumeration=True,
            )),
            lambda: ScatterDataset(
                *two_path_grid((("me", 0.0), ("frio-standard", 0.35)), steps=25)
            ),
        ],
        ids=["sweep", "grid"],
    )  # fmt: skip
    def test_blocks_write_the_csv_writer_bytes(self, dataset):
        dataset = dataset()
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["N", "n", "strategy", "xi", "K", "C", "sum", "support"])
        for p in dataset.points:
            writer.writerow([
                p.N, p.n, p.strategy.value, repr(p.xi), repr(p.knowledge),
                repr(p.coherence), repr(p.duality_sum), support_label(p.spec.support.indices),
            ])  # fmt: skip
        assert csv_bytes(dataset) == reference.getvalue()
        assert dataset.point_count == len(dataset.points)

    def test_streamed_chunks_write_the_collected_dataset(self):
        cfg = SweepConfig(
            N=5, n=None, samples=5000, seed=6,
            strategies=(("frio-standard", 0.2), ("frio-concatenated", 0.8)),
            include_uniform_enumeration=True,
        )
        dataset = run_sweep(cfg)
        envelope, buffer = Envelope(25), io.StringIO()
        assert write_chunks(buffer, sweep_chunks(cfg), envelope) == 10_062
        assert buffer.getvalue() == csv_bytes(dataset)
        assert envelope.bounds() == boundary_envelope(dataset, 25)
        assert dataset.point_count == 10_062

    def test_a_dataset_is_written_one_chunk_at_a_time(self, monkeypatch):
        # write_points_csv writes a dataset's chunks as scan streams them: the
        # same bytes and envelope, and a traced peak set by one chunk's rows,
        # whatever the chunk count. One process, so that BLOCK_ROWS samples
        # are one chunk: W processes cut them into W.
        monkeypatch.setattr(ensemble, "resolve_workers", lambda: 1)
        def config(samples, uniform):
            return SweepConfig(
                N=8, n=None, samples=samples, seed=9,
                strategies=(("frio-standard", 0.3), ("frio-concatenated", 0.8)),
                include_uniform_enumeration=uniform,
            )  # fmt: skip

        class Discard:
            def write(self, text):
                pass

            def writelines(self, lines):
                pass

        def peak(dataset):
            tracemalloc.start()
            try:
                write_points_csv(dataset, Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cfg = config(4 * BLOCK_ROWS, True)
        dataset = run_sweep(cfg)
        assert len(dataset.chunks) >= 10
        envelope, streamed = Envelope(40), io.StringIO()
        write_chunks(streamed, sweep_chunks(cfg), envelope)
        assert csv_bytes(dataset) == streamed.getvalue()
        assert boundary_envelope(dataset, 40) == envelope.bounds()
        one_chunk = run_sweep(config(BLOCK_ROWS, False))
        assert len(one_chunk.chunks) == 1
        assert peak(dataset) <= 1.5 * peak(one_chunk)

    def test_manifest_records_what_ran(self):
        buffer = io.StringIO()
        write_manifest(buffer, config={}, wall_time=0.5, point_count=0, envelope=None)
        payload = json.loads(buffer.getvalue())
        assert payload["rng_contract"] == 1
        assert payload["package_version"] == duality_lab.__version__
        assert payload["python_version"] == platform.python_version()
        assert payload["numpy_version"] == np.__version__
        # platform.platform()'s Linux text less the processor name: on a Linux
        # host whose `uname -p` names no other processor, the same text.
        host = [platform.system(), platform.release(), platform.machine()]
        libc = "".join(platform.libc_ver())
        assert payload["platform"] == "-".join(host + ["with", libc] if libc else host)

    def test_manifest_starts_no_process(self):
        # On Linux, the first platform.platform() call of an interpreter runs
        # `uname -p` for the processor name.
        code = (
            "import io, subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('write_manifest started a process')\n"
            "subprocess.Popen = refuse\n"
            "from duality_lab.ensemble import write_manifest\n"
            "write_manifest(io.StringIO(), config={}, wall_time=0.0, point_count=0, "
            "envelope=None)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(duality_lab.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr

    def test_manifest_layout(self):
        dataset = ScatterDataset(*two_path_grid((("me", 0.0),), steps=4))
        buffer = io.StringIO()
        write_manifest(
            buffer,
            config=dataset.config,
            wall_time=0.25,
            point_count=len(dataset.points),
            envelope=boundary_envelope(dataset, 10),
        )
        payload = json.loads(buffer.getvalue())
        assert payload["config"]["mode"] == "two-path-grid"
        assert payload["point_count"] == 4
        assert payload["wall_time"] == 0.25
        assert payload["envelope"]
