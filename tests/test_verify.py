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
    spec_to_json_dict,
    uniform_spec,
)
from duality_lab.verify import DEFAULT_XI_GRID, run_verification

from helpers import draw_spec, iter_specs


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
        replay = json.dumps(spec_to_json_dict(specs[target]))
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
        replay = json.dumps(spec_to_json_dict(specs[target]))
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
            "225d0735e24181cd9335362e7f266ab2da764b9a3e1274c5e61b21cc7e2d6d10"
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
                public = build_symmetric_set(spec).states
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
        # one sample_rng call is the chunk's seeding check in
        # _sample_generators, made for its first scenario.
        ensemble = sys.modules["duality_lab.ensemble"]
        draws = [self.count_calls(monkeypatch, ensemble, n) for n in ("sample_rng", "sample_spec")]
        samples = 60
        results = run_verification(samples, seed=0, fault="gk-sign")
        assert [calls[0] for calls in draws] == [1, 0]
        monkeypatch.undo()
        # A replay holds squared coefficients, so it is compared with the
        # scenario's own JSON, and read back as a valid scenario. Violations
        # come in index order, so each is matched with the first scenario
        # from the last match on.
        scenarios = [spec_to_json_dict(draw_spec(0, index, (2, 8))) for index in range(samples)]
        replayed = []
        for result in results:
            index = 0
            for violation in result.violations:
                replay = json.loads(violation.split(" | replay spec: ")[1])
                index = next((i for i in range(index, samples) if scenarios[i] == replay), None)
                assert index is not None
                spec_from_json_dict(replay)
                replayed.append(replay)
        # Under the fault every scenario fails and is replayed.
        assert all(scenario in replayed for scenario in scenarios)


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
        keys = [(block.N, block.n) for _, block in chunk.groups]
        assert keys == sorted(set(keys))
        drawn = np.concatenate([rows for rows, _ in chunk.groups])
        assert sorted(drawn.tolist()) == list(range(stop - start))
        for rows, block in chunk.groups:
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
