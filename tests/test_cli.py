import contextlib
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from duality_lab import cli, ensemble
from duality_lab.cli import main
from duality_lab.duality import EVAL_BLOCK_ENTRIES
from duality_lab.measurements import COMPLETENESS_ATOL
from duality_lab.states import (
    enumerate_uniform_specs,
    spec_from_json_dict,
    spec_to_json_dict,
    uniform_block,
    uniform_spec,
)
from duality_lab.verify import TOLERANCES, run_verification


def run_cli(*argv):
    return main(list(argv))


class TestUsageErrors:
    def test_missing_command(self, capsys):
        assert run_cli() == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_unknown_flag(self):
        assert run_cli("scan", "--N", "4", "--bogus") == 2
        # The sweep's process count follows the usable CPUs; it is no flag.
        assert run_cli("scan", "--N", "4", "--workers", "2") == 2

    def test_help_exits_clean(self, capsys):
        assert run_cli("--help") == 0
        assert "scan" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, spec_text",
        [
            (["--N", "4", "--support", "0,1", "--coeffs-sq", "x"], None),
            (["--N", "4", "--support", "a"], None),
            (["--spec"], "not json {"),
            (["--spec"], '{"N": 4, "support": 5, "coeffs_sq": [1.0]}'),
            (["--spec"], '{"N": 4, "support": [0, 1.7], "coeffs_sq": [0.5, 0.5]}'),
            (["--spec"], '{"N": 4, "support": [true, 2], "coeffs_sq": [0.5, 0.5]}'),
            (["--spec"], '{"N": 4, "support": ["1", 2], "coeffs_sq": [0.5, 0.5]}'),
        ],
        ids=[
            "coeffs-sq-text", "support-text", "spec-not-json", "spec-support-int",
            "spec-support-fraction", "spec-support-bool", "spec-support-string",
        ],
    )
    def test_malformed_povm_input(self, argv, spec_text, tmp_path, capsys):
        if spec_text is not None:
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(spec_text)
            argv = argv + [str(spec_path)]
        assert run_cli("povm", *argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestScan:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(
            "scan", "--N", "6", "--n", "6", "--samples", "250",
            "--strategy", "me", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,n,strategy,xi,K,C,sum,support"
        assert len(lines) == 251
        for line in lines[1:]:
            assert float(line.split(",")[6]) <= 1 + 1e-9
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["point_count"] == 250
        assert manifest["config"]["N"] == 6
        assert manifest["config"]["seed"] == 7

    def test_repeat_runs_are_identical(self, tmp_path):
        args = (
            "scan", "--N", "5", "--n", "all", "--samples", "200",
            "--strategy", "conc", "--xi", "0.3,0.9", "--seed", "3",
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_grid_mode_requires_two_paths(self, tmp_path, capsys):
        assert run_cli("scan", "--N", "3", "--grid", "50") == 2
        # Nor does it take the uniform overlay, which it used to drop silently.
        capsys.readouterr()
        assert run_cli("scan", "--N", "2", "--grid", "3", "--include-uniform") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid mode has no uniform enumeration (--include-uniform)\n"

    def test_grid_mode_dataset(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli(
            "scan", "--N", "2", "--grid", "200", "--strategy", "frio",
            "--xi", "0,0.6,1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 200
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["config"]["mode"] == "two-path-grid"

    def test_grid_memory_does_not_grow_with_the_grid(self):
        # Written as one chunk, this grid peaked at 18 MiB of traced
        # allocations; column by column, only its evaluated arrays stay.
        argv = ["--N", "2", "--grid", "32768", "--strategy", "conc", "--xi", "0.2,0.9"]
        tracemalloc.start()
        try:
            code = run_cli("scan", *argv, "--out", os.devnull, "--manifest", os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "mode", [("--N", "3", "--samples", "5"), ("--N", "2", "--grid", "5")], ids=["sweep", "grid"]
    )
    def test_repeated_pairs_rejected(self, mode, capsys):
        assert run_cli("scan", *mode, "--strategy", "frio", "--xi", "0.5,0.2,0.5") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repeated (strategy, xi) pair ('frio-standard', 0.5)\n"

    def test_stdout_mode_emits_only_csv(self, capsys):
        assert run_cli("scan", "--N", "3", "--n", "2", "--samples", "5", "--seed", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("N,n,strategy")
        assert len(lines) == 6

    def test_include_uniform_appends_enumeration(self, tmp_path):
        out = tmp_path / "u.csv"
        code = run_cli(
            "scan", "--N", "4", "--n", "all", "--samples", "10",
            "--include-uniform", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 10 + (2**4 - 1)

    def test_include_uniform_beyond_enumeration_limit_rejected(self, capsys):
        code = run_cli("scan", "--N", "25", "--n", "2", "--samples", "0", "--include-uniform")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the uniform enumeration is limited to N <= 24")
        assert captured.err.count("\n") == 1

    def test_include_uniform_beyond_point_budget_rejected(self, capsys):
        # N = 24 with every dimension would hold 2^24 - 1 scenarios.
        code = run_cli("scan", "--N", "24", "--n", "all", "--samples", "0", "--include-uniform")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the uniform enumeration would add 16777215 ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("bins", ["0", "1", "-1"])
    @pytest.mark.parametrize("mode", [("--n", "2", "--samples", "5"), ("--grid", "5")])
    def test_envelope_bins_below_two_rejected(self, bins, mode, capsys):
        n_paths = "2" if mode[0] == "--grid" else "3"
        assert run_cli("scan", "--N", n_paths, *mode, "--bins", bins) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bin count must be an integer >= 2, got {int(bins)}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--manifest", "-"], "--manifest - needs --out FILE: the CSV already goes to stdout"),
            (["--out", "-", "--bins", "10"],
             "--bins needs a manifest for the envelope: give --out or --manifest"),
        ],
        ids=["manifest-after-csv-on-stdout", "bins-without-manifest"],
    )  # fmt: skip
    def test_output_flags_that_mix_or_drop_output_rejected(self, argv, message, capsys):
        # The manifest JSON used to follow the CSV rows on stdout, and the
        # envelope used to be computed and dropped.
        assert run_cli("scan", "--N", "3", "--samples", "5", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("spelling", ["same.csv", "./same.csv"])
    def test_manifest_on_the_csv_file_rejected(self, tmp_path, monkeypatch, capsys, spelling):
        # The manifest used to overwrite the CSV it was written after.
        monkeypatch.chdir(tmp_path)
        argv = ["--N", "3", "--samples", "5", "--out", "same.csv", "--manifest", spelling]
        assert run_cli("scan", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"--manifest {spelling} is the --out file: the manifest would overwrite the CSV"
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "same.csv").exists()

    def test_bins_with_a_manifest_file_and_csv_on_stdout(self, tmp_path, capsys):
        manifest = tmp_path / "run.manifest.json"
        argv = ["--N", "3", "--samples", "5", "--bins", "10", "--manifest", str(manifest)]
        assert run_cli("scan", *argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert json.loads(manifest.read_text())["envelope"]

    def test_manifest_records_the_rng_contract_and_versions(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli("scan", "--N", "4", "--samples", "20", "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["rng_contract"] == 1
        assert manifest["numpy_version"] == np.__version__
        assert {"package_version", "python_version", "platform"} <= manifest.keys()

    def test_io_failure(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("scan", "--N", "3", "--samples", "5", "--out", str(missing)) == 3

    def test_negative_samples(self):
        assert run_cli("scan", "--N", "3", "--samples", "-2") == 2

    def test_path_count_beyond_one_evaluation_slice_rejected(self, tmp_path, capsys):
        # One more path than a slice holds: rejected before any array is built.
        argv = ["scan", "--N", str(EVAL_BLOCK_ENTRIES + 1), "--n", "1", "--samples", "1"]
        tracemalloc.start()
        try:
            code = run_cli(*argv, "--out", str(tmp_path / "big.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1_000_000
        err = capsys.readouterr().err
        assert err == "error: a sweep takes at most 262144 paths, got 262145\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--N", "2", "--grid", "1000000000"], "grid steps must be at most 262144, got 1000000000"),
            (
                ["--N", "3", "--n", "2", "--samples", "5", "--bins", "1000000000000"],
                "bin count must be at most 262144, got 1000000000000",
            ),
        ],
        ids=["grid", "bins"],
    )
    def test_oversized_grid_and_bins_rejected(self, argv, message, tmp_path, capsys):
        # Rejected before the grid or the envelope's arrays are allocated
        # (7.45 GiB and 7.28 TiB).
        tracemalloc.start()
        try:
            code = run_cli("scan", *argv, "--out", str(tmp_path / "big.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1_000_000
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_largest_path_count_runs(self, tmp_path):
        out = tmp_path / "big.csv"
        argv = ["--N", str(EVAL_BLOCK_ENTRIES), "--n", "1", "--samples", "3", "--out", str(out)]
        assert run_cli("scan", *argv) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["262144", "1"]] * 3

    def test_memory_does_not_grow_with_the_chunk_count(self, tmp_path, monkeypatch):
        # Smaller chunks keep the runs short; a scan that held its rows would
        # grow by about 0.4 KB per sample, 1.6 MB over the 8 extra chunks.
        monkeypatch.setattr(ensemble, "BLOCK_ROWS", 512)
        out = tmp_path / "scan.csv"

        def peak(chunks):
            argv = ["--N", "6", "--n", "6", "--samples", str(chunks * 512), "--bins", "20"]
            tracemalloc.start()
            try:
                assert run_cli("scan", *argv, "--out", str(out)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations
        assert peak(10) < peak(2) + 256_000

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--strategy", "me", "--xi", "abc"], "invalid separation-level list 'abc'"),
            (["--strategy", "me", "--xi", "7"], "minimum-error strategy has no separation level"),
            (["--xi", "0.5"], "minimum-error strategy has no separation level"),
            (["--xi", "0,0"], "minimum-error strategy has no separation level"),
            (["--strategy", "frio", "--xi", "0.2,1.5"], "separation level must lie in [0, 1]"),
            (["--strategy", "conc", "--xi", "nan"], "separation level must lie in [0, 1]"),
            (["--strategy", "frio", "--xi=0,-0"], "repeated (strategy, xi) pair ('frio-standard', 0.0)"),
        ],
        ids=["me-text", "me-out-of-range", "me-default-strategy", "me-two-levels",
             "frio-out-of-range", "conc-nan", "frio-zero-twice"],
    )  # fmt: skip
    def test_separation_levels_checked_for_every_strategy(self, argv, message, capsys):
        assert run_cli("scan", "--N", "6", "--samples", "3", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("xi", ["0", "0.0"])
    def test_minimum_error_accepts_the_default_level(self, xi, capsys):
        assert run_cli("scan", "--N", "6", "--samples", "3", "--strategy", "me", "--xi", xi) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[2:4] for row in rows] == [["me", "0.0"]] * 3

    def test_negative_zero_level_is_written_as_zero(self, tmp_path):
        out = tmp_path / "scan.csv"
        argv = ["--N", "3", "--samples", "2", "--strategy", "frio", "--xi=-0", "--out", str(out)]
        assert run_cli("scan", *argv) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0.0"] * 2
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["config"]["strategies"] == [["frio-standard", 0.0]]
        assert "-0.0" not in json.dumps(manifest["config"])


# Sweeps the benchmark does not gate: dimension grouping with strategy
# interleaving, the uniform overlay, and the two-path grid.
PINNED_SWEEPS = [
    (
        ["--N", "9", "--n", "all", "--samples", "3000", "--strategy", "conc",
         "--xi", "0,0.5,1", "--seed", "4", "--bins", "40"],
        "f35b56484583b40c29aa13d0a7f9db1a5bf1de02ca42fff0220fe80c05b33c17",
        "517ed3567b1c5354702bc79fc279b8fb80651c2a815fdbf7270f17c55d40d84f",
    ),
    (
        ["--N", "6", "--n", "all", "--samples", "50", "--include-uniform",
         "--strategy", "frio", "--xi", "0.3", "--seed", "1"],
        "bd5fc738ccaba6863f1717227169354b1d3a1d1286d9f60f1bbc3b2a1273753b",
        "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
    ),
    (
        ["--N", "2", "--grid", "200", "--strategy", "conc", "--xi", "0.2,0.9",
         "--bins", "20"],
        "5ae229746bfb6629a3ec1ab1264a11aabcc6293b7c0dfe26a2de69a805f81e62",
        "dcd6a685286bc6c29a12b2435fe61cce9c65e14d1c7dd49f702c0fe931caaa42",
    ),
    # A seed of three 32-bit words over two chunks, recorded from the
    # sweep that built one generator per sample.
    (
        ["--N", "7", "--n", "all", "--samples", "5000", "--strategy", "frio",
         "--xi", "0.4", "--seed", "18446744073709551621", "--bins", "30"],
        "4eaa9ebd45bf16dd628afbf30b42b1c3b8efa844db0b75c8f228746c64fd4a50",
        "abc4d9ecddd8d00ba25db9a523192c8fedbe1edf8c7414165e0beae8d78566f8",
    ),
    # A fixed n < N: Floyd collisions, an odd count of 32-bit draws
    # (a half word left over), two chunks and two pairs.
    (
        ["--N", "12", "--n", "5", "--samples", "5000", "--strategy", "frio",
         "--xi", "0,0.6", "--seed", "21", "--bins", "30"],
        "e04cceca3da9e4a7bb11a15f509b8bf37888e5cf92e9417278505acfa4f5601b",
        "a1fe9f37f88b0219963dab887b7db893f506fa41adddf136b0b5c5d0036a90ac",
    ),
]  # fmt: skip
PINNED_SWEEP_IDS = [
    "all-dimensions-interleaved", "uniform-overlay", "two-path-grid",
    "multi-word-seed-two-chunks", "fixed-dimension-two-chunks",
]  # fmt: skip


class TestPinnedSweeps:
    """The ``PINNED_SWEEPS`` digests, recorded from the per-sample sweep that
    preceded the block sweep; the envelope digest is over ``json.dumps`` of
    the manifest's envelope."""

    @pytest.mark.parametrize("argv, csv_sha256, envelope_sha256", PINNED_SWEEPS, ids=PINNED_SWEEP_IDS)
    def test_outputs_keep_their_digests(self, argv, csv_sha256, envelope_sha256, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("scan", *argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        envelope = json.dumps(manifest["envelope"]).encode()
        assert hashlib.sha256(envelope).hexdigest() == envelope_sha256

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("argv, csv_sha256, envelope_sha256", PINNED_SWEEPS, ids=PINNED_SWEEP_IDS)
    def test_digests_do_not_depend_on_the_process_count(
        self, argv, csv_sha256, envelope_sha256, workers, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(ensemble, "resolve_workers", lambda: workers)
        self.test_outputs_keep_their_digests(argv, csv_sha256, envelope_sha256, tmp_path)


class TestEnumerateUniform:
    def test_jsonl_round_trip(self, capsys):
        assert run_cli("enumerate-uniform", "--N", "5", "--n", "all") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2**5 - 1
        spec = spec_from_json_dict(json.loads(lines[0]))
        assert spec.N == 5

    def test_fixed_dimension(self, capsys):
        assert run_cli("enumerate-uniform", "--N", "6", "--n", "2") == 0
        assert len(capsys.readouterr().out.splitlines()) == 15

    def test_dimension_out_of_range(self):
        assert run_cli("enumerate-uniform", "--N", "4", "--n", "9") == 2

    def test_streams_without_building_the_list(self):
        # C(30, 15) = 155,117,520 specs; the sink breaks the pipe after
        # 10,000 lines, as `| head` would.
        class Sink(io.StringIO):
            lines = 0

            def write(self, text):
                self.lines += text.count("\n")
                if self.lines > 10_000:
                    raise BrokenPipeError("sink closed")
                return len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = run_cli("enumerate-uniform", "--N", "30", "--n", "15")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert sink.lines == 10_001
        assert peak < 2_000_000

    @pytest.mark.parametrize("N", [2**64, EVAL_BLOCK_ENTRIES + 1])
    def test_path_count_beyond_the_enumeration_limit_rejected(self, N, capsys):
        assert run_cli("enumerate-uniform", "--N", str(N), "--n", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {EVAL_BLOCK_ENTRIES} paths" in captured.err
        assert "Traceback" not in captured.err

    def test_matches_the_listed_enumeration(self, capsys):
        assert run_cli("enumerate-uniform", "--N", "6") == 0
        lines = capsys.readouterr().out.splitlines()
        expected = [
            json.dumps(spec_to_json_dict(spec))
            for n in range(1, 7)
            for spec in enumerate_uniform_specs(6, n)
        ]
        assert lines == expected


class TestSaturation:
    def test_twelve_path_summary(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        assert run_cli("saturation", "--N", "12", "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert (
            captured.out.strip()
            == "N=12 nontrivial saturating dimensions: 2,3,4,6 (eta-2 = 4)"
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 2**12 - 1 + 1

    def test_prime_path_count(self, capsys):
        # The CSV goes to stdout, and the summary to stderr, both without
        # --out and with --out -.
        for out in ([], ["--out", "-"]):
            assert run_cli("saturation", "--N", "7", *out) == 0
            captured = capsys.readouterr()
            assert "N=7 nontrivial saturating dimensions: none (eta-2 = 0)" in captured.err
            assert captured.out.splitlines()[0].startswith("N,n,support")
            assert "nontrivial" not in captured.out

    def test_six_path_lists_saturating_supports(self, tmp_path, capsys):
        out = tmp_path / "six.csv"
        assert run_cli("saturation", "--N", "6", "--out", str(out)) == 0
        saturating_rows = [
            line for line in out.read_text().splitlines()[1:]
            if line.split(",")[5] == "true"
        ]
        supports = {line.split(",")[2] for line in saturating_rows}
        assert {"0-3", "1-4", "2-5", "0-2-4", "1-3-5"} <= supports

    def test_budget(self):
        assert run_cli("saturation", "--N", "30") == 2


class TestPinnedEnumerations:
    """Census and enumeration outputs the benchmark does not gate: a census
    on stdout, without ``--out`` and with ``--out -``, a census whose
    dimensions 8 and 9 each span six blocks of ``BLOCK_ROWS`` supports, and
    every uniform spec at N = 7. Recorded with Python 3.11.7 and numpy 2.4.6."""

    @pytest.mark.parametrize(
        "argv, size, sha256",
        [
            (
                ["saturation", "--N", "12"],
                218_073,
                "3da19a268b63607252056df1b8e838c478e21360802a160cc3cb09b9557a04be",
            ),
            (
                ["saturation", "--N", "12", "--out", "-"],
                218_073,
                "3da19a268b63607252056df1b8e838c478e21360802a160cc3cb09b9557a04be",
            ),
            (
                ["saturation", "--N", "17", "--out"],
                7_800_720,
                "c5aca2793d807267151c35a8f519f3800114e8c44dbec305b702a100b10c071b",
            ),
            (
                ["enumerate-uniform", "--N", "7", "--n", "all"],
                12_945,
                "d88c0f33e0f43a60375e8a9c8f3292affdfe519283e176a29c51e505f86f92d8",
            ),
        ],
        ids=["census-n12-stdout", "census-n12-dash", "census-n17-file", "enumerate-n7-all"],
    )
    def test_outputs_keep_their_digests(self, argv, size, sha256, tmp_path, capsys):
        if argv[-1] == "--out":
            out = tmp_path / "out.csv"
            assert run_cli(*argv, str(out)) == 0
            data = out.read_bytes()
        else:
            assert run_cli(*argv) == 0
            data = capsys.readouterr().out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256


class TestExample:
    def test_equally_spaced(self, capsys):
        assert run_cli("example", "six-path-equally-spaced") == 0
        out = capsys.readouterr().out
        assert "C = 0.613" in out
        assert "K_me = 0.387" in out
        assert "C+K = 1.000" in out

    def test_adjacent(self, capsys):
        assert run_cli("example", "six-path-adjacent") == 0
        out = capsys.readouterr().out
        assert "K_me = 0.178" in out
        assert "C+K = 0.791" in out
        assert "0.333333, 0.250000, 0.083333, 0.000000, 0.083333, 0.250000" in out

    def test_nonadjacent(self, capsys):
        assert run_cli("example", "six-path-nonadjacent") == 0
        out = capsys.readouterr().out
        assert "K_me = 0.129" in out
        assert "C+K = 0.742" in out

    def test_unknown_name(self, capsys):
        assert run_cli("example", "five-path") == 2
        assert "six-path-equally-spaced" in capsys.readouterr().err


class TestPovm:
    def test_dump_from_spec_file(self, tmp_path):
        spec = uniform_spec(6, (0, 3))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(spec)))
        out = tmp_path / "povm.json"
        code = run_cli(
            "povm", "--spec", str(spec_path), "--strategy", "frio",
            "--xi", "0.5", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["strategy"] == "frio-standard"
        assert payload["xi"] == 0.5
        assert len(payload["elements"]) == 7
        total = np.zeros((6, 6), dtype=complex)
        for entry in payload["elements"]:
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in entry["matrix"]]
            )
            np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)
            total += matrix
        expected = np.zeros((6, 6), dtype=complex)
        expected[[0, 3], [0, 3]] = 1
        np.testing.assert_allclose(total, expected, atol=1e-10)

    def test_inline_flags(self, capsys):
        code = run_cli(
            "povm", "--N", "4", "--support", "0,2",
            "--coeffs-sq", "0.7,0.3", "--strategy", "conc", "--xi", "1",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["label"] for e in payload["elements"]] == [
            "c0", "c1", "c2", "c3", "fc0", "fc1", "fc2", "fc3",
        ]

    def test_missing_spec_flags(self):
        assert run_cli("povm", "--strategy", "me") == 2

    @pytest.mark.parametrize(
        "inline",
        [("--N", "4"), ("--support", "0,1"), ("--coeffs-sq", "0.5,0.5"),
         ("--N", "4", "--support", "0,1")],
        ids=["N", "support", "coeffs-sq", "N-and-support"],
    )  # fmt: skip
    def test_spec_file_takes_no_inline_flags(self, inline, tmp_path, capsys):
        # A scenario file and inline flags name two scenarios; neither wins.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(uniform_spec(6, (0, 3)))))
        assert run_cli("povm", "--spec", str(spec_path), *inline) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--spec FILE takes no --N, --support or --coeffs-sq" in captured.err

    @pytest.mark.parametrize(
        "strategy, xi, message",
        [
            ("me", "9", "minimum-error strategy has no separation level"),
            ("me", "0.5", "minimum-error strategy has no separation level"),
            ("frio", "9", "separation level must lie in [0, 1]"),
            ("conc", "-0.1", "separation level must lie in [0, 1]"),
        ],
    )
    def test_separation_level_checked(self, strategy, xi, message, capsys):
        code = run_cli("povm", "--N", "4", "--support", "0,1", "--strategy", strategy, "--xi", xi)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_minimum_error_dump_records_level_zero(self, capsys):
        assert run_cli("povm", "--N", "4", "--support", "0,1", "--strategy", "me", "--xi", "0") == 0
        assert json.loads(capsys.readouterr().out)["xi"] == 0.0

    def test_missing_spec_file(self, tmp_path):
        assert run_cli("povm", "--spec", str(tmp_path / "nope.json")) == 3

    def test_output_digest(self, capsys):
        # Every strategy at xi = 0, 0.5 and 1 (ME at 0 only) for a uniform,
        # a two-path and a non-uniform N = 7 spec with a tied minimum, whose
        # failure profile has clamped zeros. Recorded with Python 3.11.7 and
        # numpy 2.4.6.
        specs = (
            ("--N", "6", "--support", "0,2,3"),
            ("--N", "2", "--support", "0,1", "--coeffs-sq", "0.7,0.3"),
            ("--N", "7", "--support", "0,1,3,5", "--coeffs-sq", "0.4,0.3,0.15,0.15"),
        )
        runs = [("me", "0")] + [(s, xi) for s in ("frio", "conc") for xi in ("0", "0.5", "1")]
        digest = hashlib.sha256()
        for spec in specs:
            for strategy, xi in runs:
                assert run_cli("povm", *spec, "--strategy", strategy, "--xi", xi) == 0
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "4df628fe2ea18d199bcdc1a957c39d18bbc603c51e53d50d6bdba16a2e9edcbd"
        )

    @pytest.mark.parametrize("strategy", ["me", "frio", "conc"])
    def test_path_limit(self, strategy, capsys):
        code = run_cli("povm", "--N", "65", "--support", "0,1", "--strategy", strategy)
        assert code == 2
        assert "at most 64 paths" in capsys.readouterr().err


class TestVerify:
    def test_canonical_counts(self):
        results = run_verification(300, seed=0)
        assert [(r.name, r.checks, len(r.violations)) for r in results] == [
            ("povm-completeness", 9900, 0),
            ("oracle-agreement", 75200, 0),
            ("hierarchy", 3000, 0),
            ("monotonicity", 518, 0),
            ("parseval", 300, 0),
            ("donoho-stark", 300, 0),
        ]

    def test_fault_run_counts(self):
        results = run_verification(60, seed=0, fault="gk-sign")
        assert [(r.name, r.checks, len(r.violations)) for r in results] == [
            ("povm-completeness", 1980, 480),
            ("oracle-agreement", 13079, 4142),
            ("hierarchy", 600, 0),
            ("monotonicity", 107, 0),
            ("parseval", 60, 0),
            ("donoho-stark", 60, 0),
        ]

    def test_json_reports_counts_and_worst_gaps(self, capsys):
        argv = ("verify", "--samples", "20", "--seed", "3", "--N-range", "2:6")
        assert run_cli(*argv, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        results = run_verification(20, seed=3, n_range=(2, 6))
        assert list(report) == [r.name for r in results]
        checked = set()
        for result in results:
            suite = report[result.name]
            assert suite["checks"] == result.checks
            assert suite["violations"] == 0
            for name, worst in suite["worst_gaps"].items():
                assert worst["atol"] == TOLERANCES[name]
                assert worst["gap"] <= worst["atol"]
                checked.add(name)
        assert checked == set(TOLERANCES)

    @pytest.mark.parametrize(
        "argv, stream, counts, digest",
        [
            (
                ("--samples", "300", "--seed", "0", "--json"),
                "out",
                (9900, 75200, 3000, 518, 300, 300),
                "d9819ab233d466b5f3f7ab1f2b4f3f7d44382b42aadd5dd67cbcf5cfb8100d23",
            ),
            (
                ("--samples", "40", "--seed", "1", "--N-range", "9:24", "--json"),
                "out",
                (1320, 29859, 400, 78, 40, 40),
                "425ea27bc98b892598b5d7d279919cbe7ce950f001da85fb55bd6d48c591ba60",
            ),
            (
                ("--samples", "6", "--seed", "0", "--N-range", "25:64", "--json"),
                "out",
                (198, 12732, 60, 11, 6, 6),
                "b17060c5d1fbfd3ea66df7159e84c1574b6a36819386f0e164b33b91c52c22ce",
            ),
            (
                ("--samples", "60", "--seed", "0", "--inject-fault", "gk-sign"),
                "err",
                None,
                "9bf7f87c969a338f4805c0e562da08d7c608f1ecdd4be037473297f92dc771d4",
            ),
        ],
        ids=["canonical-json", "n9to24-json", "n25to64-json", "gk-sign-stderr"],
    )
    def test_pinned_output(self, argv, stream, counts, digest, capsys):
        # The benchmark's canonical JSON report with its worst gaps, runs
        # whose N = 13..24 and N = 25..64 scenarios span several element
        # stacks, and the violation texts of a faulted run. The check counts
        # of the JSON runs are pinned apart from their digests, with no
        # violations. Recorded with Python 3.11.7 and numpy 2.4.6.
        run_cli("verify", *argv)
        text = getattr(capsys.readouterr(), stream)
        if counts is not None:
            report = json.loads(text)
            assert [(suite["checks"], suite["violations"]) for suite in report.values()] == [
                (count, 0) for count in counts
            ]
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_json_run_with_violations_exits_one(self, capsys):
        argv = ("verify", "--samples", "5", "--seed", "0", "--inject-fault", "gk-sign", "--json")
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        completeness = report["povm-completeness"]
        assert completeness["violations"] > 0
        assert completeness["worst_gaps"]["COMPLETENESS_ATOL"]["gap"] > COMPLETENESS_ATOL
        assert "completeness violated" in captured.err

    def test_small_run_passes(self, capsys):
        assert run_cli("verify", "--samples", "40", "--seed", "5", "--N-range", "2:6") == 0
        out = capsys.readouterr().out
        assert out.count(": OK (") == 6

    def test_fault_injection_fails_with_completeness_report(self, capsys):
        code = run_cli(
            "verify", "--samples", "10", "--seed", "5",
            "--N-range", "2:5", "--inject-fault", "gk-sign",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "povm-completeness: FAIL" in captured.out
        assert "completeness violated" in captured.err
        assert '"coeffs_sq"' in captured.err

    def test_isolated_minimum_with_rising_knowledge_passes(self):
        # This seed draws a scenario whose standard-strategy knowledge rises
        # with xi although its minimum coefficient is clearly unique.
        results = run_verification(samples=300, seed=359174703, n_range=(2, 8))
        assert [r.violations for r in results if not r.passed] == []

    def test_zero_samples_rejected(self):
        assert run_cli("verify", "--samples", "0") == 2

    def test_bad_range_rejected(self):
        assert run_cli("verify", "--samples", "5", "--N-range", "2-8") == 2

    def test_range_beyond_path_limit_rejected(self):
        assert run_cli("verify", "--samples", "5", "--N-range", "2:65") == 2

    def test_negative_seed_rejected(self, capsys):
        assert run_cli("verify", "--samples", "2", "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a nonnegative integer, got -1\n"


def files(directory):
    """Every file of ``directory``, hidden ones included, with its bytes."""
    return sorted((path.name, path.read_bytes()) for path in directory.iterdir())


def no_space(*args, **kwargs):
    """A writer that writes a line to any file it is given, then fails."""
    for arg in (*args, *kwargs.values()):
        if hasattr(arg, "write"):
            arg.write("partial\n")
    raise OSError(errno.ENOSPC, "No space left on device")


def uniform_block_failing_at_n2(N, indices):
    if len(indices[0]) > 1:
        no_space()
    return uniform_block(N, indices)


class TestOutputFiles:
    """A regular-file ``--out`` (and the scan's manifest) is written under a
    temporary name beside it and replaces the file only once the run is
    complete, so a failed run leaves an earlier run's files as they were."""

    @pytest.mark.parametrize(
        "argv, name, failing",
        [
            (["scan", "--N", "4", "--samples", "50"], "write_chunks", no_space),
            # The CSV is complete, but the manifest is not.
            (["scan", "--N", "4", "--samples", "50"], "write_manifest", no_space),
            (["saturation", "--N", "6"], "write_saturation_csv", no_space),
            (["enumerate-uniform", "--N", "5"], "uniform_block", uniform_block_failing_at_n2),
            (["povm", "--N", "4", "--support", "0,1"], "measurement_to_json_dict", no_space),
        ],
        ids=["scan-csv", "scan-manifest", "saturation", "enumerate-uniform", "povm"],
    )
    def test_a_failed_run_leaves_the_earlier_files(
        self, tmp_path, monkeypatch, capsys, argv, name, failing
    ):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 0
        before = files(tmp_path)
        monkeypatch.setattr(cli, name, failing)
        # A scan takes another seed, so that a replaced file would differ.
        again = [*argv, "--seed", "9"] if argv[0] == "scan" else argv
        assert run_cli(*again, "--out", str(out)) == 3
        assert capsys.readouterr().err.endswith("No space left on device\n")
        assert files(tmp_path) == before

    def test_permission_bits_are_those_of_a_plain_open(self, tmp_path):
        existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
        existing.write_text("old\n")
        existing.chmod(0o640)
        umask = os.umask(0o027)
        try:
            for out in (existing, new):
                assert run_cli("saturation", "--N", "4", "--out", str(out)) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == 0o640  # 0o666 less the umask
        assert existing.read_bytes() == new.read_bytes()

    def test_a_symlinked_out_updates_the_file_it_names(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real.name)
        assert run_cli("scan", "--N", "4", "--samples", "50", "--out", str(link)) == 0
        assert os.readlink(link) == real.name
        assert real.read_text().startswith("N,n,strategy,")
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["link.csv", "link.csv.manifest.json", "real.csv"]

    def test_devices_and_fifos_are_written_directly(self, tmp_path, capsys):
        argv = ["scan", "--N", "4", "--samples", "50"]
        assert run_cli(*argv) == 0
        expected = capsys.readouterr().out.encode()
        assert run_cli(*argv, "--out", "-") == 0
        assert capsys.readouterr().out.encode() == expected
        assert run_cli(*argv, "--out", os.devnull, "--manifest", os.devnull) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        fifo, read = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_cli(*argv, "--out", str(fifo), "--manifest", os.devnull) == 0
        reader.join(timeout=60)
        assert read == [expected]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo"]


class TestModuleEntrypoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "duality_lab", "example", "six-path-equally-spaced"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "C+K = 1.000" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["saturation", "--N", "6", "--out"],
            ["scan", "--N", "6", "--samples", "200", "--seed", "1", "--out"],
        ],
    )
    def test_run_does_not_import_numpy_ma(self, argv, tmp_path):
        # np.unique imports numpy.ma on its first call, about 16 ms of a run.
        code = (
            "import sys; from duality_lab.cli import main; rc = main(sys.argv[1:]); "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'; sys.exit(rc)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
