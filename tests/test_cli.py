import json
import subprocess
import sys

import numpy as np
import pytest

from duality_lab.cli import main
from duality_lab.states import spec_from_json_dict, spec_to_json_dict, uniform_spec
from duality_lab.verify import run_verification


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("DUALITY_LAB_THREADS", raising=False)


def run_cli(*argv):
    return main(list(argv))


class TestUsageErrors:
    def test_missing_command(self, capsys):
        assert run_cli() == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_unknown_flag(self):
        assert run_cli("scan", "--N", "4", "--bogus") == 2

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

    def test_grid_mode_requires_two_paths(self, tmp_path):
        assert run_cli("scan", "--N", "3", "--grid", "50") == 2

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

    def test_io_failure(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("scan", "--N", "3", "--samples", "5", "--out", str(missing)) == 3

    def test_invalid_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALITY_LAB_THREADS", "nope")
        assert run_cli("scan", "--N", "3", "--samples", "5") == 2

    def test_negative_samples(self):
        assert run_cli("scan", "--N", "3", "--samples", "-2") == 2


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
        assert run_cli("saturation", "--N", "7") == 0
        captured = capsys.readouterr()
        assert "N=7 nontrivial saturating dimensions: none (eta-2 = 0)" in captured.err
        assert captured.out.splitlines()[0].startswith("N,n,support")

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

    def test_missing_spec_file(self, tmp_path):
        assert run_cli("povm", "--spec", str(tmp_path / "nope.json")) == 3

    @pytest.mark.parametrize("strategy", ["me", "frio", "conc"])
    def test_path_limit(self, strategy, capsys):
        code = run_cli("povm", "--N", "65", "--support", "0,1", "--strategy", strategy)
        assert code == 2
        assert "at most 64 paths" in capsys.readouterr().err


class TestVerify:
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


class TestModuleEntrypoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "duality_lab", "example", "six-path-equally-spaced"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "C+K = 1.000" in proc.stdout
