"""The sampled sweep over forked worker processes: how the samples are cut
into spans, outputs that do not depend on the process count W, and the
children's hygiene when a chunk fails, a child dies, the stream is closed
early or the run is interrupted. W is forced by replacing
``ensemble.resolve_workers``."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from duality_lab import cli, ensemble
from duality_lab.cli import main
from duality_lab.ensemble import SweepConfig, _spans, resolve_workers, sweep_chunks
from duality_lab.states import BLOCK_ROWS, ValidationError

SRC = Path(__file__).resolve().parent.parent / "src"
CANONICAL_SCAN = ["--N", "6", "--n", "6", "--samples", "20000", "--strategy", "me", "--seed", "7", "--bins", "50"]
CANONICAL_SHA256 = "c2ac1dc27171ea73c35882164e80938722bc6f6d6fec3598351e9fb905ba5d2e"


class Unpicklable(Exception):
    """Holds a lambda, which ``pickle`` refuses."""

    def __init__(self):
        super().__init__(lambda: None)


class NotRebuilt(Exception):
    """Pickles, but ``pickle.loads`` calls it with its one argument."""

    def __init__(self, name, count):
        super().__init__(f"{name}: {count}")


@pytest.fixture
def force_workers(monkeypatch):
    """Force W; returns the list of pids the sweep forks, which the caller
    reads after the run."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def force(count):
        monkeypatch.setattr(ensemble, "resolve_workers", lambda: count)
        forked.clear()
        return forked

    return force


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def files(directory):
    """Every file of ``directory``, hidden ones included, with its bytes."""
    return sorted((path.name, path.read_bytes()) for path in directory.iterdir())


def earlier_scan(out):
    """A finished scan to ``out`` and its manifest, for a later run to keep."""
    argv = ["scan", "--N", "6", "--n", "6", "--samples", "1000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0


def scan_outputs(tmp_path, argv):
    """The CSV bytes of a scan and its manifest without ``wall_time``."""
    out = tmp_path / "scan.csv"
    assert main(["scan", *argv, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    del manifest["wall_time"]
    return out.read_bytes(), manifest


class TestSpans:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("samples", [1, 2, 3, 7, 4095, 4096, 4097, 8192, 8193, 20000, 100_000])
    def test_fewest_equal_spans_in_a_multiple_of_the_process_count(self, samples, workers):
        spans = _spans(samples, workers)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == samples
        assert len(spans) % workers == 0
        sizes = {hi - lo for lo, hi in spans}
        assert max(sizes) <= BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        # W fewer spans would make one longer than BLOCK_ROWS.
        assert len(spans) == workers or samples > (len(spans) - workers) * BLOCK_ROWS
        if samples >= workers:
            assert min(sizes) >= 1

    def test_benchmark_scan_takes_six_spans_on_two_processes(self):
        spans = _spans(20000, 2)
        assert len(spans) == 6
        assert {hi - lo for lo, hi in spans} == {3333, 3334}

    def test_no_samples_no_spans(self):
        assert _spans(0, 1) == []

    def test_process_count_is_the_usable_cpu_count(self, monkeypatch):
        assert resolve_workers() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers() == 1


class TestOutputsDoNotDependOnTheProcessCount:
    def test_canonical_scan(self, tmp_path, force_workers):
        outputs = []
        for workers in (1, 2, 3):
            forked = force_workers(workers)
            csv_bytes, manifest = scan_outputs(tmp_path, CANONICAL_SCAN)
            assert hashlib.sha256(csv_bytes).hexdigest() == CANONICAL_SHA256
            assert len(forked) == workers - 1
            outputs.append(manifest)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--N", "4", "--n", "all", "--samples", "0", "--include-uniform"],
            ["--N", "5", "--n", "3", "--samples", "1", "--strategy", "frio", "--xi", "0,1"],
            ["--N", "5", "--n", "all", "--samples", "7", "--include-uniform", "--seed", "2"],
            ["--N", "8", "--n", "all", "--samples", "8195", "--strategy", "conc",
             "--xi", "0.3,0.6", "--seed", "5"],
        ],
        ids=["no-samples-with-uniform", "one-sample", "seven-samples", "8195-samples"],
    )  # fmt: skip
    def test_edge_cases(self, argv, tmp_path, force_workers):
        samples = int(argv[argv.index("--samples") + 1])
        force_workers(1)
        reference = scan_outputs(tmp_path, [*argv, "--bins", "20"])
        for workers in (2, 3):
            forked = force_workers(workers)
            assert scan_outputs(tmp_path, [*argv, "--bins", "20"]) == reference
            # A process per BLOCK_ROWS samples at most, the caller included.
            assert len(forked) == max(min(workers, -(-samples // BLOCK_ROWS)) - 1, 0)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "samples, forks", [(1000, 0), (BLOCK_ROWS, 0), (BLOCK_ROWS + 1, 1), (5 * BLOCK_ROWS, 4)]
    )
    def test_process_count_is_capped_at_the_serial_chunk_count(self, samples, forks, force_workers):
        forked = force_workers(8)
        cfg = SweepConfig(N=4, n=None, samples=samples, strategies=(("me", 0.0),), seed=6)
        chunks = list(sweep_chunks(cfg))
        assert len(forked) == forks
        assert sum(len(order) for _, order in chunks) == samples
        assert_no_child_left()

    def test_children_leave_the_inherited_buffers_and_exit_handlers_alone(self, tmp_path):
        # The header sits in the buffer of --out, or of stdout, when the
        # children fork; a child that flushed it, or ran the parent's exit
        # handler, would write it twice.
        argv = ["--N", "6", "--n", "all", "--samples", "9000", "--seed", "3"]
        expected, _ = scan_outputs(tmp_path, argv)
        code = (
            "import atexit, sys; from duality_lab import ensemble; "
            "ensemble.resolve_workers = lambda: 3; "
            "atexit.register(lambda: sys.stderr.write('exit handler\\n')); "
            "from duality_lab.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = tmp_path / "child.csv"
        for target in (["--out", str(out)], []):
            proc = subprocess.run(
                [sys.executable, "-c", code, "scan", *argv, *target],
                capture_output=True, env=env, timeout=120,
            )  # fmt: skip
            assert proc.returncode == 0
            assert proc.stderr == b"exit handler\n"
            assert (out.read_bytes() if target else proc.stdout) == expected


class TestFailurePaths:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """A hang fails the test after a minute instead of stalling the suite."""

        def expire(signum, frame):
            raise TimeoutError("the sweep hung")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def failing_at(monkeypatch, start, fail):
        chunk = ensemble._sweep_chunk

        def failing(cfg, lo, hi):
            if lo == start:
                fail()
            return chunk(cfg, lo, hi)

        monkeypatch.setattr(ensemble, "_sweep_chunk", failing)

    def test_a_child_error_is_the_serial_error(self, tmp_path, monkeypatch, force_workers, capsys):
        # 5,000 samples are two spans of 2,500 for W = 1 and 2; with W = 2
        # the second runs in the child. Either way the failed run leaves the
        # earlier run's CSV and manifest as they were, and no temporary file.
        out = tmp_path / "scan.csv"
        earlier_scan(out)
        before = files(tmp_path)

        def reject():
            raise ValidationError("scenario rejected at sample 2500")

        self.failing_at(monkeypatch, 2500, reject)
        argv = ["scan", "--N", "6", "--n", "all", "--samples", "5000", "--seed", "4"]
        for workers in (1, 2):
            forked = force_workers(workers)
            assert main([*argv, "--out", str(out)]) == 2
            assert len(forked) == workers - 1
            assert capsys.readouterr().err == "error: scenario rejected at sample 2500\n"
            assert files(tmp_path) == before
        assert_no_child_left()

    def test_a_child_that_dies_is_named_by_its_chunk(self, monkeypatch, force_workers):
        self.failing_at(monkeypatch, 2500, lambda: os._exit(3))
        forked = force_workers(2)
        cfg = SweepConfig(N=6, n=None, samples=5000, strategies=(("me", 0.0),), seed=4)
        with pytest.raises(RuntimeError, match=r"worker of samples 2500\.\.4999 ended"):
            list(sweep_chunks(cfg))
        assert len(forked) == 1
        assert_no_child_left()

    def test_a_child_error_carries_the_child_traceback(self, monkeypatch, force_workers):
        def reject():
            raise ValidationError("scenario rejected at sample 2500")

        self.failing_at(monkeypatch, 2500, reject)
        force_workers(2)
        cfg = SweepConfig(N=6, n=None, samples=5000, strategies=(("me", 0.0),), seed=4)
        with pytest.raises(ValidationError, match="rejected at sample 2500") as info:
            list(sweep_chunks(cfg))
        cause = str(info.value.__cause__)
        assert "Traceback" in cause and "in reject" in cause
        assert_no_child_left()

    @pytest.mark.parametrize(
        "error, text",
        [
            (lambda: Unpicklable(), "Unpicklable(<function"),
            (lambda: NotRebuilt("path", 3), "NotRebuilt('path: 3')"),
        ],
        ids=["will-not-pickle", "will-not-rebuild"],
    )
    def test_a_child_error_that_cannot_travel_is_a_runtime_error(
        self, error, text, monkeypatch, force_workers
    ):
        def fail():
            raise error()

        self.failing_at(monkeypatch, 2500, fail)
        force_workers(2)
        cfg = SweepConfig(N=6, n=None, samples=5000, strategies=(("me", 0.0),), seed=4)
        with pytest.raises(RuntimeError) as info:
            list(sweep_chunks(cfg))
        assert str(info.value).startswith(text)
        assert "in fail" in str(info.value.__cause__)
        assert_no_child_left()

    def test_closing_the_stream_early_leaves_no_child(self, force_workers):
        forked = force_workers(3)
        cfg = SweepConfig(N=6, n=6, samples=6 * BLOCK_ROWS, strategies=(("me", 0.0),), seed=1)
        chunks = sweep_chunks(cfg)
        next(chunks)
        assert len(forked) == 2
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # the children are running
        chunks.close()
        assert_no_child_left()

    def test_an_interrupt_exits_130_with_one_line(self, tmp_path, monkeypatch, force_workers, capsys):
        # Interrupted after the first chunk, with the child forked: the
        # stream is closed, which kills and reaps the child.
        def interrupted(handle, chunks, envelope=None):
            next(iter(chunks))
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "write_chunks", interrupted)
        forked = force_workers(2)
        out = tmp_path / "scan.csv"
        argv = ["scan", "--N", "6", "--n", "6", "--samples", str(4 * BLOCK_ROWS), "--out", str(out)]
        assert main(argv) == 130
        assert len(forked) == 1
        assert capsys.readouterr().err == "interrupted\n"
        assert files(tmp_path) == []
        assert_no_child_left()

    def test_sigint_stops_the_run_and_every_child(self, tmp_path):
        # The child starts with SIGINT at its default disposition: started
        # with it ignored, as a non-interactive shell starts a `&` job,
        # Python installs no handler and the run never sees the signal.
        # The earlier run's CSV and manifest stay as they were, and the
        # interrupted run's temporary files go.
        out = tmp_path / "scan.csv"
        earlier_scan(out)
        before = files(tmp_path)
        code = (
            "import sys; from duality_lab import ensemble; ensemble.resolve_workers = lambda: 2; "
            "from duality_lab.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        argv = ["scan", "--N", "6", "--n", "6", "--samples", "10000000", "--seed", "2"]
        argv += ["--out", str(out)]
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)}, start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )  # fmt: skip
        try:
            deadline = time.monotonic() + 60
            while sum(path.stat().st_size for path in tmp_path.glob(".scan.csv.*.tmp")) < 10_000:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert stderr == b"interrupted\n"
        assert files(tmp_path) == before
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
