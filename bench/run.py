"""duality-lab benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

The program is the package in ``src/`` next to this directory. Each
invocation of its CLI runs in a fresh child process (child.py), one at a
time, in a closed loop until ``--seconds`` have passed. Children that only
import the package warm the bytecode cache (the first) and sample set-up
time (two before each invocation). Invocation 0 uses the workload's
canonical seed and must reproduce the recorded outputs exactly; later ones
use seeds drawn from ``--seed`` and must satisfy the workload's invariants.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over the run). With ``--trace 1`` every invocation runs the canonical
input twice, untraced and then traced, and the last line reports the
per-layer metrics of the traced runs (medians) and the tracing overhead. Metric names and units are those of
BENCHMARK.json at the repository root.

Self-tests in every run: a corrupted output must fail its check; in verify
runs an injected formula fault must count as a failed invocation; in traced
runs the traced output must equal the untraced one and every wrapped
function must be restored.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import SUITES, WORKLOADS, corrupt, suite_checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
THREADS_ENV_VAR = "DUALITY_LAB_THREADS"
SETUP_PROBES = 2  # import-only children before each invocation, for setup_s
CHILD_TIMEOUT_S = 60.0


@dataclass
class Invocation:
    """One measured child process and what its outputs showed."""

    seed: int | None = None
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    workers: int | None = None
    stdout: bytes | None = None
    artifacts: dict[str, bytes] | None = None
    layers: dict[str, float] | None = None


class Session:
    """Spawns children from one work directory inside the checkout."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = {key: value for key, value in os.environ.items() if key != THREADS_ENV_VAR}
        self._count = 0

    def spawn(self, args: list[str]) -> Invocation:
        """Run child.py with ``args``; the outputs land in ``self.work``."""
        self._count += 1
        tag = self.work / f"child{self._count}"
        record = Invocation()
        with open(f"{tag}.out", "wb") as out, open(f"{tag}.err", "wb") as err:
            start = time.monotonic_ns()
            try:
                proc = subprocess.run(
                    [sys.executable, "-E", str(BENCH / "child.py"), f"{tag}.json", *args],
                    cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                    stdout=out, stderr=err, timeout=CHILD_TIMEOUT_S, check=False,
                )  # fmt: skip
            except subprocess.TimeoutExpired:
                record.problems.append(f"child timed out after {CHILD_TIMEOUT_S} s: {args}")
                return record
            end = time.monotonic_ns()
        record.wall_s = (end - start) / 1e9
        stderr = Path(f"{tag}.err").read_text("utf-8", "replace")
        record.stdout = Path(f"{tag}.out").read_bytes()
        if proc.returncode != 0:
            record.problems.append(f"exit code {proc.returncode}: {args}")
        if "Traceback (most recent call last)" in stderr:
            record.problems.append(f"traceback on stderr: {stderr.strip().splitlines()[-1]}")
        try:
            result = json.loads(Path(f"{tag}.json").read_text("utf-8"))
        except (OSError, ValueError):
            record.problems.append("child wrote no result")
            return record
        if not result["package"].startswith(str(ROOT / "src")):
            record.problems.append(f"package imported from {result['package']}")
        if result.get("restored") is False:
            record.problems.append("a traced function was not restored")
        record.setup_s = (result["ready_ns"] - start) / 1e9
        record.rss_mb = result["max_rss_kb"] / 1024
        record.workers = result["workers"]
        return record

    def invoke(self, workload, seed: int, traced: bool = False, argv=None) -> Invocation:
        """One CLI invocation of ``workload``, checked; spans too if traced."""
        out = Path(tempfile.mkdtemp(dir=self.work))
        try:
            argv = workload.argv(seed, out) if argv is None else argv
            spans = out / "spans.bin"
            mode = ["trace", str(spans)] if traced else ["run"]
            record = self.spawn([*mode, "--", *argv])
            record.seed = seed
            if record.stdout is None:
                return record
            try:
                record.artifacts = workload.artifacts(out, record.stdout)
                record.problems += workload.check(seed, record.artifacts)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                record.problems.append(f"output unreadable: {exc!r}")
            if traced and not record.problems:
                record.layers = _layers(workload, spans, record)
            return record
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _layers(workload, spans: Path, record: Invocation) -> dict[str, float]:
    layers = tracing.layer_metrics(spans, record.workers)
    for writer in ("ensemble.write_points_csv", "saturation.write_saturation_csv"):
        written = len(record.artifacts["csv"]) if workload.csv_writer == writer else 0
        layers[f"{writer}.bytes"] = written
    counts = suite_checks(record.stdout)
    for suite in SUITES:
        layers[f"verify.checks.{suite}"] = counts.get(suite, 0)
    return layers


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}  # fmt: skip


def _environment(workers) -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()  # fmt: skip
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "sweep_workers": workers,
        THREADS_ENV_VAR: "unset in children"
        + (f" (was {os.environ[THREADS_ENV_VAR]!r})" if THREADS_ENV_VAR in os.environ else ""),
    }


def measure(workload, seed: int, seconds: int, traced: bool, session: Session):
    """Run the workload; return (invocations, metric values, details, self-test problems)."""
    selftest, setups = [], []

    def probe(timed=True):
        record = session.spawn(["probe"])
        selftest.extend(f"set-up probe: {problem}" for problem in record.problems)
        if timed and not record.problems:
            setups.append(record.setup_s)
        return record.workers

    workers = probe(timed=False)  # warms the bytecode cache
    invocations, pairs = [], []
    # Traced runs repeat the canonical input, so their counts repeat exactly.
    seeds = itertools.repeat(workload.canonical_seed) if traced else workload.seeds(seed)
    deadline = time.monotonic() + seconds
    while not invocations or time.monotonic() < deadline:
        for _ in range(SETUP_PROBES):
            probe()
        cli_seed = next(seeds)
        pair = [session.invoke(workload, cli_seed)]
        if traced:
            pair.append(session.invoke(workload, cli_seed, traced=True))
            if not pair[0].problems and not pair[1].problems:
                pairs.append(pair)
                if pair[0].artifacts[workload.primary] != pair[1].artifacts[workload.primary]:
                    selftest.append("traced output differs from untraced output")
        if invocations:  # keep only the canonical invocation's outputs
            for record in pair:
                record.artifacts = None
        invocations += pair

    canonical = invocations[0]
    if not canonical.problems:
        broken = dict(canonical.artifacts)
        broken[workload.primary] = corrupt(broken[workload.primary])
        if not workload.check(canonical.seed, broken):
            selftest.append("a corrupted output passed its check")
    if workload.fault_argv:
        if not session.invoke(workload, 0, argv=workload.fault_argv).problems:
            selftest.append("an injected fault was not counted as a failed invocation")

    plain = [r for r in (invocations[::2] if traced else invocations) if not r.problems]
    details = {"workers": workers, "invocations": len(invocations)}
    if not plain:
        return invocations, {}, details, selftest
    walls = [record.wall_s for record in plain]
    setups += [record.setup_s for record in plain]
    rates = [workload.units / (record.wall_s - record.setup_s) for record in plain]
    rss = [record.rss_mb for record in plain]
    details.update({
        "seeds": [record.seed for record in plain],
        "wall_s_each": walls,
        "setup_s": _summary(setups),
        "wall_s": _summary(walls),
        "items_per_s": _summary(rates) | {"unit": workload.unit},
        "peak_rss_mb": _summary(rss),
    })  # fmt: skip
    if not traced:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
        }
        return invocations, values, details, selftest
    if not pairs:
        return invocations, {}, details, selftest
    values = {
        name: statistics.median(marked.layers[name] for _, marked in pairs)
        for name in pairs[0][1].layers
    }
    overheads = [marked.wall_s - base.wall_s for base, marked in pairs]
    values["trace.overhead_s"] = statistics.median(overheads)
    values["trace.traced_wall_s"] = statistics.median(marked.wall_s for _, marked in pairs)
    values["trace.untraced_wall_s"] = statistics.median(base.wall_s for base, _ in pairs)
    details["trace.overhead_s"] = _summary(overheads)
    return invocations, values, details, selftest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "duality_lab" / "cli.py").is_file():
        print(f"error: no duality_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        invocations, values, details, selftest = measure(
            workload, args.seed, args.seconds, bool(args.trace), Session(work)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    if set(values) != set(declared):
        selftest.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    failed = [record for record in invocations if record.problems]
    for record in failed:
        print(f"failed (seed {record.seed}): {'; '.join(record.problems[:5])}", file=sys.stderr)
    for problem in selftest:
        print(f"self-test: {problem}", file=sys.stderr)

    print("env " + json.dumps(_environment(details["workers"])))
    print("detail " + json.dumps(details))
    result = {
        "correct": not failed and not selftest,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
