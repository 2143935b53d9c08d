"""The benchmark's workloads: CLI arguments, work units and output checks.

Each workload drives one entry point of the real CLI. An invocation at the
workload's canonical seed must reproduce the outputs recorded from the
commit that introduced the benchmark byte for byte (or, for ``verify``, the
exact check counts); at any other seed the outputs must satisfy invariants
that hold for every seed. See README.md for why these three were chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from pathlib import Path

SUITES = (
    "povm-completeness",
    "oracle-agreement",
    "hierarchy",
    "monotonicity",
    "parseval",
    "donoho-stark",
)
_SUITE_LINE = re.compile(r"^(?P<name>[a-z-]+): (?:OK|FAIL) \(.*?(?P<checks>\d+) checks\)$")


def suite_checks(stdout: bytes) -> dict[str, int]:
    """Check count per suite from ``verify`` output lines."""
    counts = {}
    for line in stdout.decode("utf-8", "replace").splitlines():
        match = _SUITE_LINE.match(line)
        if match:
            counts[match["name"]] = int(match["checks"])
    return counts


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corrupt(data: bytes) -> bytes:
    """The same bytes with their last decimal digit changed."""
    for index in range(len(data) - 1, -1, -1):
        if 0x30 <= data[index] <= 0x39:
            digit = b"1" if data[index] == 0x30 else b"0"
            return data[:index] + digit + data[index + 1 :]
    return data + b"0"


class Workload:
    """One CLI entry point with fixed sizes; subclasses fill in the details."""

    name: str
    unit: str  # what one work unit is
    units: int  # work units per invocation
    canonical_seed: int
    primary: str  # artifact that must not depend on tracing
    csv_writer: str | None = None  # traced function that writes the CSV
    fault_argv: list[str] | None = None  # a call that must count as failed

    def argv(self, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def artifacts(self, out: Path, stdout: bytes) -> dict[str, bytes]:
        raise NotImplementedError

    def check(self, seed: int, artifacts: dict[str, bytes]) -> list[str]:
        """Problems found in one invocation's outputs; empty when correct."""
        raise NotImplementedError

    def seeds(self, seed: int):
        """CLI seeds of a run: the canonical one first, then drawn from ``seed``."""
        yield self.canonical_seed
        draw = random.Random(seed)
        while True:
            yield draw.randrange(1, 2**31)


class Scan(Workload):
    """20,000-sample minimum-error sweep at N = n = 6, envelope and CSV."""

    name = "scan-me-n6"
    unit = "samples"
    units = 20000
    canonical_seed = 7
    primary = "csv"
    csv_writer = "ensemble.write_points_csv"
    bins = 50
    canonical_sha256 = "c2ac1dc27171ea73c35882164e80938722bc6f6d6fec3598351e9fb905ba5d2e"
    header = "N,n,strategy,xi,K,C,sum,support"

    def argv(self, seed, out):
        return [
            "scan", "--N", "6", "--n", "6", "--samples", str(self.units),
            "--strategy", "me", "--seed", str(seed), "--bins", str(self.bins),
            "--out", str(out / "scan.csv"),
        ]  # fmt: skip

    def artifacts(self, out, stdout):
        return {
            "csv": (out / "scan.csv").read_bytes(),
            "manifest": (out / "scan.csv.manifest.json").read_bytes(),
        }

    def check(self, seed, artifacts):
        problems = []
        data = artifacts["csv"]
        if seed == self.canonical_seed and _sha256(data) != self.canonical_sha256:
            problems.append(f"scan CSV sha256 {_sha256(data)} != {self.canonical_sha256}")
        lines = data.decode("utf-8", "replace").split("\n")
        if lines[0] != self.header or lines[-1] != "":
            problems.append("scan CSV header or line ending differs")
        rows = lines[1:-1]
        if len(rows) != self.units:
            problems.append(f"scan CSV has {len(rows)} rows, expected {self.units}")
        lows, highs, bad = {}, {}, 0
        for row in rows:
            fields = row.split(",")
            try:
                k, c, total = (float(value) for value in fields[4:7])
            except ValueError:
                bad += 1
                continue
            # sum is written as C + K, so it must equal that sum exactly.
            if (
                fields[:4] != ["6", "6", "me", "0.0"]
                or fields[7:] != ["0-1-2-3-4-5"]
                or not (0.0 <= k <= 1.0 and 0.0 <= c <= 1.0)
                or total != c + k
                or total > 1.0 + 1e-9
            ):
                bad += 1
                continue
            slot = min(int(k * self.bins), self.bins - 1)
            lows[slot] = min(lows.get(slot, c), c)
            highs[slot] = max(highs.get(slot, c), c)
        if bad:
            problems.append(f"{bad} scan rows break the row format or C + K <= 1")
        try:
            manifest = json.loads(artifacts["manifest"])
        except ValueError:
            return problems + ["scan manifest is not JSON"]
        config = {
            "N": 6, "n": 6, "samples": self.units, "strategies": [["me", 0.0]],
            "seed": seed, "include_uniform_enumeration": False,
        }  # fmt: skip
        if manifest.get("config") != config:
            problems.append(f"scan manifest config {manifest.get('config')!r} != {config!r}")
        if manifest.get("point_count") != self.units:
            problems.append(f"scan manifest point_count {manifest.get('point_count')!r}")
        envelope = [[(slot + 0.5) / self.bins, lows[slot], highs[slot]] for slot in sorted(lows)]
        if manifest.get("envelope") != envelope:
            problems.append("scan manifest envelope differs from the one the CSV rows give")
        return problems


class Verify(Workload):
    """300 seeded scenarios, N in 2..8, through the six property suites."""

    name = "verify-n2to8"
    unit = "scenarios"
    units = 300
    canonical_seed = 0
    canonical_checks = {
        "povm-completeness": 9900,
        "oracle-agreement": 75200,
        "hierarchy": 3000,
        "monotonicity": 518,
        "parseval": 300,
        "donoho-stark": 300,
    }
    primary = "stdout"
    # A corrupted formula that the suites must report.
    fault_argv = ["verify", "--samples", "5", "--seed", "0", "--N-range", "2:8",
                  "--inject-fault", "gk-sign"]  # fmt: skip

    def argv(self, seed, out):
        return ["verify", "--samples", str(self.units), "--seed", str(seed), "--N-range", "2:8"]

    def artifacts(self, out, stdout):
        return {"stdout": stdout}

    def check(self, seed, artifacts):
        lines = artifacts["stdout"].decode("utf-8", "replace").splitlines()
        counts = suite_checks(artifacts["stdout"])
        expected_lines = [f"{suite}: OK ({counts.get(suite)} checks)" for suite in SUITES]
        if lines != expected_lines:
            return [f"verify output is not six OK lines: {lines[:8]!r}"]
        if seed == self.canonical_seed:
            if counts != self.canonical_checks:
                return [f"verify check counts {counts} != {self.canonical_checks}"]
            return []
        # Counts fixed by the sample count alone: 33 POVM checks and 10
        # hierarchy checks per scenario, one Parseval and one bound check;
        # monotonicity adds a second check for some scenarios.
        n = self.units
        fixed = {"povm-completeness": 33 * n, "hierarchy": 10 * n, "parseval": n, "donoho-stark": n}
        problems = [
            f"verify {suite} ran {counts[suite]} checks, expected {value}"
            for suite, value in fixed.items()
            if counts[suite] != value
        ]
        if not n <= counts["monotonicity"] <= 2 * n or counts["oracle-agreement"] < n:
            problems.append(f"verify check counts out of range: {counts}")
        return problems


class Census(Workload):
    """Brute-force saturation census of all 65,535 uniform supports at N = 16."""

    name = "census-n16"
    unit = "supports"
    paths = 16
    units = 2**16 - 1
    canonical_seed = 0  # the census takes no seed: every run is canonical
    primary = "csv"
    csv_writer = "saturation.write_saturation_csv"
    canonical_sha256 = "7f795e456f8bf3c0110285ffac1ce1fec2aa069a525c133e8c00298b1b8f770c"
    header = "N,n,support,lambda_support,entropy_sum,saturating,structure"
    summary = b"N=16 nontrivial saturating dimensions: 2,4,8 (eta-2 = 3)\n"

    def seeds(self, seed):
        return itertools.repeat(self.canonical_seed)

    def argv(self, seed, out):
        return ["saturation", "--N", str(self.paths), "--out", str(out / "census.csv")]

    def artifacts(self, out, stdout):
        return {"csv": (out / "census.csv").read_bytes(), "stdout": stdout}

    def check(self, seed, artifacts):
        problems = []
        data = artifacts["csv"]
        if _sha256(data) != self.canonical_sha256:
            problems.append(f"census CSV sha256 {_sha256(data)} != {self.canonical_sha256}")
        if artifacts["stdout"] != self.summary:
            problems.append(f"census summary line {artifacts['stdout']!r}")
        lines = data.decode("utf-8", "replace").split("\n")
        if lines[0] != self.header or lines[-1] != "":
            problems.append("census CSV header or line ending differs")
        rows = [line.split(",") for line in lines[1:-1]]
        if len(rows) != self.units:
            problems.append(f"census CSV has {len(rows)} rows, expected {self.units}")
        # Saturating: exactly the equally spaced supports whose spacing
        # divides N, i.e. {tau + k*m} for every divisor m and offset tau < m.
        N = self.paths
        expected = {
            "-".join(str(tau + k * m) for k in range(N // m))
            for m in range(1, N + 1)
            if N % m == 0
            for tau in range(m)
        }
        saturating = {row[2] for row in rows if len(row) == 7 and row[5] == "true"}
        if saturating != expected:
            problems.append(
                f"census saturating set differs: {len(saturating)} supports, "
                f"expected {len(expected)}"
            )
        unbounded = sum(1 for row in rows if len(row) != 7 or int(row[1]) * int(row[3]) < N)
        if unbounded:
            problems.append(f"{unbounded} census rows break the support-size bound")
        return problems


WORKLOADS = {workload.name: workload for workload in (Scan(), Verify(), Census())}
