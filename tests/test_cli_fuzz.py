"""Fuzz the command line in process: any argv exits 0, 1, 2 or 3 without a
traceback.

Arguments are drawn from the six subcommands, their flags and edge tokens.
Every size flag (``--samples``, ``--N``, ``--grid``) gets an explicit small
value or a malformed token, so no example starts a long run; ``verify``
would otherwise default to 1000 samples. The one large token, a path count
of 2^64, goes only to ``enumerate-uniform`` and ``saturation``, which
reject it before any work; as ``verify --samples`` it would start a run
without end.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab.cli import EXAMPLES, main

EDGE = ["-1", "0", "1", "65", "nan", "inf", "1e309", "", "a,b", "3:"]
# Edge tokens for size flags. 65 is left out: enumerate-uniform --n all
# would stream 2^65 supports.
SIZES = ["2", "3", "4", "6"] + [token for token in EDGE if token != "65"]
HUGE_PATH_COUNT = str(2**64)

SPEC_FILES = {
    "valid.json": '{"N": 4, "support": [0, 2], "coeffs_sq": [0.7, 0.3]}',
    "fraction.json": '{"N": 4, "support": [0, 1.7], "coeffs_sq": [0.5, 0.5]}',
    "bool.json": '{"N": 4, "support": [true, 2], "coeffs_sq": [0.5, 0.5]}',
    "too-many-paths.json": '{"N": 65, "support": [0], "coeffs_sq": [1.0]}',
    "null-coeff.json": '{"N": 4, "support": [0, 1], "coeffs_sq": [0.5, null]}',
    "list.json": "[]",
    "not-json.json": "not json {",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Output targets and scenario files, created once per module."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in SPEC_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "latin1.json").write_bytes(b'{"N": 4, "support": [0], "coeffs_sq": [\xff]}')
    outs = ["-", "", str(root), str(root / "out.csv"), str(root / "missing" / "out.csv")]
    specs = [str(root / name) for name in (*SPEC_FILES, "latin1.json", "missing.json")]
    return {"outs": outs, "specs": specs + [str(root)]}


def _argv(draw, paths) -> list[str]:
    # One value in four is an edge token, so most argvs get past the parser.
    def pick(choices, edge=EDGE):
        return draw(st.sampled_from(edge if draw(st.integers(0, 3)) == 0 else choices))

    def value(*choices):
        return pick(choices)

    def size():
        return pick(["1", "2", "3", "4", "6"], SIZES)

    def path_count():
        return pick(["1", "2", "3", "4", "6"], SIZES + [HUGE_PATH_COUNT])

    def out():
        return draw(st.sampled_from(paths["outs"]))

    def strategy():
        return value("me", "frio", "conc")

    command = draw(st.sampled_from(
        ["scan", "enumerate-uniform", "saturation", "example", "povm", "verify", "-1", ""]
    ))  # fmt: skip
    required: list[tuple[str, ...]] = []
    optional: list[tuple[str, ...]] = []
    if command == "scan":
        required = [("--N", size()), ("--samples", size())]
        optional = [
            ("--grid", size()),
            ("--n", value("all", "2", "3")),
            ("--strategy", strategy()),
            ("--xi", value("0", "0.5", "0,1", "0.2,0.7")),
            ("--seed", value("7", "11")),
            ("--bins", value("2", "10")),
            ("--include-uniform",),
            ("--out", out()),
            ("--manifest", out()),
        ]
    elif command == "enumerate-uniform":
        required = [("--N", path_count())]
        optional = [("--n", value("all", "2")), ("--out", out())]
    elif command == "saturation":
        required = [("--N", path_count())]
        optional = [("--out", out())]
    elif command == "example":
        required = [(value(*EXAMPLES),)]
    elif command == "povm":
        spec = ("--spec", draw(st.sampled_from(paths["specs"])))
        inline = [("--N", value("2", "4", "6")), ("--support", value("0", "0,1", "1,3", "0,1.7"))]
        required = [spec] if draw(st.booleans()) else inline
        optional = [
            spec,
            *inline,
            ("--coeffs-sq", value("0.5,0.5", "1", "0.9,0.1")),
            ("--strategy", strategy()),
            ("--xi", value("0.5")),
            ("--out", out()),
        ]
    elif command == "verify":
        required = [("--samples", size())]
        optional = [
            ("--seed", value("3")),
            ("--N-range", value("2:3", "2:4", "3:2", "2:65", "0:3")),
            ("--inject-fault", value("gk-sign")),
            ("--json",),
        ]
    chosen = required + [flag for flag in optional if draw(st.booleans())]
    chosen = draw(st.permutations(chosen))
    argv = [command] + [token for flag in chosen for token in flag]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(EDGE)))
    return argv


@settings(max_examples=500)
@given(data=st.data())
def test_every_argv_exits_with_a_documented_code(paths, data):
    argv = _argv(data.draw, paths)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in stderr.getvalue(), argv
