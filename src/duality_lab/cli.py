"""Command-line front end.

Subcommands: ``scan`` (random or two-path-grid sweeps to CSV + manifest),
``enumerate-uniform`` (uniform scenarios as JSON lines), ``saturation``
(brute-force census CSV plus a summary line), ``example`` (worked six-path
regression values), ``povm`` (measurement dump as JSON), and ``verify``
(randomized property suites). Exit codes: 0 success, 1 property failure,
2 usage error, 3 I/O failure, 130 interrupted (SIGINT). Data goes to
standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import time
from contextlib import contextmanager, suppress

from .duality import evaluate_point, strategy_pair
from .ensemble import (
    Envelope,
    SweepConfig,
    sweep_chunks,
    two_path_grid,
    write_chunks,
    write_manifest,
)
from .measurements import (
    Strategy,
    build_frio_concatenated,
    build_frio_standard,
    build_me_measurement,
    conditional_conclusive,
    measurement_to_json_dict,
)
from .saturation import census_blocks, saturating_dimensions, write_saturation_csv
from .states import (
    ValidationError,
    check_dimension,
    spec_from_json_dict,
    spec_from_probabilities,
    uniform_block,
    uniform_spec,
    uniform_supports,
)
from .verify import FAULTS, TOLERANCES, run_verification

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

STRATEGY_FLAGS = {
    "me": Strategy.ME,
    "frio": Strategy.FRIO_STANDARD,
    "conc": Strategy.FRIO_CONCATENATED,
}

EXAMPLES = {
    "six-path-equally-spaced": (0, 3),
    "six-path-adjacent": (0, 1),
    "six-path-nonadjacent": (0, 2),
}


@contextmanager
def _outputs():
    """Yields ``open_out(path)``, which opens a flag's write target: stdout
    for no path or ``-``; a device or FIFO, such as ``/dev/null``, directly;
    any other path, symlinks followed, as a new temporary file beside the
    file it names, with that file's permission bits if it exists and the
    umask's default otherwise. When the block completes, the temporary
    files replace their targets in the order they were opened; when it
    raises, ``KeyboardInterrupt`` included, they are deleted, so a failed
    run leaves an earlier run's files as they were."""
    staged = []  # (temporary name, target)

    @contextmanager
    def open_out(path: str | None):
        if path is None or path == "-":
            yield sys.stdout
            return
        target = os.path.realpath(path)
        if os.path.exists(target) and not os.path.isfile(target):
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                yield handle
            return
        directory, name = os.path.split(target)
        temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        staged.append((temporary, target))
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            if os.path.exists(target):
                os.chmod(temporary, stat.S_IMODE(os.stat(target).st_mode))
            yield handle

    try:
        yield open_out
        for temporary, target in staged:
            os.replace(temporary, target)
    finally:
        for temporary, _ in staged:
            with suppress(FileNotFoundError):
                os.unlink(temporary)


def _parse_list(text: str, convert, what: str) -> list:
    """Comma-separated values, each through ``convert``; empty parts are skipped."""
    try:
        values = [convert(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"invalid {what} list {text!r}") from exc
    if not values:
        raise ValidationError(f"{what} list is empty")
    return values


def _parse_dim(text: str, n_paths: int) -> int | None:
    if text == "all":
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise ValidationError(f"subspace dimension must be an integer or 'all', got {text!r}") from exc
    check_dimension(value, n_paths)
    return value


def _strategies(flag: str, levels: list[float]) -> tuple[tuple[Strategy, float], ...]:
    """The (strategy, xi) pairs of a ``--strategy`` flag and its ``--xi``
    levels, each in [0, 1]; the minimum-error strategy takes only the
    default level 0."""
    tag = STRATEGY_FLAGS[flag]
    if tag is Strategy.ME and levels != [0.0]:
        raise ValidationError(
            f"the minimum-error strategy has no separation level, got --xi "
            f"{','.join(map(repr, levels))}"
        )
    return tuple(strategy_pair(tag, xi) for xi in levels)


def cmd_scan(args) -> int:
    strategies = _strategies(args.strategy, _parse_list(args.xi, float, "separation-level"))
    envelope = None if args.bins is None else Envelope(args.bins)
    started = time.perf_counter()
    if args.grid is not None:
        if args.N != 2:
            raise ValidationError("grid mode is only defined for two-path scans (--N 2)")
        if args.include_uniform:
            raise ValidationError("grid mode has no uniform enumeration (--include-uniform)")
        config, chunks = two_path_grid(strategies, args.grid)
    else:
        cfg = SweepConfig(
            N=args.N,
            n=_parse_dim(args.n, args.N),
            samples=args.samples,
            strategies=strategies,
            seed=args.seed,
            include_uniform_enumeration=args.include_uniform,
        )
        config, chunks = cfg.to_json_dict(), sweep_chunks(cfg)
    csv_to_stdout = args.out in (None, "-")
    manifest_path = args.manifest
    if manifest_path is None and not csv_to_stdout:
        manifest_path = args.out + ".manifest.json"
    if manifest_path == "-" and csv_to_stdout:
        raise ValidationError("--manifest - needs --out FILE: the CSV already goes to stdout")
    if envelope is not None and manifest_path is None:
        raise ValidationError("--bins needs a manifest for the envelope: give --out or --manifest")
    # The manifest, written last, would replace the CSV in a regular file;
    # a device such as /dev/null may take both.
    if manifest_path is not None and not csv_to_stdout:
        same = os.path.realpath(manifest_path) == os.path.realpath(args.out)
        if same and (os.path.isfile(args.out) or not os.path.exists(args.out)):
            raise ValidationError(
                f"--manifest {manifest_path} is the --out file: "
                "the manifest would overwrite the CSV"
            )
    # Streamed: rows are written and enveloped chunk by chunk as they come.
    # The CSV and then the manifest replace their files only once both are
    # complete.
    with _outputs() as open_out:
        with open_out(args.out) as handle:
            point_count = write_chunks(handle, chunks, envelope)
        wall_time = time.perf_counter() - started
        if manifest_path is not None:
            with open_out(manifest_path) as handle:
                write_manifest(
                    handle,
                    config=config,
                    wall_time=wall_time,
                    point_count=point_count,
                    envelope=None if envelope is None else envelope.bounds(),
                )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    dim = _parse_dim(args.n, args.N)
    dims = range(1, args.N + 1) if dim is None else (dim,)
    with _outputs() as open_out, open_out(args.out) as handle:
        # Streamed by block, as C(N, n) lines outgrow memory, in spec_to_json_dict's format.
        for n in dims:
            blocks = uniform_supports(args.N, n)
            coeffs_sq = [a * a for a in uniform_block(args.N, [list(range(n))]).amps[0].tolist()]
            for rows in blocks:
                for row in rows.tolist():
                    line = {"N": args.N, "support": row, "coeffs_sq": coeffs_sq}
                    handle.write(json.dumps(line) + "\n")
    return EXIT_OK


def cmd_saturation(args) -> int:
    blocks = census_blocks(args.N)
    dims, count = saturating_dimensions(args.N)
    summary = (
        f"N={args.N} nontrivial saturating dimensions: "
        f"{','.join(map(str, dims)) if dims else 'none'} (eta-2 = {count})"
    )
    with _outputs() as open_out, open_out(args.out) as handle:
        write_saturation_csv(blocks, handle)
    # The summary goes to stdout only when the CSV does not.
    print(summary, file=sys.stdout if args.out not in (None, "-") else sys.stderr)
    return EXIT_OK


def cmd_example(args) -> int:
    support = EXAMPLES[args.name]
    spec = uniform_spec(6, support)
    point = evaluate_point(spec, Strategy.ME)
    conditional = conditional_conclusive(spec, 0.0)
    print(f"example: {args.name} (N=6, support {{{', '.join(map(str, support))}}}, uniform)")
    print(f"C = {point.coherence:.3f}")
    print(f"K_me = {point.knowledge:.3f}")
    print(f"C+K = {point.duality_sum:.3f}")
    print("p(l|0) = [" + ", ".join(f"{p:.6f}" for p in conditional) + "]")
    return EXIT_OK


def cmd_povm(args) -> int:
    ((tag, xi),) = _strategies(args.strategy, [args.xi])
    if args.spec is not None and (args.N, args.support, args.coeffs_sq) != (None,) * 3:
        raise ValidationError("--spec FILE takes no --N, --support or --coeffs-sq")
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                raise ValidationError(f"scenario file {args.spec!r} is not JSON: {exc}") from exc
        spec = spec_from_json_dict(data)
    elif args.N is not None and args.support is not None:
        indices = _parse_list(args.support, int, "support index")
        if args.coeffs_sq is None:
            spec = uniform_spec(args.N, indices)
        else:
            probs = _parse_list(args.coeffs_sq, float, "squared-coefficient")
            spec = spec_from_probabilities(args.N, indices, probs)
    else:
        raise ValidationError("provide either --spec FILE or both --N and --support")
    if tag is Strategy.ME:
        measurement = build_me_measurement(spec)
    elif tag is Strategy.FRIO_STANDARD:
        measurement = build_frio_standard(spec, xi)
    else:
        measurement = build_frio_concatenated(spec, xi)
    with _outputs() as open_out, open_out(args.out) as handle:
        json.dump(measurement_to_json_dict(measurement), handle, indent=2)
        handle.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        lo_text, hi_text = args.N_range.split(":")
        n_range = (int(lo_text), int(hi_text))
    except ValueError as exc:
        raise ValidationError(
            f"path-count range must look like 'LO:HI', got {args.N_range!r}"
        ) from exc
    results = run_verification(
        samples=args.samples,
        seed=args.seed,
        n_range=n_range,
        fault=args.inject_fault,
    )
    if args.json:
        json.dump({result.name: _suite_json(result) for result in results}, sys.stdout)
        sys.stdout.write("\n")
    for result in results:
        if not args.json:
            verdict = "OK" if result.passed else "FAIL"
            count = f"{len(result.violations)}/" if result.violations else ""
            print(f"{result.name}: {verdict} ({count}{result.checks} checks)")
        for violation in result.violations[:20]:
            print(f"  {violation}", file=sys.stderr)
    return EXIT_OK if all(result.passed for result in results) else EXIT_PROPERTY_FAILURE


def _suite_json(result) -> dict:
    """A suite's counts and, per tolerance it checks, the worst gap seen next
    to the tolerance; a non-finite gap is written as a string."""
    return {
        "checks": result.checks,
        "violations": len(result.violations),
        "worst_gaps": {
            name: {"gap": gap if math.isfinite(gap) else repr(gap), "atol": TOLERANCES[name]}
            for name, gap in result.worst.items()
        },
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duality-lab",
        description="Wave-particle duality scans for uniform multipath interferometers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser(
        "scan",
        help="random or grid sweep to CSV (+ manifest)",
        description="Rows are written chunk by chunk as the sweep runs, so memory does not "
        "grow with --samples; the manifest's wall_time covers the sweep and the CSV.",
    )
    scan.add_argument("--N", type=_positive_int, required=True, help="path count")
    scan.add_argument("--n", default="all", help="subspace dimension or 'all'")
    scan.add_argument("--samples", type=int, default=1000, help="random scenario count")
    scan.add_argument("--grid", type=_positive_int, default=None,
                      help="two-path deterministic grid with this many steps (N=2 only)")
    scan.add_argument("--strategy", choices=sorted(STRATEGY_FLAGS), default="me")
    scan.add_argument("--xi", default="0", help="comma-separated separation levels")
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--out", default=None, help="CSV path (default: stdout)")
    scan.add_argument("--manifest", default=None,
                      help="manifest path (default: <out>.manifest.json)")
    scan.add_argument("--bins", type=int, default=None, help="envelope bin count")
    scan.add_argument("--include-uniform", action="store_true",
                      help="append the full uniform enumeration (not in grid mode)")
    scan.set_defaults(handler=cmd_scan)

    enum = sub.add_parser("enumerate-uniform", help="uniform scenarios as JSON lines")
    enum.add_argument("--N", type=_positive_int, required=True)
    enum.add_argument("--n", default="all")
    enum.add_argument("--out", default=None)
    enum.set_defaults(handler=cmd_enumerate)

    census = sub.add_parser("saturation", help="brute-force saturation census")
    census.add_argument("--N", type=_positive_int, required=True)
    census.add_argument("--out", default=None, help="CSV path (default: stdout)")
    census.set_defaults(handler=cmd_saturation)

    example = sub.add_parser("example", help="worked six-path regression values")
    example.add_argument("name", choices=sorted(EXAMPLES))
    example.set_defaults(handler=cmd_example)

    povm = sub.add_parser("povm", help="dump one measurement as JSON")
    povm.add_argument("--spec", default=None, help="scenario JSON file")
    povm.add_argument("--N", type=_positive_int, default=None)
    povm.add_argument("--support", default=None, help="comma-separated indices")
    povm.add_argument("--coeffs-sq", default=None,
                      help="comma-separated squared coefficients (default: uniform)")
    povm.add_argument("--strategy", choices=sorted(STRATEGY_FLAGS), default="me")
    povm.add_argument("--xi", type=float, default=0.0)
    povm.add_argument("--out", default=None)
    povm.set_defaults(handler=cmd_povm)

    verify = sub.add_parser("verify", help="run the randomized property suites")
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--N-range", default="2:8", help="path-count range 'LO:HI'")
    verify.add_argument("--inject-fault", choices=FAULTS, default=None,
                        help=argparse.SUPPRESS)
    verify.add_argument("--json", action="store_true",
                        help="print one JSON object with counts and worst gaps per suite")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    sys.exit(main())
