"""One invocation of the duality-lab CLI, run as a child process of run.py.

    python3 -E child.py RESULT_JSON probe
    python3 -E child.py RESULT_JSON run -- ARGV...
    python3 -E child.py RESULT_JSON trace SPANS_FILE -- ARGV...

The package is imported from the ``src`` directory next to this one. The
moment it is imported and ready to parse arguments is written to RESULT_JSON
as ``ready_ns`` on the system-wide monotonic clock, which the parent reads
too. ``probe`` stops there; ``run`` calls ``duality_lab.cli.main(ARGV)`` and
exits with its code; ``trace`` does the same with the layer functions
wrapped (see tracing.py) and writes their spans to SPANS_FILE afterwards.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import duality_lab.cli as cli  # noqa: E402

READY_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402

from duality_lab.ensemble import resolve_workers  # noqa: E402


def main() -> int:
    result_path, mode, *rest = sys.argv[1:]
    result = {"ready_ns": READY_NS, "package": cli.__file__, "workers": resolve_workers()}
    code = None
    try:
        if mode == "run":
            code = cli.main(rest[1:])
        elif mode == "trace":
            import tracing

            recorder = tracing.Recorder()
            swapped = tracing.install(recorder)
            try:
                code = cli.main(rest[2:])
            finally:
                result["restored"] = tracing.restore(swapped)
                recorder.write(rest[0])
    finally:
        result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
