"""One benchmark step in a fresh interpreter.

    python3 bench/child.py MODE RESULT_JSON HOT_RECORDS [CLI ARGS...]

MODE is ``setup`` (import skewcache and build the CLI parser, nothing
else), ``run`` (time ``cli.main`` on the CLI args), ``facts`` (the same
with only the input-property hooks of layers.py) or ``trace`` (the same
with every layers.py wrapper).  The outcome is written to RESULT_JSON.
skewcache must come from the ``src`` directory next to this one.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mib() -> float:
    """Peak RSS of this process or of the largest process it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def main() -> int:
    mode, result_path, hot_records, *argv = sys.argv[1:]
    from skewcache import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"skewcache imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if mode == "setup":
        import numpy

        cli.build_parser()
        result = {"python": platform.python_version(), "numpy": numpy.__version__}
    else:
        tracer = None
        if mode in ("facts", "trace"):
            import layers

            tracer = layers.Tracer(int(hot_records))
            if mode == "trace":
                tracer.install()
            else:
                tracer.install_facts()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        main_s = time.perf_counter() - t0
        result = {"rc": rc, "main_s": main_s}
        if tracer is not None:
            result["layers"] = tracer.summary()
    result["peak_rss_mib"] = peak_rss_mib()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
