"""Run one `quatmhd solve` in this process, as the CLI would.

    python3 perfbench/child.py --config run.json --out DIR --stamps S.json
                               [--trace T.json]

Records exactly two `time.monotonic()` timestamps, at entry to and return
from the solver function that `quatmhd.cli` calls, and writes them to
`--stamps` on exit. CLOCK_MONOTONIC is system-wide on Linux, so the parent
can subtract its own spawn timestamp. With `--trace`, the layer wrappers of
`tracer.py` are installed first and their aggregates written to that file.
The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _stamped(solve, stamps):
    def run(*args, **kwargs):
        stamps.append(time.monotonic())
        try:
            return solve(*args, **kwargs)
        finally:
            stamps.append(time.monotonic())
    return run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--stamps", required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import quatmhd.cli as cli

    stamps: list[float] = []
    cli.banach_solve = _stamped(cli.banach_solve, stamps)
    cli.schauder_solve = _stamped(cli.schauder_solve, stamps)
    try:
        return cli.main(["solve", "--config", args.config, "--out", args.out])
    finally:
        Path(args.stamps).write_text(json.dumps(stamps))
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
