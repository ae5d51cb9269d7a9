"""Run the ``repro`` CLI with span wrappers around every layer installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_PATH serve --socket ...``

The traced ``serve_roundtrip`` leg starts the server through this
launcher instead of ``python -m repro``: it installs the wrappers of
:mod:`perfbench.tracer` (device and serve layers), calls the CLI entry
point with the remaining arguments, and writes the spans to
``SPANS_PATH`` once the server has drained and returned.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    spans = Path(argv[0])
    from perfbench.tracer import DEVICE_LAYERS, SERVE_LAYERS, Tracer
    from repro.cli import main as cli_main

    tracer = Tracer(DEVICE_LAYERS + SERVE_LAYERS)
    with tracer:
        code = cli_main(argv[1:])
    tracer.log.write(spans)
    return code


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main(sys.argv[1:]))
