"""Start one ``repro`` role with span recording installed.

    python3 perfbench/launch.py SPANS.json -- serve left.nt right.nt ...

Installs the span wrappers of :mod:`spans`, runs ``repro.cli.main``
with the arguments after ``--`` and, once the role returns (a serving
role does on SIGTERM), writes the recorded spans to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import spans


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: launch.py SPANS.json -- REPRO-ARGS...")
    recorder = spans.Recorder()
    spans.install_service(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
