"""One cold alignment, in a process of its own.

    python3 perfbench/align_child.py LEFT.nt RIGHT.nt OUT.json [SPANS.json]

Parses both N-Triples files, then runs
``ParisAligner(left, right, ParisConfig()).align()`` and writes the
timings, the process's peak resident memory and the maximal assignment
to ``OUT.json``.  With ``SPANS.json`` the core layers are traced.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    left_path, right_path, out_path = argv[:3]
    recorder = None
    if len(argv) > 3:
        import spans

        recorder = spans.Recorder()
        spans.install_core(recorder)
    from repro import ParisAligner, ParisConfig
    from repro.rdf import ntriples

    started = time.perf_counter()
    left = ntriples.read_ntriples(left_path, name="left")
    right = ntriples.read_ntriples(right_path, name="right")
    parsed = time.perf_counter()
    result = ParisAligner(left, right, ParisConfig()).align()
    aligned = time.perf_counter()
    payload = {
        "parse_s": parsed - started,
        "align_s": aligned - parsed,
        "converged": result.converged,
        "iterations": len(result.iterations),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "assignment": sorted(
            [left_node.name, right_node.name]
            for left_node, (right_node, _p) in result.assignment12.items()
        ),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    if recorder is not None:
        recorder.dump(argv[3])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
