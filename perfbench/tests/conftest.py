"""Put the benchmark's modules and the program on ``sys.path``."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]
