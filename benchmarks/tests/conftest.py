"""Put the benchmark's modules and the checkout's library on the path.

Run from the root of a checkout:  python3 -m pytest benchmarks/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
