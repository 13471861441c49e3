"""Put ``src`` and the repository root on ``sys.path`` for the benchmark tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
