"""Benchmark harness for horoshadow's certificate pipelines.

`python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`
runs one workload from the root of a source checkout; see `bench/run.py`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import horoshadow from this checkout's `src/`, never from an
    installed copy; exit with status 2 when the checkout has no source."""
    if not (SRC / "horoshadow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no horoshadow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import horoshadow

    if Path(horoshadow.__file__).resolve().parent != SRC / "horoshadow":
        raise SystemExit(f"bench: imported horoshadow from {horoshadow.__file__}, "
                         f"not from {SRC}")
