"""End-to-end benchmark of the paper's workloads, with per-layer attribution.

Run from the repository root::

    python -m benchmarks.e2e run [--seed N] [--size full|ci] [--trace] [--out FILE]
    python -m benchmarks.e2e compare BASE.json NEW.json

See ``benchmarks/e2e/README.md`` for the workloads, metrics and bounds.
"""

import json
from pathlib import Path

#: Repository root (the benchmark runs the program from its sources here).
ROOT = Path(__file__).resolve().parents[2]
#: Where ``import repro`` resolves from; never installed, always from source.
SRC = ROOT / "src"


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads, and every declared metric's unit,
    direction and (end-to-end only) bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
