"""Put the benchmark's modules and the program's sources on the path."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def mods():
    """The coresat modules, imported once for the whole test run."""
    import workloads

    return workloads.load_program()
