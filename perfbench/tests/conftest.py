import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def lib():
    """(lexmatch package, its modules by name) imported from src/."""
    import run

    lexmatch, modules, _ = run.import_lexmatch()
    return lexmatch, modules
