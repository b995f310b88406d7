import sys
from pathlib import Path

import pytest

from tapeformer import autodiff as ad

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def fresh_tape():
    """Every test starts and ends with an empty tape on its thread."""
    ad.tape_clear()
    yield
    ad.tape_clear()
