"""The measurement scripts ``buildcost.py`` and ``ab.py`` run end to end.

Both wrap library names from outside (``SubgraphStack.split``,
``build_batch``, ``SubgraphStore.build``, ``evaluation.metrics``), so a
rename in the library would break them without a test. They import the
library under a second package name, so each runs in its own process.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("script, args, keys", [
    ("buildcost.py", ["--repeats", "1"], ["libraries", "repeats", "seed", "us_per_center"]),
    ("ab.py", ["--aa", "--rounds", "1"], ["libraries", "rounds", "chunk", "desk", "default"]),
], ids=["buildcost", "ab"])
def test_probe_script_prints_its_json(script, args, keys):
    run = subprocess.run([sys.executable, str(HERE / script), *args], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert list(json.loads(run.stdout)) == keys
