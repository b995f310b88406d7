"""The heap policy that ``import tapeformer`` sets on glibc."""
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import tapeformer

# eight 512 KiB arrays written and freed per cycle; prints the minor page
# faults of 20 cycles after a warm-up one
CYCLES = """
import resource
import numpy as np
import tapeformer

def cycle():
    for a in [np.empty(1 << 16) for _ in range(8)]:
        a.fill(1.0)

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set on glibc only")
def test_freed_heap_is_reused_without_faulting_it_back():
    """Without the policy glibc maps such blocks anew or trims them off the
    heap, and every cycle faults its 1,024 pages back in (993 measured);
    with it the 20 cycles reuse the warm-up's pages. A fresh interpreter
    runs the cycles: earlier work in this process may already have
    raised glibc's own dynamic thresholds."""
    src = str(Path(tapeformer.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", CYCLES], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert int(out.stdout) < 100
