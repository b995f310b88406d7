"""The files a few small CLI runs write are byte-identical to the
recorded ones (``tests/golden.py`` says which runs and how to record)."""
import json

import pytest

from golden import GOLDEN, RUN_FILES, TWO_THREADS, machine_key, run_chain


def test_outputs_match_the_recorded_digests(tmp_path):
    key = machine_key()
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in records:
        pytest.skip(f"no golden record for {key!r}; record one with "
                    f"`python tests/golden.py --record`")
    got = run_chain(tmp_path)
    assert got[TWO_THREADS] == {name: got["quick start"][name] for name in RUN_FILES}, \
        "two BLAS threads moved the quick start's bits"
    assert got == records[key]
