"""The files a few small CLI runs write are byte-identical to the
recorded ones (``tests/golden.py`` says which runs and how to record)."""
import json

import pytest

from golden import GOLDEN, machine_key, run_chain


def test_outputs_match_the_recorded_digests(tmp_path):
    key = machine_key()
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in records:
        pytest.skip(f"no golden record for {key!r}; record one with "
                    f"`python tests/golden.py --record`")
    assert run_chain(tmp_path) == records[key]
