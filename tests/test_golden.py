# Golden numbers: small --no-timing runs of sweep, converge and cdf must
# reproduce tests/golden/ byte for byte, the version line masked. A failure
# reports what moved per cell; tests/golden_runs.py regenerates the files.
from __future__ import annotations

import pytest

from golden_runs import RUNS, generate, golden, report


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_the_golden_files(name):
    moved = report(name, golden(name), generate(name))
    assert not moved, "\n".join(moved)
