"""The full S_7 cancellation sweep, a result beyond the paper's tables.

About two minutes on two cores, so it runs only when ``QBPD_SLOW=1``
is set in the environment.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbpd

pytestmark = pytest.mark.skipif(
    os.environ.get("QBPD_SLOW") != "1", reason="set QBPD_SLOW=1 to run the S_7 sweep"
)


def test_s7_sweep_csv():
    src = str(Path(qbpd.__file__).resolve().parent.parent)
    argv = ["--jobs", "2", "stats", "--n", "7", "--force", "--format", "csv"]
    result = subprocess.run(
        [sys.executable, "-m", "qbpd", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.md5(result.stdout).hexdigest() == "9e0471e3ded7779058992a6fafe41c44"
    rows = [line.split(",") for line in result.stdout.decode().splitlines()[1:]]
    assert len(rows) == 5040
    cancellations = {perm: int(c) for perm, _, _, c, _ in rows}
    assert sum(cancellations.values()) == 488640351
    top = max(cancellations.values())
    assert top == 6598335
    assert [p for p, c in cancellations.items() if c == top] == ["7165432"]
