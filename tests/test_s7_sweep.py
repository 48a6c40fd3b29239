"""The full S_7 cancellation sweep, a result beyond the paper's tables,
and the memory of its heaviest row.

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


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="no /proc/self/status")
def test_heaviest_s7_row_peak_memory():
    # VmHWM starts afresh at exec, unlike ru_maxrss, which a child inherits
    # from the test process; the row peaked at 136-138 MiB when this was set
    src = str(Path(qbpd.__file__).resolve().parent.parent)
    code = (
        "from qbpd.cli import main\n"
        "assert main(['stats', '--perm', '7165432']) == 0\n"
        "status = open('/proc/self/status').read().split('\\n')\n"
        "print(next(line for line in status if line.startswith('VmHWM:')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    *_, last = result.stdout.splitlines()
    _, kib, unit = last.split()
    assert unit == "kB"
    assert int(kib) <= 150 * 1024, last
