"""``python -m qbpd`` and the ``qbpd`` script.

Ctrl-C and SIGTERM end the command as in a verb, also while it loads: exit
130 with ``interrupted``, or 143 with ``terminated``, as the one stderr line.
"""

import os
import signal


def _quit(signum, frame):
    os.write(2, b"interrupted\n" if signum == signal.SIGINT else b"terminated\n")
    os._exit(128 + signum)


signal.signal(signal.SIGINT, _quit)
signal.signal(signal.SIGTERM, _quit)

from . import cli  # noqa: E402
from .errors import Terminated  # noqa: E402


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)
    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
