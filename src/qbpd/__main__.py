"""``python -m qbpd`` and the ``qbpd`` script.

Ctrl-C while the command loads ends it as in a verb: exit 130 with
``interrupted`` as the one stderr line.
"""

import os
import signal


def _interrupted(signum, frame):
    os.write(2, b"interrupted\n")
    os._exit(130)


signal.signal(signal.SIGINT, _interrupted)

from . import cli  # noqa: E402


def main(argv=None) -> int:
    signal.signal(signal.SIGINT, signal.default_int_handler)
    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
