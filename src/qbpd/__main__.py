"""``python -m qbpd`` and the ``qbpd`` script: how a run stops.

From this module's first line, SIGINT and SIGTERM raise
``KeyboardInterrupt(signum)``, so a run unwinds as on Ctrl-C, and a pool's
block terminates its workers before the command exits.  ``main`` catches it
while ``cli`` loads and while the verb runs, writes ``interrupted`` (SIGINT)
or ``terminated`` (SIGTERM) as the one stderr line and returns
128 + signum: 130 or 143.
"""

import signal
import sys


def _stop(signum, frame):
    raise KeyboardInterrupt(signum)


signal.signal(signal.SIGINT, _stop)
signal.signal(signal.SIGTERM, _stop)


def main(argv=None) -> int:
    try:
        from . import cli

        return cli.main(argv)
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        word = "terminated" if signum == signal.SIGTERM else "interrupted"
        print(word, file=sys.stderr)
        return 128 + signum


if __name__ == "__main__":
    raise SystemExit(main())
