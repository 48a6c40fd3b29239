"""Command-line interface.

Verbs: ``enum`` (diagram enumeration), ``poly`` (the polynomial by any of
the three routes), ``stats`` (cancellation statistics and sweeps),
``verify`` (invariant suites) and ``render`` (ASCII/SVG drawings).

Exit codes: 0 success, 1 a verification failed, 2 usage or parse error,
a size that needs ``--force`` or a run out of memory.  Every error the
package raises is a ``ValueError``, as are a parse error and a stdout that
cannot encode the output: verbs raise it, and ``main`` alone writes stderr,
one ``error:`` line per line of the message, and exits 2.  ``_write``
writes every line of stdout.  A reader that closes stdout early ends the
command quietly with 0, and any other failure to write stdout exits 2.
Exit codes 130 (Ctrl-C) and 143 (SIGTERM) are set in ``qbpd.__main__``,
which owns how a run stops.  Each verb, ``poly`` mode and ``verify`` check
imports only the modules it runs, when it runs.  ``--jobs`` sets the
worker processes of ``stats --n`` and of every ``verify`` check.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from itertools import chain

from .errors import OutOfRange, SizeLimit
from .perm import Permutation, embed, enumerate_symmetric_group, parse_permutation

USAGE_ERROR = 2
CHECK_FAILED = 1


def _size_guard(args, n: int):
    """Sweeps above S_6, and any other n above 7, must be forced with ``--force``."""
    limit = 6 if args.verb == "stats" and args.perm is None else 7
    if n > limit and not args.force:
        raise SizeLimit(
            f"{args.verb} with n = {n} > {limit} must be forced with --force"
        )


def _sized_perm(args, text: str) -> Permutation:
    w = parse_permutation(text)
    _size_guard(args, w.n)
    return w


def _write(pieces, out: str | None):
    """Write the strings of ``pieces`` in turn to the file ``out`` or to stdout."""
    if not out:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_enum(args) -> int:
    from .columns import flat_diagrams
    from .diagram import flat_text

    w = _sized_perm(args, args.perm)
    tilings = flat_diagrams(w, unpaired=args.unpaired)
    if args.out and not args.count:  # first, so a failed write prints no count
        _write(flat_text(w.n, tilings), args.out)
    listing = [] if args.out or args.count else flat_text(w.n, tilings)
    _write(chain([f"{sum(len(sets) for _, sets in tilings)}\n"], listing), None)
    return 0


def cmd_poly(args) -> int:
    w = _sized_perm(args, args.perm)
    families = {s.strip() for s in (args.specialize or "").split(",") if s.strip()}
    bad = families - {"y", "q"}
    if bad:
        raise ValueError(f"unknown specialization {sorted(bad)}")
    if args.mode == "qbpd":
        from .analysis import qbpd_polynomial as route
    elif args.mode == "oracle":
        from .oracle import quantum_double_schubert_defining as route
    else:
        from .oracle import quantum_double_schubert_transition as route
    p = route(w).specialize(zero_y="y" in families, zero_q="q" in families)
    _write(chain(p.pieces(as_json=args.format == "json"), ["\n"]), args.out)
    return 0


def _stats_text(s) -> str:
    return ",".join(map(str, s[1:]))


def _stats_dict(s) -> dict:
    return {**s._asdict(), "perm": s.perm.to_text()}


def cmd_stats(args) -> int:
    import json

    from . import analysis

    if (args.n is None) == (args.perm is None):
        raise ValueError("give exactly one of --n or --perm")
    if args.perm is not None:
        rows = [analysis.cancellation_stats(_sized_perm(args, args.perm))]
    else:
        _size_guard(args, args.n)
        rows = analysis.stats_for_group(args.n, jobs=args.jobs)
        summary = analysis.summarize(args.n, rows)
    if args.format == "csv":
        header = ",".join(analysis.CancellationStats._fields)
        lines = chain([header], (f"{s.perm.to_text()},{_stats_text(s)}" for s in rows))
    elif args.perm is not None:
        (s,) = rows
        line = json.dumps(_stats_dict(s)) if args.format == "json" else _stats_text(s)
        lines = [line]
    elif args.format == "json":
        table = {
            "n": args.n,
            "total": summary.total,
            "average": summary.average,
            "max": summary.max_cancellations,
            "argmax": summary.argmax.to_text(),
            "rows": [_stats_dict(s) for s in rows],
        }
        lines = [json.dumps(table)]
    else:
        lines = [
            f"S_{args.n} total={summary.total} average={summary.average:.3f}"
            f" max={summary.max_cancellations} argmax={summary.argmax.to_text()}"
        ]
    _write((f"{line}\n" for line in lines), args.out)
    return 0


def _nth_perm(n: int, index: int) -> Permutation:
    """The permutation at ``index`` of S_n in lexicographic order."""
    values = list(range(1, n + 1))
    images = []
    for k in range(n - 1, -1, -1):
        digit, index = divmod(index, math.factorial(k))
        images.append(values.pop(digit))
    return Permutation(tuple(images))


def _verify_perms(n, sample, seed):
    """S_n, or ``sample`` of it drawn by lexicographic index without listing it.

    The draw is the one ``random.Random(seed).sample`` makes from the list
    of S_n, since it picks positions from the population's length alone.
    """
    if not sample or n < 1 or sample >= math.factorial(n):
        return enumerate_symmetric_group(n)
    import random

    indices = random.Random(seed).sample(range(math.factorial(n)), sample)
    return [_nth_perm(n, i) for i in indices]


def _verify_row(check: str, w: Permutation):
    """(checks made, failure lines) of one row of ``verify check``."""
    if check == "monk":
        from .oracle import monk_residual

        ks = range(1, w.n)
        bad = [k for k in ks if not monk_residual(k, w).is_zero()]
        return len(ks), [f"k={k}, {w}: nonzero Monk residual" for k in bad]
    fault = None
    if check == "theorem":
        from . import analysis, oracle

        t = analysis.qbpd_polynomial(w)
        if t != oracle.quantum_double_schubert_defining(w):
            fault = "weight sum differs from defining formula"
        elif t != oracle.quantum_double_schubert_transition(w):
            fault = "weight sum differs from transition recursion"
    elif check == "transition":
        from .analysis import qbpd_polynomial
        from .oracle import transition_rhs

        if w.is_identity():
            return 0, []
        if qbpd_polynomial(w) != transition_rhs(w, qbpd_polynomial):
            fault = "nonzero transition residual"
    elif check == "closure":
        # both sides expand each tiling through the same domino pairings
        from .columns import flat_diagrams
        from .moves import _closure

        walked = [tiles for tiles, _ in flat_diagrams(w, unpaired=True)]
        if sorted(_closure(w)) != walked:
            fault = "move closure differs from column enumeration"
    else:  # stability
        from .analysis import qbpd_polynomial

        if qbpd_polynomial(embed(w, w.n + 1)) != qbpd_polynomial(w).embed(w.n + 1):
            fault = "weight sum not stable under embedding"
    return 1, [f"{w}: {fault}"] if fault else []


def cmd_verify(args) -> int:
    from .rows import map_rows

    if args.sample is not None and args.sample < 1:
        raise OutOfRange(f"--sample must be >= 1, got {args.sample}")
    _size_guard(args, args.n)
    perms = _verify_perms(args.n, args.sample, args.seed)
    rows = map_rows(partial(_verify_row, args.check), perms, args.jobs)
    failures = [f"FAIL {line}\n" for _, lines in rows for line in lines]
    status = "ok" if not failures else f"{len(failures)} failures"
    checks = sum(c for c, _ in rows)
    _write([*failures, f"{args.check} n={args.n}: {checks} checks, {status}\n"], None)
    return 0 if not failures else CHECK_FAILED


def _pick(count: int, index: int) -> int:
    if not 1 <= index <= count:
        raise OutOfRange(f"index {index} out of range 1..{count}")
    return index - 1


def cmd_render(args) -> int:
    from .columns import flat_diagrams
    from .diagram import Diagram, diagram_from_text, validate
    from .render import render_ascii, render_svg

    if os.path.exists(args.target):
        try:
            with open(args.target, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {args.target}: {exc}") from None
        ds = [diagram_from_text(b) for b in text.split("\n\n") if b.strip()]
        if not ds:
            raise ValueError(f"{args.target} holds no diagram")
        problems = [
            f"diagram {k}: {problem}"
            for k, D in enumerate(ds, 1)
            for problem in validate(D)
        ]
        if problems:
            raise ValueError("\n".join(problems))
        D = ds[_pick(len(ds), args.index)]
    else:
        w = _sized_perm(args, args.target)
        tilings = flat_diagrams(w, unpaired=args.unpaired)
        pool = [(tiles, s) for tiles, sets in tilings for s in sets]
        D = Diagram.from_flat(w.n, *pool[_pick(len(pool), args.index)])
    text = render_svg(D) if args.format == "svg" else render_ascii(D)
    _write([text], args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbpd",
        description="Enumerate quantum bumpless pipe dreams and their polynomials.",
    )
    ap.add_argument("--jobs", type=int, help="worker processes of stats --n and verify")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enum", help="enumerate the diagrams of a permutation")
    p.add_argument("perm")
    p.add_argument("--unpaired", action="store_true", help="skip domino pairings")
    p.add_argument("--count", action="store_true", help="print the count only")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("poly", help="print the quantum double Schubert polynomial")
    p.add_argument("perm")
    p.add_argument(
        "--mode", choices=("qbpd", "oracle", "transition"), default="qbpd"
    )
    p.add_argument("--specialize", help="comma-separated families to zero: y,q")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("stats", help="cancellation statistics")
    p.add_argument("--n", type=int)
    p.add_argument("--perm")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument(
        "check",
        choices=("theorem", "transition", "monk", "closure", "stability"),
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="draw a diagram")
    p.add_argument("target", help="permutation or serialized diagram file")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--index", type=int, default=1, help="1-based, canonical order")
    p.add_argument("--unpaired", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)
    for p in sub.choices.values():
        p.add_argument("--force", action="store_true", help="allow n > 7, sweeps > 6")
    return ap


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        from .rows import resolve_jobs  # checked before any verb runs

        args.jobs = resolve_jobs(args.jobs)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        message = str(exc)
    except MemoryError:
        message = None  # worded below, once the handler lets go of the run's frames
    except OSError as exc:
        # every file a verb opens has its own handler, so this is stdout's;
        # the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0  # the reader has all it wants
        message = f"cannot write stdout: {exc.strerror or exc}"
    if message is None:
        message = f"{args.verb if args else 'qbpd'} ran out of memory"
    print("\n".join(f"error: {line}" for line in message.split("\n")), file=sys.stderr)
    return USAGE_ERROR
