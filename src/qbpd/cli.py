"""Command-line interface.

Verbs: ``enum`` (diagram enumeration), ``poly`` (the polynomial by any of
the three routes), ``stats`` (cancellation statistics and sweeps),
``verify`` (invariant suites) and ``render`` (ASCII/SVG drawings).

Exit codes: 0 success, 1 a verification failed, 2 usage or parse error,
130 interrupted (Ctrl-C), with ``interrupted`` as the one stderr line.
A reader that closes stdout early ends the command quietly with 0, and
any other failure to write stdout exits 2.  Each verb, ``poly`` mode and
``verify`` check imports only the modules it runs, when it runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import NotABijection, OutOfRange, SizeLimit
from .perm import Permutation, embed, enumerate_symmetric_group, parse_permutation

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERRUPTED = 130


def _size_guard(args, n: int):
    """n above 7 must be forced with ``--force``, like large sweeps."""
    if n > 7 and not args.force:
        raise SizeLimit(f"{args.verb} with n = {n} > 7 must be forced with --force")


def _sized_perm(args, text: str) -> Permutation:
    w = parse_permutation(text)
    _size_guard(args, w.n)
    return w


def _write(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# ---------------------------------------------------------------------------
# commands


def cmd_enum(args) -> int:
    from .columns import flat_diagrams
    from .diagram import flat_text

    w = _sized_perm(args, args.perm)
    ds = flat_diagrams(w, unpaired=args.unpaired)
    print(len(ds))
    if not args.count:
        _write(flat_text(w.n, ds), args.out)
    return 0


def cmd_poly(args) -> int:
    w = _sized_perm(args, args.perm)
    families = {s.strip() for s in (args.specialize or "").split(",") if s.strip()}
    bad = families - {"y", "q"}
    if bad:
        print(f"error: unknown specialization {sorted(bad)}", file=sys.stderr)
        return USAGE_ERROR
    if args.mode == "qbpd":
        from .analysis import qbpd_polynomial as route
    elif args.mode == "oracle":
        from .oracle import quantum_double_schubert_defining as route
    else:
        from .oracle import quantum_double_schubert_transition as route
    p = route(w).specialize(zero_y="y" in families, zero_q="q" in families)
    if args.format == "json":
        import json

        _write(json.dumps(p.to_json_dict(), indent=None) + "\n", args.out)
    else:
        _write(p.canonical_text() + "\n", args.out)
    return 0


def _stats_text(s) -> str:
    return ",".join(map(str, s[1:]))


def _stats_dict(s) -> dict:
    return {**s._asdict(), "perm": s.perm.to_text()}


CSV_HEADER = "perm,poly_monomials,qbpd_monomials,cancellations,qbpd_count"


def cmd_stats(args) -> int:
    import json

    from . import analysis

    if (args.n is None) == (args.perm is None):
        print("error: give exactly one of --n or --perm", file=sys.stderr)
        return USAGE_ERROR
    if args.perm:
        s = analysis.cancellation_stats(_sized_perm(args, args.perm))
        if args.format == "csv":
            _write(f"{CSV_HEADER}\n{s.perm.to_text()},{_stats_text(s)}\n", args.out)
        elif args.format == "json":
            _write(json.dumps(_stats_dict(s)) + "\n", args.out)
        else:
            _write(_stats_text(s) + "\n", args.out)
        return 0
    # SizeLimit and OutOfRange (bad worker counts) exit 2 through main
    rows = analysis.stats_for_group(args.n, jobs=args.jobs, force=args.force)
    summary = analysis.summarize(args.n, rows)
    if args.format == "csv":
        lines = [CSV_HEADER]
        lines += [f"{s.perm.to_text()},{_stats_text(s)}" for s in rows]
        _write("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        _write(
            json.dumps(
                {
                    "n": args.n,
                    "total": summary.total,
                    "average": summary.average,
                    "max": summary.max_cancellations,
                    "argmax": summary.argmax.to_text(),
                    "rows": [_stats_dict(s) for s in rows],
                }
            )
            + "\n",
            args.out,
        )
    else:
        _write(
            f"S_{args.n} total={summary.total} average={summary.average:.3f}"
            f" max={summary.max_cancellations} argmax={summary.argmax.to_text()}\n",
            args.out,
        )
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


def cmd_verify(args) -> int:
    if args.sample is not None and args.sample < 1:
        raise OutOfRange(f"--sample must be >= 1, got {args.sample}")
    n = args.n
    _size_guard(args, n)
    failures = []
    checked = 0
    if args.check == "theorem":
        from . import analysis, oracle

        for w in _verify_perms(n, args.sample, args.seed):
            t = analysis.qbpd_polynomial(w)
            checked += 1
            if t != oracle.quantum_double_schubert_defining(w):
                failures.append(f"{w}: weight sum differs from defining formula")
            elif t != oracle.quantum_double_schubert_transition(w):
                failures.append(f"{w}: weight sum differs from transition recursion")
    elif args.check == "transition":
        from .analysis import verify_transition

        for w in _verify_perms(n, args.sample, args.seed):
            if w.is_identity():
                continue
            checked += 1
            if not verify_transition(w).is_zero():
                failures.append(f"{w}: nonzero transition residual")
    elif args.check == "monk":
        from .oracle import monk_residual

        for w in _verify_perms(n, args.sample, args.seed):
            for k in range(1, n):
                checked += 1
                if not monk_residual(k, w).is_zero():
                    failures.append(f"k={k}, {w}: nonzero Monk residual")
    elif args.check == "closure":
        # both sides expand each tiling through the same domino pairings
        from .columns import flat_diagrams
        from .moves import _closure

        for w in _verify_perms(n, args.sample, args.seed):
            checked += 1
            walked = [tiles for tiles, _ in flat_diagrams(w, unpaired=True)]
            if sorted(_closure(w)) != walked:
                failures.append(f"{w}: move closure differs from column enumeration")
    else:  # stability
        from .analysis import qbpd_polynomial

        for w in _verify_perms(n, args.sample, args.seed):
            checked += 1
            lifted = qbpd_polynomial(embed(w, n + 1))
            if lifted != qbpd_polynomial(w).embed(n + 1):
                failures.append(f"{w}: weight sum not stable under embedding")
    for line in failures:
        print(f"FAIL {line}")
    status = "ok" if not failures else f"{len(failures)} failures"
    print(f"{args.check} n={n}: {checked} checks, {status}")
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
            print(f"error: cannot read {args.target}: {exc}", file=sys.stderr)
            return USAGE_ERROR
        try:
            ds = [diagram_from_text(b) for b in text.split("\n\n") if b.strip()]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if not ds:
            print(f"error: {args.target} holds no diagram", file=sys.stderr)
            return USAGE_ERROR
        problems = [
            f"diagram {k}: {problem}"
            for k, D in enumerate(ds, 1)
            for problem in validate(D)
        ]
        if problems:
            print("\n".join(f"error: {p}" for p in problems), file=sys.stderr)
            return USAGE_ERROR
        D = ds[_pick(len(ds), args.index)]
    else:
        w = _sized_perm(args, args.target)
        pool = flat_diagrams(w, unpaired=args.unpaired)
        D = Diagram.from_flat(w.n, *pool[_pick(len(pool), args.index)])
    text = render_svg(D) if args.format == "svg" else render_ascii(D)
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbpd",
        description="Enumerate quantum bumpless pipe dreams and their polynomials.",
    )
    ap.add_argument(
        "--jobs", type=int, default=None, help="worker processes for stats --n sweeps"
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enum", help="enumerate the diagrams of a permutation")
    p.add_argument("perm")
    p.add_argument("--unpaired", action="store_true", help="skip domino pairings")
    p.add_argument("--count", action="store_true", help="print the count only")
    p.add_argument("--force", action="store_true", help="allow n > 7")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("poly", help="print the quantum double Schubert polynomial")
    p.add_argument("perm")
    p.add_argument(
        "--mode", choices=("qbpd", "oracle", "transition"), default="qbpd"
    )
    p.add_argument("--specialize", help="comma-separated families to zero: y,q")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--force", action="store_true", help="allow n > 7")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("stats", help="cancellation statistics")
    p.add_argument("--n", type=int)
    p.add_argument("--perm")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--force", action="store_true", help="allow --n > 6, --perm n > 7")
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
    p.add_argument("--force", action="store_true", help="allow n > 7")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="draw a diagram")
    p.add_argument("target", help="permutation or serialized diagram file")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--index", type=int, default=1, help="1-based, canonical order")
    p.add_argument("--unpaired", action="store_true")
    p.add_argument("--force", action="store_true", help="allow n > 7")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (NotABijection, OutOfRange, SizeLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED
    except OSError as exc:
        # every file a verb opens has its own handler, so this is stdout's;
        # the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0  # the reader has all it wants
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
