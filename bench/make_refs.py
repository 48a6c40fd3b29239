"""Generate bench/refs.json, the reference table the benchmark checks against.

Run once from the repository root (a few minutes on 2 cores, under 1 GB):

    python3 bench/make_refs.py

For every permutation the benchmark can sample, the table holds
``[poly_monomials, qbpd_monomials, qbpd_count]``:

* ``poly_monomials`` is the sum of absolute coefficients of the transition
  recursion's polynomial (``oracle.quantum_double_schubert_transition``),
  which shares no code with the weight sum in ``analysis``.  It is only
  computed where a workload checks it (all of S_6 and the s7-rows bands),
  because it is slow for large rows; elsewhere it is null.
* ``qbpd_count`` and ``qbpd_monomials`` come from the unpaired diagrams of
  the move closure.  Dominoes only pair vertically adjacent blanks of one
  column, so every maximal vertical run of L blanks contributes a factor
  F(L) to the count of pairings and G(L) to the number of expanded terms
  (each uncovered blank doubles them), with F(L) = F(L-1) + F(L-2) and
  G(L) = 2 G(L-1) + G(L-2).  Neither ``analysis`` nor
  ``diagram.domino_pairings`` is used.  On S_6 the generator asserts that
  both agree with ``analysis.stats_for_group``.

The table also fixes the sampling bands.  For each workload the pool
(S_6 or S_7) is ranked by a primary cost key; around each of a fixed set
of quantiles a band holds the permutations nearest to the quantile's
permutation in all of the workload's keys (distance in log scale).  The benchmark's seed picks one permutation per band, so every
seed gets a different sample with nearly the same cost profile, which
keeps run-to-run spread small.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qbpd.analysis import stats_for_group  # noqa: E402
from qbpd.diagram import TileKind  # noqa: E402
from qbpd.moves import enumerate_unpaired  # noqa: E402
from qbpd.oracle import quantum_double_schubert_transition  # noqa: E402
from qbpd.perm import enumerate_symmetric_group, parse_permutation  # noqa: E402

OUT = Path(__file__).resolve().parent / "refs.json"
POLY, TERMS, COUNT = 0, 1, 2  # positions in a row
# workload: (pool S_n, cost keys with the ranking key first, quantiles, band size)
BANDS = {
    # Stats rows: cost is dominated by weight expansion, so rank by expanded
    # terms.  Ten evenly spaced quantiles below 0.9 (the top one near 1.2M
    # terms, 3 s a row); the rows above take 5 to 80 s each and do not fit
    # a repeated run.
    "s7-rows": (7, (TERMS, COUNT), tuple(0.9 * (i + 0.5) / 10 for i in range(10)), 12),
    # Enumeration writes every diagram, so rank by diagram count.
    "enum-s7": (7, (COUNT, TERMS), tuple((i + 0.5) / 30 for i in range(30)), 12),
    # The qbpd route grows with the expansion.  S_6 is small, so bands are
    # narrower and stop short of its sparse top, where neighbours differ
    # by 2x in cost; the oracle route costs about the same everywhere.
    "poly-modes": (6, (TERMS, COUNT), (0.25, 0.5, 0.75, 0.9), 6),
}

FIB = [1, 1]
GROWTH = [1, 2]
for _ in range(10):
    FIB.append(FIB[-1] + FIB[-2])
    GROWTH.append(2 * GROWTH[-1] + GROWTH[-2])


def closure_counts(text: str) -> tuple[int, int]:
    """(qbpd_monomials, qbpd_count) of w from its unpaired diagrams."""
    w = parse_permutation(text)
    n = w.n
    terms = count = 0
    for D in enumerate_unpaired(w):
        t = c = 1
        for col in range(n):
            run = 0
            for row in range(n + 1):
                if row < n and D.tiles[row][col] == TileKind.BLANK:
                    run += 1
                else:
                    t *= GROWTH[run]
                    c *= FIB[run]
                    run = 0
        terms += t
        count += c
    return terms, count


def closure_counts_of(texts: list[str]) -> dict[str, tuple[int, int]]:
    return {t: closure_counts(t) for t in texts}


def transition_monomials(texts: list[str]) -> list[int]:
    return [
        quantum_double_schubert_transition(parse_permutation(t)).counts()[1]
        for t in texts
    ]


def bands(rows: dict[str, list], keys, quantiles, size: int) -> list[list[str]]:
    ordered = sorted(rows, key=lambda p: (rows[p][keys[0]], p))
    out = []
    for q in quantiles:
        centre = rows[ordered[round(q * (len(ordered) - 1))]]

        def distance(p):
            return sum(math.log(rows[p][k] / centre[k]) ** 2 for k in keys)

        out.append(sorted(rows, key=lambda p: (distance(p), p))[:size])
    return out


def main() -> int:
    spawn = multiprocessing.get_context("spawn")
    groups = {n: [w.to_text() for w in enumerate_symmetric_group(n)] for n in (6, 7)}
    # One short-lived worker per transition job keeps the memo cache
    # (hundreds of MB on the larger S_7 rows) from accumulating.
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn, max_tasks_per_child=1) as pool:
        s6_poly = pool.submit(transition_monomials, groups[6])
        count_jobs = [
            pool.submit(closure_counts_of, perms[i::4]) for perms in groups.values() for i in range(4)
        ]
        rows = {6: {}, 7: {}}
        for job in count_jobs:
            for p, c in job.result().items():
                rows[len(p)][p] = [None, *c]
        for p, v in zip(groups[6], s6_poly.result()):
            rows[6][p][POLY] = v
        print("closure counts and S_6 references done", file=sys.stderr)

        for s in stats_for_group(6, jobs=1):
            got = rows[6][s.perm.to_text()][TERMS:]
            if got != [s.qbpd_monomials, s.qbpd_count]:
                raise SystemExit(f"column-run counts {got} disagree with {s}")

        sampled = {name: bands(rows[n], *spec) for name, (n, *spec) in BANDS.items()}
        need_poly = sorted({p for band in sampled["s7-rows"] for p in band})
        for p, v in zip(need_poly, pool.map(transition_monomials, [[p] for p in need_poly])):
            rows[7][p][POLY] = v[0]
    print("S_7 transition references done", file=sys.stderr)

    members = set(groups[6]) | {p for b in sampled.values() for band in b for p in band}
    table = {p: rows[len(p)][p] for p in sorted(members)}
    OUT.write_text(json.dumps({"rows": table, "bands": sampled}, indent=0) + "\n")
    print(f"wrote {OUT} with {len(table)} rows", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
