"""The ordered diagram enumerator against independent references, S_1..S_5."""

from itertools import combinations

import pytest

from qbpd.analysis import weight_cells
from qbpd.diagram import (
    Diagram,
    TileKind,
    _pairings,
    canonical_key,
    diagram_from_text,
    diagram_to_text,
    domino_pairings,
    extract_permutation,
)
from qbpd.columns import flat_diagrams
from qbpd.moves import enumerate_qbpds, enumerate_unpaired
from qbpd.perm import enumerate_symmetric_group, length

SMALL = [w for n in range(1, 6) for w in enumerate_symmetric_group(n)]


def reference_pairings(D: Diagram) -> set[frozenset]:
    """Every set of pairwise disjoint vertical pairs of blank cells."""
    blank = {
        (r, c)
        for r in range(1, D.n + 1)
        for c in range(1, D.n + 1)
        if D.tile_at(r, c) == TileKind.BLANK
    }
    pairs = [(r, c) for r, c in blank if (r + 1, c) in blank]
    out = set()
    for k in range(len(pairs) + 1):
        for chosen in combinations(pairs, k):
            cells = [cell for r, c in chosen for cell in ((r, c), (r + 1, c))]
            if len(set(cells)) == len(cells):
                out.add(frozenset(chosen))
    return out


def test_run_pairings_match_subset_enumeration():
    checked = 0
    for w in SMALL:
        for D in enumerate_unpaired(w):
            ref = reference_pairings(D)
            found = _pairings(bytes(D.flat()), D.n)
            assert found == sorted(set(found))
            assert {frozenset(m) for m in found} == ref
            assert {P.dominoes for P in domino_pairings(D)} == ref
            checked += 1
    assert checked == 985


def test_flat_diagrams_are_in_canonical_order():
    for w in SMALL:
        listed = [
            Diagram.from_flat(w.n, tiles, dominoes)
            for tiles, sets in flat_diagrams(w)
            for dominoes in sets
        ]
        assert listed == sorted(enumerate_qbpds(w), key=canonical_key)
        unpaired = [tiles for tiles, _ in flat_diagrams(w, unpaired=True)]
        assert unpaired == sorted(bytes(D.flat()) for D in enumerate_unpaired(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_diagram_round_trips_and_keeps_degree(n):
    # |E| + 2 (|Q| + |NQ|) = l(w) is the degree that droop and lift keep
    total = 0
    for w in enumerate_symmetric_group(n):
        lw = length(w)
        for D in enumerate_qbpds(w):
            assert diagram_from_text(diagram_to_text(D)) == D
            assert extract_permutation(D) == w
            cells = weight_cells(D)
            assert len(cells.E) + 2 * (len(cells.Q) + len(cells.NQ)) == lw
            total += 1
    assert total == {1: 1, 2: 2, 3: 10, 4: 106, 5: 2356}[n]


def test_pairings_reach_the_grid_edges():
    # column 1 is blank top to bottom, column 2 only in its bottom row
    assert _pairings(bytes([0, 5, 0, 0]), 2) == [(), ((1, 1),)]
    # a run down from the top of column 2 and one up from the bottom of column 1
    assert _pairings(bytes([1, 0, 0, 0, 0, 2, 0, 3, 0]), 3) == [
        (),
        ((1, 2),),
        ((1, 2), (2, 1)),
        ((2, 1),),
    ]
