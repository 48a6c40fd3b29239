import hashlib
from itertools import combinations

import pytest

from qbpd.analysis import bwt, weight_cells
from qbpd.diagram import (
    Diagram,
    TileKind,
    _trace,
    canonical_key,
    diagram_from_text,
    diagram_to_text,
    extract_permutation,
    rothe_diagram,
    validate,
)
from qbpd.moves import (
    _ADD,
    _DROP,
    _droop_candidates,
    _lift_candidates,
    enumerate_qbpds,
    enumerate_unpaired,
)
from qbpd.perm import enumerate_symmetric_group, length, make_permutation
from qbpd.polyring import Poly

from conftest import column_diagrams


def _valid(D, candidates):
    """The valid rewrites of an unpaired diagram, by their move."""
    n = D.n
    flat = D.flat()
    return {
        move: Diagram.from_flat(n, new)
        for new, move in candidates(flat, n, _trace(flat, n)[1])
        if not _trace(new, n)[2]
    }


def test_apply_droop_2143():
    R = rothe_diagram(make_permutation([2, 1, 4, 3]))
    D = _valid(R, _droop_candidates)[1, 2, 3, 3, 1]
    assert diagram_from_text("4\n..RH\nRHCH\nVRJR\nVVRC\n") == D
    assert validate(D) == []


def test_apply_lift_reaches_minus_q1(minus_q1_2143):
    R = rothe_diagram(make_permutation([2, 1, 4, 3]))
    D = _valid(R, _droop_candidates)[1, 2, 3, 3, 1]
    lifted = _valid(D, _lift_candidates)[1, 1, 2, 2, 2]
    assert lifted == minus_q1_2143
    assert bwt(lifted) == -Poly.q(1, 4)


def test_droop_rejected_on_occupied_corner():
    # no cell southeast of the ES corner at (1,2) is blank (at (4,3) the WN
    # would land on an NS), so no droop is generated at all
    R = rothe_diagram(make_permutation([2, 1, 3, 4]))
    flat = R.flat()
    assert list(_droop_candidates(flat, 4, _trace(flat, 4)[1])) == []


def test_droop_requires_matching_route():
    identity = rothe_diagram(make_permutation([1, 2, 3]))
    # no blank corners anywhere on the identity
    assert _valid(identity, _droop_candidates) == {}
    # a lift that applies is not a droop
    R = rothe_diagram(make_permutation([2, 1, 4, 3]))
    D = _valid(R, _droop_candidates)[1, 2, 3, 3, 1]
    lifted = _valid(D, _lift_candidates)[1, 1, 2, 2, 2]
    assert lifted not in _valid(D, _droop_candidates).values()


def test_lift_rejected_degenerate_rectangle():
    # every generated move, valid or not, names a rectangle with two
    # distinct rows and columns inside the grid and a pipe that exists
    for n in range(1, 5):
        for w in enumerate_symmetric_group(n):
            for D in enumerate_unpaired(w):
                flat = D.flat()
                traces = _trace(flat, n)[1]
                for candidates in (_droop_candidates, _lift_candidates):
                    for _, (r1, c1, r2, c2, pipe) in candidates(flat, n, traces):
                        assert 1 <= r1 < r2 <= n and 1 <= c1 < c2 <= n
                        assert 1 <= pipe <= n


def test_lift_rejected_by_reducedness():
    # locally legal, but the detour would cross pipe 2 twice
    R = rothe_diagram(make_permutation([4, 1, 2, 3]))
    flat = R.flat()
    grids = {move: new for new, move in _lift_candidates(flat, 4, _trace(flat, 4)[1])}
    violations = _trace(grids[1, 2, 3, 3, 3], 4)[2]
    assert violations == [("reduced", (1, 2), ((1, 1), (1, 2)))]
    assert (1, 2, 3, 3, 3) not in _valid(R, _lift_candidates)


def test_enumerate_unpaired_counts():
    assert enumerate_unpaired(make_permutation([1, 2, 3])) == {
        rothe_diagram(make_permutation([1, 2, 3]))
    }
    # 4213 has five diagrams in all, two of which carry dominoes
    assert len(enumerate_unpaired(make_permutation([4, 2, 1, 3]))) == 3
    for n in (3, 4, 5):
        w0 = make_permutation(range(n, 0, -1))
        assert enumerate_unpaired(w0) == {rothe_diagram(w0)}


def test_enumerate_qbpds_counts():
    assert len(enumerate_qbpds(make_permutation([4, 2, 1, 3]))) == 5
    assert len(enumerate_qbpds(make_permutation([4, 1, 3, 2]))) == 9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_moves_preserve_permutation_and_degree(n):
    for w in enumerate_symmetric_group(n):
        lw = length(w)
        for D in enumerate_qbpds(w):
            assert validate(D) == []
            assert extract_permutation(D) == w
            cells = weight_cells(D)
            assert len(cells.E) + 2 * len(cells.Q) + 2 * len(cells.NQ) == lw


def test_column_enumerate_small():
    ident = make_permutation([1, 2, 3])
    assert column_diagrams(ident) == {rothe_diagram(ident)}
    w = make_permutation([4, 2, 1, 3])
    assert column_diagrams(w) == enumerate_qbpds(w)


def test_closure_matches_column_enumerate_spot_s5():
    for images in ([2, 1, 4, 3, 5], [1, 3, 2, 5, 4], [3, 1, 2, 5, 4]):
        w = make_permutation(images)
        assert enumerate_qbpds(w) == column_diagrams(w)


def _rows(D):
    return "/".join(diagram_to_text(D).split()[1:])


def test_public_moves_pinned_s4():
    # every valid move of both kinds on every unpaired diagram of S_1..S_4,
    # droops before lifts, in rectangle-rows, rectangle-columns, pipe order
    accepted = []
    for n in range(1, 5):
        for w in enumerate_symmetric_group(n):
            for D in sorted(enumerate_unpaired(w), key=canonical_key):
                for kind, candidates in (
                    ("droop", _droop_candidates),
                    ("lift", _lift_candidates),
                ):
                    valid = _valid(D, candidates)
                    for r1, c1, r2, c2, pipe in sorted(
                        valid, key=lambda m: ((m[0], m[2]), (m[1], m[3]), m[4])
                    ):
                        move = (
                            f"RectMove(kind={kind!r}, r1={r1}, c1={c1},"
                            f" r2={r2}, c2={c2}, pipe={pipe})"
                        )
                        result = valid[r1, c1, r2, c2, pipe]
                        accepted.append((_rows(D), move, _rows(result)))
    assert len(accepted) == 51
    text = "".join(f"{d} {m} {r}\n" for d, m, r in accepted)
    assert hashlib.md5(text.encode()).hexdigest() == "ddbde5b91da45af7c1fb755e6837beb5"
    # two of them are lifts of a SW corner directly followed by an ES corner
    lift = "RectMove(kind='lift', r1=1, c1=1, r2=2, c2=2, pipe=3)"
    assert ("..RH/RSVR/VNCC/VRCC", lift, "RSRH/VVVR/VNCC/VRCC") in accepted
    assert ("...R/RSRC/VNCC/VRCC", lift, "RS.R/VVRC/VNCC/VRCC") in accepted
    D = diagram_from_text("4\n..RH\nRSVR\nVNCC\nVRCC\n")
    flat = D.flat()
    lifted = diagram_from_text("4\nRSRH\nVVVR\nVNCC\nVRCC\n").flat()
    assert (lifted, (1, 1, 2, 2, 3)) in _lift_candidates(flat, 4, _trace(flat, 4)[1])


def test_candidate_stream_pinned_s5():
    # every candidate of both generators, valid or not, in yield order, on
    # every unpaired diagram of S_1..S_5
    lines = []
    for n in range(1, 6):
        for w in enumerate_symmetric_group(n):
            for D in sorted(enumerate_unpaired(w), key=canonical_key):
                flat = D.flat()
                traces = _trace(flat, n)[1]
                for candidates in (_droop_candidates, _lift_candidates):
                    for new, move in candidates(flat, n, traces):
                        lines.append(f"{bytes(new).hex()} {move}\n")
    assert len(lines) == 1583
    text = "".join(lines)
    assert hashlib.md5(text.encode()).hexdigest() == "d98867ed23befe2edf7fdf12966dd5d7"


def test_segment_tables_follow_the_tile_rule():
    # a segment joins two sides; a cell holds side-disjoint segments, at
    # most two, and two only as the CROSS; a one-segment tile kind is
    # named by the sides its segment joins
    bit = {"N": 1, "E": 2, "S": 4, "W": 8}
    segments = [bit[a] | bit[b] for a, b in combinations("NESW", 2)]
    cross = {bit["E"] | bit["W"], bit["N"] | bit["S"]}
    kinds = {frozenset(): TileKind.BLANK, frozenset(cross): TileKind.CROSS}
    for kind in TileKind:
        if len(kind.name) == 2:
            kinds[frozenset({bit[kind.name[0]] | bit[kind.name[1]]})] = kind
    assert len(kinds) == len(TileKind)
    for held, kind in kinds.items():
        for s in range(16):
            more = held | {s}
            legal = (
                s in segments
                and not any(s & h for h in held)
                and (len(more) == 1 or more == cross)
            )
            assert _ADD[kind][s] == (kinds[more] if legal else None)
        assert _DROP[kind] == {s: kinds[held - {s}] for s in held}
