import hashlib
from itertools import combinations, product

import pytest

from qbpd.analysis import bwt, weight_cells
from qbpd.columns import column_enumerate
from qbpd.diagram import (
    _trace,
    canonical_key,
    diagram_from_text,
    diagram_to_text,
    extract_permutation,
    rothe_diagram,
    validate,
)
from qbpd.errors import MoveRejected, SizeLimit
from qbpd.moves import (
    RectMove,
    _lift_candidates,
    apply_droop,
    apply_lift,
    enumerate_qbpds,
    enumerate_unpaired,
)
from qbpd.perm import enumerate_symmetric_group, length, make_permutation
from qbpd.polyring import Poly


def test_apply_droop_2143():
    R = rothe_diagram(make_permutation([2, 1, 4, 3]))
    D = apply_droop(R, RectMove("droop", 1, 2, 3, 3, pipe=1))
    assert diagram_from_text("4\n..RH\nRHCH\nVRJR\nVVRC\n") == D
    assert validate(D) == []


def test_apply_lift_reaches_minus_q1(minus_q1_2143):
    R = rothe_diagram(make_permutation([2, 1, 4, 3]))
    D = apply_droop(R, RectMove("droop", 1, 2, 3, 3, pipe=1))
    lifted = apply_lift(D, RectMove("lift", 1, 1, 2, 2, pipe=2))
    assert lifted == minus_q1_2143
    assert bwt(lifted) == -Poly.q(1, 4)


def test_droop_rejected_on_occupied_corner():
    # the southeast corner would need a WN on top of an NS
    R = rothe_diagram(make_permutation([2, 1, 3, 4]))
    with pytest.raises(MoveRejected):
        apply_droop(R, RectMove("droop", 1, 2, 4, 3, pipe=1))


def test_droop_requires_matching_route():
    R = rothe_diagram(make_permutation([2, 1, 4, 3]))
    D = apply_droop(R, RectMove("droop", 1, 2, 3, 3, pipe=1))
    lift = RectMove("lift", 1, 1, 2, 2, pipe=2)
    apply_lift(D, lift)
    identity = rothe_diagram(make_permutation([1, 2, 3]))
    cases = [
        # no blank corners anywhere on the identity
        (identity, RectMove("droop", 1, 1, 2, 2, pipe=1)),
        # a lift that applies is not a droop
        (D, lift),
        # the droop above, on pipes that do not exist
        (R, RectMove("droop", 1, 2, 3, 3, pipe=0)),
        (R, RectMove("droop", 1, 2, 3, 3, pipe=5)),
    ]
    for diagram, move in cases:
        with pytest.raises(MoveRejected):
            apply_droop(diagram, move)


def test_lift_rejected_degenerate_rectangle():
    R = rothe_diagram(make_permutation([2, 1, 4, 3]))
    D = apply_droop(R, RectMove("droop", 1, 2, 3, 3, pipe=1))
    cases = [
        (R, apply_lift, RectMove("lift", 2, 1, 2, 3, pipe=2)),
        # rectangles running past column or row n
        (D, apply_lift, RectMove("lift", 1, 1, 2, 5, pipe=2)),
        (D, apply_lift, RectMove("lift", 1, 4, 2, 5, pipe=2)),
        (R, apply_droop, RectMove("droop", 1, 2, 5, 3, pipe=1)),
        (R, apply_droop, RectMove("droop", 4, 2, 5, 3, pipe=1)),
        # the lift of test_apply_lift_reaches_minus_q1 on missing pipes
        (D, apply_lift, RectMove("lift", 1, 1, 2, 2, pipe=0)),
        (D, apply_lift, RectMove("lift", 1, 1, 2, 2, pipe=5)),
    ]
    for diagram, apply, move in cases:
        with pytest.raises(MoveRejected):
            apply(diagram, move)


def test_lift_rejected_by_reducedness():
    # locally legal, but the detour would cross pipe 2 twice
    R = rothe_diagram(make_permutation([4, 1, 2, 3]))
    with pytest.raises(MoveRejected) as exc:
        apply_lift(R, RectMove("lift", 1, 2, 3, 3, pipe=3))
    assert "valid" in str(exc.value)


def test_moves_reject_paired_diagrams(minus_q1_2143):
    from qbpd.diagram import domino_pairings

    base = rothe_diagram(make_permutation([3, 2, 1]))
    paired = next(D for D in domino_pairings(base) if D.dominoes)
    with pytest.raises(MoveRejected):
        apply_droop(paired, RectMove("droop", 1, 1, 2, 2, pipe=1))


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
    assert column_enumerate(ident) == {rothe_diagram(ident)}
    w = make_permutation([4, 2, 1, 3])
    assert column_enumerate(w) == enumerate_qbpds(w)
    with pytest.raises(SizeLimit):
        column_enumerate(make_permutation([8, 1, 7, 6, 5, 4, 3, 2]))


def test_closure_matches_column_enumerate_spot_s5():
    for images in ([2, 1, 4, 3, 5], [1, 3, 2, 5, 4], [3, 1, 2, 5, 4]):
        w = make_permutation(images)
        assert enumerate_qbpds(w) == column_enumerate(w)


def _rows(D):
    return "/".join(diagram_to_text(D).split()[1:])


def test_public_moves_pinned_s4():
    # every move of both kinds, over every rectangle inside the grid and
    # every pipe, on every unpaired diagram of S_1..S_4
    accepted = []
    for n in range(1, 5):
        spans = list(combinations(range(1, n + 1), 2))
        for w in enumerate_symmetric_group(n):
            for D in sorted(enumerate_unpaired(w), key=canonical_key):
                for kind, apply in (("droop", apply_droop), ("lift", apply_lift)):
                    for (r1, r2), (c1, c2) in product(spans, spans):
                        for pipe in range(1, n + 1):
                            move = RectMove(kind, r1, c1, r2, c2, pipe)
                            try:
                                result = apply(D, move)
                            except MoveRejected:
                                continue
                            accepted.append((_rows(D), move, _rows(result)))
    assert len(accepted) == 51
    text = "".join(f"{d} {m} {r}\n" for d, m, r in accepted)
    assert hashlib.md5(text.encode()).hexdigest() == "ddbde5b91da45af7c1fb755e6837beb5"
    # two of them are lifts of a SW corner directly followed by an ES corner
    lift = RectMove("lift", 1, 1, 2, 2, pipe=3)
    assert ("..RH/RSVR/VNCC/VRCC", lift, "RSRH/VVVR/VNCC/VRCC") in accepted
    assert ("...R/RSRC/VNCC/VRCC", lift, "RS.R/VVRC/VNCC/VRCC") in accepted
    D = diagram_from_text("4\n..RH\nRSVR\nVNCC\nVRCC\n")
    flat = D.flat()
    lifted = diagram_from_text("4\nRSRH\nVVVR\nVNCC\nVRCC\n").flat()
    assert (lifted, (1, 1, 2, 2, 3)) in _lift_candidates(flat, 4, _trace(flat, 4)[1])


def test_rect_move_fields():
    assert RectMove._fields == ("kind", "r1", "c1", "r2", "c2", "pipe")
    move = RectMove(kind="lift", r1=1, c1=1, r2=2, c2=2, pipe=2)
    assert move == RectMove("lift", 1, 1, 2, 2, pipe=2)
    assert repr(move) == "RectMove(kind='lift', r1=1, c1=1, r2=2, c2=2, pipe=2)"
