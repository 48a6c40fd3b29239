import hashlib
import pickle
import random

import pytest

import qbpd.diagram
from qbpd.diagram import (
    ROUTE,
    SEGMENTS,
    SIDE_CHARS,
    Diagram,
    E,
    N,
    S,
    TileKind,
    W,
    _trace,
    canonical_key,
    diagram_from_text,
    diagram_to_text,
    domino_pairings,
    extract_permutation,
    rothe_diagram,
    validate,
)
from qbpd.errors import HasDominoes, InvalidDiagram
from qbpd.moves import enumerate_qbpds
from qbpd.perm import embed, enumerate_symmetric_group, make_permutation

T = TileKind


def test_rothe_identity():
    D = rothe_diagram(make_permutation([1, 2, 3]))
    for i in range(1, 4):
        assert D.tile_at(i, i) == T.ES
        for j in range(i + 1, 4):
            assert D.tile_at(i, j) == T.EW
            assert D.tile_at(j, i) == T.NS
    assert not any(t == T.BLANK for row in D.tiles for t in row)


def test_rothe_4213_blanks():
    D = rothe_diagram(make_permutation([4, 2, 1, 3]))
    blanks = {
        (r, c)
        for r in range(1, 5)
        for c in range(1, 5)
        if D.tile_at(r, c) == T.BLANK
    }
    assert blanks == {(1, 1), (1, 2), (1, 3), (2, 1)}
    assert validate(D) == []
    assert extract_permutation(D).images == (4, 2, 1, 3)


def test_rothe_321_blanks():
    D = rothe_diagram(make_permutation([3, 2, 1]))
    blanks = {
        (r, c)
        for r in range(1, 4)
        for c in range(1, 4)
        if D.tile_at(r, c) == T.BLANK
    }
    assert blanks == {(1, 1), (1, 2), (2, 1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rothe_round_trip(n):
    for w in enumerate_symmetric_group(n):
        assert extract_permutation(rothe_diagram(w)) == w


def test_trace_identity():
    n = 3
    D = rothe_diagram(make_permutation([1, 2, 3]))
    end_cols, traces, violations = _trace(D.flat(), n)
    assert end_cols == [0, 1, 2] and violations == []
    for i, steps in enumerate(traces):
        west = [(i * n + j, E, W) for j in range(n - 1, i, -1)]
        turn = [(i * n + i, E, S)]
        down = [(r * n + i, N, S) for r in range(i + 1, n)]
        assert steps == west + turn + down


def test_trace_upward_pipe_4213():
    from qbpd.analysis import bwt
    from qbpd.polyring import Poly

    qs = enumerate_qbpds(make_permutation([4, 2, 1, 3]))
    target = -(Poly.q(1, 4) * Poly.q(2, 4))
    (D,) = [d for d in qs if bwt(d) == target]
    end_cols, traces, _ = _trace(D.flat(), 4)
    steps = traces[end_cols.index(0)]
    assert (1 * 4 + 2, S, N) in steps  # up through (2,3)
    assert (0 * 4 + 2, S, W) in steps  # and west at (1,3)


def test_tracing_stuck_upward_last_column():
    # a pipe that turns up in the rightmost column cannot be traced: pipe 2
    # enters (1,2) from the south and can only leave east
    tiles = (
        (T.BLANK, T.ES),
        (T.NS, T.NE),
    )
    D = Diagram(n=2, tiles=tiles)
    end_cols, _, violations = _trace(D.flat(), 2)
    assert end_cols == [None, None]
    assert ("rightward", 0, 1, S, 1) in violations
    assert validate(D) != []


def test_validate_rightward_non_example(non_example):
    problems = validate(non_example)
    assert any("moves rightward at (2,2)" in p for p in problems)
    assert any("moves rightward at (2,3)" in p for p in problems)


def test_validate_double_crossing():
    # pipes 1 and 2 cross at (2,3) and again at (3,2)
    text = "4\n..RH\n.RCH\nRCJR\nVVRC\n"
    D = diagram_from_text(text)
    problems = validate(D)
    assert any("cross more than once" in p for p in problems)
    with pytest.raises(InvalidDiagram):
        extract_permutation(D)


def test_validate_enumerated_diagrams_4213():
    for D in enumerate_qbpds(make_permutation([4, 2, 1, 3])):
        assert validate(D) == []
        assert extract_permutation(D).images == (4, 2, 1, 3)


def test_validate_domino_overlay():
    base = rothe_diagram(make_permutation([3, 2, 1]))
    ok = Diagram(n=3, tiles=base.tiles, dominoes=frozenset({(1, 1)}))
    assert validate(ok) == []
    bad = Diagram(n=3, tiles=base.tiles, dominoes=frozenset({(1, 2)}))
    assert any("blank" in p for p in validate(bad))
    out = Diagram(n=3, tiles=base.tiles, dominoes=frozenset({(3, 1)}))
    assert any("bounds" in p or "blank" in p for p in validate(out))


def test_domino_pairings():
    ident = rothe_diagram(make_permutation([1, 2, 3]))
    assert domino_pairings(ident) == {ident}

    d321 = domino_pairings(rothe_diagram(make_permutation([3, 2, 1])))
    assert len(d321) == 2
    assert {frozenset(), frozenset({(1, 1)})} == {D.dominoes for D in d321}

    # single column of three blanks: empty, top pair, bottom pair
    col3 = domino_pairings(rothe_diagram(make_permutation([2, 3, 4, 1])))
    assert {D.dominoes for D in col3} == {
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(2, 1)}),
    }

    with pytest.raises(HasDominoes):
        domino_pairings(
            Diagram(
                n=3,
                tiles=rothe_diagram(make_permutation([3, 2, 1])).tiles,
                dominoes=frozenset({(1, 1)}),
            )
        )


def test_restrict_rothe_of_fixed_point():
    # the Rothe diagram of w fixing n is that of w restricted to S_{n-1},
    # bordered by horizontals in column n, verticals in row n and an ES corner
    w = make_permutation([4, 2, 1, 3])
    small = rothe_diagram(w).tiles
    for n in (5, 6):
        big = rothe_diagram(embed(w, n)).tiles
        assert tuple(row[:4] for row in big[:4]) == small
        assert [row[4:] for row in big[:4]] == [(T.EW,) * (n - 4)] * 4
        assert big[n - 1] == (T.NS,) * (n - 1) + (T.ES,)


def test_canonical_key():
    qs = sorted(enumerate_qbpds(make_permutation([4, 2, 1, 3])), key=canonical_key)
    keys = [canonical_key(D) for D in qs]
    assert len(set(keys)) == 5
    copy = Diagram(n=qs[0].n, tiles=qs[0].tiles, dominoes=frozenset(qs[0].dominoes))
    assert canonical_key(copy) == keys[0]
    base = rothe_diagram(make_permutation([3, 2, 1]))
    paired = Diagram(n=3, tiles=base.tiles, dominoes=frozenset({(1, 1)}))
    assert canonical_key(base) != canonical_key(paired)


def test_no_upward_motion_in_rightmost_column():
    for w in enumerate_symmetric_group(4):
        for D in enumerate_qbpds(w):
            assert all(row[-1] != T.NE for row in D.tiles)
            for steps in _trace(D.flat(), D.n)[1]:
                for idx, entry, out in steps:
                    if idx % D.n == D.n - 1:
                        assert (entry, out) != (S, N)


def test_text_round_trip():
    for D in enumerate_qbpds(make_permutation([4, 2, 1, 3])):
        text = diagram_to_text(D)
        assert diagram_from_text(text) == D
    with pytest.raises(ValueError):
        diagram_from_text("2\n..\n.Z\n")
    with pytest.raises(ValueError):
        diagram_from_text("")


def test_segment_and_usage_tables_follow_route():
    # each segment pairs two sides that ROUTE maps to each other, a CROSS
    # lists its horizontal strand first, and a valid grid passes once along
    # each segment, a CROSS's vertical strand counted in the high nibble
    for route, segments in zip(ROUTE, SEGMENTS):
        for segment in segments:
            a, b = (s for s in range(4) if segment >> s & 1)
            assert route[a] & 3 == b and route[b] & 3 == a
        assert 2 * len(segments) == sum(x >= 0 for x in route)
    assert SEGMENTS[T.CROSS] == (2 | 8, 1 | 4)
    usage = qbpd.diagram._EXPECTED_USAGE
    assert usage == bytes([0, 1, 1, 1, 1, 1, 1, 0x11]).ljust(256, b"\0")


def test_tracer_golden_random_grids():
    # md5 over validate() and the traced pipes (or the cell and side of the
    # first pipe fault) on 20,000 random grids, pinned from the
    # permissive/strict tracer pair that the single tracer replaced
    rng = random.Random(5)
    h = hashlib.md5()
    for _ in range(20000):
        n = rng.randint(1, 4)
        D = Diagram.from_flat(n, [rng.randrange(8) for _ in range(n * n)])
        problems = validate(D)
        end_cols, traces, violations = _trace(D.flat(), n)
        faults = [v for v in violations if v[0] in ("stuck", "rightward", "boundary")]
        if faults:
            _, r, c, side = faults[0][:4]
            traced = ((r + 1, c + 1), SIDE_CHARS[side])
        else:
            traced = [
                (
                    row + 1,
                    [
                        ((i // n + 1, i % n + 1), SIDE_CHARS[a], SIDE_CHARS[b])
                        for i, a, b in steps
                    ],
                    end + 1,
                )
                for row, (end, steps) in enumerate(zip(end_cols, traces))
            ]
        h.update(f"{problems!r} {traced!r}\n".encode())
        if problems:
            with pytest.raises(InvalidDiagram) as info:
                extract_permutation(D)
            assert info.value.violations == problems
        else:
            assert extract_permutation(D).images == tuple(t[2] for t in traced)
    assert h.hexdigest() == "4eda63a41080f67859bd8640fe44b071"


def test_extract_and_weight_cells_trace_once(monkeypatch):
    from qbpd.analysis import weight_cells

    calls = []
    trace = qbpd.diagram._trace

    def counting(flat, n):
        calls.append(n)
        return trace(flat, n)

    monkeypatch.setattr(qbpd.diagram, "_trace", counting)
    D = rothe_diagram(make_permutation([4, 2, 1, 3]))
    assert extract_permutation(D).images == (4, 2, 1, 3)
    assert calls == [4]
    calls.clear()
    assert (1, 1) in weight_cells(D).E
    assert calls == [4]


def test_diagram_is_a_frozen_record():
    D = rothe_diagram(make_permutation([2, 1]))
    assert repr(D) == (
        "Diagram(n=2, tiles=((<TileKind.BLANK: 0>, <TileKind.ES: 1>),"
        " (<TileKind.ES: 1>, <TileKind.CROSS: 7>)), dominoes=frozenset())"
    )
    paired = Diagram(n=2, tiles=D.tiles, dominoes=frozenset({(1, 1)}))
    assert repr(paired).endswith(", dominoes=frozenset({(1, 1)}))")
    assert D == Diagram(2, D.tiles) == Diagram(2, D.tiles, frozenset())
    assert D != paired and D != rothe_diagram(make_permutation([1, 2]))
    assert hash(D) == hash(Diagram(2, D.tiles)) == hash((2, D.tiles, frozenset()))
    assert D != (2, D.tiles, frozenset())
    assert len({D, Diagram(2, D.tiles), paired}) == 2
    for name in ("n", "tiles", "dominoes", "other"):
        with pytest.raises(AttributeError):
            setattr(D, name, None)
    with pytest.raises(AttributeError):
        del D.dominoes
    for E in (D, paired):
        again = pickle.loads(pickle.dumps(E))
        assert again == E and type(again) is Diagram


@pytest.mark.parametrize(
    "n, tiles",
    [
        (2, ((T.ES,),)),  # one row of one tile
        (1, ((9,),)),  # no tile kind 9
        (3, ((T.BLANK, T.ES), (T.ES, T.CROSS))),  # a 2 x 2 grid
        (2, ((T.ES, T.EW), (T.ES,))),  # a short row
        (1, ("R",)),  # a character, not a tile kind
    ],
    ids=["short-grid", "unknown-kind", "n-too-large", "short-row", "text-row"],
)
def test_malformed_tiles_raise_invalid_diagram(n, tiles):
    # validate would otherwise index past the grid or past ROUTE
    with pytest.raises(InvalidDiagram) as info:
        Diagram(n=n, tiles=tiles)
    message = f"tiles do not form a {n} x {n} grid of tile kinds"
    assert info.value.violations == [message]
