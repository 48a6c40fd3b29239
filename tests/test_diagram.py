import hashlib
import pickle
import random

import pytest

import qbpd.diagram
from qbpd.diagram import (
    Diagram,
    PipeStep,
    PipeTrace,
    TileKind,
    canonical_key,
    diagram_from_text,
    diagram_to_text,
    domino_pairings,
    embed_diagram,
    extract_permutation,
    restrict_diagram,
    rothe_diagram,
    trace_pipes,
    validate,
)
from qbpd.errors import (
    HasDominoes,
    InvalidDiagram,
    NotRestrictable,
    TracingStuck,
)
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
    traces = trace_pipes(rothe_diagram(make_permutation([1, 2, 3])))
    for i, tr in enumerate(traces, start=1):
        assert tr.start_row == i and tr.end_col == i
        west = [((i, j), "E", "W") for j in range(n, i, -1)]
        turn = [((i, i), "E", "S")]
        down = [((r, i), "N", "S") for r in range(i + 1, n + 1)]
        assert [tuple(s) for s in tr.steps] == west + turn + down


def test_trace_upward_pipe_4213():
    from qbpd.analysis import bwt
    from qbpd.polyring import Poly

    qs = enumerate_qbpds(make_permutation([4, 2, 1, 3]))
    target = -(Poly.q(1, 4) * Poly.q(2, 4))
    (D,) = [d for d in qs if bwt(d) == target]
    traces = trace_pipes(D)
    (pipe,) = [t for t in traces if t.end_col == 1]
    assert ((2, 3), "S", "N") in [tuple(s) for s in pipe.steps]
    assert ((1, 3), "S", "W") in [tuple(s) for s in pipe.steps]


def test_tracing_stuck_upward_last_column():
    # a pipe that turns up in the rightmost column cannot be traced
    tiles = (
        (T.BLANK, T.ES),
        (T.NS, T.NE),
    )
    D = Diagram(n=2, tiles=tiles)
    with pytest.raises(TracingStuck):
        trace_pipes(D)
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


def test_embed_restrict_round_trip():
    for D in enumerate_qbpds(make_permutation([4, 2, 1, 3])):
        up = embed_diagram(D)
        assert validate(up) == []
        assert extract_permutation(up).images == (4, 2, 1, 3, 5)
        assert restrict_diagram(up) == D


def test_restrict_rothe_of_fixed_point():
    w = make_permutation([2, 1, 3])
    assert restrict_diagram(rothe_diagram(w)) == rothe_diagram(
        make_permutation([2, 1])
    )
    big = rothe_diagram(embed(make_permutation([4, 2, 1, 3]), 6))
    assert restrict_diagram(restrict_diagram(big)) == rothe_diagram(
        make_permutation([4, 2, 1, 3])
    )


def test_restrict_not_restrictable():
    with pytest.raises(NotRestrictable):
        restrict_diagram(rothe_diagram(make_permutation([3, 2, 1])))
    with pytest.raises(NotRestrictable):
        restrict_diagram(rothe_diagram(make_permutation([1])))


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
            for tr in trace_pipes(D):
                for step in tr.steps:
                    if step.cell[1] == D.n:
                        assert (step.entry, step.exit) != ("S", "N")


def test_text_round_trip():
    for D in enumerate_qbpds(make_permutation([4, 2, 1, 3])):
        text = diagram_to_text(D)
        assert diagram_from_text(text) == D
    with pytest.raises(ValueError):
        diagram_from_text("2\n..\n.Z\n")
    with pytest.raises(ValueError):
        diagram_from_text("")


def test_tracer_golden_random_grids():
    # md5 over validate() and trace_pipes() (or the cell and side where it
    # raises) on 20,000 random grids, pinned from the permissive/strict
    # tracer pair that the single tracer replaced
    rng = random.Random(5)
    h = hashlib.md5()
    for _ in range(20000):
        n = rng.randint(1, 4)
        D = Diagram.from_flat(n, [rng.randrange(8) for _ in range(n * n)])
        problems = validate(D)
        try:
            traced = [
                (t.start_row, [tuple(s) for s in t.steps], t.end_col)
                for t in trace_pipes(D)
            ]
        except TracingStuck as exc:
            traced = (exc.cell, exc.side)
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
    assert D != paired and D != Diagram(3, D.tiles)
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


def test_pipe_trace_fields():
    assert PipeTrace._fields == ("start_row", "steps", "end_col")
    first = trace_pipes(rothe_diagram(make_permutation([2, 1])))[0]
    assert first == PipeTrace(
        start_row=1,
        steps=(PipeStep((1, 2), "E", "S"), PipeStep((2, 2), "N", "S")),
        end_col=2,
    )
