"""ASCII and SVG drawings of diagrams.

SVG strokes are the tiles' ``diagram.SEGMENTS``, read off ``diagram.ROUTE``,
the one statement of which sides each tile joins.
"""

from __future__ import annotations

from .diagram import SEGMENTS, Diagram, N, TileKind, W

__all__ = ["render_ascii", "render_svg"]

GLYPHS = dict(zip(TileKind, "·┌┘┐└─│┼"))


def render_ascii(D: Diagram) -> str:
    """Box-drawing grid; 'D'/'d' mark the upper/lower cell of a domino."""
    uppers = set(D.dominoes)
    lowers = {(r + 1, c) for r, c in D.dominoes}
    lines = []
    for r in range(1, D.n + 1):
        chars = []
        for c in range(1, D.n + 1):
            if (r, c) in uppers:
                chars.append("D")
            elif (r, c) in lowers:
                chars.append("d")
            else:
                chars.append(GLYPHS[D.tile_at(r, c)])
        lines.append("".join(chars))
    return "\n".join(lines) + "\n"


_CELL = 40
_HALF = _CELL // 2
# the midpoint of each side of a cell, N E S W, from its north-west corner
_MIDPOINTS = ((_HALF, 0), (_CELL, _HALF), (_HALF, _CELL), (0, _HALF))
_PEN = ' stroke="#1f4faa" stroke-width="3"/>'


def _stroke(x0, y0, segment):
    """The stroke of a segment of the cell with north-west corner (x0, y0).

    ``segment`` is the bit set of the two sides it joins, as in
    ``diagram.SEGMENTS``.
    """
    sides = [s for s in range(4) if segment >> s & 1]
    ends = [(x0 + _MIDPOINTS[s][0], y0 + _MIDPOINTS[s][1]) for s in sides]
    if sides[1] - sides[0] == 2:  # straight: north to south, west to east
        (x1, y1), (x2, y2) = sorted(ends)
        return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"' + _PEN
    # an elbow: the quarter circle round the corner its two sides share,
    # clockwise from the side that follows to the one before it (the
    # higher side, except that N follows W)
    (x1, y1), (x2, y2) = ends if sides == [N, W] else ends[::-1]
    return f'<path d="M {x1} {y1} A {_HALF} {_HALF} 0 0 1 {x2} {y2}" fill="none"' + _PEN


def render_svg(D: Diagram) -> str:
    """Self-contained SVG, 40px per cell, quarter arcs for the elbow tiles."""
    n = D.n
    size = n * _CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}"'
        f' viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for k in range(n + 1):
        v = k * _CELL
        parts.append(
            f'<line x1="0" y1="{v}" x2="{size}" y2="{v}" stroke="#999"/>'
        )
        parts.append(
            f'<line x1="{v}" y1="0" x2="{v}" y2="{size}" stroke="#999"/>'
        )
    for r, row in enumerate(D.tiles):
        for c, tile in enumerate(row):
            for segment in SEGMENTS[tile]:
                parts.append(_stroke(c * _CELL, r * _CELL, segment))
    for r, c in sorted(D.dominoes):
        x0, y0 = (c - 1) * _CELL + 4, (r - 1) * _CELL + 4
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{_CELL - 8}" height="{2 * _CELL - 8}"'
            ' fill="none" stroke="#333" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
