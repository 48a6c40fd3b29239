"""ASCII and SVG drawings of diagrams."""

from __future__ import annotations

from .diagram import Diagram, TileKind

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


def _arc(x1, y1, x2, y2):
    # quarter circle from (x1,y1) to (x2,y2), radius half a cell
    return (
        f'<path d="M {x1} {y1} A {_HALF} {_HALF} 0 0 1 {x2} {y2}"'
        ' fill="none" stroke="#1f4faa" stroke-width="3"/>'
    )


def _line(x1, y1, x2, y2):
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"'
        ' stroke="#1f4faa" stroke-width="3"/>'
    )


def render_svg(D: Diagram) -> str:
    """Self-contained SVG, 40px per cell, arcs for the elbow tiles."""
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
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            x0, y0 = (c - 1) * _CELL, (r - 1) * _CELL
            xm, ym = x0 + _HALF, y0 + _HALF
            x1, y1 = x0 + _CELL, y0 + _CELL
            t = D.tile_at(r, c)
            if t == TileKind.EW:
                parts.append(_line(x0, ym, x1, ym))
            elif t == TileKind.NS:
                parts.append(_line(xm, y0, xm, y1))
            elif t == TileKind.CROSS:
                parts.append(_line(x0, ym, x1, ym))
                parts.append(_line(xm, y0, xm, y1))
            elif t == TileKind.ES:
                parts.append(_arc(x1, ym, xm, y1))
            elif t == TileKind.WN:
                parts.append(_arc(xm, y0, x0, ym))
            elif t == TileKind.SW:
                parts.append(_arc(xm, y1, x0, ym))
            elif t == TileKind.NE:
                parts.append(_arc(x1, ym, xm, y0))
    for r, c in sorted(D.dominoes):
        x0, y0 = (c - 1) * _CELL + 4, (r - 1) * _CELL + 4
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{_CELL - 8}" height="{2 * _CELL - 8}"'
            ' fill="none" stroke="#333" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
