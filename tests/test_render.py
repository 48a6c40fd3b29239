import hashlib
import re

from qbpd.columns import flat_diagrams
from qbpd.diagram import Diagram
from qbpd.perm import enumerate_symmetric_group
from qbpd.render import render_ascii, render_svg

_ARC = re.compile(r'<path d="M (\d+) (\d+) A (\d+) (\d+) 0 0 1 (\d+) (\d+)"')


def _diagrams(sizes):
    for n in sizes:
        for w in enumerate_symmetric_group(n):
            for tiles, dominoes in flat_diagrams(w):
                yield Diagram.from_flat(n, tiles, dominoes)


def _arc_centre(x1, y1, x2, y2):
    # the centre of the short clockwise (sweep 1) arc of radius 20 from
    # (x1, y1) to (x2, y2), which lie sqrt(2) * 20 apart: the two centres
    # of radius-20 circles through both points are the chord's midpoint
    # plus or minus half the chord turned a quarter
    dx, dy = x2 - x1, y2 - y1
    for sign in (1, -1):
        cx2, cy2 = x1 + x2 - sign * dy, y1 + y2 + sign * dx  # twice the centre
        # clockwise on screen (y down) is a positive cross product
        if (2 * x1 - cx2) * (2 * y2 - cy2) - (2 * y1 - cy2) * (2 * x2 - cx2) > 0:
            return cx2 / 2, cy2 / 2


def test_svg_elbow_arcs_are_quarter_circles_round_a_corner():
    arcs = 0
    for D in _diagrams((3, 4)):
        for m in _ARC.finditer(render_svg(D)):
            x1, y1, rx, ry, x2, y2 = map(int, m.groups())
            assert (rx, ry) == (20, 20)
            assert (x2 - x1) ** 2 + (y2 - y1) ** 2 == 2 * 20**2
            cx, cy = _arc_centre(x1, y1, x2, y2)
            assert cx % 40 == 0 and cy % 40 == 0, (D, m.group(0))
            arcs += 1
    assert arcs == 582


def test_render_golden_s4():
    # one md5 per format over the drawings of every diagram of S_1..S_4, in
    # canonical order
    ascii_md5, svg_md5 = hashlib.md5(), hashlib.md5()
    for D in _diagrams(range(1, 5)):
        ascii_md5.update(render_ascii(D).encode())
        svg_md5.update(render_svg(D).encode())
    assert ascii_md5.hexdigest() == "4cad7ffb8b00f67575e755350003364b"
    assert svg_md5.hexdigest() == "195f7a2e9f1ad8a3a93d223672fb11bc"
