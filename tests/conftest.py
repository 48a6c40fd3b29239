import random

import pytest

from qbpd.analysis import cancellation_stats
from qbpd.columns import flat_diagrams
from qbpd.diagram import Diagram, diagram_from_text
from qbpd.perm import Permutation, make_permutation
from qbpd.polyring import Poly


def random_poly(rng: random.Random, n: int, terms: int = 6, maxexp: int = 2) -> Poly:
    width = 3 * n - 1
    data = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, maxexp) for _ in range(width))
        data[key] = data.get(key, 0) + rng.randint(-5, 5)
    return Poly(n, data)


def cycle_up(t: int, k: int, n: int) -> Permutation:
    """The cycle (t, t+1, ..., t+k) in cycle notation, as an element of S_n."""
    images = list(range(1, n + 1))
    for j in range(t, t + k):
        images[j - 1] = j + 1
    images[t + k - 1] = t
    return make_permutation(images)


def cycle_down(t: int, k: int, n: int) -> Permutation:
    """The cycle (t, t+k, t+k-1, ..., t+1), as an element of S_n."""
    images = list(range(1, n + 1))
    images[t - 1] = t + k
    for j in range(t + 1, t + k + 1):
        images[j - 1] = j - 1
    return make_permutation(images)


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """One reduced word (a_1, ..., a_k) with w = s_{a_1} ... s_{a_k}.

    Produced by repeatedly removing the first descent; the word has
    length(w) letters.
    """
    images = list(w.images)
    rev = []
    while True:
        i = next(
            (i for i in range(1, len(images)) if images[i - 1] > images[i]),
            None,
        )
        if i is None:
            break
        images[i - 1], images[i] = images[i], images[i - 1]
        rev.append(i)
    return tuple(reversed(rev))


def divided_difference_chain(f: Poly, word) -> Poly:
    """Apply the divided-difference operator of a word, rightmost letter first.

    For word (a_1, ..., a_k) this computes d_{a_1} ... d_{a_k} f, which
    depends only on the permutation s_{a_1} ... s_{a_k} when the word is
    reduced (nilpotence and the braid relations).
    """
    for a in reversed(word):
        f = f.divided_difference_y(a)
    return f


def cancellation_free(w: Permutation) -> bool:
    return cancellation_stats(w).cancellations == 0


def column_diagrams(w: Permutation) -> set[Diagram]:
    """The diagrams of w on the paths of the column-state graph, as objects."""
    return {
        Diagram.from_flat(w.n, tiles, dominoes)
        for tiles, sets in flat_diagrams(w)
        for dominoes in sets
    }


# The non-example grid: the pipe entering on row 3 moves rightward through
# (2,2) and (2,3) on its way to the south edge.
NON_EXAMPLE_TEXT = """\
5
RHSRH
VRJVR
VNHCC
VRHCC
VVRCC
"""

# A diagram of 2143 whose only weight cell is the SW corner at (1,2); its
# binomial weight is -q1 and it cancels the +q1 domino diagram completely.
MINUS_Q1_2143_TEXT = """\
4
RSRH
VNCH
VRJR
VVRC
"""


@pytest.fixture
def non_example() -> Diagram:
    return diagram_from_text(NON_EXAMPLE_TEXT)


@pytest.fixture
def minus_q1_2143() -> Diagram:
    return diagram_from_text(MINUS_Q1_2143_TEXT)
