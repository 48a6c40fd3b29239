import itertools
import pickle

import pytest

from qbpd.errors import IdentityPermutation, NotABijection, OutOfRange
from qbpd.perm import (
    Permutation,
    TransitionData,
    embed,
    enumerate_symmetric_group,
    is_bruhat_cover,
    is_quantum_lower,
    length,
    make_permutation,
    parse_permutation,
    reduced_word,
    right_multiply_transposition,
    transition_setup,
)


def brute_inversions(images):
    return sum(
        1
        for i, j in itertools.combinations(range(len(images)), 2)
        if images[i] > images[j]
    )


def test_make_permutation():
    assert make_permutation([1]).images == (1,)
    assert make_permutation([4, 2, 1, 3]).images == (4, 2, 1, 3)
    with pytest.raises(NotABijection):
        make_permutation([4, 2, 2, 3])
    with pytest.raises(NotABijection):
        make_permutation([])
    with pytest.raises(NotABijection):
        make_permutation([0, 1])


def test_parse_permutation():
    assert parse_permutation("4213").images == (4, 2, 1, 3)
    assert parse_permutation("4,2,1,3").images == (4, 2, 1, 3)
    big = parse_permutation("10,2,3,4,5,6,7,8,9,1")
    assert big.n == 10 and big(1) == 10
    assert big.to_text() == "10,2,3,4,5,6,7,8,9,1"
    assert make_permutation([2, 1]).to_text() == "21"
    with pytest.raises(NotABijection):
        parse_permutation("")
    with pytest.raises(NotABijection):
        parse_permutation("12a")


def test_length():
    assert length(make_permutation([1, 2, 3])) == 0
    assert length(make_permutation([4, 3, 2, 1])) == 6
    w = make_permutation([4, 2, 1, 3])
    assert length(w) == brute_inversions(w.images) == 4


def test_right_multiply_transposition():
    ident = make_permutation([1, 2, 3, 4])
    assert right_multiply_transposition(ident, 1, 2).images == (2, 1, 3, 4)
    assert right_multiply_transposition(
        make_permutation([3, 4, 2, 1]), 2, 3
    ).images == (3, 2, 4, 1)
    with pytest.raises(OutOfRange):
        right_multiply_transposition(make_permutation([4, 2, 1, 3]), 2, 2)
    with pytest.raises(OutOfRange):
        right_multiply_transposition(make_permutation([4, 2, 1, 3]), 1, 5)


def test_bruhat_cover_examples():
    assert is_bruhat_cover(make_permutation([1, 2]), 1, 2)
    assert is_bruhat_cover(make_permutation([2, 1, 3, 4]), 2, 3)
    assert not is_bruhat_cover(make_permutation([2, 1, 3, 4]), 1, 2)
    with pytest.raises(OutOfRange):
        is_bruhat_cover(make_permutation([1, 2]), 2, 2)


def test_quantum_lower_examples():
    assert is_quantum_lower(make_permutation([3, 2, 4, 1]), 1, 2)
    assert not is_quantum_lower(make_permutation([1, 2]), 1, 2)
    assert is_quantum_lower(make_permutation([3, 2, 1]), 1, 3)
    with pytest.raises(OutOfRange):
        is_quantum_lower(make_permutation([1, 2]), 0, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cover_predicates_match_length(n):
    refl_len = lambda a, b: 2 * (b - a) - 1
    for w in enumerate_symmetric_group(n):
        lw = length(w)
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                wt = right_multiply_transposition(w, a, b)
                assert is_bruhat_cover(w, a, b) == (length(wt) == lw + 1)
                assert is_quantum_lower(w, a, b) == (
                    length(wt) == lw - refl_len(a, b)
                )
                # any transposition flips the parity of the length
                assert (length(wt) - lw) % 2 == 1


def test_transition_setup_examples():
    td = transition_setup(make_permutation([3, 4, 2, 1]))
    assert (td.n, td.a, td.b, td.m) == (4, 2, 3, 2)
    assert td.sigma.images == (3, 2, 4, 1)

    td = transition_setup(make_permutation([2, 1]))
    assert (td.n, td.a, td.b, td.m) == (2, 1, 2, 1)
    assert td.sigma.is_identity()

    with pytest.raises(IdentityPermutation):
        transition_setup(make_permutation([1, 2, 3]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_transition_setup_invariants(n):
    for w in enumerate_symmetric_group(n):
        if w.is_identity():
            continue
        td = transition_setup(w)
        assert w(td.a) == td.n
        assert td.sigma.images == right_multiply_transposition(w, td.a, td.b).images
        assert td.m == td.sigma(td.a) == w(td.b)
        # b is the unique position in (a, n] whose sigma-value exceeds m
        bigger = [j for j in range(td.a + 1, td.n + 1) if td.sigma(j) > td.m]
        assert bigger == [td.b]


def test_embed():
    assert embed(make_permutation([2, 1]), 3).images == (2, 1, 3)
    w = make_permutation([4, 2, 1, 3])
    assert embed(w, 4) == w
    assert embed(w, 6).images == (4, 2, 1, 3, 5, 6)
    with pytest.raises(OutOfRange):
        embed(w, 3)


def test_enumerate_symmetric_group():
    assert [w.images for w in enumerate_symmetric_group(1)] == [(1,)]
    perms3 = list(enumerate_symmetric_group(3))
    assert len(perms3) == 6
    assert perms3[0].images == (1, 2, 3)
    assert perms3[-1].images == (3, 2, 1)
    assert len(list(enumerate_symmetric_group(4))) == 24


def test_reduced_word():
    for w in enumerate_symmetric_group(4):
        word = reduced_word(w)
        assert len(word) == length(w)
        acc = make_permutation([1, 2, 3, 4])
        for a in word:
            acc = right_multiply_transposition(acc, a, a + 1)
        assert acc == w


def test_permutation_is_a_frozen_record():
    w = make_permutation([3, 1, 2])
    assert repr(w) == "Permutation(images=(3, 1, 2))"
    assert repr(Permutation(images=[2, 1])) == "Permutation(images=(2, 1))"
    assert w == Permutation((3, 1, 2)) and w != Permutation((1, 3, 2))
    assert hash(w) == hash(Permutation((3, 1, 2)))
    assert w != (3, 1, 2) and w != ((3, 1, 2),)
    assert len({w, Permutation((3, 1, 2)), Permutation((1, 2, 3))}) == 2
    for name in ("images", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, (1, 2, 3))
    with pytest.raises(AttributeError):
        del w.images
    assert w.images == (3, 1, 2)
    again = pickle.loads(pickle.dumps(w))
    assert again == w and type(again) is Permutation
    with pytest.raises(NotABijection):
        Permutation((1, 1))


def test_transition_data_fields():
    assert TransitionData._fields == ("n", "a", "b", "m", "sigma")
    td = transition_setup(make_permutation([3, 4, 2, 1]))
    sigma = make_permutation([3, 2, 4, 1])
    assert td == TransitionData(n=4, a=2, b=3, m=2, sigma=sigma)
    assert repr(td) == (
        "TransitionData(n=4, a=2, b=3, m=2, sigma=Permutation(images=(3, 2, 4, 1)))"
    )
