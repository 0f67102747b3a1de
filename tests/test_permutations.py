import pytest

from helpers import all_permutations, apply_s, bruhat_closure, bruhat_leq, identity, left_descents, length
from helpers import longest_element, right_descents
from wcell.permutations import Permutation, inverse, multiply


def test_identity_has_no_descents():
    e = identity(4)
    assert length(e) == 0
    assert left_descents(e) == right_descents(e) == frozenset()


def test_single_transposition():
    w = Permutation((2, 1, 3))
    assert length(w) == 1
    assert left_descents(w) == right_descents(w) == {1}


def test_longest_element_of_s3():
    w0 = longest_element(3)
    assert length(w0) == 3
    assert left_descents(w0) == right_descents(w0) == {1, 2}
    assert all(length(w) <= 3 for w in all_permutations(3))


def test_group_operations():
    for w in all_permutations(4):
        assert multiply(w, inverse(w)) == identity(4)
    assert apply_s(1, identity(4)) == Permutation((2, 1, 3, 4))
    with pytest.raises(IndexError):
        apply_s(4, identity(4))
    with pytest.raises(ValueError):
        multiply(identity(3), identity(4))


def test_length_additive_on_minimal_tableau_word_factorisation():
    # l(word(tau_lam)) equals the sum of the column contributions
    from wcell import tableaux as tb

    for n in range(1, 6):
        for lam in tb.partitions_of(n):
            w = tb.word(tb.tau_min(lam))
            assert length(w) == sum(h * (h - 1) // 2 for h in lam)


def test_descents_of_inverse():
    for w in all_permutations(5):
        assert length(w) == length(inverse(w))
        assert left_descents(w) == right_descents(inverse(w))


def test_bruhat_matches_transposition_closure():
    for n in range(2, 6):
        relation = bruhat_closure(n)
        elems = list(all_permutations(n))
        for x in elems:
            for y in elems:
                assert bruhat_leq(x, y) == ((x.images, y.images) in relation), (x, y)


def test_bruhat_bounds_and_antisymmetry():
    elems = list(all_permutations(4))
    e, w0 = identity(4), longest_element(4)
    for w in elems:
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
    for x in elems:
        for y in elems:
            if bruhat_leq(x, y) and bruhat_leq(y, x):
                assert x == y


def test_text_roundtrip():
    w = Permutation((3, 1, 2))
    assert Permutation.from_text(w.text()) == w
