import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_permutations, all_skew_shapes, dual_knuth_classes_on_group, skew_reading_word
from wcell import rsk
from wcell import tableaux as tb
from wcell.permutations import Permutation, inverse


def test_rs_on_trivial_group():
    p, q = rsk.rs(Permutation((1,)))
    assert p == q == tb.tau_min((1,))


def test_rs_pins_reading_word_convention():
    # the insertion tableau of word(t) is t and the recording tableau is minimal
    assert rsk.rs(Permutation((2, 1, 3))) == (tb.tau_min((2, 1)), tb.tau_min((2, 1)))
    for n in range(1, 9):
        for lam in tb.partitions_of(n):
            tmin = tb.tau_min(lam)
            for t in tb.enumerate_std(lam):
                assert rsk.rs(tb.word(t)) == (t, tmin)


def test_rs_inverse_swaps_components():
    for w in all_permutations(5):
        p, q = rsk.rs(w)
        assert rsk.rs(inverse(w)) == (q, p)


def test_rs_roundtrip_s6():
    for w in all_permutations(6):
        p, q = rsk.rs(w)
        assert rsk.rs_inverse(p, q) == w


def test_rs_is_a_bijection_onto_same_shape_pairs():
    from math import factorial

    for n in range(1, 7):
        images = set()
        for w in all_permutations(n):
            p, q = rsk.rs(w)
            assert p.shape == q.shape
            images.add((p, q))
        assert len(images) == factorial(n)
        assert sum(tb.hook_count(lam) ** 2 for lam in tb.partitions_of(n)) == len(images)


def test_rs_inverse_shape_mismatch():
    with pytest.raises(ValueError):
        rsk.rs_inverse(tb.tau_min((2,)), tb.tau_min((1, 1)))


def test_recording_fibres_are_dual_knuth_classes():
    for n in range(2, 6):
        fibres = {}
        for w in all_permutations(n):
            fibres.setdefault(rsk.rs(w)[1], set()).add(w)
        classes = {frozenset(block) for block in dual_knuth_classes_on_group(n)}
        assert {frozenset(f) for f in fibres.values()} == classes


def test_rs_inverse_of_diagonal_pairs_is_an_involution():
    for lam in tb.partitions_of(5):
        tmin = tb.tau_min(lam)
        w = rsk.rs_inverse(tmin, tmin)
        assert inverse(w) == w


# ---------------------------------------------------------------------------
# jeu de taquin


def test_slide_single_adjacent_box():
    shape = tb.SkewShape((1, 1), (1,))
    t = tb.enumerate_std(shape)[0]
    rec = rsk.jdt_slide(t, (1, 1))
    assert rec.vacated == (1, 2)
    assert rec.result.shape == tb.SkewShape((1,))
    assert rec.path == ((1, 1), (1, 2))


def test_slide_vacates_bottom_of_first_column_block():
    # sliding the minimal filling of lam minus its first entry into (1,1)
    # vacates the box at the bottom of the last maximal-height column
    for lam in [(3, 2), (3, 3, 1), (4, 2, 2), (2, 2, 2)]:
        skew = tb.restrict_gt(tb.tau_min(lam), 1)
        t = tb.StandardTableau(skew.shape, skew.column_word, 0)
        rec = rsk.jdt_slide(t, (1, 1))
        m1 = sum(1 for h in lam if h == lam[0])
        assert rec.vacated == (lam[0], m1)


def test_slide_requires_removable_inner_box():
    shape = tb.SkewShape((2, 2), (2, 1))
    t = tb.enumerate_std(shape)[0]
    with pytest.raises(ValueError):
        rsk.jdt_slide(t, (1, 1))  # (1,1) is not removable from (2,1)


def _random_skew_tableau(rng, max_boxes=8):
    shapes = [s for s in all_skew_shapes(max_boxes) if not s.is_normal]
    shape = rng.choice(shapes)
    tabs = tb.enumerate_std(shape)
    return rng.choice(tabs)


def test_slide_path_weakly_increases():
    rng = random.Random(11)
    for _ in range(120):
        t = _random_skew_tableau(rng)
        box = rng.choice(tb.removable_boxes(t.shape.inner))
        rec = rsk.jdt_slide(t, box)
        for (i1, j1), (i2, j2) in zip(rec.path, rec.path[1:]):
            assert i1 <= i2 and j1 <= j2


def test_rectify_fixes_normal_tableaux():
    for lam in tb.partitions_of(5):
        for t in tb.enumerate_std(lam):
            assert rsk.rectify(t) == t


def test_rectify_is_insertion_of_reading_word():
    for shape in all_skew_shapes(7):
        for t in tb.enumerate_std(shape):
            expect = rsk.rs(skew_reading_word(t))[0]
            got = rsk.rectify(t)
            assert got.offset == t.offset
            shifted = tb.StandardTableau(got.shape, got.column_word, 0)
            assert shifted == expect, (t.text(), shape)


def test_rectify_of_tails_matches_reading_word_insertion():
    for lam in tb.partitions_of(6):
        for t in tb.enumerate_std(lam):
            for m in range(0, 6):
                tail = tb.restrict_gt(t, m)
                if tail.size == 0:
                    continue
                got = rsk.rectify(tail)
                expect = rsk.rs(skew_reading_word(tail))[0]
                assert tb.StandardTableau(got.shape, got.column_word, 0) == expect


def test_rectify_confluence_under_random_slide_orders():
    rng = random.Random(7)
    for _ in range(60):
        t = _random_skew_tableau(rng)
        expected = rsk.rectify(t)
        cur = t
        while not cur.shape.is_normal:
            box = rng.choice(tb.removable_boxes(cur.shape.inner))
            cur = rsk.jdt_slide(cur, box).result
        assert cur == expected


# ---------------------------------------------------------------------------
# dual equivalence


def test_dual_equivalent_reflexive_and_normal_classes():
    a, b = tb.enumerate_std((2, 1))
    assert rsk.dual_equivalent(a, a)
    assert rsk.dual_equivalent(a, b)
    for lam in tb.partitions_of(5):
        tabs = tb.enumerate_std(lam)
        assert all(rsk.dual_equivalent(tabs[0], t) for t in tabs)


def test_dual_equivalent_disconnected_shape():
    shape = tb.SkewShape((2, 1), (1,))
    u, t = tb.enumerate_std(shape)
    assert not rsk.dual_equivalent(u, t)


def test_dual_equivalent_shape_mismatch():
    with pytest.raises(ValueError):
        rsk.dual_equivalent(tb.tau_min((2,)), tb.tau_min((1, 1)))
