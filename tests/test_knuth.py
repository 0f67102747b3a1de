import pytest

import helpers
from wcell import builder, knuth
from wcell import tableaux as tb


def _pairs_same_n(n):
    for mu in tb.partitions_of(n):
        for lam in tb.partitions_of(n):
            for u in tb.enumerate_std(mu):
                for t in tb.enumerate_std(lam):
                    yield u, t


# ---------------------------------------------------------------------------
# moves


def test_no_moves_on_single_row():
    t = tb.tau_min((1, 1, 1, 1))
    assert knuth.dk_moves_from(t) == []


def test_two_tableaux_of_shape_21_joined_by_one_move():
    a, b = tb.enumerate_std((2, 1))
    edges = {frozenset((mv.source, mv.target)) for mv in knuth.dk_moves_from(a)}
    assert edges == {frozenset((a, b))}


def test_handshake_parity():
    for lam in tb.partitions_of(6):
        total = sum(len(knuth.dk_moves_from(t)) for t in tb.enumerate_std(lam))
        assert total % 2 == 0


def test_moves_flip_the_defining_patterns():
    for lam in tb.partitions_of(6):
        for t in tb.enumerate_std(lam):
            for mv in knuth.dk_moves_from(t):
                diff = [
                    e
                    for e in mv.source.entries()
                    if mv.source.box_of(e) != mv.target.box_of(e)
                ]
                assert diff == [mv.index, mv.index + 1]
                ds, dt = mv.source.descents, mv.target.descents
                k = mv.index
                if mv.kind == 1:
                    assert ds & {k - 1, k} == {k - 1} and dt & {k - 1, k} == {k}
                else:
                    assert ds & {k, k + 1} == {k + 1} and dt & {k, k + 1} == {k}


def test_every_incomparable_cover_is_a_dual_knuth_edge():
    # the two weight classes of the builder are exhaustive for covers
    for n in range(2, 9):
        for lam in tb.partitions_of(n):
            for t in tb.enumerate_std(lam):
                for i in t.descent_data().sa:
                    u = tb.swap_adjacent(t, i)
                    dt, du = t.descents, u.descents
                    assert not du <= dt
                    if not dt < du:
                        assert knuth.is_dk_edge(t, u), (t, u)


# ---------------------------------------------------------------------------
# k-neighbours


def test_k_neighbour_on_shape_21():
    a, b = tb.enumerate_std((2, 1))
    assert knuth.k_neighbour(a, 1) == b
    assert knuth.k_neighbour(b, 1) == a


def test_k_neighbour_involution_and_pattern():
    for lam in tb.partitions_of(6):
        for t in tb.enumerate_std(lam):
            for k in range(1, 5):
                inter = t.descents & {k, k + 1}
                if len(inter) != 1:
                    continue
                nb = knuth.k_neighbour(t, k)
                assert nb.descents & {k, k + 1} == {k, k + 1} - inter
                assert knuth.k_neighbour(nb, k) == t


def test_k_neighbour_precondition():
    t = tb.tau_min((3,))
    with pytest.raises(ValueError):
        knuth.k_neighbour(t, 1)  # both 1 and 2 are descents


# ---------------------------------------------------------------------------
# restriction numbers and favourable pairs


def test_restriction_number_examples():
    u = tb.from_text("1 2 5/3/4")
    t = tb.from_text("1 2 3/4 5")
    assert knuth.restriction_number(u, t) == 2
    u2 = tb.from_text("1 2 3/4/5")
    assert knuth.restriction_number(u2, t) == 4
    for lam in tb.partitions_of(4):
        for t4 in tb.enumerate_std(lam):
            assert knuth.restriction_number(t4, t4) == 4


def test_restriction_number_is_positive_and_n_only_on_diagonal():
    for u, t in _pairs_same_n(5):
        k = knuth.restriction_number(u, t)
        assert k >= 1
        assert (k == 5) == (u == t)


def test_favourable_set_membership():
    found_fav = found_unfav = False
    for u, t in _pairs_same_n(5):
        if u == t:
            continue
        fav = knuth.is_favourable(u, t)
        members = knuth.favourable_set(u, t)
        assert ((u, t) in members) == fav
        k = knuth.restriction_number(u, t)
        for v, x in members:
            assert knuth.restriction_number(v, x) == k
            assert knuth.is_favourable(v, x)
            assert tb.restrict_gt(v, k).boxes == tb.restrict_gt(u, k).boxes
            assert tb.restrict_gt(x, k).boxes == tb.restrict_gt(t, k).boxes
        found_fav |= fav
        found_unfav |= not fav
    assert found_fav and found_unfav


def test_favourable_set_against_direct_construction():
    u = tb.from_text("1 2 5/3/4")
    t = tb.from_text("1 2 3/4 5")
    k = knuth.restriction_number(u, t)
    assert k == 2
    members = knuth.favourable_set(u, t)
    # brute force: every filling of the common prefix shape placing k on a
    # removable box between the boxes of k+1
    w = tb.restrict_leq(u, k)
    xi = w.shape.outer
    bu, bt = u.box_of(k + 1), t.box_of(k + 1)
    expected = []
    for wp in tb.enumerate_std(xi):
        box = wp.box_of(k)
        removable = box in tb.removable_boxes(xi)
        g, p = bu
        h, q = bt
        d, m = box
        between = (g > d >= h and p <= m < q) or (h > d >= g and q <= m < p)
        if removable and between:
            v = tb.StandardTableau(u.shape, wp.column_word + u.column_word[k:], 0)
            x = tb.StandardTableau(t.shape, wp.column_word + t.column_word[k:], 0)
            expected.append((v, x))
    assert sorted(members, key=lambda p: tb.lex_key(p[0])) == sorted(
        expected, key=lambda p: tb.lex_key(p[0])
    )


def test_favourable_rep_is_a_member():
    for u, t in _pairs_same_n(5):
        if u == t:
            continue
        members = knuth.favourable_set(u, t)
        if members:
            assert knuth.favourable_rep(u, t) in members


def test_favourable_rep_matches_tableau_reference():
    # every ordered pair of distinct tableaux with n <= 6 (6454 pairs), and
    # every probable pair with n = 7, 8 (986 pairs)
    pairs = [(u, t) for n in range(1, 7) for u, t in _pairs_same_n(n) if u != t]
    for n in (7, 8):
        for lam in tb.partitions_of(n):
            tabs = tb.enumerate_std(lam)
            pairs += [
                (tabs[iu], tabs[it]) for iu, it in builder.probable_pairs(builder.cell_index(tabs))
            ]
    assert len(pairs) == 6454 + 986
    for u, t in pairs:
        assert knuth.favourable_rep(u, t) == helpers.favourable_rep(u, t), (u, t)


def test_descent_transport_on_favourable_members():
    # the symmetric-difference bookkeeping of the two transport statements
    for n in range(2, 6):
        for u, t in _pairs_same_n(n):
            if u == t:
                continue
            i = knuth.restriction_number(u, t)
            du, dt = u.descents, t.descents
            for v, x in knuth.favourable_set(u, t):
                dv, dx = v.descents, x.descents
                if i in du ^ dt:
                    assert dv - dx == du - dt and dx - dv == dt - du
                elif u.col_of(i + 1) < t.col_of(i + 1):
                    assert dv - dx == {i} | (du - dt)
                    assert dx - dv == dt - du
                else:
                    assert dx - dv == {i} | (dt - du)
                    assert dv - dx == du - dt


def test_favourable_needs_distinct_tableaux():
    t = tb.tau_min((2, 1))
    with pytest.raises(ValueError):
        knuth.favourable_set(t, t)


# ---------------------------------------------------------------------------
# approximates


def test_approximates_empty_iff_column_criterion():
    for u, t in _pairs_same_n(5):
        if u == t:
            continue
        k = knuth.restriction_number(u, t)
        approx = knuth.approximates(u, t)
        assert bool(approx) == (u.col_of(k + 1) < t.col_of(k + 1))


def test_approximates_are_k_restricted_members_of_the_class():
    for u, t in _pairs_same_n(5):
        if u == t:
            continue
        k = knuth.restriction_number(u, t)
        for v, x in knuth.approximates(u, t):
            assert knuth.restriction_number(v, x) == k
            assert tb.restrict_leq(v, k) == tb.restrict_leq(x, k)
            assert tb.restrict_gt(v, k).boxes == tb.restrict_gt(u, k).boxes
            assert tb.restrict_gt(x, k).boxes == tb.restrict_gt(t, k).boxes
            assert x.col_of(k) == t.col_of(k + 1) - 1


def test_extremal_approximates():
    for u, t in _pairs_same_n(5):
        if u == t or not knuth.approximates(u, t):
            continue
        k = knuth.restriction_number(u, t)
        vmin, xmin = knuth.minimal_approximate(u, t)
        vmax, xmax = knuth.maximal_approximate(u, t)
        approx = knuth.approximates(u, t)
        assert (vmin, xmin) in approx and (vmax, xmax) in approx
        prefix_shape = tb.restrict_leq(xmin, k - 1).shape.outer
        assert tb.restrict_leq(xmin, k - 1) == tb.tau_min(prefix_shape)
        assert tb.restrict_leq(xmax, k - 1) == tb.tau_max(prefix_shape)
        for v, x in approx:
            assert tb.extended_dominance_leq(
                tb.restrict_leq(xmin, k - 1), tb.restrict_leq(x, k - 1)
            )
            assert tb.extended_dominance_leq(
                tb.restrict_leq(x, k - 1), tb.restrict_leq(xmax, k - 1)
            )


# ---------------------------------------------------------------------------
# paired classes


def test_paired_classes_example():
    classes = knuth.paired_classes((3, 1), (2, 1, 1))
    sizes = sorted((len(c) for c in classes), reverse=True)
    assert len(classes) == 7
    assert sizes == [2, 2, 1, 1, 1, 1, 1]


def test_paired_classes_diagonal():
    for lam in [(2, 1), (2, 2), (3, 1)]:
        classes = knuth.paired_classes(lam, lam)
        tabs = tb.enumerate_std(lam)
        diagonal = frozenset((t, t) for t in tabs)
        assert diagonal in classes


def test_extended_dominance_constant_on_paired_classes():
    for n in range(2, 6):
        for mu in tb.partitions_of(n):
            for lam in tb.partitions_of(n):
                for block in knuth.paired_classes(mu, lam):
                    values = {
                        tb.extended_dominance_leq(u, t) for (u, t) in block
                    }
                    assert len(values) == 1, (mu, lam, block)


def test_paired_classes_size_mismatch():
    with pytest.raises(ValueError):
        knuth.paired_classes((2,), (2, 1))


# ---------------------------------------------------------------------------
# probable-pair lemmas


def test_small_rank_descent_sets_determine_tableaux():
    for n in range(1, 4):
        seen = {}
        for lam in tb.partitions_of(n):
            for t in tb.enumerate_std(lam):
                d = t.descents
                assert d not in seen, (seen[d], t)
                seen[d] = t


def test_favourable_probable_restriction_below_max_strong_descent():
    for n in range(2, 7):
        for lam in tb.partitions_of(n):
            tabs = tb.enumerate_std(lam)
            for u in tabs:
                for t in tabs:
                    if u == t or not t.descents < u.descents:
                        continue
                    if not knuth.is_favourable(u, t):
                        continue
                    i = knuth.restriction_number(u, t)
                    sd = t.descent_data().sd
                    assert sd, (u, t)
                    assert i < max(sd)


def test_existence_lemma_distinct_columns():
    for n in range(2, 7):
        for lam in tb.partitions_of(n):
            tabs = tb.enumerate_std(lam)
            for u in tabs:
                for t in tabs:
                    if u == t or not t.descents < u.descents:
                        continue
                    if not knuth.is_favourable(u, t):
                        continue
                    i = knuth.restriction_number(u, t)
                    sd = t.descent_data().sd
                    if i + 1 == max(sd):
                        assert t.col_of(i + 2) != t.col_of(i)
