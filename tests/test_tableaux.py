import random
from collections import Counter
from itertools import product

import pytest

import helpers
from helpers import act, all_skew_shapes, brute_partitions, bruhat_leq, compositions, identity
from helpers import lex_geq_composition
from helpers import extended_dominance_leq as dominance_reference
from wcell import tableaux as tb


# ---------------------------------------------------------------------------
# partitions


def test_partitions_of_base_cases():
    assert tb.partitions_of(0) == [()]
    assert tb.partitions_of(1) == [(1,)]
    assert len(tb.partitions_of(4)) == 5


def test_partitions_of_matches_brute_force_in_decreasing_lex():
    for n in range(0, 9):
        assert tb.partitions_of(n) == brute_partitions(n)


def test_conjugate():
    assert tb.conjugate((3, 1)) == (2, 1, 1)
    assert tb.conjugate(()) == ()
    lam = (5, 5, 3, 3)
    assert tb.conjugate(tb.conjugate(lam)) == lam


def test_dominance_examples():
    assert tb.dominance_leq((2,), (1, 1))
    assert not tb.dominance_leq((1, 1), (2,))
    assert tb.dominance_leq((3, 1), (3, 1))
    with pytest.raises(ValueError):
        tb.dominance_leq((2,), (3,))


def test_dominance_refined_by_lex_on_compositions():
    for n in range(1, 8):
        comps = list(compositions(n, n))
        for lam in comps:
            for mu in comps:
                if tb.dominance_leq(mu, lam):
                    assert lex_geq_composition(lam, mu), (lam, mu)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_std_counts():
    assert len(tb.enumerate_std((2, 1))) == 2
    for n in (1, 3, 5):
        assert len(tb.enumerate_std((n,))) == 1  # single column is forced
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            assert len(tb.enumerate_std(lam)) == tb.hook_count(lam)


def test_enumerate_std_orders_lexicographically_with_min_first():
    for lam in tb.partitions_of(6):
        tabs = tb.enumerate_std(lam)
        assert tabs[0] == tb.tau_min(lam)
        for a, b in zip(tabs, tabs[1:]):
            assert tb.lex_compare(a, b) == -1


def test_enumerate_std_skew():
    shape = tb.SkewShape((2, 1), (1,))
    tabs = tb.enumerate_std(shape)
    assert len(tabs) == 2
    shape2 = tb.SkewShape((2, 2, 1), (1, 1))
    for t in tb.enumerate_std(shape2, offset=3):
        assert list(t.entries()) == [4, 5, 6]


# ---------------------------------------------------------------------------
# the stored column word and the views read off it


def test_constructor_accepts_exactly_the_standard_column_words():
    tried = 0
    for shape in all_skew_shapes(6):
        width = len(shape.outer)
        standard = {t.column_word for t in tb.enumerate_std(shape)}
        accepted = set()
        for word in product(range(1, width + 1), repeat=shape.size):
            try:
                tb.StandardTableau(shape, word)
            except ValueError:
                continue
            accepted.add(word)
        tried += width**shape.size
        assert accepted == standard, shape
        for word in standard:
            for k in range(len(word)):
                for bad in (0, width + 1):
                    with pytest.raises(ValueError):
                        tb.StandardTableau(shape, word[:k] + (bad,) + word[k + 1 :])
            for short in (word[:-1], word + (1,)):
                with pytest.raises(ValueError):
                    tb.StandardTableau(shape, short)
    assert tried == 99112


def test_views_agree_with_the_boxes():
    for shape in all_skew_shapes(6):
        for t in tb.enumerate_std(shape, offset=2):
            pos = dict(zip(t.boxes, t.entries()))
            assert len(pos) == t.size and set(pos) == set(shape.boxes())
            rows = {}
            for (i, j), e in sorted(pos.items()):
                assert t.box_of(e) == (t.row_of(e), t.col_of(e)) == (i, j)
                assert pos.get((i + 1, j), e + 1) > e and pos.get((i, j + 1), e + 1) > e
                rows.setdefault(i, []).append(e)
            assert t.to_rows() == [rows.get(i, []) for i in range(1, max(rows) + 1)]
            data = t.descent_data()
            assert t.descents == data.d and sum(map(len, data)) == max(t.size - 1, 0)
            for e in range(t.min_entry, t.max_entry):
                (i, j), (k, m) = t.box_of(e), t.box_of(e + 1)
                expect = data.sd if j > m else data.wd if j == m else data.sa if i > k else data.wa
                assert e in expect
            # s_e t is standard exactly when e and e+1 share no row and no column
            for e in range(t.offset - 1, t.max_entry + 2):
                if e in data.sa | data.sd:
                    u = tb.swap_adjacent(t, e)
                    assert (u.box_of(e), u.box_of(e + 1)) == (t.box_of(e + 1), t.box_of(e))
                else:
                    with pytest.raises(ValueError):
                        tb.swap_adjacent(t, e)
            if shape.is_normal:
                assert tb.from_rows(t.to_rows()) == t
                assert tb.from_text(t.text()) == t


# ---------------------------------------------------------------------------
# descents


def test_descents_of_minimal_tableau():
    t = tb.tau_min((3, 2))
    data = t.descent_data()
    assert data.d == {1, 2, 4}
    assert data.sd == frozenset()


def test_descents_single_column_and_single_row():
    n = 5
    col = tb.tau_min((n,))
    data = col.descent_data()
    assert data.d == data.wd == frozenset(range(1, n))
    row = tb.tau_min((1,) * n)
    assert row.descents == frozenset()


def test_minimal_iff_no_strong_descents():
    for lam in tb.partitions_of(5):
        for t in tb.enumerate_std(lam):
            assert (t == tb.tau_min(lam)) == (not t.descent_data().sd)


def test_descent_sets_partition_the_index_range():
    for lam in tb.partitions_of(6):
        tmin = tb.tau_min(lam)
        for t in tb.enumerate_std(lam):
            data = t.descent_data()
            blocks = [data.sa, data.sd, data.wa, data.wd]
            assert frozenset().union(*blocks) == frozenset(range(1, 6))
            assert sum(len(b) for b in blocks) == 5
        # D(tau_lam) consists of the indices inside columns
        expected = set()
        pos = 0
        for h in lam:
            expected |= set(range(pos + 1, pos + h))
            pos += h
        assert tmin.descents == expected == tmin.descent_data().wd


# ---------------------------------------------------------------------------
# restriction


def test_restrict_leq_examples():
    t = tb.tau_min((3, 2))
    assert tb.restrict_leq(t, 3) == tb.tau_min((3,))
    assert tb.restrict_leq(t, 0).size == 0
    assert tb.restrict_leq(t, 5) == t


def test_restrict_gt_examples():
    t = tb.tau_min((2, 1))
    assert tb.restrict_gt(t, 0) == t
    sk = tb.restrict_gt(t, 1)
    assert sk.shape.inner == (1,)
    assert sk.box_of(2) == (2, 1) and sk.box_of(3) == (1, 2)


def test_restriction_complementarity():
    for lam in tb.partitions_of(5):
        for t in tb.enumerate_std(lam):
            for m in range(0, 6):
                low = tb.restrict_leq(t, m)
                high = tb.restrict_gt(t, m)
                assert set(low.boxes) | set(high.boxes) == set(t.boxes)
                assert set(low.boxes).isdisjoint(high.boxes)
                assert high.shape.inner == low.shape.outer


def test_restrict_leq_always_standard():
    for lam in tb.partitions_of(6):
        for t in tb.enumerate_std(lam):
            for m in range(0, 7):
                r = tb.restrict_leq(t, m)
                tb.StandardTableau(r.shape, r.column_word, r.offset)  # revalidates


# ---------------------------------------------------------------------------
# words and perms


def test_word_of_minimal_tableau():
    assert tb.word(tb.tau_min((2, 1))).images == (2, 1, 3)


def test_perm_of_minimal_tableau_is_identity():
    for n in range(1, 6):
        for lam in tb.partitions_of(n):
            assert tb.perm(tb.tau_min(lam)) == identity(n)


def test_perm_acts_on_minimal_tableau():
    for lam in [(2, 2), (3, 1), (2, 1, 1)]:
        tmin = tb.tau_min(lam)
        for t in tb.enumerate_std(lam):
            assert act(tb.perm(t), tmin) == t


# ---------------------------------------------------------------------------
# orders on tableaux


def test_extended_dominance_chain_n2():
    col, row = tb.tau_min((2,)), tb.tau_min((1, 1))
    assert tb.extended_dominance_leq(col, row)
    assert not tb.extended_dominance_leq(row, col)


def test_extended_dominance_chain_n3():
    chain = [
        tb.from_text("1/2/3"),
        tb.from_text("1 3/2"),
        tb.from_text("1 2/3"),
        tb.from_text("1 2 3"),
    ]
    for a in range(4):
        for b in range(4):
            assert tb.extended_dominance_leq(chain[a], chain[b]) == (a <= b)


def test_same_shape_dominance_is_bruhat_order():
    for n in range(1, 7):
        for lam in tb.partitions_of(n):
            tabs = tb.enumerate_std(lam)
            perms = [tb.perm(t) for t in tabs]
            for a, u in enumerate(tabs):
                for b, t in enumerate(tabs):
                    assert tb.tableau_dominance_leq(u, t) == bruhat_leq(
                        perms[a], perms[b]
                    ), (lam, u, t)


def test_lex_is_total_and_refines_dominance():
    for n in range(1, 7):
        for lam in tb.partitions_of(n):
            tabs = tb.enumerate_std(lam)
            for u in tabs:
                for t in tabs:
                    cmp = tb.lex_compare(u, t)
                    assert cmp == -tb.lex_compare(t, u)
                    assert (cmp == 0) == (u == t)
                    if tb.tableau_dominance_leq(u, t) and u != t:
                        assert cmp == -1


def test_tau_min_is_lex_minimal():
    for lam in tb.partitions_of(6):
        tabs = tb.enumerate_std(lam)
        tmin = tb.tau_min(lam)
        assert all(t == tmin or tb.lex_compare(tmin, t) == -1 for t in tabs)


def test_extended_dominance_matches_prefix_matrix_reference():
    # every ordered pair of equal-size tableaux with n <= 6, shapes differing
    # or not, and every ordered pair of equal-size skew tableaux of outer size
    # at most 5, their targets starting at 3
    groups = [
        [t for lam in tb.partitions_of(n) for t in tb.enumerate_std(lam)] for n in range(1, 7)
    ]
    skew = [t for s in all_skew_shapes(5) if not s.is_normal for t in tb.enumerate_std(s, 2)]
    groups += [[t for t in skew if t.size == m] for m in range(1, 5)]
    pairs = [(u, t) for tabs in groups for u in tabs for t in tabs]
    assert len(pairs) == 6573 + 3621
    outcomes = set()
    for u, t in pairs:
        expected = dominance_reference(u, t)
        assert tb.extended_dominance_leq(u, t) == expected, (u, t)
        outcomes.add(expected)
    assert outcomes == {True, False}


def _words_of_size(n):
    return [t.column_word for lam in tb.partitions_of(n) for t in tb.enumerate_std(lam)]


def test_pack_orders_words_of_one_length_lexicographically():
    # every word of every shape of n <= 7, the shapes of one n packed together
    for n in range(0, 8):
        words = _words_of_size(n)
        width = tb.letter_width(words)
        assert width == max(map(max, filter(None, words)), default=1).bit_length()
        packed = sorted((tb.pack(w, width), w) for w in words)
        assert [w for _, w in packed] == sorted(words)
        assert len({p for p, _ in packed}) == len(words)


def test_swap_packed_equals_the_pack_of_the_exchanged_word():
    for n in range(2, 8):
        words = _words_of_size(n)
        width = tb.letter_width(words)
        for w in words:
            p = tb.pack(w, width)
            for e in range(1, n):
                swapped = w[: e - 1] + (w[e], w[e - 1]) + w[e + 1 :]
                assert tb.swap_packed(p, w, e, width) == tb.pack(swapped, width), (w, e)


def test_first_differing_letter_is_the_field_of_the_highest_xor_bit():
    for n in range(1, 8):
        words = _words_of_size(n)
        width = tb.letter_width(words)
        packed = [tb.pack(w, width) for w in words]
        for u, pu in zip(words, packed):
            for t, pt in zip(words, packed):
                k = n - 1 - ((pu ^ pt).bit_length() - 1) // width
                first = next((i for i, (a, b) in enumerate(zip(u, t)) if a != b), n)
                assert k == first, (u, t)


def test_dominance_errors():
    with pytest.raises(ValueError):
        tb.extended_dominance_leq(tb.tau_min((2,)), tb.tau_min((3,)))
    with pytest.raises(ValueError):
        tb.tableau_dominance_leq(tb.tau_min((2,)), tb.tau_min((1, 1)))


# ---------------------------------------------------------------------------
# critical tableaux


def _critical_candidates(shape):
    try:
        return tb.m_critical_tableau(shape, 1)
    except ValueError:
        return None


def test_constructed_critical_tableau_is_critical():
    count = 0
    for shape in all_skew_shapes(6):
        if shape.size < 2:
            continue
        t = _critical_candidates(shape)
        if t is not None:
            assert tb.is_m_critical(t, 1)
            count += 1
    assert count > 10


def test_column_violation_is_not_critical():
    shape = tb.SkewShape((2, 2))
    for t in tb.enumerate_std(shape, offset=0):
        shifted = tb.StandardTableau(shape, t.column_word, 0)
        if shifted.col_of(2) != shifted.col_of(1) + 1:
            assert not tb.is_m_critical(shifted, 1)


def test_critical_remark_characterisation():
    # For a normal tableau t with col(m+1) = col(m) + 1, the tail from m is
    # m-critical iff (col(m) = col(m+2) or m+1 is not a strong descent) and
    # every later descent is weak.
    for n in range(2, 7):
        for lam in tb.partitions_of(n):
            for t in tb.enumerate_std(lam):
                for m in range(1, n):
                    if t.col_of(m + 1) != t.col_of(m) + 1:
                        continue
                    tail = tb.restrict_gt(t, m - 1)
                    data = t.descent_data()
                    cond1 = (m + 2 <= n and t.col_of(m) == t.col_of(m + 2)) or (
                        m + 1 not in data.sd
                    )
                    cond2 = all(j in data.wd for j in data.d if j > m + 1)
                    assert tb.is_m_critical(tail, m) == (cond1 and cond2), (t, m)


# ---------------------------------------------------------------------------
# text round-trip


def _every_tableau(max_n):
    for n in range(max_n + 1):
        for lam in tb.partitions_of(n):
            yield from tb.enumerate_std(lam)


def test_text_roundtrip():
    for t in _every_tableau(8):
        assert tb.from_text(t.text()) == t


def test_text_equals_the_row_based_reference():
    tried = 0
    for t in _every_tableau(8):
        assert t.text() == helpers.text(t)
        for m in range(t.size + 1):
            for part in (tb.restrict_gt(t, m), tb.restrict_leq(t, m)):
                assert part.text() == helpers.text(part), (part.shape, part.column_word)
                tried += 1
    assert tried == sum(2 * (n + 1) * tb.hook_count(lam) for n in range(9) for lam in tb.partitions_of(n))


def _mutations(text, rng):
    """Texts made from a tableau's text: two entries swapped, one dropped or
    duplicated, an entry moved to the end of a neighbouring row, the rows
    rotated, and every entry, or one, raised past 9."""
    rows = [row.split(" ") for row in text.split("/")] if text else []
    flat = [e for row in rows for e in row]
    lengths = [len(row) for row in rows]

    def join(entries, lengths):
        out, k = [], 0
        for length in lengths:
            out.append(" ".join(entries[k : k + length]))
            k += length
        return "/".join(r for r in out if r)

    out = []
    if len(flat) >= 2:
        i, j = rng.sample(range(len(flat)), 2)
        swapped = list(flat)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.append(join(swapped, lengths))
        out.append(join(flat[:i] + [flat[j]] + flat[i + 1 :], lengths))  # a duplicate
    if flat:
        i = rng.randrange(len(flat))
        dropped_lengths = list(lengths)
        k = next(r for r in range(len(lengths)) if sum(lengths[: r + 1]) > i)
        dropped_lengths[k] -= 1
        out.append(join(flat[:i] + flat[i + 1 :], dropped_lengths))
        out.append(join([str(int(e) + 9) for e in flat], lengths))  # two-digit entries
        out.append(join(flat[:i] + [str(int(flat[i]) + 10)] + flat[i + 1 :], lengths))
    if len(rows) >= 2:
        r = rng.randrange(len(rows) - 1)
        down = [list(row) for row in rows]
        down[r + 1].append(down[r].pop())  # the last entry of a row moved down
        up = [list(row) for row in rows]
        up[r].append(up[r + 1].pop())  # the last entry of a row moved up
        out += ["/".join(" ".join(row) for row in moved if row) for moved in (down, up)]
        out.append("/".join(" ".join(row) for row in rows[1:] + rows[:1]))
    return out


def _outcome(parse, arg):
    try:
        return parse(arg)
    except ValueError as exc:
        return str(exc)


def _agree(parse, reference, arg, rows=None) -> str:
    """Check that parse gives on arg what the reference gives, a tableau or a
    message, and return which it was.  Where the entries are at fault, the
    reference names the first fault in row-major order, and parse the first
    of its rows, columns and interval checks that fails; rows are arg's rows,
    arg itself by default."""
    expect, got = _outcome(reference, arg), _outcome(parse, arg)
    if isinstance(expect, str) and expect.startswith("entries must"):
        faults = helpers.entry_faults(arg if rows is None else rows(arg))
        assert expect in faults and got == faults[0], (arg, expect, got)
        return "entries"
    assert got == expect, arg
    return expect if isinstance(expect, str) else "tableau"


def _rows_of_text(s):
    return [list(map(int, row.split(" "))) for row in s.split("/")]


def test_from_text_agrees_with_the_row_based_reference():
    rng = random.Random(20181807)
    corpus = [t.text() for t in _every_tableau(8)]
    corpus += [m for s in list(corpus) for m in _mutations(s, rng)]
    corpus += ["", "1", "2 3/4", "1 2/3 4 5", "1/2/3/", "0 1", "10 11/12"]
    kinds = Counter()
    for s in corpus:
        kinds[_agree(tb.from_text, helpers.from_text, s, _rows_of_text)] += 1
    # the corpus reaches every outcome
    assert kinds["tableau"] > 1000 and kinds["entries"] > 1000
    assert kinds["row lengths must weakly decrease"] > 100
    assert kinds["malformed tableau text '1/2/3/'"] == 1


def test_from_rows_agrees_with_the_row_based_reference():
    cases = ([[0, 1], [2]], [[1], []], [[], [1]], [[-3, -1], [-2]], [[5, 6], [7]], [[1, 3], [2, 3]], [[2, 1]])
    for rows in cases:
        _agree(tb.from_rows, helpers.from_rows, rows)


# text that StandardTableau.text() never writes: a document holding one
# could not be written back byte for byte
NON_CANONICAL_TEXTS = (" 1", "1  2", "1\n2", "\u0661", "/", "1/", "1 /2", "01", "0", "-1", "+1", "1\t2")


def test_from_text_accepts_only_what_text_writes():
    assert tb.from_text("") == tb.tau_min(())
    assert tb.from_text("2 3/4").offset == 1
    for s in NON_CANONICAL_TEXTS:
        with pytest.raises(ValueError, match="malformed tableau text"):
            tb.from_text(s)
    for s in ("2 1", "1/2 3", "1 4/2 3", "1 2/3 5", "1 3/4"):
        with pytest.raises(ValueError):
            tb.from_text(s)


def test_from_text_shares_one_shape_per_row_lengths():
    a, b = tb.from_text("1 2/3"), tb.from_text("1 3/2")
    assert a.shape is b.shape
    assert (a, b) == (tb.from_text("1 2/3"), tb.from_text("1 3/2"))


def test_from_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        tb.from_rows([[1], [2, 3]])
    with pytest.raises(ValueError):
        tb.from_rows([[1, 5], [2]])
    with pytest.raises(ValueError):
        tb.from_rows([[2, 1], [3]])


def test_immutability():
    t = tb.tau_min((2, 1))
    with pytest.raises(AttributeError):
        t.offset = 3
