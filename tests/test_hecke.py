import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    coloured_graphs,
    compose_integer,
    corruptions,
    exact_q,
    first_difference,
    integer_module_matrices,
    all_permutations,
    bruhat_leq,
    kl_table_slow,
    left_descents,
    length,
    verify_hecke_relations_composed,
)
from wcell import hecke
from wcell import tableaux as tb
from wcell import wgraph as wg
from wcell.laurent import LaurentPolynomial, ONE, Q, QINV
from wcell.permutations import Permutation, inversions


# ---------------------------------------------------------------------------
# module matrices and relations


def test_singleton_matrices():
    import helpers as hecke  # the Laurent reference, under the library's names

    g = wg.SColoredGraph(2, [{1}], {})
    (mat,) = hecke.module_matrices(g)
    assert mat[0] == {0: -QINV}
    g2 = wg.SColoredGraph(2, [set()], {})
    (mat2,) = hecke.module_matrices(g2)
    assert mat2[0] == {0: Q}
    assert hecke.verify_hecke_relations(g).ok
    assert hecke.verify_hecke_relations(g2).ok


def test_shape_21_matrices_satisfy_quadratic(built):
    import helpers as hecke  # the Laurent reference, under the library's names

    g = built((2, 1))
    for mat in hecke.module_matrices(g):
        square = hecke._compose(mat, mat)
        for v in g.vertices():
            expected = {u: p * (Q - QINV) for u, p in mat[v].items()}
            expected[v] = expected.get(v, LaurentPolynomial(0)) + ONE
            expected = {u: p for u, p in expected.items() if not p.is_zero()}
            assert square[v] == expected


def test_relations_on_built_graphs(built):
    for n in range(1, 9):
        for lam in tb.partitions_of(n):
            assert hecke.verify_hecke_relations(built(lam)).ok, lam


def test_relations_fail_on_corruption(built):
    g = built((2, 2))
    mu = dict(g.mu)
    key = sorted(mu)[0]
    mu[key] += 1
    bad = wg.SColoredGraph(g.n, g.tau, mu, g.labels)
    report = hecke.verify_hecke_relations(bad)
    assert not report.ok
    assert report.violations


def test_singleton_integer_matrices():
    q = 7
    g = wg.SColoredGraph(2, [{1}], {})
    assert integer_module_matrices(g, q, [1]) == [[{0: -1}]]
    g2 = wg.SColoredGraph(2, [set()], {})
    assert integer_module_matrices(g2, q, [1]) == [[{0: q * q}]]
    assert hecke.verify_hecke_relations(g).ok
    assert hecke.verify_hecke_relations(g2).ok


@pytest.mark.parametrize("root", [1, 2, 3])
def test_relation_polynomial_with_an_integer_root_fails(root):
    # colours {2}, {1,2}, {}, {1}: the only nonzero entry of
    # A_1 A_2 A_1 - A_2 A_1 A_2 is (1, 2), equal to q^2 (root q - 1)(q - root)
    mu = {(1, 0): root, (3, 0): 1, (0, 2): 1, (0, 3): 1, (1, 3): root * root + 1}
    g = wg.SColoredGraph(3, [{2}, {1, 2}, set(), {1}], mu)
    a, b = integer_module_matrices(g, root, [1, 2])
    aba = compose_integer(a, compose_integer(b, a))
    assert first_difference(aba, compose_integer(b, compose_integer(a, b))) is None
    assert hecke.verify_hecke_relations(g).violations == (("braid", 1, 2, 1, 2),)


def test_integer_check_agrees_with_laurent_reference(built):
    rng = random.Random(20181807)
    graphs, corrupted = [], []
    for n in range(7):
        for lam in tb.partitions_of(n):
            graphs.append(built(lam))
            corrupted.extend(corruptions(built(lam), rng, 20))
    assert len(corrupted) >= 500
    outcomes = {_agree_with_laurent_reference(g) for g in graphs + corrupted}
    assert outcomes == {True, False}


def _agree_with_laurent_reference(g):
    fast = hecke.verify_hecke_relations(g)
    slow = helpers.verify_hecke_relations(g)
    # witnesses end with (u, v) here and with (u, v, lhs, rhs) in the
    # reference, which may name another differing row u of the column v
    assert fast.ok == slow.ok
    assert [(*w[:-2], w[-1]) for w in fast.violations] == [
        (*w[:-4], w[-3]) for w in slow.violations
    ]
    return fast.ok


@settings(max_examples=300, deadline=None)
@given(g=coloured_graphs())
def test_integer_check_agrees_with_laurent_reference_on_any_graph(g):
    _agree_with_laurent_reference(g)


def test_column_check_equals_composed_reference(built):
    rng = random.Random(7457)
    graphs, corrupted = [], []
    for n in range(8):
        for lam in tb.partitions_of(n):
            graphs.append(built(lam))
            corrupted.extend(corruptions(built(lam), rng, 20))
    assert len(corrupted) >= 600
    # and with generators at 8 i, across 64 and near MAX_COLOUR
    moved = helpers.moved_family(built, rng)
    outcomes = set()
    for g in graphs + corrupted + moved:
        report = hecke.verify_hecke_relations(g)
        assert report == verify_hecke_relations_composed(g)
        outcomes.add((report.ok, len(report.violations) > 1))
    assert outcomes == {(True, False), (False, False), (False, True)}


@settings(max_examples=300, deadline=None)
@given(g=coloured_graphs())
def test_column_check_equals_composed_reference_on_any_graph(g):
    assert hecke.verify_hecke_relations(g) == verify_hecke_relations_composed(g)


@settings(max_examples=200, deadline=None)
@given(g=coloured_graphs(), move=st.sampled_from(helpers.MOVES))
def test_column_check_equals_composed_reference_on_any_moved_graph(g, move):
    g = helpers.moved(g, *move)
    assert hecke.verify_hecke_relations(g) == verify_hecke_relations_composed(g)


def test_single_weight_corruptions_are_caught(built):
    # each weight +-1 or 0, and weight 1 on each empty off-diagonal pair
    cases = 0
    for n in range(1, 6):
        for lam in tb.partitions_of(n):
            g = built(lam)
            nv = g.num_vertices
            for u in range(nv):
                for v in range(nv):
                    if u == v:
                        continue
                    w = g.weight(u, v)
                    for new in (w - 1, w + 1, 0) if w else (1,):
                        bad = wg.SColoredGraph(g.n, g.tau, {**g.mu, (u, v): new}, g.labels)
                        reports = wg.run_checks(bad) + [hecke.verify_hecke_relations(bad)]
                        assert not all(r.ok for r in reports), (lam, u, v, new)
                        cases += 1
    assert cases == 222


def test_relation_check_stops_at_its_tenth_witness(monkeypatch):
    # odd generators colour vertex 0 and even ones vertex 1, so every
    # commuting pair of opposite parity fails; the sorted walk reads the
    # braid (1, 2) on both columns, then the first column of each of
    # (1, 4), (1, 6), ..., (1, 22), which is its witness, and stops
    n = 200
    g = wg.SColoredGraph(n, [range(1, n, 2), range(2, n, 2)], {(0, 1): 1, (1, 0): 1})
    read = {}

    def counted(name):
        function, calls = getattr(hecke, name), read.setdefault(name, [])

        def feed(cols):
            calls.append([])
            for v in cols:
                calls[-1].append(v)
                yield v

        monkeypatch.setattr(hecke, name, lambda a, b, cols: function(a, b, feed(cols)))

    for kind in ("braid", "commuting"):
        counted(f"_first_{kind}_failure")
    report = hecke.verify_hecke_relations(g)
    assert not report.ok
    assert report.violations == tuple(("commuting", 1, t, 0, 0) for t in range(4, 24, 2))
    # one list per pair, holding the columns read
    assert read == {
        "_first_braid_failure": [[0, 1]],
        "_first_commuting_failure": [[0]] * 10,
    }


def _column_witnesses(g):
    """((kind, case), witness) for every column v of every pair s < t of
    generators with weights: case says which of s, t colour v, and witness
    is what _first_commuting_failure or _first_braid_failure returns for
    that column alone.  Each witness is first asserted equal to the first
    difference of that column of the whole products at the exact q of
    helpers.verify_hecke_relations_composed."""
    table = hecke._generator_weights(g)
    gens = list(table)
    mats = dict(zip(gens, integer_module_matrices(g, exact_q(g, gens), gens)))
    out = []
    for s, t in itertools.combinations(gens, 2):
        a, b = mats[s], mats[t]
        if t - s >= 2:
            kind, first = "commuting", hecke._first_commuting_failure
            lhs, rhs = compose_integer(a, b), compose_integer(b, a)
        else:
            kind, first = "braid", hecke._first_braid_failure
            lhs = compose_integer(a, compose_integer(b, a))
            rhs = compose_integer(b, compose_integer(a, b))
        for v in g.vertices():
            witness = first(table[s], table[t], (v,))
            full = first_difference(lhs[v:v + 1], rhs[v:v + 1])
            assert witness == (full and (full[0], v)), (kind, s, t, v)
            case = ("neither", "one", "both")[(s in g.tau[v]) + (t in g.tau[v])]
            out.append(((kind, case), witness))
    return out


def test_each_column_normal_form_equals_the_full_column(built):
    # the report tests see only the first failing column of each pair, so
    # a wrong normal form or witness row behind an earlier failure would go
    # unseen there
    rng = random.Random(1807)
    graphs = []
    for n in range(8):
        for lam in tb.partitions_of(n):
            graphs.append(built(lam))
            graphs.extend(corruptions(built(lam), rng, 20))
    seen = {}
    for g in graphs:
        for case, witness in _column_witnesses(g):
            seen.setdefault(case, set()).add(witness is None)
    for kind, case in itertools.product(("commuting", "braid"), ("one", "neither")):
        assert seen[kind, case] == {True, False}, (kind, case)
    assert seen["commuting", "both"] == seen["braid", "both"] == {True}


@settings(max_examples=300, deadline=None)
@given(g=coloured_graphs())
def test_each_column_normal_form_equals_the_full_column_on_any_graph(g):
    _column_witnesses(g)


@pytest.mark.parametrize("lam", [(3, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1, 1)])
def test_relations_beyond_the_oracle(built, lam):
    assert hecke.verify_hecke_relations(built(lam)).ok


@pytest.mark.parametrize("lam", [(3, 3, 2, 1), (4, 3, 2, 1)])
def test_rules_beyond_the_oracle(built, lam):
    for report in wg.run_checks(built(lam)):
        assert report.ok, (lam, report.summary())


def test_polygon_catches_a_weight_corruption_beyond_the_oracle(built):
    g = built((4, 3, 2, 1))
    key = random.Random(4321).choice(sorted(g.mu))
    bad = wg.SColoredGraph(g.n, g.tau, {**g.mu, key: g.mu[key] + 1}, g.labels)
    reports = wg.check_polygon(bad)
    assert reports == tuple(helpers.check_polygon(bad, r) for r in (2, 3))
    assert not reports[0].ok


# ---------------------------------------------------------------------------
# KL table


def test_cover_polynomials_are_one():
    table = hecke.kl_table(4)
    for w, column in table.items():
        for y, p in column.items():
            if inversions(w) - inversions(y) == 1:
                assert helpers.coefficients(p) == (1,)


def test_table_respects_bruhat_support():
    # the column of w holds exactly the y below w in the Bruhat order
    table = hecke.kl_table(4)
    for w in all_permutations(4):
        column = table[w.images]
        for y in all_permutations(4):
            assert (y.images in column) == bruhat_leq(y, w)


def test_degree_bound_and_constant_term():
    table = hecke.kl_table(5)
    for w, column in table.items():
        for y, p in column.items():
            if y == w:
                continue
            delta = inversions(w) - inversions(y)
            c = helpers.coefficients(p)
            assert c[0] == 1
            assert c[-1] != 0
            assert 2 * (len(c) - 1) <= delta - 1


def _classical(hy, delta):
    """P_{y,w} as a coefficient tuple from h_{y,w} = q^-delta P_{y,w}(q^2),
    given as an exponent -> coefficient dict."""
    coeffs = {}
    for e, c in hy.items():
        assert e + delta >= 0 and (e + delta) % 2 == 0, (hy, delta)
        coeffs[(e + delta) // 2] = c
    return tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


def _nonzero_mu(table):
    """{(y, w): mu(y, w)} over the y != w of every column, where it is not 0."""
    lengths = table.lengths
    mus = {
        (y, w): hecke._mu(p, lengths[w] - lengths[y])
        for w, column in table.items()
        for y, p in column.items()
        if y != w
    }
    return {pair: m for pair, m in mus.items() if m}


def test_fast_table_equals_fixed_point_table():
    for n in range(1, 6):
        fast = hecke.kl_table(n)
        slow_h, slow_mu = kl_table_slow(n)
        assert {
            w: {y: helpers.coefficients(p) for y, p in column.items()} for w, column in fast.items()
        } == {
            w.images: {y.images: _classical(hy, length(w) - length(y)) for y, hy in row.items()}
            for w, row in slow_h.items()
        }
        assert _nonzero_mu(fast) == {(y.images, w.images): m for (y, w), m in slow_mu.items()}


def test_table_makes_every_column_without_a_permutation(monkeypatch):
    # the recursion runs on one-line image tuples from the first column to
    # the last: S_6 has 720 columns, and no Permutation is built for them
    made = []
    new = Permutation.__new__

    def counted_new(cls, images):
        made.append(images)
        return new(cls, images)

    monkeypatch.setattr(Permutation, "__new__", counted_new)
    table = hecke.kl_table(6)
    assert made == []
    assert len(table) == 720
    assert set(table) == {w.images for w in all_permutations(6)}


def test_first_nontrivial_kl_polynomials():
    # the P != 1 entries of S_4 sit under the two singular patterns 3412 and
    # 4231: the classical pairs plus their left-descent propagations down to
    # the identity, all equal to 1 + q
    table = hecke.kl_table(4)
    polys = {
        (y, w): helpers.coefficients(p) for w, column in table.items() for y, p in column.items()
    }
    nontrivial = {pair: c for pair, c in polys.items() if c != (1,)}
    assert nontrivial == {
        ((1, 2, 3, 4), (3, 4, 1, 2)): (1, 1),
        ((1, 3, 2, 4), (3, 4, 1, 2)): (1, 1),
        ((1, 2, 3, 4), (4, 2, 3, 1)): (1, 1),
        ((1, 2, 4, 3), (4, 2, 3, 1)): (1, 1),
        ((2, 1, 3, 4), (4, 2, 3, 1)): (1, 1),
        ((2, 1, 4, 3), (4, 2, 3, 1)): (1, 1),
    }


def test_mu_values_only_on_odd_length_gaps():
    mus = _nonzero_mu(hecke.kl_table(5))
    assert mus
    for (y, w), m in mus.items():
        assert m > 0
        assert (inversions(w) - inversions(y)) % 2 == 1


def test_a_field_too_narrow_for_the_bound_makes_the_table_raise(monkeypatch):
    # 8-bit fields hold coefficients below 2^6 only; the bound reaches that
    # well inside S_6, so the table raises rather than misreads a field
    monkeypatch.setattr(hecke, "_W", 8)
    monkeypatch.setattr(hecke, "_FIELD", 0xFF)
    monkeypatch.setattr(hecke, "_GUARDS", 0x80808080)
    assert hecke._mu(3 << 8, 3) == 3
    with pytest.raises(AssertionError, match="outgrow its field"):
        hecke.kl_table(6)


def test_an_entry_with_a_guard_bit_set_is_refused_when_read():
    guard = 1 << hecke._W - 1
    assert hecke._mu(1 << hecke._W, 3) == 1
    for p, d in ((1 | guard, 1), (1 | guard, 3), (1 | guard << hecke._W, 3), (-1, 1)):
        with pytest.raises(AssertionError, match="left its field"):
            hecke._mu(p, d)
    # the recursion reads mu((2,1,3), (3,1,2)) = 1 to make the column of w0 of S_3
    columns = hecke.kl_columns(3, [(3, 1, 2)])
    assert hecke._mu(columns[(3, 1, 2)][(2, 1, 3)], 1) == 1
    columns[(3, 1, 2)][(2, 1, 3)] |= guard
    with pytest.raises(AssertionError, match="left its field"):
        columns[(3, 2, 1)]
    assert (3, 2, 1) not in columns


def test_oracle_bound(monkeypatch):
    monkeypatch.setenv("WCELL_ORACLE_MAX", "6")
    with pytest.raises(hecke.OracleBoundError):
        hecke.kl_table(7)
    monkeypatch.setenv("WCELL_ORACLE_MAX", "3")
    with pytest.raises(hecke.OracleBoundError):
        hecke.kl_table(4)


def test_columns_on_demand_equal_the_table():
    # every column that a cell's words, or their images w w0, reach; then
    # every column, asked for longest first so that each one recurses
    for n in range(1, 7):
        table = dict(hecke.kl_table(n))
        for lam in tb.partitions_of(n):
            words = [tb.word(t).images for t in tb.enumerate_std(lam)]
            for keys in (words, [w[::-1] for w in words]):
                columns = hecke.kl_columns(n, keys)
                assert set(keys) <= columns.keys()
                assert dict(columns) == {w: table[w] for w in columns}
        assert dict(hecke.kl_columns(n, reversed(list(table)))) == table


def test_cell_columns_are_made_afresh_on_each_call(monkeypatch):
    made = []
    make = hecke._Columns.__missing__

    def counted(self, w):
        made.append(w)
        return make(self, w)

    monkeypatch.setattr(hecke._Columns, "__missing__", counted)
    hecke.kl_left_cell_graph((3, 2, 1), hecke.kl_columns(6, ()))
    first = list(made)
    hecke.kl_left_cell_graph((3, 2, 1), hecke.kl_columns(6, ()))
    assert first and made == first + first


def test_a_shared_store_gives_the_graphs_of_fresh_stores():
    for n in range(1, 8):
        columns = hecke.kl_columns(n, ())
        for lam in tb.partitions_of(n):
            shared = hecke.kl_left_cell_graph(lam, columns)
            fresh = hecke.kl_left_cell_graph(lam, hecke.kl_columns(n, ()))
            assert (shared.tau, shared.mu, shared.labels) == (fresh.tau, fresh.mu, fresh.labels)


def test_a_store_shared_by_the_shapes_of_n_makes_each_column_once(made_columns):
    made = made_columns
    shapes = tb.partitions_of(6)
    # each store starts from the identity, which __missing__ does not make
    separate = 0
    for lam in shapes:
        before = len(made)
        hecke.kl_left_cell_graph(lam, hecke.kl_columns(6, ()))
        separate += 1 + len(made) - before
    assert separate == 198
    made.clear()
    columns = hecke.kl_columns(6, ())
    for lam in shapes:
        hecke.kl_left_cell_graph(lam, columns)
    assert len(made) == len(set(made)) == 106
    assert len(columns) == 107 and set(made) == columns.keys() - {tuple(range(1, 7))}


def test_a_store_for_another_n_is_refused():
    with pytest.raises(ValueError, match="S_5"):
        hecke.kl_left_cell_graph((3, 2, 1), hecke.kl_columns(5, ()))


# ---------------------------------------------------------------------------
# oracle graphs


def test_left_cell_graph_smallest_shapes():
    assert hecke.kl_left_cell_graph((2,), hecke.kl_columns(2, ())).num_vertices == 1
    g = hecke.kl_left_cell_graph((2, 1), hecke.kl_columns(3, ()))
    assert g.num_vertices == 2
    assert g.simple_edges() == [(0, 1)]


def test_empty_shape_oracle_equals_the_builder_and_round_trips(built):
    g = hecke.kl_left_cell_graph((), hecke.kl_columns(0, ()))
    assert hecke.graphs_equal_under(built(()), g, [0])
    for oracle in (g, helpers.kl_regular_graph(0)):
        assert oracle.n == 1
        doc = wg.to_json_str(oracle)
        back = wg.from_json_str(doc)
        assert (back.n, back.tau, back.mu, back.labels) == (1, oracle.tau, oracle.mu, oracle.labels)
        assert wg.to_json_str(back) == doc


def test_both_orientations_give_the_same_cell_graph():
    flips = set()
    for n in range(1, 7):
        for lam in tb.partitions_of(n):
            tabs = tb.enumerate_std(lam)
            words = [tb.word_images(t) for t in tabs]
            labels = tuple((0, t) for t in tabs)
            plain, flipped = (
                hecke._oracle_graph(words, labels, hecke.kl_columns(n, ()), f)
                for f in (False, True)
            )
            assert (plain.tau, plain.mu, plain.labels) == (flipped.tau, flipped.mu, flipped.labels)
            g = hecke.kl_left_cell_graph(lam, hecke.kl_columns(n, ()))
            assert (g.tau, g.mu, g.labels) == (plain.tau, plain.mu, plain.labels)
            flips.add(2 * sum(map(inversions, words)) > len(words) * n * (n - 1) // 2)
    assert flips == {False, True}


def test_left_cell_graph_checks_the_bound_before_any_work(monkeypatch):
    def boom(*_args):
        raise AssertionError("work done before the bound check")

    # a left-cell graph reads its columns from a store, and the store checks
    # the bound before it is made
    monkeypatch.delenv("WCELL_ORACLE_MAX", raising=False)
    monkeypatch.setattr(hecke, "_Columns", boom)
    with pytest.raises(hecke.OracleBoundError, match="n=8 exceeds the oracle bound 7"):
        hecke.kl_columns(8, ())


def test_left_cell_graph_vertex_counts():
    for n in range(1, 7):
        columns = hecke.kl_columns(n, ())
        for lam in tb.partitions_of(n):
            assert hecke.kl_left_cell_graph(lam, columns).num_vertices == tb.hook_count(lam)


def test_left_cell_graphs_store_only_arc_weights():
    columns = hecke.kl_columns(5, ())
    for lam in tb.partitions_of(5):
        g = hecke.kl_left_cell_graph(lam, columns)
        for (u, v), w in g.mu.items():
            assert not g.tau[u] <= g.tau[v]


def test_regular_graph_is_admissible_ordered_bipartite():
    for n in range(2, 5):
        g = helpers.kl_regular_graph(n)
        assert wg.check_admissible(g).ok
        assert wg.check_ordered(g).ok
        elems = sorted(all_permutations(n), key=lambda w: w.images)
        for (u, v), _w in g.mu.items():
            assert (length(elems[u]) - length(elems[v])) % 2 == 1


def test_regular_graph_weights_equal_slow_table_mu():
    # colours are left descents and mu(a, b) is kept iff tau(a) is not in tau(b)
    for n in range(1, 6):
        _h, slow_mu = kl_table_slow(n)
        elems = sorted(all_permutations(n), key=lambda w: w.images)
        pos = {w: k for k, w in enumerate(elems)}
        tau = [left_descents(w) for w in elems]
        expected = {}
        for (y, w), m in slow_mu.items():
            a, b = pos[y], pos[w]
            if not tau[a] <= tau[b]:
                expected[(a, b)] = m
            if not tau[b] <= tau[a]:
                expected[(b, a)] = m
        g = helpers.kl_regular_graph(n)
        assert list(g.tau) == tau
        assert g.mu == expected


def test_left_cells_of_equal_shape_are_isomorphic():
    # cells of the regular graph, keyed by recording tableau; relabelling a
    # vertex by its insertion tableau identifies cells of the same shape
    for n in range(2, 6):
        elems = sorted(all_permutations(n), key=lambda w: w.images)
        g = helpers.kl_regular_graph(n)
        cells_by_q = {}
        for v, (qi, p) in enumerate(g.labels):
            cells_by_q.setdefault(qi, {})[p] = v
        by_shape = {}
        for qi, cell in cells_by_q.items():
            shape = next(iter(cell)).shape.outer
            by_shape.setdefault(shape, []).append(cell)
        for shape, cell_list in by_shape.items():
            first = cell_list[0]
            for other in cell_list[1:]:
                for p1, v1 in first.items():
                    assert g.tau[v1] == g.tau[other[p1]]
                for p1, v1 in first.items():
                    for p2, v2 in first.items():
                        assert g.weight(v1, v2) == g.weight(other[p1], other[p2])


def test_recording_fibres_count_left_cells():
    for n in range(2, 6):
        g = helpers.kl_regular_graph(n)
        dec = wg.cells(g)
        expected = sum(tb.hook_count(lam) for lam in tb.partitions_of(n))
        assert len(dec.blocks) == expected
        # each cell is exactly a recording fibre
        fibres = {}
        for v, (qi, _p) in enumerate(g.labels):
            fibres.setdefault(qi, set()).add(v)
        assert {frozenset(b) for b in dec.blocks} == {
            frozenset(f) for f in fibres.values()
        }


def test_graphs_equal_under_identity_and_flip(built):
    g = built((3, 1))
    ident = {v: v for v in g.vertices()}
    assert hecke.graphs_equal_under(g, g, ident)
    # flipping two vertices with different colours must fail
    a, b = 0, 1
    assert g.tau[a] != g.tau[b]
    flip = dict(ident)
    flip[a], flip[b] = b, a
    assert not hecke.graphs_equal_under(g, g, flip)
    with pytest.raises(ValueError):
        hecke.graphs_equal_under(g, g, {v: 0 for v in g.vertices()})


@pytest.mark.parametrize("move", helpers.MOVES)
def test_graphs_equal_under_notices_one_moved_generator(built, move):
    g = helpers.moved(built((3, 2, 1)), *move)
    ident = list(g.vertices())
    assert hecke.graphs_equal_under(g, wg.from_json_str(wg.to_json_str(g)), ident)
    top = g.n - 1  # the highest generator
    for v in g.vertices():
        for s in (top, max(g.tau[v], default=top)):
            tau = list(g.tau)
            tau[v] = tau[v] ^ {s}
            assert not hecke.graphs_equal_under(g, wg.SColoredGraph(g.n, tau, g.mu, g.labels), ident)
