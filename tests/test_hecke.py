import pytest

from helpers import kl_table_slow
from wcell import hecke, rsk
from wcell import tableaux as tb
from wcell import wgraph as wg
from wcell.laurent import LaurentPolynomial, ONE, Q, QINV
from wcell.permutations import (
    Permutation,
    all_permutations,
    bruhat_leq,
    identity,
    length,
    left_descents,
)


# ---------------------------------------------------------------------------
# module matrices and relations


def test_singleton_matrices():
    g = wg.SColoredGraph(2, [{1}], {})
    (mat,) = hecke.module_matrices(g)
    assert mat[0] == {0: -QINV}
    g2 = wg.SColoredGraph(2, [set()], {})
    (mat2,) = hecke.module_matrices(g2)
    assert mat2[0] == {0: Q}
    assert hecke.verify_hecke_relations(g).ok
    assert hecke.verify_hecke_relations(g2).ok


def test_shape_21_matrices_satisfy_quadratic(built):
    g = built((2, 1))
    for mat in hecke.module_matrices(g):
        square = hecke._compose(mat, mat)
        for v in g.vertices():
            expected = {u: p * (Q - QINV) for u, p in mat[v].items()}
            expected[v] = expected.get(v, LaurentPolynomial(0)) + ONE
            expected = {u: p for u, p in expected.items() if not p.is_zero()}
            assert square[v] == expected


def test_relations_on_built_graphs(built):
    for n in range(1, 7):
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


# ---------------------------------------------------------------------------
# KL table


def test_cover_polynomials_are_one():
    table = hecke.kl_table(4)
    for w, row in table.h.items():
        for y in row:
            if table.lengths[w] - table.lengths[y] == 1:
                assert table.kl_polynomial(y, w) == ONE


def test_table_respects_bruhat_support():
    table = hecke.kl_table(4)
    for w, row in table.h.items():
        for y in row:
            assert bruhat_leq(y, w)
        for y in all_permutations(4):
            if y not in row:
                assert not bruhat_leq(y, w) or table.kl_polynomial(y, w) == 0


def test_degree_bound_and_constant_term():
    table = hecke.kl_table(5)
    for w, row in table.h.items():
        for y in row:
            if y == w:
                continue
            p = table.kl_polynomial(y, w)
            delta = table.lengths[w] - table.lengths[y]
            assert p.coefficient(0) == 1
            assert p.valuation >= 0
            assert 2 * p.degree <= delta - 1


def test_fast_table_equals_fixed_point_table():
    for n in range(1, 5):
        fast = hecke.kl_table(n)
        slow = kl_table_slow(n)
        assert fast.h == slow.h
        assert fast.mu_pairs == slow.mu_pairs


def test_first_nontrivial_kl_polynomials():
    # the P != 1 entries of S_4 sit under the two singular patterns 3412 and
    # 4231: the classical pairs plus their left-descent propagations down to
    # the identity, all equal to 1 + q
    table = hecke.kl_table(4)
    nontrivial = {
        (y.images, w.images): table.kl_polynomial(y, w)
        for w, row in table.h.items()
        for y in row
        if y != w and table.kl_polynomial(y, w) != ONE
    }
    assert nontrivial == {
        ((1, 2, 3, 4), (3, 4, 1, 2)): ONE + Q,
        ((1, 3, 2, 4), (3, 4, 1, 2)): ONE + Q,
        ((1, 2, 3, 4), (4, 2, 3, 1)): ONE + Q,
        ((1, 2, 4, 3), (4, 2, 3, 1)): ONE + Q,
        ((2, 1, 3, 4), (4, 2, 3, 1)): ONE + Q,
        ((2, 1, 4, 3), (4, 2, 3, 1)): ONE + Q,
    }


def test_mu_values_only_on_odd_length_gaps():
    table = hecke.kl_table(5)
    for (y, w), m in table.mu_pairs.items():
        assert m > 0
        assert (table.lengths[w] - table.lengths[y]) % 2 == 1


def test_oracle_bound(monkeypatch):
    with pytest.raises(hecke.OracleBoundError):
        hecke.kl_table(7, max_n=6)
    monkeypatch.setenv("WCELL_ORACLE_MAX", "3")
    with pytest.raises(hecke.OracleBoundError):
        hecke.kl_table.__wrapped__(4)


# ---------------------------------------------------------------------------
# oracle graphs


def test_left_cell_graph_smallest_shapes():
    assert hecke.kl_left_cell_graph((2,)).num_vertices == 1
    g = hecke.kl_left_cell_graph((2, 1))
    assert g.num_vertices == 2
    assert g.simple_edges() == [(0, 1)]


def test_left_cell_graph_vertex_counts():
    for n in range(1, 7):
        for lam in tb.partitions_of(n):
            assert hecke.kl_left_cell_graph(lam).num_vertices == tb.hook_count(lam)


def test_left_cell_graphs_store_only_arc_weights():
    for lam in tb.partitions_of(5):
        g = hecke.kl_left_cell_graph(lam)
        for (u, v), w in g.mu.items():
            assert not g.tau[u] <= g.tau[v]


def test_regular_graph_is_admissible_ordered_bipartite():
    for n in range(2, 5):
        g = hecke.kl_regular_graph(n)
        assert wg.check_admissible(g).ok
        assert wg.check_ordered(g).ok
        elems = sorted(all_permutations(n), key=lambda w: w.images)
        for (u, v), _w in g.mu.items():
            assert (length(elems[u]) - length(elems[v])) % 2 == 1


def test_left_cells_of_equal_shape_are_isomorphic():
    # cells of the regular graph, keyed by recording tableau; relabelling a
    # vertex by its insertion tableau identifies cells of the same shape
    for n in range(2, 6):
        elems = sorted(all_permutations(n), key=lambda w: w.images)
        g = hecke.kl_regular_graph(n)
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
        g = hecke.kl_regular_graph(n)
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
