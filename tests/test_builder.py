import gc
import hashlib
import json
import os

import random

import pytest

import helpers
from helpers import extended_dominance_leq as dominance_reference
from wcell import builder, cli, hecke, knuth
from wcell import tableaux as tb
from wcell import wgraph as wg


def test_single_tableau_shapes_have_no_arcs(built):
    for lam in [(4,), (1, 1, 1, 1)]:
        g = built(lam)
        assert g.num_vertices == 1
        assert g.mu == {}


def test_shape_21_is_a_single_simple_edge(built):
    g = built((2, 1))
    assert g.num_vertices == 2
    assert g.simple_edges() == [(0, 1)]
    assert g.mu == {(0, 1): 1, (1, 0): 1}


def test_vertices_are_lex_ordered_and_coloured_by_descents(built):
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            tabs = tb.enumerate_std(lam)
            assert [lab[1] for lab in g.labels] == tabs
            assert all(g.tau[i] == tabs[i].descents for i in g.vertices()), lam


def test_vertices_of_one_descent_set_share_one_colour(built):
    g = built((4, 3, 2, 1, 1))
    assert len({id(c) for c in g.tau}) == len(set(g.masks)) < g.num_vertices


def test_no_probable_pairs_below_rank_five():
    for n in range(1, 5):
        for lam in tb.partitions_of(n):
            tabs = tuple(tb.enumerate_std(lam))
            assert builder.probable_pairs(builder.cell_index(tabs)) == []


def test_probable_pairs_exist_from_rank_five():
    total = sum(
        len(builder.probable_pairs(builder.cell_index(tuple(tb.enumerate_std(lam)))))
        for lam in tb.partitions_of(5)
    )
    assert total > 0


def test_probable_pair_defining_properties():
    for n in (5, 6, 7):
        for lam in tb.partitions_of(n):
            tabs = tuple(tb.enumerate_std(lam))
            listed = set(builder.probable_pairs(builder.cell_index(tabs)))
            for iu, u in enumerate(tabs):
                for it, t in enumerate(tabs):
                    expected = (
                        u != t
                        and tb.tableau_dominance_leq(u, t)
                        and t.descents < u.descents
                    )
                    assert ((iu, it) in listed) == expected


def _assert_packed_dominance(tabs):
    keys, guard = tb.dominance_keys([t.column_word for t in tabs])
    for ku, u in zip(keys, tabs):
        for kt, t in zip(keys, tabs):
            packed = ((ku | guard) - kt) & guard == guard
            assert packed == dominance_reference(u, t), (u, t)


def test_packed_dominance_keys_equal_column_dominance():
    # one shape per call through n = 7, then every word of each size
    # n <= 6 in one call, across shapes
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            _assert_packed_dominance(tb.enumerate_std(lam))
    for n in range(1, 7):
        _assert_packed_dominance([t for lam in tb.partitions_of(n) for t in tb.enumerate_std(lam)])


def test_dual_knuth_edges_and_covers_join_opposite_parities():
    for n in range(1, 9):
        for lam in tb.partitions_of(n):
            cell = builder.cell_index(tuple(tb.enumerate_std(lam)))
            for it, col in enumerate(cell.cols):
                for iu in col:
                    assert cell.parity[iu] != cell.parity[it], (lam, iu, it)


def test_equal_parity_probable_pairs_have_zero_weight():
    # the bipartite cut of build_cell_graph: evaluated on the full index in
    # schedule order, without the cut, every equal-parity pair gives 0
    equal = 0
    for n in range(1, 10):
        for lam in tb.partitions_of(n):
            cell = builder.cell_index(tuple(tb.enumerate_std(lam)))
            for iu, it in builder.probable_pairs(cell):
                w = builder.mu_probable(iu, it, cell)
                if cell.parity[iu] == cell.parity[it]:
                    equal += 1
                    assert w == 0, (lam, iu, it)
                if w:
                    cell.cols[it][iu] = w
    assert equal == 2672


def test_large_shape_digest():
    # SHA-256 of to_json_str for a 5632-vertex cell, taken before the
    # bipartite cut and the packed dominance scan: the graph is unchanged
    text = wg.to_json_str(builder.build_cell_graph((4, 3, 2, 1, 1, 1)))
    digest = "37a2898aae669b964a04c156a0765ed8f99ca47992cd861e144e9a8da380500f"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_builder_matches_oracle_exactly(built):
    for n in range(2, 7):
        columns = hecke.kl_columns(n, ())
        for lam in tb.partitions_of(n):
            g = built(lam)
            oracle = hecke.kl_left_cell_graph(lam, columns)
            ident = {v: v for v in g.vertices()}
            assert hecke.graphs_equal_under(g, oracle, ident), lam


def test_mu_probable_matches_oracle_values(built):
    columns = hecke.kl_columns(5, ())
    for lam in tb.partitions_of(5):
        tabs = tuple(tb.enumerate_std(lam))
        g = built(lam)
        oracle = hecke.kl_left_cell_graph(lam, columns)
        cell = builder.cell_index(tabs)
        for it, col in enumerate(helpers.columns(g)):
            cell.cols[it].update(col)
        for iu, it in builder.probable_pairs(builder.cell_index(tabs)):
            got = builder.mu_probable(iu, it, cell)
            assert got == oracle.weight(iu, it), (lam, iu, it)
            assert got >= 0


def test_mu_probable_independent_of_representative(built):
    # the memo-free reference gives the same weight with every member of
    # favourable_set as rep (the lemma), and the builder, on its canonical
    # representative, gives that weight too: first grouped by target, in a
    # shuffled order within each column (the memo is reused), then with the
    # calls shuffled across columns (the memo is emptied at each new target)
    rng = random.Random(1807)
    for n in (5, 6, 7, 8):
        for lam in tb.partitions_of(n):
            tabs = tuple(tb.enumerate_std(lam))
            g = built(lam)
            cell = builder.cell_index(tabs)
            for it, col in enumerate(helpers.columns(g)):
                cell.cols[it].update(col)
            index = {w: v for v, w in enumerate(cell.words)}
            calls = [
                (iu, it, (tabs.index(u0), tabs.index(t0)))
                for iu, it in builder.probable_pairs(cell)
                for u0, t0 in knuth.favourable_set(tabs[iu], tabs[it])
            ]
            rng.shuffle(calls)
            for order in (sorted(calls, key=lambda call: call[1]), calls):
                for iu, it, rep in order:
                    reference = helpers.mu_probable(iu, it, cell, index)
                    assert helpers.mu_probable(iu, it, cell, index, rep=rep) == reference
                    assert builder.mu_probable(iu, it, cell) == reference, (lam, iu, it)


def test_mu_probable_equals_memo_free_reference():
    # every evaluated pair, in the order and on the table of build_cell_graph
    shapes = [lam for n in range(1, 9) for lam in tb.partitions_of(n)] + [(4, 3, 2, 1, 1)]
    evaluated = 0
    for lam in shapes:
        cell = builder.cell_index(tuple(tb.enumerate_std(lam)))
        index = {w: v for v, w in enumerate(cell.words)}
        for iu, it in builder.probable_pairs(cell):
            if cell.parity[iu] != cell.parity[it]:
                w = builder.mu_probable(iu, it, cell)
                assert w == helpers.mu_probable(iu, it, cell, index), (lam, iu, it)
                evaluated += 1
                if w:
                    cell.cols[it][iu] = w
    assert evaluated > 18338


def _made_cells(monkeypatch):
    """The indexes builder.cell_index makes while the test runs, in order."""
    cells = []
    cell_index = builder.cell_index
    monkeypatch.setattr(builder, "cell_index", lambda tabs: cells.append(cell_index(tabs)) or cells[-1])
    return cells


def test_memo_holds_one_column_after_a_build(monkeypatch):
    cells = _made_cells(monkeypatch)
    builder.build_cell_graph((4, 3, 2, 1))
    (cell,) = cells
    last = max(it for iu, it in builder.probable_pairs(cell) if cell.parity[iu] != cell.parity[it])
    assert list(cell.groups) == [last]
    assert cell.groups[last]


def test_packed_words_above_255_build_the_same_graph(tmp_path, monkeypatch):
    # 256 columns: the largest letter needs 9 bits.  SHA-256 of the document
    # written before the words were packed: 256 vertices, 510 weights
    cells = _made_cells(monkeypatch)
    lam = (2,) + (1,) * 255
    out = tmp_path / "wide.json"
    assert cli.run(["build", "--shape", ",".join(map(str, lam)), "--out", str(out)]) == 0
    digest = "53f14f106e50b0303074bb7ae3e86cb9f20e65320d488adc39911243cd5cedb9"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    (cell,) = cells
    assert cell.width == 9 and max(cell.words[0]) == 256
    # the packed words are distinct and first differ in the field of the
    # highest set bit of their XOR
    assert len(cell.vertex) == len(cell.words) == 256
    for pu, uw in zip(cell.packed, cell.words):
        for pt, tw in zip(cell.packed[::15], cell.words[::15]):
            first = next((e for e, (a, b) in enumerate(zip(uw, tw)) if a != b), len(uw))
            assert len(uw) - -(-(pu ^ pt).bit_length() // 9) == first


def test_final_graph_edges_are_simple_and_bipartite(built):
    for lam in tb.partitions_of(6):
        g = built(lam)
        assert wg.check_admissible(g).ok
        for u, v in g.simple_edges():
            assert g.weight(u, v) == g.weight(v, u) == 1


def test_arc_transport_on_final_graphs(built):
    # simple edges {v,v'}, {u,u'} whose colours cut the patterns
    # {s}, {t}, {s,r}, {t,r} on a bonded pair {s,t} and a third generator r
    # must carry equal weights mu(u, v) = mu(u', v')
    for n in range(3, 7):
        for lam in tb.partitions_of(n):
            g = built(lam)
            edges = g.simple_edges()
            for s in range(1, n - 1):
                t = s + 1
                for r in range(1, n):
                    if r in (s, t):
                        continue
                    jset = {r, s, t}
                    for e1 in edges:
                        for v, vp in (e1, e1[::-1]):
                            if g.tau[v] & jset != {s} or g.tau[vp] & jset != {t}:
                                continue
                            for e2 in edges:
                                for u, up in (e2, e2[::-1]):
                                    if (
                                        g.tau[u] & jset == {s, r}
                                        and g.tau[up] & jset == {t, r}
                                    ):
                                        assert g.weight(u, v) == g.weight(up, vp)


def test_schedule_assertions_are_active():
    tabs = tuple(tb.enumerate_std((3, 2)))
    (iu, it), = builder.probable_pairs(builder.cell_index(tabs))
    # an index built against the lexicographic order puts every referenced
    # column above the pair's own column, so the schedule guard must fire
    reverse = tuple(reversed(tabs))
    cell = builder.cell_index(reverse)
    with pytest.raises(AssertionError, match="schedule violation"):
        builder.mu_probable(reverse.index(tabs[iu]), reverse.index(tabs[it]), cell)


def test_built_graphs_match_committed_digests(built):
    # SHA-256 of to_json_str for every shape with n <= 8, written before the
    # builder moved to integer vertex indices: the graphs must stay bit-identical
    path = os.path.join(os.path.dirname(__file__), "built_digests.json")
    with open(path) as fh:
        pinned = json.load(fh)
    assert len(pinned) == sum(len(tb.partitions_of(n)) for n in range(1, 9)) == 66
    for key, digest in pinned.items():
        text = wg.to_json_str(built(tuple(map(int, key.split(",")))))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key


def test_a_dropped_cell_leaves_no_cyclic_garbage():
    # every object of a built cell is freed by reference counting alone, so
    # the cyclic collector finds nothing once the graph is dropped
    for lam in [(3, 3, 2, 1), (2, 2, 1)]:
        builder.build_cell_graph(lam)
        gc.collect()
        gc.disable()
        try:
            tableaux = tb.enumerate_std(lam)
            del tableaux
            g = builder.build_cell_graph(lam)
            del g
            assert gc.collect() == 0, lam
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# transpose duality


def test_conjugate_cells_are_twisted_transposes():
    for n in range(1, 11):
        assert helpers.duality_failures(n) == [], n


def test_twist_is_an_involution():
    for lam in [(3, 2, 1), (4, 2, 1, 1), (2, 2, 2)]:
        g = builder.build_cell_graph(lam)
        back = helpers.twist(helpers.twist(g))
        assert (back.n, back.tau, back.mu, back.labels) == (g.n, g.tau, g.mu, g.labels)
        assert helpers.twist(g).labels != g.labels


def test_duality_fails_on_a_bumped_weight(monkeypatch):
    # the first nonzero probable-pair weight of each build is one too big
    build, weigh = builder.build_cell_graph, builder.mu_probable
    bumped = []

    def build_bumped(lam):
        bumped.clear()
        return build(lam)

    def weigh_bumped(*args):
        w = weigh(*args)
        if w and not bumped:
            bumped.append(args)
            return w + 1
        return w

    monkeypatch.setattr(builder, "build_cell_graph", build_bumped)
    monkeypatch.setattr(builder, "mu_probable", weigh_bumped)
    assert helpers.duality_failures(6)


def test_twisted_cells_pass_every_rule_and_the_hecke_relations():
    # a twisted cell is the cell of the conjugate shape, so it is ordered on
    # its transposed labels too
    for n in range(1, 9):
        for lam in tb.partitions_of(n):
            g = helpers.twist(builder.build_cell_graph(lam))
            assert all(wg.run_checks(g)), lam
            assert hecke.verify_hecke_relations(g), lam


# ---------------------------------------------------------------------------
# Young-subgroup restriction


def test_young_restrictions_are_products_of_cells():
    for n in range(1, 9):
        assert helpers.restriction_failures(n) == [], n


def test_restriction_fails_on_a_bumped_one_way_weight():
    # one more on the first one-way weight of each graph of n = 6 that has
    # one, the factor graphs built correctly: some k fails on each
    bumped = {}
    for lam in tb.partitions_of(6):
        g = builder.build_cell_graph(lam)
        key = next((key for key in g.mu if key[::-1] not in g.mu), None)
        if key is not None:
            mu = dict(g.mu)
            mu[key] += 1
            bumped[lam] = wg.SColoredGraph(g.n, g.tau, mu, g.labels)
    assert len(bumped) == 5
    assert {lam for lam, _, _ in helpers.restriction_failures(6, bumped)} == set(bumped)
