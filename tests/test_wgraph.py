import builtins
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import alternating_sum_slow, coloured_graphs, corruptions
from wcell import hecke
from wcell import tableaux as tb
from wcell import wgraph as wg


def graph_union(g1, g2):
    off = g1.num_vertices
    tau = list(g1.tau) + list(g2.tau)
    mu = dict(g1.mu)
    for (u, v), w in g2.mu.items():
        mu[(u + off, v + off)] = w
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = list(g1.labels) + [
            (a + 1000, t) if lab is not None else None
            for lab in g2.labels
            for a, t in [lab]
        ]
    return wg.SColoredGraph(max(g1.n, g2.n), tau, mu, labels)


# ---------------------------------------------------------------------------
# derived views


def test_no_weights_no_arcs():
    g = wg.SColoredGraph(3, [{1}, {2}], {})
    assert g.arcs() == [] and g.simple_edges() == []


def test_symmetric_weight_one_gives_edge():
    g = wg.SColoredGraph(3, [{1}, {2}], {(0, 1): 1, (1, 0): 1})
    assert g.simple_edges() == [(0, 1)]
    assert len(g.arcs()) == 2


def test_one_way_arc_when_colours_nest():
    g = wg.SColoredGraph(3, [{1, 2}, {1}], {(0, 1): 1})
    assert g.arcs() == [(1, 0, 1)]
    assert g.simple_edges() == []


@pytest.mark.parametrize(
    "tau, bad",
    [
        ([{1}, {0, 2}, {3}], {0, 2}),  # 0, then n further on
        ([{1, 2}, set(), {3}, {-1}], {3}),  # n, then -1
        ([{-1, 1}], {-1, 1}),
    ],
)
def test_colours_outside_the_generators_are_rejected(tau, bad):
    # the first vertex whose colour is out of range names it
    with pytest.raises(ValueError, match=f"^colour {re.escape(str(bad))} outside \\[1,2\\]$"):
        wg.SColoredGraph(3, tau, {})


def _assert_views_match_references(g):
    assert g.masks == tuple(sum(1 << i for i in s) for s in g.tau)
    assert g.arcs() == helpers.arcs(g)
    assert g.simple_edges() == helpers.simple_edges(g)
    dec = wg.cells(g)
    blocks, reach = helpers.cells(g)
    assert len(dec.blocks) == len(blocks) and set(dec.blocks) == blocks
    assert all(v in dec.blocks[b] for v, b in enumerate(dec.block_of))
    for b1, block1 in enumerate(dec.blocks):
        for b2, block2 in enumerate(dec.blocks):
            assert dec.leq(b1, b2) == (min(block1) in reach[min(block2)])


def test_views_match_the_frozenset_references(built):
    # built graphs of n <= 7, restricted and reloaded, and 20 seeded single
    # corruptions of each built graph
    rng = random.Random(1807)
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            graphs = [g, wg.from_json_str(wg.to_json_str(g))] + corruptions(g, rng, 20)
            graphs += [wg.restrict(g, J) for J in ({1}, set(range(2, n)), set(range(1, n, 2)))]
            for h in graphs:
                _assert_views_match_references(h)


@settings(max_examples=300, deadline=None)
@given(g=coloured_graphs())
def test_views_match_the_frozenset_references_on_any_graph(g):
    _assert_views_match_references(g)


def test_self_weights_rejected():
    with pytest.raises(ValueError):
        wg.SColoredGraph(2, [{1}], {(0, 0): 1})


def test_constructor_names_the_first_bad_pair_of_mu_and_drops_zeros():
    # the error names the first offending pair in the order of mu; zero
    # weights are dropped from a copy, and the copy keeps the order of mu
    for mu, message in [
        ({(0, 1): 1, (0, 0): 1, (0, 5): 1}, "self-weights are not allowed"),
        ({(0, 1): 1, (0, 5): 1, (0, 0): 1}, r"weight on unknown vertex pair \(0,5\)"),
        ({(-1, 0): 1}, r"weight on unknown vertex pair \(-1,0\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            wg.SColoredGraph(2, [{1}, set()], mu)
    mu = {(0, 1): 1, (0, 0): 0, (1, 0): 0}
    g = wg.SColoredGraph(2, [{1}, set()], mu)
    assert g.mu == {(0, 1): 1} and mu == {(0, 1): 1, (0, 0): 0, (1, 0): 0}
    g = wg.SColoredGraph(2, [{1}, set()], {(1, 0): 2, (0, 1): 1})
    assert list(g.mu.items()) == [((1, 0), 2), ((0, 1), 1)]


def test_the_graph_keeps_a_zero_free_weight_dict_and_copies_one_with_zeros():
    mu = {(1, 0): 2, (0, 1): 1}
    assert wg.SColoredGraph(2, [{1}, set()], mu).mu is mu
    mu = {(1, 0): 2, (0, 1): 0}
    g = wg.SColoredGraph(2, [{1}, set()], mu)
    assert g.mu is not mu and g.mu == {(1, 0): 2}
    assert mu == {(1, 0): 2, (0, 1): 0}


# ---------------------------------------------------------------------------
# cells


def test_cells_no_arcs_gives_singletons():
    g = wg.SColoredGraph(3, [{1}, {2}, {1}], {})
    dec = wg.cells(g)
    assert sorted(map(min, dec.blocks)) == [0, 1, 2]


def test_built_graphs_are_single_cells(built):
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            dec = wg.cells(built(lam))
            assert len(dec.blocks) == 1, lam


def test_regular_graph_cell_count_n3():
    reg = helpers.kl_regular_graph(3)
    dec = wg.cells(reg)
    assert len(dec.blocks) == sum(tb.hook_count(l) for l in tb.partitions_of(3)) == 4


def test_cell_order_matches_reachability():
    # two cells joined by a single arc: the source cell is above the target
    g = wg.SColoredGraph(3, [{1}, {1, 2}], {(1, 0): 1})
    dec = wg.cells(g)
    b0 = dec.block_of[0]
    b1 = dec.block_of[1]
    assert dec.leq(b1, b0) and not dec.leq(b0, b1)


def test_a_long_cycle_is_one_cell_and_one_simple_part():
    # an even cycle of 10^5 simple edges, colours alternating {1} / {2}:
    # cells and simple_parts share one search on explicit stacks, which a
    # recursion 10^5 deep would not survive
    nv = 10**5
    mu = {}
    for v in range(nv):
        mu[v, (v + 1) % nv] = mu[(v + 1) % nv, v] = 1
    g = wg.SColoredGraph(3, [{1 + v % 2} for v in range(nv)], mu)
    start = time.perf_counter()
    assert wg.cells(g).blocks == (frozenset(range(nv)),)
    assert wg.simple_parts(g) == [frozenset(range(nv))]
    assert time.perf_counter() - start < 5


def test_young_restrictions_close_cells_downwards_and_order_parts(built):
    # every block reaches only blocks emitted before it, and the simple
    # parts come by least vertex, as the reference sorts them, on each
    # Young restriction of n <= 7
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            for k in range(n):
                r = g if k == 0 else wg.restrict(g, set(range(1, n)) - {k})
                dec = wg.cells(r)
                assert all(c <= set(range(b + 1)) for b, c in enumerate(dec.closure)), (lam, k)
                assert wg.simple_parts(r) == helpers.simple_parts(r), (lam, k)


# ---------------------------------------------------------------------------
# simple parts and molecule types


def test_built_graph_is_one_molecule_of_its_type(built):
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            parts, types = wg.molecule_types(g)
            assert len(parts) == 1 and types == [lam]


def test_disjoint_union_molecule_types(built):
    g = graph_union(built((2, 1)), built((3,)))
    parts, types = wg.molecule_types(g)
    assert sorted(types) == [(2, 1), (3,)]


def test_regular_graph_molecule_multiset_n4():
    reg = helpers.kl_regular_graph(4)
    parts, types = wg.molecule_types(reg)
    expected = []
    for lam in tb.partitions_of(4):
        expected.extend([lam] * tb.hook_count(lam))
    assert sorted(types) == sorted(expected)


def test_molecule_typing_failure_is_structured():
    g = wg.SColoredGraph(3, [{1}, {2}, {1}], {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1})
    with pytest.raises(wg.MoleculeTypingError):
        wg.molecule_types(g)


def _shuffled(g, rng):
    """g with its vertices renumbered by a seeded permutation."""
    perm = list(g.vertices())
    rng.shuffle(perm)
    tau = [None] * g.num_vertices
    labels = None if g.labels is None else [None] * g.num_vertices
    for v in g.vertices():
        tau[perm[v]] = g.tau[v]
        if labels is not None:
            labels[perm[v]] = g.labels[v]
    mu = {(perm[u], perm[v]): w for (u, v), w in g.mu.items()}
    return wg.SColoredGraph(g.n, tau, mu, labels)


def _with_extra_edge(g):
    """g plus one simple edge that only an edge count can detect, or None.

    The ends have incomparable colours, and neither carries the colour of
    a neighbour of the other, so every colour test along the old edges
    still passes.
    """
    adj = {v: set() for v in g.vertices()}
    for u, v in g.simple_edges():
        adj[u].add(v)
        adj[v].add(u)
    for u in g.vertices():
        for v in range(u + 1, g.num_vertices):
            tu, tv = g.tau[u], g.tau[v]
            if v in adj[u] or tu <= tv or tv <= tu:
                continue
            if tv in {g.tau[x] for x in adj[u]} or tu in {g.tau[x] for x in adj[v]}:
                continue
            mu = dict(g.mu)
            mu[u, v] = mu[v, u] = 1
            return wg.SColoredGraph(g.n, g.tau, mu, g.labels)
    return None


def _reference_family(built, regular_ranks):
    """Built graphs of n <= 7, regular graphs, a union, shuffles, corruptions."""
    rng = random.Random(1807)
    shapes = [built(lam) for n in range(1, 8) for lam in tb.partitions_of(n)]
    graphs = shapes + [helpers.kl_regular_graph(n) for n in regular_ranks]
    graphs.append(graph_union(built((2, 1)), built((3,))))
    graphs += [_shuffled(g, rng) for g in graphs]
    for g in shapes:
        graphs += corruptions(g, rng, 10)
    graphs += [h for h in map(_with_extra_edge, shapes) if h is not None]
    return graphs


def _typing(molecule_types, g):
    try:
        return molecule_types(g)
    except wg.MoleculeTypingError as exc:
        return "error", exc.part, exc.tried


def test_molecule_types_match_reference(built):
    errors = 0
    for g in _reference_family(built, (4, 5)):
        got = _typing(wg.molecule_types, g)
        assert got == _typing(helpers.molecule_types, g)
        errors += got[0] == "error"
    assert errors


@pytest.mark.parametrize("n, shapes", [(5, 7), (6, 11)])
def test_one_cell_index_per_shape_in_typing(monkeypatch, n, shapes):
    # helpers.kl_regular_graph(n) has a part for every left cell, but each shape's
    # index is built once
    from wcell import builder

    calls = []
    cell_index = builder.cell_index
    monkeypatch.setattr(builder, "cell_index", lambda tabs: calls.append(1) or cell_index(tabs))
    wg.molecule_types(helpers.kl_regular_graph(n))
    assert len(calls) == shapes


def test_simple_adjacency_built_once_per_typing(built, monkeypatch):
    # straight from g.mu, without the sorted simple_edges()
    g = built((3, 2, 1))
    calls = []
    simple_adjacency = wg._simple_adjacency
    monkeypatch.setattr(wg, "_simple_adjacency", lambda h: calls.append(h) or simple_adjacency(h))
    monkeypatch.setattr(wg.SColoredGraph, "simple_edges", None)
    wg.molecule_types(g)
    assert calls == [g]


# ---------------------------------------------------------------------------
# restriction


def test_restrict_full_and_empty(built):
    g = built((2, 2))
    full = wg.restrict(g, range(1, g.n))
    assert full.tau == g.tau and full.mu == g.mu
    empty = wg.restrict(g, ())
    assert all(s == frozenset() for s in empty.tau)
    assert empty.mu == {}


def test_restrict_simple_edge_survival(built):
    g = built((2, 2))
    j = {1, 2}
    restricted = wg.restrict(g, j)
    expected = []
    for u, v in g.simple_edges():
        tu, tv = g.tau[u] & j, g.tau[v] & j
        if not tu <= tv and not tv <= tu:
            expected.append((u, v))
    assert restricted.simple_edges() == sorted(expected)


def test_restricted_simple_parts_refine(built):
    for lam in [(2, 2), (3, 1), (3, 2), (2, 2, 1)]:
        g = built(lam)
        whole = wg.simple_parts(g)
        for j in ({1, 2}, {2, 3}, {1}):
            finer = wg.simple_parts(wg.restrict(g, j))
            for part in finer:
                assert any(part <= big for big in whole)


# ---------------------------------------------------------------------------
# rule checkers on synthetic graphs


def test_admissible_rejects_negative_weight():
    g = wg.SColoredGraph(3, [{1}, {2}], {(0, 1): -1})
    assert not wg.check_admissible(g).ok


def test_admissible_rejects_odd_cycle():
    g = wg.SColoredGraph(
        4,
        [{1}, {2}, {3}],
        {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1, (0, 2): 1, (2, 0): 1},
    )
    report = wg.check_admissible(g)
    assert not report.ok
    assert any(v[0] == "odd-cycle" for v in report.violations)


def test_admissible_rejects_asymmetric_incomparable_pair():
    g = wg.SColoredGraph(3, [{1}, {2}], {(0, 1): 2, (1, 0): 1})
    report = wg.check_admissible(g)
    assert any(v[0] == "asymmetric" for v in report.violations)


def test_admissible_reports_match_reference(built):
    # every shape with n <= 7 and 20 seeded single corruptions of each, also
    # with the vertices shuffled, so that mu is no longer column-major
    rng = random.Random(1807)
    kinds = set()
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            for h in [g] + corruptions(g, rng, 20):
                for x in (h, _shuffled(h, rng)):
                    report = wg.check_admissible(x)
                    assert report == helpers.check_admissible(x), lam
                    kinds.update(w[0] for w in report.violations)
    assert kinds == {"negative-weight", "asymmetric", "odd-cycle"}


def test_one_component_can_give_several_odd_cycle_witnesses():
    # triangles 0-1-2 and 3-4-5 joined by the edge 2-3: one cell, but the
    # search from 0 stops at its conflict before reaching 3, so the search
    # from 3 finds the second triangle's
    tau = [{1}, {2}, {3}, {1}, {2}, {3}]
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    g = wg.SColoredGraph(4, tau, {key: 1 for u, v in edges for key in ((u, v), (v, u))})
    assert len(wg.cells(g).blocks) == 1
    report = wg.check_admissible(g)
    assert report.violations == (("odd-cycle", 2, 1), ("odd-cycle", 5, 4))
    assert report == helpers.check_admissible(g)


_RULES = {
    "admissible": (wg.check_admissible, helpers.check_admissible),
    "compatibility": (wg.check_compatibility, helpers.check_compatibility),
    "simplicity": (wg.check_simplicity, helpers.check_simplicity),
    "bonding": (wg.check_bonding, helpers.check_bonding),
    "ordered": (wg.check_ordered, helpers.check_ordered),
}


# what tells a rule's witnesses apart, and the values the corruptions must give
_KINDS = {
    "compatibility": (lambda w: w[2] < w[3], {True, False}),
    "simplicity": (lambda w: w[0], {"two-way-cover", "non-simple-edge", "weight-into-smaller-colour"}),
    "bonding": (lambda w: min(w[3], 2), {0, 2}),  # no neighbour, several
}


@pytest.mark.parametrize("rule", sorted(_KINDS))
def test_local_rule_reports_match_reference(built, rule):
    # as test_admissible_reports_match_reference: every shape with n <= 7 and
    # 20 seeded single corruptions of each, also shuffled
    fast, slow = _RULES[rule]
    kind, kinds = _KINDS[rule]
    rng = random.Random(1807)
    seen, outcomes = set(), set()
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            for h in [g] + corruptions(g, rng, 20):
                for x in (h, _shuffled(h, rng)):
                    report = fast(x)
                    assert report == slow(x), lam
                    seen.update(map(kind, report.violations))
                    outcomes.add(report.ok)
    assert seen == kinds and outcomes == {True, False}


@settings(max_examples=300, deadline=None)
@given(g=coloured_graphs(), data=st.data())
def test_local_rule_reports_match_reference_on_any_graph(g, data):
    size = data.draw(st.integers(1, 4))
    tableaux = [t for lam in tb.partitions_of(size) for t in tb.enumerate_std(lam)]
    labels = data.draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(tableaux)),
                                min_size=g.num_vertices, max_size=g.num_vertices))
    labelled = wg.SColoredGraph(g.n, g.tau, g.mu, labels)
    for rule, (fast, slow) in _RULES.items():
        x = labelled if rule == "ordered" else g
        assert fast(x) == slow(x), rule


def _many_failures():
    """30 vertices, their weights inserted in decreasing key order, that fail
    every local rule more than 20 times."""
    one = tb.from_text("1")
    tau = [{1} if v % 2 else {3} for v in range(30)]
    mu = {(u, u + 1): 1 for u in reversed(range(29))}
    return wg.SColoredGraph(4, tau, mu, [(0, one)] * 30)


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_reports_keep_the_first_twenty_witnesses_in_key_order(rule):
    g = _many_failures()
    fast, slow = _RULES[rule]
    report = fast(g)
    assert report == slow(g) and not report.ok
    assert len(report.violations) == wg._MAX_WITNESSES
    if rule == "bonding":
        # (v, i, i + 1, 0): bond (1, 2) at the odd vertices, then (2, 3) at the even ones
        assert report.violations[:2] == ((1, 1, 2, 0), (3, 1, 2, 0))
        assert report.violations[15:17] == ((0, 2, 3, 0), (2, 2, 3, 0))
    else:
        keys = [tuple(w[1:3]) if isinstance(w[0], str) else tuple(w[:2]) for w in report.violations]
        assert keys == [(u, u + 1) for u in range(20)]


def test_passing_graphs_are_checked_without_sorting_their_weights(built, monkeypatch):
    g = built((4, 3, 2, 1, 1))
    lengths = []

    def spy(items, **kwargs):
        items = list(items)
        lengths.append(len(items))
        return builtins.sorted(items, **kwargs)

    monkeypatch.setattr(wg, "sorted", spy, raising=False)
    local = [rule for rule in wg.ALL_RULES if rule != "polygon"]
    fresh = wg.SColoredGraph(g.n, g.tau, g.mu, g.labels)
    assert all(wg.run_checks(fresh, local))
    assert len(g.mu) not in lengths
    # a simple edge of weight 2 fails admissible, simplicity and bonding
    mu = dict(g.mu)
    mu[next(key for key in mu if key[::-1] in mu)] = 2
    bad = wg.SColoredGraph(g.n, g.tau, mu, g.labels)
    reports = wg.run_checks(bad, local)
    assert len(mu) in lengths
    assert [report.ok for report in reports] == [False, True, False, False, True]
    monkeypatch.undo()
    assert reports == [_RULES[rule][1](bad) for rule in local]


def test_reports_do_not_depend_on_the_order_of_mu(built):
    # every shape with n <= 7 and 10 seeded single corruptions of each, their
    # weights inserted again in a shuffled order
    rng = random.Random(1807)
    graphs = failing = 0
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            for h in [g] + corruptions(g, rng, 10):
                keys = list(h.mu)
                rng.shuffle(keys)
                x = wg.SColoredGraph(h.n, h.tau, {key: h.mu[key] for key in keys}, h.labels)
                reports = wg.run_checks(h)
                assert reports == wg.run_checks(x), lam
                assert hecke.verify_hecke_relations(h) == hecke.verify_hecke_relations(x), lam
                graphs += 1
                failing += not all(reports)
    assert (graphs, failing) == (474, 399)


def test_compatibility_unbonded_pair_fails():
    g = wg.SColoredGraph(4, [{1}, {3}], {(1, 0): 1})
    assert not wg.check_compatibility(g).ok


def test_simplicity_weight_two_edge_fails():
    g = wg.SColoredGraph(3, [{1}, {2}], {(0, 1): 2, (1, 0): 2})
    assert not wg.check_simplicity(g).ok


def test_bonding_duplicate_neighbour_fails():
    g = wg.SColoredGraph(
        3,
        [{1}, {2}, {2}],
        {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1},
    )
    assert not wg.check_bonding(g).ok


def test_rule_suite_passes_on_built_graphs(built):
    for n in range(1, 9):
        for lam in tb.partitions_of(n):
            for report in wg.run_checks(built(lam)):
                assert report.ok, (lam, report.summary())


def test_run_checks_calls_the_checkers_the_module_holds_now(built, monkeypatch):
    # a wrapper set on the module after import, as a tracer sets one, is called
    g = built((3, 2, 1))
    calls = []

    def counted(rule, check):
        def wrapper(g):
            calls.append(rule)
            return check(g)

        return wrapper

    for rule in wg.ALL_RULES:
        name = f"check_{rule}"
        monkeypatch.setattr(wg, name, counted(rule, getattr(wg, name)))
    assert all(wg.run_checks(g))
    assert calls == list(wg.ALL_RULES)


def _assert_moved_graph_matches_references(g):
    for rule, (fast, slow) in _RULES.items():
        if rule != "ordered" or g.is_labelled():
            assert fast(g) == slow(g), rule
    assert wg.check_polygon(g) == tuple(helpers.check_polygon(g, r) for r in (2, 3))
    assert wg.bonds(g) == helpers.bonds(g)
    text = wg.to_json_str(g)
    assert text == json.dumps(helpers.to_json_obj(g), indent=2) + "\n"  # tau lists ascending
    assert wg.to_json_str(wg.from_json_str(text)) == text
    dot = wg.to_dot(g)
    for v in g.vertices():
        assert f'|{{{",".join(map(str, sorted(g.tau[v])))}}}"]' in dot


def test_moved_generators_match_the_references(built):
    # generators at 8 i, across 64 and near MAX_COLOUR, where a colour's
    # frozenset does not always iterate in ascending order
    graphs = helpers.moved_family(built, random.Random(1807))
    assert any(list(s) != sorted(s) for g in graphs for s in g.tau)
    unsorted = False  # a failing weight whose colour difference is out of order
    for g in graphs:
        _assert_moved_graph_matches_references(g)
        for u, v, _, _ in wg.check_compatibility(g).violations:
            unsorted |= any(list(d) != sorted(d) for d in (g.tau[u] - g.tau[v], g.tau[v] - g.tau[u]))
    assert unsorted


@settings(max_examples=200, deadline=None)
@given(g=coloured_graphs(), move=st.sampled_from(helpers.MOVES))
def test_moved_generators_match_the_references_on_any_graph(g, move):
    _assert_moved_graph_matches_references(helpers.moved(g, *move))


def test_compatibility_witnesses_of_one_weight_come_in_ascending_generators():
    # list(frozenset({1, 8})) == [8, 1]
    g = wg.SColoredGraph(10, [{1, 8}, {3}], {(0, 1): 1})
    assert wg.check_compatibility(g).violations == ((0, 1, 1, 3), (0, 1, 8, 3))


# ---------------------------------------------------------------------------
# polygon sums: fast vs brute force


def _check_polygon_pairs(g, quadruples):
    for (u, v, i, j, r) in quadruples:
        fast_ij = helpers.alternating_sums(g, r, i, j)[u, v]
        fast_ji = helpers.alternating_sums(g, r, j, i)[u, v]
        assert fast_ij == alternating_sum_slow(g, r, i, j, u, v)
        assert fast_ji == alternating_sum_slow(g, r, j, i, u, v)


def _polygon_test_graphs(built):
    graphs = [built(lam) for lam in tb.partitions_of(5)]
    graphs += [built(lam) for lam in tb.partitions_of(6)]
    graphs.append(helpers.kl_regular_graph(4))
    # a negative weight on an arc makes some sums negative
    g = built((3, 2))
    mu = dict(g.mu)
    mu[min(mu)] = -2
    graphs.append(wg.SColoredGraph(g.n, g.tau, mu, g.labels))
    return graphs


def test_polygon_sums_match_brute_force_exhaustively(built):
    graphs = _polygon_test_graphs(built)
    assert any(x < 0 for x in helpers.alternating_sums(graphs[-1], 2, 1, 2).values())
    for g in graphs:
        quads = []
        for u in g.vertices():
            for v in g.vertices():
                for i in range(1, g.n - 1):
                    for j in range(i + 1, g.n):
                        quads.append((u, v, i, j, 2))
                        if j == i + 1:
                            quads.append((u, v, i, j, 3))
        _check_polygon_pairs(g, quads)


def test_polygon_sums_match_brute_force_sampled(built):
    rng = random.Random(3)
    for lam in [(4, 2, 1), (4, 3, 1)]:
        g = built(lam)
        nv = g.num_vertices
        quads = []
        for _ in range(250):
            u, v = rng.randrange(nv), rng.randrange(nv)
            i = rng.randrange(1, g.n - 1)
            j = rng.randrange(i + 1, g.n)
            quads.append((u, v, i, j, 2))
            if j == i + 1:
                quads.append((u, v, i, j, 3))
        _check_polygon_pairs(g, quads)


def test_polygon_kernel_matches_reference_on_read_entries(built):
    # every entry the rule reads for each pair the pass tries: i, j outside
    # tau(u) and inside tau(v)
    negative, tried = False, set()
    for g in _polygon_test_graphs(built):
        triples = wg.polygon_pairs(g)
        # the r = 3 triples first, each r ascending in (i, j)
        assert triples == sorted(triples, key=lambda t: (-t[2], t))
        got = list(wg.polygon_sums(g))
        assert [u for u, _ in got] == sorted({u for u, _ in got})
        got = dict(got)
        assert all(set(sums) <= set(triples) for sums in got.values())
        for i, j, r in triples:
            tried.add(r)
            ref_ij = helpers.alternating_sums(g, r, i, j)
            ref_ji = helpers.alternating_sums(g, r, j, i)
            starts = [u for u in g.vertices() if not {i, j} & g.tau[u]]
            ends = [v for v in g.vertices() if {i, j} <= g.tau[v]]
            for u, sums in got.items():
                if (i, j, r) in sums:
                    n_ij, n_ji = sums[i, j, r]
                    assert u in starts and set(n_ij) | set(n_ji) <= set(ends)
            for u in starts:
                n_ij, n_ji = got.get(u, {}).get((i, j, r), ({}, {}))
                for v in ends:
                    assert n_ij.get(v, 0) == ref_ij[u, v], (g.n, u, v, i, j, r)
                    assert n_ji.get(v, 0) == ref_ji[u, v], (g.n, u, v, j, i, r)
                    negative |= ref_ij[u, v] < 0 or ref_ji[u, v] < 0
    assert negative and tried == {2, 3}


def _polygon_reference(g):
    return tuple(helpers.check_polygon(g, r) for r in (2, 3))


def test_polygon_reports_match_reference(built):
    # every shape with n <= 7 and 20 seeded single corruptions of each
    rng = random.Random(18070457)
    outcomes, huge, recoloured = set(), False, False
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            g = built(lam)
            for h in [g] + corruptions(g, rng, 20):
                reports = wg.check_polygon(h)
                assert reports == _polygon_reference(h), lam
                outcomes.add(tuple(report.ok for report in reports))
                huge |= any(abs(x) >= 2**70 for rep in reports for w in rep.violations for x in w[5:])
                recoloured |= not all(reports) and h.tau != g.tau
    # each r fails where the other passes, and both fail together
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}
    assert huge and recoloured


@pytest.mark.parametrize(
    "tau, mu, oks, witness",
    [
        # 0 -> 1 -> 2 has no matching 0 -> 2 -> ... path, and no vertex has
        # 2 without 1, so there is no alternating 3-path either way
        ([set(), {1}, {1, 2}], {(1, 0): 1, (2, 1): 1}, (False, True), (0, 2, 1, 2, 2, 1, 0)),
        # the squares 0 -> 1 -> 3 and 0 -> 2 -> 3 balance N^2, but only
        # 0 -> 1 -> 2 -> 3 of the two alternating 3-paths is there
        (
            [set(), {1}, {2}, {1, 2}],
            {(1, 0): 1, (2, 0): 1, (3, 1): 1, (3, 2): 1, (2, 1): 1},
            (True, False),
            (0, 3, 1, 2, 3, 1, 0),
        ),
    ],
)
def test_polygon_fails_for_one_r_alone(tau, mu, oks, witness):
    g = wg.SColoredGraph(3, tau, mu)
    reports = wg.check_polygon(g)
    assert reports == _polygon_reference(g)
    assert [report.rule for report in reports] == ["polygon-r2", "polygon-r3"]
    assert tuple(report.ok for report in reports) == oks
    assert [w for report in reports for w in report.violations] == [witness]


def test_polygon_reports_first_counterexample():
    # a deliberately unbalanced square: one alternating 2-path but not the other
    g = wg.SColoredGraph(
        3,
        [set(), {1}, {1, 2}],
        {(1, 0): 1, (2, 1): 1},
    )
    report = wg.check_polygon(g)[0]
    assert not report.ok
    u, v, i, j, r, nij, nji = report.violations[0]
    assert (u, v, r) == (0, 2, 2) and {i, j} == {1, 2}
    assert {nij, nji} == {0, 1}


@settings(max_examples=300, deadline=None)
@given(g=coloured_graphs())
def test_polygon_reports_match_reference_on_any_graph(g):
    # small graphs often give several generators one vertex set
    assert wg.check_polygon(g) == _polygon_reference(g)


# calls: the triples (i, j, r) that the one call of check_polygon tries
@pytest.mark.parametrize(
    "tau, mu, calls",
    [
        # generators 1, 3, 5 colour vertex 2 alone and 2, 4 colour 1 and 2:
        # one pair of groups, and r = 2 fails there
        ([set(), {2, 4}, {1, 2, 3, 4, 5}], {(1, 0): 1, (2, 1): 1}, [(1, 2, 3), (1, 2, 2)]),
        # a balanced square on the groups {1, 3} and {2, 3}: six pairs of
        # generators for r = 2 and four bonded ones, all passing
        (
            [set(), {1, 3, 5}, {2, 4}, {1, 2, 3, 4, 5}],
            {(1, 0): 1, (2, 0): 1, (3, 1): 1, (3, 2): 1},
            [(1, 2, 3), (1, 2, 2)],
        ),
        # no vertex holds both groups: no path can end, nothing is tried
        ([{1, 3, 5}, {2, 4}], {(0, 1): 1, (1, 0): 1}, []),
        # every vertex holds one of the groups: no path can start
        ([{1, 3}, {1, 2, 3}], {(1, 0): 1}, []),
        # 2 colours no row of a weight, so no bonded pair (1, 2) is tried
        ([set(), {1}, {1, 2}], {(1, 0): 1}, []),
    ],
)
def test_polygon_tries_each_pair_of_groups_once(monkeypatch, tau, mu, calls):
    g = wg.SColoredGraph(6, tau, mu)
    made = []
    pairs_of = wg.polygon_pairs

    def recorded(g):
        made.append(pairs_of(g))
        return made[-1]

    monkeypatch.setattr(wg, "polygon_pairs", recorded)
    assert wg.check_polygon(g) == _polygon_reference(g)
    assert made == [calls]


def test_polygon_rule_on_a_wide_document_is_quick():
    # 2999 generators colour one of two vertices each, odd on one and even
    # on the other: two groups, and no vertex holds both
    n = 3000
    g = wg.SColoredGraph(n, [set(range(1, n, 2)), set(range(2, n, 2))], {(0, 1): 1, (1, 0): 1})
    start = time.perf_counter()
    assert all(wg.check_polygon(g))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("balanced", [True, False])
def test_polygon_rule_on_overlapping_wide_groups_is_quick(balanced):
    # the odd and the even generators of n = 3000 meet on vertex 3 and miss
    # vertex 0, so the pair (1, 2) of their groups is tried; the square
    # 0 -> 1 -> 3, 0 -> 2 -> 3 balances N_12 and N_21 unless one side is cut
    n = 3000
    odd, even = set(range(1, n, 2)), set(range(2, n, 2))
    mu = {(1, 0): 1, (2, 0): 1, (3, 1): 1, (3, 2): 1}
    if not balanced:
        del mu[3, 2]
    g = wg.SColoredGraph(n, [set(), odd, even, odd | even], mu)
    assert wg.polygon_pairs(g) == [(1, 2, 3), (1, 2, 2)]
    start = time.perf_counter()
    r2, r3 = wg.check_polygon(g)
    assert time.perf_counter() - start < 0.5
    assert r2.violations == (() if balanced else ((0, 3, 1, 2, 2, 1, 0),))
    assert r3.ok


@pytest.mark.parametrize(
    "mu",
    [
        # 2**32 * 2**32 wraps to 0 in int64 arithmetic
        {(1, 0): 2**32, (2, 1): 2**32},
        # a weight that does not fit in int64 at all
        {(1, 0): 2**64, (2, 1): 1},
    ],
)
def test_polygon_sums_are_exact_beyond_int64(mu):
    g = wg.SColoredGraph(3, [set(), {1}, {1, 2}], mu)
    report = wg.check_polygon(g)[0]
    assert not report.ok
    assert report.violations[0] == (0, 2, 1, 2, 2, 2**64, 0)


# ---------------------------------------------------------------------------
# ordered


def test_ordered_on_built_graphs(built):
    for n in range(1, 8):
        for lam in tb.partitions_of(n):
            assert wg.check_ordered(built(lam)).ok


def test_ordered_on_regular_graphs():
    for n in range(2, 6):
        assert wg.check_ordered(helpers.kl_regular_graph(n)).ok


def test_ordered_detects_corruption(built):
    g = built((3, 2))
    tabs = [lab[1] for lab in g.labels]
    lexmin = min(range(len(tabs)), key=lambda i: tb.lex_key(tabs[i]))
    lexmax = max(range(len(tabs)), key=lambda i: tb.lex_key(tabs[i]))
    # an arc from the lex-min vertex to the lex-max one carries the weight
    # mu(lexmax, lexmin), and the lex-max tableau is not below the minimal one
    mu = dict(g.mu)
    mu[(lexmax, lexmin)] = 1
    bad = wg.SColoredGraph(g.n, g.tau, mu, g.labels)
    report = wg.check_ordered(bad)
    assert not report.ok
    assert (lexmax, lexmin, 1) in report.violations


def test_ordered_reports_match_reference(built):
    one = tb.from_text("1")
    # two vertices with the same label: a weight between them is no cover
    twins = wg.SColoredGraph(1, [set(), set()], {(0, 1): 1}, [(0, one), (0, one)])
    # one of these weights goes up a dual Knuth move, but across molecules
    pair = graph_union(built((2, 1)), built((2, 1)))
    across = wg.SColoredGraph(pair.n, pair.tau, {**pair.mu, (2, 1): 1, (3, 0): 1}, pair.labels)
    # words (1, 2) and (1, 1) of two shapes first differ at their last letter
    row, col = tb.from_text("1 2"), tb.from_text("1/2")
    shapes = wg.SColoredGraph(2, [set(), {1}], {(0, 1): 1, (1, 0): 1}, [(0, row), (0, col)])
    outcomes = set()
    for g in _reference_family(built, (2, 3, 4, 5)) + [twins, across, shapes]:
        fast, slow = wg.check_ordered(g), helpers.check_ordered(g)
        assert (fast.ok, fast.violations) == (slow.ok, slow.violations)
        outcomes.add(fast.ok)
    assert outcomes == {True, False}
    assert not any(wg.check_ordered(g).ok for g in (twins, across, shapes))


def test_ordered_reports_an_upward_weight_across_a_non_adjacent_exchange():
    # t's word (1, 1, 1, 2, 2) first differs from u's (1, 1, 2, 2, 1) at an
    # ascent, letter 3 of t, and u's letter there is t's next one; but u
    # exchanges t's letters 3 and 5, so u is no s_i t, and u is not below t
    t, u = tb.from_text("1 4/2 5/3"), tb.from_text("1 3/2 4/5")
    assert not tb.extended_dominance_leq(u, t)
    g = wg.SColoredGraph(5, [t.descents, u.descents], {(1, 0): 1}, [(0, t), (0, u)])
    report = wg.check_ordered(g)
    assert report.violations == ((1, 0, 1),) and report == helpers.check_ordered(g)


def test_ordered_requires_labels():
    g = wg.SColoredGraph(3, [{1}, {2}], {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        wg.check_ordered(g)


def test_ordered_requires_labels_with_the_same_entries():
    # the packed keys compare words of one length over one target, so the
    # labels are checked before any weight is read
    small, large, shifted = tb.from_text("1"), tb.from_text("1 2"), tb.from_text("2")
    for a, b in [(small, large), (small, shifted)]:
        g = wg.SColoredGraph(2, [set(), set()], {}, [(0, a), (0, b)])
        with pytest.raises(ValueError, match="same entries"):
            wg.check_ordered(g)


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_is_bit_identical(built):
    for lam in [(), (1,), (2, 1), (2, 2), (3, 2)]:
        g = built(lam)
        s = wg.to_json_str(g)
        again = wg.to_json_str(wg.from_json_str(s))
        assert s == again


def test_a_reloaded_graph_shares_one_colour_object_per_colour(built):
    h = wg.from_json_str(wg.to_json_str(built((4, 3, 2, 1, 1))))
    assert len({id(c) for c in h.tau}) == len(set(h.masks)) < h.num_vertices
    # colour lists in any order and with repeats still share one object
    g = wg.from_json_str('{"n": 3, "vertices": [{"id": 0, "tau": [2, 1]}, {"id": 1, "tau": [1, 2, 1]}], "mu": []}')
    assert g.tau[0] is g.tau[1] and g.tau[0] == {1, 2}


def test_json_text_equals_the_reference_encoding(built):
    one, two = tb.from_text("1 2/3"), tb.from_text("1 3/2")
    wide = tb.from_text("1 2 5 6 9 10/3 4 7 8 11/12")  # entries of two digits
    graphs = [
        wg.SColoredGraph(1, [], {}),  # no vertices
        wg.SColoredGraph(4, [{1, 3}, set(), {2}], {}),  # no weights, unlabelled
        wg.SColoredGraph(3, [set(), {1, 2}], {(1, 0): -3, (0, 1): 12}),  # empty colour
        wg.SColoredGraph(3, [{2}, {1}, set()], {(0, 1): 1, (2, 0): -1}, [(0, one), None, (7, two)]),
        wg.SColoredGraph(12, [set(range(1, 12))], {}, [(10, wide)]),
        helpers.kl_regular_graph(3),
        built((3, 2)),
    ]
    for g in graphs:
        expected = json.dumps(helpers.to_json_obj(g), indent=2) + "\n"
        assert wg.to_json_str(g) == expected
        assert wg.to_json_str(wg.from_json_str(expected)) == expected


def test_json_shape_of_output(built):
    obj = helpers.to_json_obj(built((2, 1)))
    assert list(obj.keys()) == ["n", "vertices", "mu"]
    assert [v["id"] for v in obj["vertices"]] == [0, 1]
    assert all(list(e.keys()) == ["from", "to", "w"] for e in obj["mu"])
    edges = [(e["from"], e["to"]) for e in obj["mu"]]
    assert edges == sorted(edges)
    assert json.loads(wg.to_json_str(built((2, 1)))) == obj


def test_dot_export_mentions_all_vertices(built):
    g = built((2, 2))
    dot = wg.to_dot(g)
    for v in g.vertices():
        assert f"v{v} " in dot
    assert "dir=none" in dot
