"""Brute-force reference implementations used only as test oracles.

Everything here is deliberately naive and independent of the library code
paths it checks: orders come from transitive closures, path sums from
explicit path enumeration, tableau counts from enumeration of fillings.
kl_regular_graph is the exception: it is the library's KL oracle run on all
of S_n, which only tests need.
"""

import re
from bisect import bisect_left, insort
from collections import Counter
from functools import cache
from heapq import merge
from itertools import permutations

from hypothesis import strategies as st

from wcell import builder, hecke, knuth, rsk
from wcell import tableaux as tb
from wcell import wgraph as wg
from wcell.knuth import _between_boxes, _graft, _prefix_with_top, restriction_number
from wcell.laurent import LaurentPolynomial, ONE, Q, QINV
from wcell.permutations import Permutation, apply_s_images, inversions, left_descents_images
from wcell.tableaux import StandardTableau


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def apply_s(i: int, w: Permutation) -> Permutation:
    """The product s_i * w: swap the values i and i+1 in the image sequence."""
    if not 1 <= i <= w.n - 1:
        raise IndexError(f"generator index {i} out of range for n={w.n}")
    return Permutation(apply_s_images(i, w.images))


def length(w: Permutation) -> int:
    """Coxeter length = number of inversions."""
    return inversions(w.images)


def left_descents(w: Permutation) -> frozenset[int]:
    """Indices i with l(s_i w) < l(w): the value i appears after i+1."""
    return left_descents_images(w.images)


def longest_element(n: int) -> Permutation:
    return Permutation(range(n, 0, -1))


def all_permutations(n: int):
    """All of S_n, in one-line lexicographic order."""
    for images in permutations(range(1, n + 1)):
        yield Permutation(images)


def right_descents(w: Permutation) -> frozenset[int]:
    """Indices i with l(w s_i) < l(w): a one-line descent w(i) > w(i+1)."""
    img = w.images
    return frozenset(i for i in range(1, w.n) if img[i - 1] > img[i])


def bruhat_leq(x: Permutation, y: Permutation) -> bool:
    """Bruhat order via the sorted-prefix (Ehresmann) criterion.

    x <= y iff for every k, the sorted initial segments satisfy
    sorted(x1..xk)[i] <= sorted(y1..yk)[i] componentwise.
    """
    if x.n != y.n:
        raise ValueError("size mismatch")
    if x == y:
        return True
    xi, yi = x.images, y.images
    xs: list[int] = []
    ys: list[int] = []
    for k in range(x.n - 1):
        insort(xs, xi[k])
        insort(ys, yi[k])
        for a, b in zip(xs, ys):
            if a > b:
                return False
    return True


def brute_partitions(n):
    """Weakly decreasing positive tuples summing to n, by filtering."""
    if n == 0:
        return [()]
    out = set()

    def rec(rest, prefix):
        if rest == 0:
            out.add(prefix)
            return
        for p in range(1, rest + 1):
            if not prefix or p <= prefix[-1]:
                rec(rest - p, prefix + (p,))

    rec(n, ())
    return sorted(out, reverse=True)


def compositions(n, max_parts):
    """Positive-part compositions of n with at most max_parts parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        if max_parts >= 1:
            for rest in compositions(n - first, max_parts - 1):
                yield (first,) + rest


def lex_geq_composition(lam, mu):
    """lam leads mu: equal, or the first differing part of lam is smaller."""
    if lam == mu:
        return True
    k = 0
    while k < max(len(lam), len(mu)):
        a = lam[k] if k < len(lam) else 0
        b = mu[k] if k < len(mu) else 0
        if a != b:
            return a < b
        k += 1
    return True


def bruhat_closure(n):
    """All Bruhat relations of S_n from the transposition generation.

    Returns a set of image-tuples pairs (x, y) with x <= y.
    """
    elems = list(all_permutations(n))
    lengths = {w: length(w) for w in elems}
    edges = {w: [] for w in elems}
    for w in elems:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                img = list(w.images)
                # y = t_{ij} w : swap the values i and j
                for k, v in enumerate(img):
                    if v == i:
                        img[k] = j
                    elif v == j:
                        img[k] = i
                y = Permutation(img)
                if lengths[y] > lengths[w]:
                    edges[w].append(y)
    relation = set()
    for w in elems:
        seen = {w}
        frontier = [w]
        while frontier:
            x = frontier.pop()
            for y in edges[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        for y in seen:
            relation.add((w.images, y.images))
    return relation


def dual_knuth_classes_on_group(n):
    """Equivalence classes of the two descent-pattern relations on S_n."""
    elems = list(all_permutations(n))
    adj = {w: set() for w in elems}
    for x in elems:
        lx = left_descents(x)
        for k in range(1, n - 1):
            # first kind: x ~ s_{k+1} x
            y = apply_s(k + 1, x)
            if lx & {k, k + 1} == {k} and left_descents(y) & {k, k + 1} == {k + 1}:
                adj[x].add(y)
                adj[y].add(x)
            # second kind: x ~ s_k x
            z = apply_s(k, x)
            if lx & {k, k + 1} == {k + 1} and left_descents(z) & {k, k + 1} == {k}:
                adj[x].add(z)
                adj[z].add(x)
    classes = []
    seen = set()
    for w in elems:
        if w in seen:
            continue
        block = set()
        frontier = [w]
        while frontier:
            x = frontier.pop()
            if x in block:
                continue
            block.add(x)
            frontier.extend(adj[x] - block)
        seen |= block
        classes.append(frozenset(block))
    return classes


def alternating_sum_slow(g, r, i, j, u, v):
    """N^r by dumb enumeration of interior vertex tuples, checking arcs."""

    def arc(a, b):
        # arc from a to b
        return g.weight(b, a) != 0 and not g.tau[b] <= g.tau[a]

    def pat_i(z):
        return i in g.tau[z] and j not in g.tau[z]

    def pat_j(z):
        return j in g.tau[z] and i not in g.tau[z]

    total = 0
    verts = list(g.vertices())
    if r == 2:
        for z in verts:
            if pat_i(z) and arc(u, z) and arc(z, v):
                total += g.weight(z, u) * g.weight(v, z)
    elif r == 3:
        for z1 in verts:
            if not (pat_i(z1) and arc(u, z1)):
                continue
            for z2 in verts:
                if pat_j(z2) and arc(z1, z2) and arc(z2, v):
                    total += g.weight(z1, u) * g.weight(z2, z1) * g.weight(v, z2)
    else:
        raise ValueError(r)
    return total


def columns(g: wg.SColoredGraph) -> list[dict[int, int]]:
    """cols[v] maps each u with mu(u, v) != 0 to that weight, in the order of g.mu."""
    cols: list[dict[int, int]] = [{} for _ in g.vertices()]
    for (u, v), w in g.mu.items():
        cols[v][u] = w
    return cols


def alternating_sums(g: wg.SColoredGraph, r: int, i: int, j: int) -> Counter:
    """N^r sums for colour pattern (i, j), keyed (u, v); missing keys read 0.

    Entry (u, v) sums the weight products over directed paths from u to v
    whose r-1 interior vertices alternate between containing i but not j
    and containing j but not i.  Every nonzero weight counts as a step,
    whether or not it is an arc.  Only entries with i, j outside tau(u) and
    inside tau(v) are meaningful to the polygon rule.

    The sums walk the weight columns from each u, so with W nonzero weights
    and at most d in a column the cost is O(W d) for r = 2 and O(W d^2) for
    r = 3, in exact integers.
    """
    if r not in (2, 3):
        raise ValueError("only r = 2 and r = 3 occur in type A")
    pat_i = [i in s and j not in s for s in g.tau]
    pat_j = [j in s and i not in s for s in g.tau]
    cols = columns(g)
    sums: Counter = Counter()
    for u in g.vertices():
        # weight products of the alternating paths from u to each last interior vertex
        ends = {x: w for x, w in cols[u].items() if pat_i[x]}
        if r == 3:
            step: Counter = Counter()
            for x, w in ends.items():
                for y, w2 in cols[x].items():
                    if pat_j[y]:
                        step[y] += w * w2
            ends = step
        for x, w in ends.items():
            for v, w2 in cols[x].items():
                sums[u, v] += w * w2
    return sums


def check_polygon(g: wg.SColoredGraph, r: int) -> wg.CheckReport:
    """The polygon rule over whole alternating_sums tables, two per pair."""
    gens = sorted(set().union(*(g.tau[u] for u, _ in g.mu)))
    for i in gens:
        for j in gens:
            if j <= i or (r == 3 and j - i != 1):
                continue
            n_ij = alternating_sums(g, r, i, j)
            n_ji = alternating_sums(g, r, j, i)
            both = {i, j}
            diff = [
                (u, v)
                for (u, v) in n_ij.keys() | n_ji.keys()
                if n_ij[u, v] != n_ji[u, v]
                and not both & g.tau[u]
                and both <= g.tau[v]
            ]
            if diff:
                u, v = min(diff)
                witness = (u, v, i, j, r, n_ij[u, v], n_ji[u, v])
                return wg.CheckReport(f"polygon-r{r}", False, (witness,))
    return wg.CheckReport(f"polygon-r{r}", True)


def corruptions(g, rng, count):
    """count seeded single corruptions of g, cycling through five kinds."""
    nv = g.num_vertices
    keys = sorted(g.mu)
    empty = [(u, v) for u in range(nv) for v in range(nv) if u != v and (u, v) not in g.mu]
    out = []
    for k in range(count):
        tau, mu = list(g.tau), dict(g.mu)
        kind = k % 5
        if kind == 0 and keys:  # weight +-1
            key = rng.choice(keys)
            mu[key] += rng.choice((-1, 1))
        elif kind == 1 and keys:  # deleted weight
            del mu[rng.choice(keys)]
        elif kind == 2 and empty:  # new weight
            mu[rng.choice(empty)] = rng.choice((-1, 1, 2))
        elif kind == 3 and (keys or empty):  # huge weight
            mu[rng.choice(keys or empty)] = 2**70
        elif g.n > 1:  # changed colour set
            v = rng.randrange(nv)
            colours = [s for s in range(1, g.n) if rng.random() < 0.5]
            while frozenset(colours) == tau[v]:
                colours = [s for s in range(1, g.n) if rng.random() < 0.5]
            tau[v] = colours
        else:
            continue
        out.append(wg.SColoredGraph(g.n, tau, mu, g.labels))
    return out


def moved(g: wg.SColoredGraph, scale: int, shift: int) -> wg.SColoredGraph:
    """g with each generator i moved to scale i + shift, on scale n + shift."""
    tau = [{scale * i + shift for i in s} for s in g.tau]
    return wg.SColoredGraph(scale * g.n + shift, tau, g.mu, g.labels)


# (scale, shift) of moves to generators where a frozenset need not iterate
# in ascending order, as list(frozenset({1, 8})) == [8, 1]: times 8, across
# 64, and across 65528 near MAX_COLOUR
MOVES = ((8, 0), (1, 60), (1, wg.MAX_COLOUR - 10))


def moved_family(built, rng):
    """Every built cell with 2 <= n <= 6 and 4 seeded corruptions of each,
    each under every move of MOVES."""
    graphs = []
    for n in range(2, 7):
        for lam in tb.partitions_of(n):
            g = built(lam)
            graphs += [moved(h, *move) for h in [g] + corruptions(g, rng, 4) for move in MOVES]
    return graphs


@st.composite
def coloured_graphs(draw):
    """Any S-coloured graph with n <= 6 and at most 6 vertices: weights in
    [-3, 3], asymmetric, and into smaller colours too."""
    n = draw(st.integers(1, 6))
    colours = st.frozensets(st.integers(1, n - 1)) if n > 1 else st.just(frozenset())
    tau = draw(st.lists(colours, min_size=1, max_size=6))
    pairs = [(u, v) for u in range(len(tau)) for v in range(len(tau)) if u != v]
    mu = draw(st.dictionaries(st.sampled_from(pairs), st.integers(-3, 3))) if pairs else {}
    return wg.SColoredGraph(n, tau, mu)


def skew_reading_word(t):
    """Reading word of a skew tableau shifted to target [1, n]."""
    cols = {}
    for e in t.entries():
        cols.setdefault(t.col_of(e), []).append(e)
    images = []
    for j in sorted(cols):
        images.extend(sorted(cols[j], reverse=True))
    return Permutation(v - t.offset for v in images)


def act(w, t):
    """Apply the permutation w to the entries of a normal tableau."""
    word = [None] * t.size
    for e in t.entries():
        word[w(e) - 1] = t.col_of(e)
    return tb.StandardTableau(t.shape, word, 0)


def all_skew_shapes(max_outer):
    """All skew shapes with outer size at most max_outer, inner included."""
    shapes = []
    for n in range(0, max_outer + 1):
        for outer in tb.partitions_of(n):
            inners = {()}
            for m in range(1, n):
                for inner in tb.partitions_of(m):
                    if len(inner) <= len(outer) and all(
                        inner[k] <= outer[k] for k in range(len(inner))
                    ):
                        inners.add(inner)
            for inner in inners:
                if sum(outer) - sum(inner) >= 1:
                    shapes.append(tb.SkewShape(outer, inner))
    return shapes


def coefficients(p: int) -> tuple:
    """The coefficients of a KL polynomial packed as in hecke._Columns,
    constant term first, without trailing zeros.  Each field must be
    nonnegative: p >= 0 with no field's top bit set."""
    assert p >= 0
    out = []
    while p:
        c = p & hecke._FIELD
        assert not c >> hecke._W - 1, "a field's top bit is set"
        out.append(c)
        p >>= hecke._W
    return tuple(out)


def _shift_add(acc: dict, h: dict, k: int, scale: int = 1) -> None:
    for e, c in h.items():
        e2 = e + k
        s = acc.get(e2, 0) + scale * c
        if s:
            acc[e2] = s
        else:
            del acc[e2]


def kl_table_slow(n: int):
    """Independent construction by inverting the bar involution directly.

    Expands bar(H_w) over the standard basis, then solves the triangular
    bar-invariance equations for coefficients in q^-1 Z[q^-1].  Returns
    (h, mu_pairs) keyed by permutations: h[w][y] is h_{y,w}, the
    coefficient of H_y in C_w, as an exponent -> coefficient dict for each
    y below w in the Bruhat order, and mu_pairs[(y, w)] is each nonzero
    mu(y, w) with y != w.  Exponential and meant only to cross-check
    kl_table at very small n.
    """
    elements = sorted(all_permutations(n), key=length)
    lengths = {w: length(w) for w in elements}
    # r[w][y]: expansion of bar(H_w)
    r: dict[Permutation, dict[Permutation, dict[int, int]]] = {}
    for w in elements:
        if lengths[w] == 0:
            r[w] = {w: {0: 1}}
            continue
        s = min(left_descents(w))
        v = apply_s(s, w)
        acc: dict[Permutation, dict[int, int]] = {}
        # bar(H_w) = (H_s - (q - q^-1)) bar(H_v); the H_y terms cancel when sy < y
        for y, ry in r[v].items():
            sy = apply_s(s, y)
            dst = acc.setdefault(sy, {})
            _shift_add(dst, ry, 0)
            if not dst:
                del acc[sy]
            if lengths[sy] > lengths[y]:
                dst = acc.setdefault(y, {})
                _shift_add(dst, ry, 1, -1)
                _shift_add(dst, ry, -1, 1)
                if not dst:
                    del acc[y]
        r[w] = acc
    bruhat_lists = {w: sorted(r[w], key=lengths.get, reverse=True) for w in elements}
    h: dict[Permutation, dict[Permutation, dict[int, int]]] = {}
    mu_pairs: dict[tuple[Permutation, Permutation], int] = {}
    for w in elements:
        hw: dict[Permutation, dict[int, int]] = {w: {0: 1}}
        for y in bruhat_lists[w]:
            if y == w:
                continue
            # f = sum over y < z <= w of r[z][y] * bar(h[z][w])
            f: dict[int, int] = {}
            for z, hz in hw.items():
                rz = r[z].get(y)
                if rz is None:
                    continue
                for e1, c1 in rz.items():
                    for e2, c2 in hz.items():
                        e = e1 - e2
                        s2 = f.get(e, 0) + c1 * c2
                        if s2:
                            f[e] = s2
                        else:
                            del f[e]
            # h - bar(h) = f with h supported in negative exponents
            hy = {e: c for e, c in f.items() if e < 0}
            if any(f.get(-e, 0) != -c for e, c in hy.items()) or f.get(0, 0):
                raise AssertionError("bar-invariance system is inconsistent")
            if hy:
                hw[y] = hy
        h[w] = hw
        for y, hy in hw.items():
            m = hy.get(-1, 0)
            if m and y != w:
                mu_pairs[(y, w)] = m
    return h, mu_pairs


def kl_regular_graph(n: int) -> wg.SColoredGraph:
    """The full left W-graph of S_n, labelled by Robinson-Schensted pairs.

    Vertices follow the one-line order; a vertex label is (recording-class
    index, insertion tableau).
    """
    elements = list(all_permutations(n))
    pairs = [rsk.rs(w) for w in elements]
    q_index: dict = {}
    for _p, qtab in pairs:
        q_index.setdefault(qtab, len(q_index))
    labels = tuple((q_index[qtab], p) for p, qtab in pairs)
    return hecke._oracle_graph([w.images for w in elements], labels, hecke.kl_table(n), False)


# ---------------------------------------------------------------------------
# Hecke relations over Z[q, q^-1]: the symbolic reference for the exact
# integer evaluation in hecke.verify_hecke_relations.  The names match the
# library's so a test can swap this module in for wcell.hecke.


def module_matrices(g: wg.SColoredGraph):
    """One sparse matrix per generator, columns over LaurentPolynomial.

    The column of v holds -q^-1 v when s colours v, and otherwise
    q v plus mu(u, v) u for every u coloured by s.
    """
    mats = []
    minus_qinv = -QINV
    cols_of = columns(g)
    for s in range(1, g.n):
        cols = []
        for v in g.vertices():
            if s in g.tau[v]:
                col = {v: minus_qinv}
            else:
                col = {v: Q}
                for u, w in cols_of[v].items():
                    if s in g.tau[u]:
                        col[u] = col.get(u, LaurentPolynomial(0)) + w
            cols.append(col)
        mats.append(cols)
    return mats


def _apply(mat, col):
    """Matrix times a sparse column vector."""
    out: dict[int, LaurentPolynomial] = {}
    for u, coeff in col.items():
        for x, entry in mat[u].items():
            acc = out.get(x)
            acc = entry * coeff if acc is None else acc + entry * coeff
            if acc.is_zero():
                out.pop(x, None)
            else:
                out[x] = acc
    return out


def _compose(mat_a, mat_b):
    """Columns of A applied to each column of B."""
    return [_apply(mat_a, col) for col in mat_b]


def _mats_equal(mat_a, mat_b):
    for v, (ca, cb) in enumerate(zip(mat_a, mat_b)):
        keys = set(ca) | set(cb)
        for u in keys:
            pa = ca.get(u, LaurentPolynomial(0))
            pb = cb.get(u, LaurentPolynomial(0))
            if pa != pb:
                return (u, v, pa, pb)
    return None


def verify_hecke_relations(g: wg.SColoredGraph) -> wg.CheckReport:
    """Quadratic, commuting and braid identities for the generator matrices."""
    mats = module_matrices(g)
    bad = []
    gap = Q - QINV
    for s, mat in enumerate(mats, start=1):
        square = _compose(mat, mat)
        expect = []
        for v in g.vertices():
            col = {u: p * gap for u, p in mat[v].items()}
            col[v] = col.get(v, LaurentPolynomial(0)) + ONE
            expect.append({u: p for u, p in col.items() if not p.is_zero()})
        witness = _mats_equal(square, expect)
        if witness:
            bad.append(("quadratic", s, *witness))
    for s in range(1, g.n - 1):
        for t in range(s + 1, g.n):
            a, b = mats[s - 1], mats[t - 1]
            if t - s >= 2:
                witness = _mats_equal(_compose(a, b), _compose(b, a))
                if witness:
                    bad.append(("commuting", s, t, *witness))
            else:
                aba = _compose(a, _compose(b, a))
                bab = _compose(b, _compose(a, b))
                witness = _mats_equal(aba, bab)
                if witness:
                    bad.append(("braid", s, t, *witness))
    return wg.CheckReport("hecke-relations", not bad, tuple(bad[:10]))


# ---------------------------------------------------------------------------
# Hecke relations on whole integer product matrices, evaluated at one
# integer q large enough to be exact: the reference for
# hecke.verify_hecke_relations, which checks the same relations in Z[q]
# one column at a time.


def integer_module_matrices(g: wg.SColoredGraph, q: int, gens):
    """One sparse integer matrix A_s = q T_s per generator s in gens, evaluated at q.

    The column of v holds -v when s colours v, and otherwise
    q^2 v plus q mu(u, v) u for every u coloured by s.
    """
    mats = []
    cols_of = columns(g)
    for s in gens:
        cols = []
        for v in g.vertices():
            if s in g.tau[v]:
                cols.append({v: -1})
            else:
                col = {u: q * w for u, w in cols_of[v].items() if s in g.tau[u]}
                col[v] = q * q
                cols.append(col)
        mats.append(cols)
    return mats


def compose_integer(mat_a, mat_b):
    """Columns of A applied to each column of B."""
    out = []
    for col in mat_b:
        acc: dict[int, int] = {}
        for u, c in col.items():
            for x, e in mat_a[u].items():
                acc[x] = acc.get(x, 0) + e * c
        out.append(acc)
    return out


def first_difference(mat_a, mat_b):
    """(u, v) for the first column v where A and B differ and its smallest row u."""
    for v, (ca, cb) in enumerate(zip(mat_a, mat_b)):
        if ca != cb:
            rows = [u for u in ca.keys() | cb.keys() if ca.get(u, 0) != cb.get(u, 0)]
            if rows:
                return (min(rows), v)
    return None


def exact_q(g: wg.SColoredGraph, gens) -> int:
    """q = 2 L^3 + 1, with L the largest column norm (sum of the absolute
    coefficients) of A_s over s in gens.  The norm is submultiplicative, so
    each entry of a relation's LHS - RHS has coefficient sum at most 2 L^3,
    and a nonzero integer polynomial with coefficient sum at most B cannot
    vanish at an integer q > B: evaluating at this q is an exact test."""
    cols = columns(g)
    norm = max(
        (1 + sum(abs(w) for u, w in cols[v].items() if s in g.tau[u])
         for s in gens for v in g.vertices() if s not in g.tau[v]),
        default=1,
    )
    return 2 * norm**3 + 1


def verify_hecke_relations_composed(g: wg.SColoredGraph) -> wg.CheckReport:
    """Commuting and braid identities on A_s = q T_s at exact_q, each pair
    compared on whole product matrices: the same pairs in the same order and
    the same stop at ten witnesses as hecke.verify_hecke_relations."""
    support = {s: [v for v in g.vertices() if s in g.tau[v]] for s in set().union(*g.tau)}
    gens = sorted({t for s in support for t in (s - 1, s, s + 1) if 1 <= t <= g.n - 1})
    mats = dict(zip(gens, integer_module_matrices(g, exact_q(g, gens), gens)))
    bad = []
    braids = sorted({(t, t + 1) for s in support for t in (s - 1, s) if 1 <= t <= g.n - 2})
    reach = set().union(*(g.tau[u] - g.tau[x] for u, x in g.mu))
    coloured = sorted(support)

    def commuting():
        for k, s in enumerate(coloured):
            for t in coloured[bisect_left(coloured, s + 2, k):]:
                if (s in reach or t in reach) and support[s] != support[t]:
                    yield s, t

    for s, t in merge(braids, commuting()):
        a, b = mats[s], mats[t]
        if t - s >= 2:
            kind, lhs, rhs = "commuting", compose_integer(a, b), compose_integer(b, a)
        else:
            kind = "braid"
            lhs = compose_integer(a, compose_integer(b, a))
            rhs = compose_integer(b, compose_integer(a, b))
        witness = first_difference(lhs, rhs)
        if witness:
            bad.append((kind, s, t, *witness))
            if len(bad) == 10:
                break
    return wg.CheckReport("hecke-relations", not bad, tuple(bad))


# ---------------------------------------------------------------------------
# The canonical favourable pair built from tableau objects: the reference
# for knuth.favourable_rep, which grafts a prefix computed on column words.


def favourable_rep(u: StandardTableau, t: StandardTableau):
    """The canonical member of favourable_set(u, t).

    Deterministic choice: take the between-box of smallest column, fill the
    rest of the prefix shape minimally, and place k on the chosen box.
    """
    if u == t:
        raise ValueError("favourable_rep needs a pair of distinct tableaux")
    k = restriction_number(u, t)
    w = tb.restrict_leq(u, u.offset + k)
    xi = w.shape.outer
    bu = u.box_of(u.offset + k + 1)
    bt = t.box_of(t.offset + k + 1)
    boxes = _between_boxes(xi, bu, bt)
    if not boxes:
        raise ValueError("no removable box between the two addable boxes")
    box = min(boxes, key=lambda b: b[1])
    wp = _prefix_with_top(xi, box, tb.tau_min)
    return _graft(wp, u, k), _graft(wp, t, k)


# ---------------------------------------------------------------------------
# Extended dominance from prefix-count matrices: the reference for
# tableaux.dominance_keys, which packs the prefix counts of each column word
# into one integer.


def dominance_prefix(t: StandardTableau):
    """Row m, column k holds #{first m entries in columns <= k}."""
    width = len(t.shape.outer)
    rows = []
    acc = [0] * (width + 1)
    for c in t.column_word:
        for k in range(c, width + 1):
            acc[k] += 1
        rows.append(tuple(acc[1:]))
    return tuple(rows)


def _prefix_leq(pu, pt, width_u: int, width_t: int) -> bool:
    # u <= t  iff  t's prefix counts never exceed u's (column convention).
    width = max(width_u, width_t)
    for m in range(len(pu)):
        row_u, row_t = pu[m], pt[m]
        for k in range(width):
            cu = row_u[k] if k < width_u else m + 1
            ct = row_t[k] if k < width_t else m + 1
            if ct > cu:
                return False
    return True


def extended_dominance_leq(u: StandardTableau, t: StandardTableau) -> bool:
    """u <= t in the extended dominance order, from the prefix matrices."""
    return _prefix_leq(
        dominance_prefix(u), dominance_prefix(t), len(u.shape.outer), len(t.shape.outer)
    )


# ---------------------------------------------------------------------------
# Molecule typing and the ordered rule on tableau objects: the references
# for wgraph.molecule_types, which matches the dual Knuth edges of
# builder.cell_index, and for wgraph.check_ordered, which decides dominance
# and covers on column words.


def dk_neighbours(t: StandardTableau):
    """Tableaux joined to t by a dual Knuth move in either direction."""
    seen = []
    for mv in knuth.dk_moves_from(t):
        other = mv.target if mv.source == t else mv.source
        if other not in seen:
            seen.append(other)
    return seen


# ---------------------------------------------------------------------------
# The derived views on frozenset colours: the references for
# SColoredGraph.arcs, simple_edges and wg.cells, which read the colour bit
# masks g.masks.


def arcs(g: wg.SColoredGraph):
    """Triples (v, u, weight): arc from v to u with weight mu(u, v)."""
    out = []
    for (u, v), w in sorted(g.mu.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if not g.tau[u] <= g.tau[v]:
            out.append((v, u, w))
    return out


def simple_edges(g: wg.SColoredGraph):
    """Unordered pairs joined by opposite arcs of weight 1."""
    out = []
    for (u, v), w in g.mu.items():
        if u < v and w == 1 and g.weight(v, u) == 1:
            if not g.tau[u] <= g.tau[v] and not g.tau[v] <= g.tau[u]:
                out.append((u, v))
    return sorted(out)


def out_neighbours(g: wg.SColoredGraph, v: int):
    return [u for u in columns(g)[v] if not g.tau[u] <= g.tau[v]]


def cells(g: wg.SColoredGraph):
    """(blocks, reach): reach[v] is the set of vertices reachable from v
    along arcs, v included, and the blocks are the mutual-reachability
    classes, as a set of frozensets."""
    succ = [out_neighbours(g, v) for v in g.vertices()]
    reach = []
    for v in g.vertices():
        seen, frontier = {v}, [v]
        while frontier:
            for u in succ[frontier.pop()]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        reach.append(seen)
    blocks = {frozenset(u for u in reach[v] if v in reach[u]) for v in g.vertices()}
    return blocks, reach


def simple_parts(g: wg.SColoredGraph):
    """Connected components of the simple edges, by union-find."""
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in simple_edges(g):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in g.vertices():
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(s) for s in groups.values()), key=min)


def try_type(g: wg.SColoredGraph, part, lam):
    """Map STD(lam) onto the part, walking dual Knuth moves of tableau objects."""
    tabs = tb.enumerate_std(lam)
    if len(tabs) != len(part):
        return None
    adj = {v: [] for v in part}
    for u, v in simple_edges(g):
        if u in part and v in part:
            adj[u].append(v)
            adj[v].append(u)
    d_min = tabs[0].descents
    tmin = min(tabs, key=tb.lex_key)
    for seed in [v for v in part if g.tau[v] == d_min]:
        mapping = {tmin: seed}
        frontier = [tmin]
        ok = True
        while frontier and ok:
            t = frontier.pop()
            for nb in dk_neighbours(t):
                candidates = [x for x in adj[mapping[t]] if g.tau[x] == nb.descents]
                if len(candidates) != 1:
                    ok = False
                    break
                if nb in mapping:
                    if mapping[nb] != candidates[0]:
                        ok = False
                        break
                else:
                    mapping[nb] = candidates[0]
                    frontier.append(nb)
        if not ok or len(mapping) != len(part):
            continue
        if len(set(mapping.values())) != len(part):
            continue
        # edges must correspond exactly both ways
        edge_count = sum(len(a) for a in adj.values()) // 2
        dk_edges = set()
        for t in mapping:
            for nb in dk_neighbours(t):
                dk_edges.add(frozenset((mapping[t], mapping[nb])))
        if len(dk_edges) == edge_count:
            return mapping
    return None


def molecule_types(g: wg.SColoredGraph):
    """(parts, types) as wgraph.molecule_types, typing through try_type."""
    parts = simple_parts(g)
    types = []
    for part in parts:
        tried = []
        for lam in tb.partitions_of(g.n):
            if tb.hook_count(lam) != len(part):
                continue
            tried.append(lam)
            if try_type(g, part, lam) is not None:
                types.append(lam)
                break
        else:
            raise wg.MoleculeTypingError(part, tried)
    return parts, types


def is_cover(u: StandardTableau, t: StandardTableau):
    """i such that u = s_i t > t, if any, from the boxes of the entries."""
    if u.shape != t.shape or u.offset != t.offset or u == t:
        return None
    diff = [e for e in t.entries() if t.box_of(e) != u.box_of(e)]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return None
    i = diff[0]
    return i if i in t.descent_data().sa else None


def check_ordered(g: wg.SColoredGraph) -> wg.CheckReport:
    """The ordered rule as wgraph.check_ordered, from prefix matrices and is_cover."""
    if not g.is_labelled():
        raise ValueError("check_ordered requires labelled vertices")
    bad = []
    for (cu, cv), w in sorted(g.mu.items()):
        beta, u = g.labels[cu]
        alpha, t = g.labels[cv]
        if extended_dominance_leq(u, t) and u != t:
            continue
        if alpha == beta and is_cover(u, t) is not None:
            continue
        bad.append((cu, cv, w))
        if len(bad) >= 20:
            break
    return wg.CheckReport("ordered", not bad, tuple(bad))


def to_json_obj(g: wg.SColoredGraph) -> dict:
    """The graph document as a JSON value: json.dumps(to_json_obj(g), indent=2)
    plus a newline is the text wgraph.to_json_str must write."""
    vertices = []
    for v in g.vertices():
        label = None
        if g.labels is not None and g.labels[v] is not None:
            molecule, t = g.labels[v]
            label = {"molecule": molecule, "tableau": t.text()}
        vertices.append({"id": v, "tau": sorted(g.tau[v]), "label": label})
    mu = [
        {"from": u, "to": v, "w": w}
        for (u, v), w in sorted(g.mu.items())
    ]
    return {"n": g.n, "vertices": vertices, "mu": mu}


# ---------------------------------------------------------------------------
# The row-based tableau text codec: the references for StandardTableau.text,
# tableaux.from_text and tableaux.from_rows, which work on one row layout per
# shape or per tuple of row lengths.


def text(t: StandardTableau) -> str:
    """The rows of t joined by "/", the entries of each row by single spaces."""
    return "/".join(" ".join(map(str, row)) for row in t.to_rows())


def from_rows(rows) -> StandardTableau:
    """The normal-shape tableau of these internal rows, checked position by
    position in row-major order: the entry must be new and inside the
    interval from the least entry, then larger than its left and its upper
    neighbour."""
    rows = [list(r) for r in rows]
    lengths = tuple(map(len, rows))
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ValueError("row lengths must weakly decrease")
    size = sum(lengths)
    offset = min(min(r) for r in rows if r) - 1 if size else 0
    word = [0] * size
    for i, row in enumerate(rows, start=1):
        for j, e in enumerate(row, start=1):
            k = e - offset - 1
            if not 0 <= k < size or word[k]:
                raise ValueError("entries must form a contiguous interval")
            word[k] = j
            if j > 1 and e < row[j - 2]:
                raise ValueError("entries must increase along rows")
            if i > 1 and e < rows[i - 2][j - 1]:
                raise ValueError("entries must increase down columns")
    width = lengths[0] if lengths else 0
    shape = tb.SkewShape(tuple(sum(1 for L in lengths if L >= j) for j in range(1, width + 1)))
    return StandardTableau(shape, word, offset)


_ENTRY = "[1-9][0-9]*"
_ROW = f"{_ENTRY}(?: {_ENTRY})*"
_TEXT = re.compile(f"(?:{_ROW}(?:/{_ROW})*)?")


def from_text(s: str) -> StandardTableau:
    """Parse what text writes for a normal shape, by rows of entries."""
    if _TEXT.fullmatch(s) is None:
        raise ValueError(f"malformed tableau text {s!r}")
    return from_rows([[int(x) for x in row.split(" ")] for row in s.split("/")] if s else [])


def entry_faults(rows) -> list[str]:
    """The messages of every fault of the entries of these rows, of weakly
    decreasing lengths, in the order tableaux.from_rows checks them."""
    flat = sorted(e for row in rows for e in row)
    faults = {
        "entries must increase along rows": any(a >= b for row in rows for a, b in zip(row, row[1:])),
        "entries must increase down columns": any(
            a >= b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower)
        ),
        "entries must form a contiguous interval": flat != list(range(flat[0], flat[0] + len(flat))),
    }
    return [message for message, found in faults.items() if found]


# ---------------------------------------------------------------------------
# The probable-pair weight without memos: the reference for
# builder.mu_probable, which finds the restriction number on packed words and
# memoises the identity's terms per group (t, t0, i).


def _swap_word(word, e: int):
    """The word of s_e t: the letters of the entries e and e+1 exchanged."""
    return word[: e - 1] + (word[e], word[e - 1]) + word[e + 1 :]


def mu_probable(iu: int, it: int, cell, index, rep=None) -> int:
    """mu(iu, it) by the polygon-rule identity, everything made afresh per
    call on the column words; index maps each word of cell to its vertex."""
    words, masks, cols = cell.words, cell.masks, cell.cols
    uw, tw = words[iu], words[it]
    i = next((e for e, (a, b) in enumerate(zip(uw, tw)) if a != b), len(uw))
    prefix = knuth.favourable_prefix(uw, tw)[1]
    iu0, it0 = rep if rep is not None else (index[prefix + uw[i:]], index[prefix + tw[i:]])
    t0 = words[it0]
    j = cell.strong[it]
    if j <= i:
        raise AssertionError("restriction number must precede max strong descent")
    iv = index[_swap_word(t0, j)]
    if j - i >= 2 or t0[j - 2] < t0[j]:
        if iv >= it:
            raise AssertionError("schedule violation: column of s_j t0 not final")
        base, plus, minus, skip, neighbour = iv, i, j, it0, False
    else:
        if t0[j - 2] == t0[j]:
            raise AssertionError("entries j-1 and j+1 cannot share a column here")
        iw = index[_swap_word(words[iv], j - 1)]
        if iw >= it:
            raise AssertionError("schedule violation: column of s_{j-1} s_j t0 not final")
        base, plus, minus, skip, neighbour = iw, j, j - 1, iv, True
    both = (1 << plus) | (1 << minus)
    total = 0
    for x, w in cols[base].items():
        pattern = masks[x] & both
        if pattern == 1 << plus:
            sign = 1
        elif pattern == 1 << minus and x != skip:
            sign = -1
        else:
            continue
        if neighbour:
            x = index[_swap_word(words[x], knuth.neighbour_swap(words[x], j - 1))]
        if x >= it:
            raise AssertionError(
                f"schedule violation: lookup of column {x} while building column {it}"
            )
        total += sign * w * cols[x].get(iu0, 0)
    return total


# ---------------------------------------------------------------------------
# The admissible rule through arcs(g): the reference for
# wgraph.check_admissible, which builds its adjacency straight from g.mu.


def check_admissible(g: wg.SColoredGraph) -> wg.CheckReport:
    """Nonnegative integer weights, symmetric on incomparable colours, bipartite."""
    bad = []
    for (u, v), w in sorted(g.mu.items()):
        if len(bad) >= wg._MAX_WITNESSES:
            break
        if not isinstance(w, int) or w < 0:
            bad.append(("negative-weight", u, v, w))
            continue
        tu, tv = g.tau[u], g.tau[v]
        if not tu <= tv and not tv <= tu and g.weight(v, u) != w:
            bad.append(("asymmetric", u, v, w, g.weight(v, u)))
    adjacency: dict[int, set[int]] = {v: set() for v in g.vertices()}
    for v, u, _w in arcs(g):
        adjacency[v].add(u)
        adjacency[u].add(v)
    colour: dict[int, int] = {}
    for root in g.vertices():
        if root in colour:
            continue
        colour[root] = 0
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for u in adjacency[v]:
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    frontier.append(u)
                elif colour[u] == colour[v]:
                    bad.append(("odd-cycle", v, u))
                    frontier = []
                    break
    return wg.CheckReport("admissible", not bad, tuple(bad[:wg._MAX_WITNESSES]))


# ---------------------------------------------------------------------------
# The compatibility, simplicity and bonding rules over sorted weights and the
# sorted simple_edges(g): the references for wgraph's checkers, which scan
# g.mu in dict order on colour bit masks and sort only to write a failing
# report.


def check_compatibility(g: wg.SColoredGraph) -> wg.CheckReport:
    """Colours across a nonzero weight differ only by bonded generators (|i-j| = 1)."""
    bad = []
    for (u, v), w in sorted(g.mu.items()):
        for i in sorted(g.tau[u] - g.tau[v]):
            for j in sorted(g.tau[v] - g.tau[u]):
                if abs(i - j) != 1:
                    bad.append((u, v, i, j))
                    if len(bad) >= wg._MAX_WITNESSES:
                        return wg.CheckReport("compatibility", False, tuple(bad))
    return wg.CheckReport("compatibility", not bad, tuple(bad))


def check_simplicity(g: wg.SColoredGraph) -> wg.CheckReport:
    """Each nonzero weight is a one-way arc into a larger colour or half a simple edge."""
    bad = []
    for (u, v), w in sorted(g.mu.items()):
        tu, tv = g.tau[u], g.tau[v]
        if tv < tu:
            if g.weight(v, u) != 0:
                bad.append(("two-way-cover", u, v))
        elif not tu <= tv and not tv <= tu:
            if w != 1 or g.weight(v, u) != 1:
                bad.append(("non-simple-edge", u, v, w, g.weight(v, u)))
        else:
            bad.append(("weight-into-smaller-colour", u, v, w))
        if len(bad) >= wg._MAX_WITNESSES:
            break
    return wg.CheckReport("simplicity", not bad, tuple(bad))


def simple_adjacency(g: wg.SColoredGraph) -> list[list[int]]:
    """The simple-edge neighbours of each vertex."""
    edges_at: list[list[int]] = [[] for _ in g.vertices()]
    for u, v in simple_edges(g):
        edges_at[u].append(v)
        edges_at[v].append(u)
    return edges_at


def bonds(g: wg.SColoredGraph) -> list[int]:
    """The i <= n - 2, ascending, of the bonds (i, i + 1) with i or i + 1 in
    some colour."""
    return sorted({s for c in set().union(*g.tau) for s in (c - 1, c) if 1 <= s <= g.n - 2})


def check_bonding(g: wg.SColoredGraph) -> wg.CheckReport:
    """Simply-laced bonding: unique opposite-pattern neighbour across each
    bond of bonds(g)."""
    bad = []
    edges_at = simple_adjacency(g)
    for i in bonds(g):
        j = i + 1
        for v in g.vertices():
            has_i = i in g.tau[v]
            has_j = j in g.tau[v]
            if has_i == has_j:
                continue
            want_i, want_j = (not has_i), (not has_j)
            count = sum(
                1
                for u in edges_at[v]
                if (i in g.tau[u]) == want_i and (j in g.tau[u]) == want_j
            )
            if count != 1:
                bad.append((v, i, j, count))
                if len(bad) >= wg._MAX_WITNESSES:
                    return wg.CheckReport("bonding", False, tuple(bad))
    return wg.CheckReport("bonding", not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Transpose duality: the cell of the conjugate shape is the cell of lam
# tensored with the sign representation.  Each colour is complemented, each
# weight mu(u, v) is read as mu(v, u), and each tableau is transposed.


def transpose(t: StandardTableau) -> StandardTableau:
    """The transposed tableau: the column of each entry is its old row."""
    shape = tb.SkewShape(tb.conjugate(t.shape.outer), tb.conjugate(t.shape.inner))
    return StandardTableau(shape, (r for r, c in t.boxes), t.offset)


def twist(g: wg.SColoredGraph) -> wg.SColoredGraph:
    """g tensored with the sign: colours complemented within {1..n-1}, each
    mu(u, v) stored as mu(v, u), and the label tableaux transposed."""
    full = frozenset(range(1, g.n))
    mu = {(v, u): w for (u, v), w in g.mu.items()}
    labels = [(m, transpose(t)) for m, t in g.labels]
    return wg.SColoredGraph(g.n, [full - s for s in g.tau], mu, labels)


def duality_failures(n: int) -> list:
    """The partitions lam of n on which build_cell_graph(conjugate(lam)) is
    not twist(build_cell_graph(lam)) under t -> transpose(t).

    Both sides of the duality are involutions, so it holds for lam exactly
    when it holds for its conjugate: each conjugate pair is compared once,
    from the lex-larger shape, and each shape is built once.
    """
    failures = []
    for lam in tb.partitions_of(n):
        dual = tb.conjugate(lam)
        if dual > lam:
            continue
        h = builder.build_cell_graph(lam)
        g = twist(h)
        if dual != lam:
            h = builder.build_cell_graph(dual)
        where = {label: v for v, label in enumerate(h.labels)}
        image = [where.get(label) for label in g.labels]  # labels are distinct tableaux
        if None in image or not hecke.graphs_equal_under(g, h, image):
            failures += [lam] if dual == lam else [lam, dual]
    return failures


# ---------------------------------------------------------------------------
# Young-subgroup restriction: restricted to S_k x S_{n-k}, the cell of lam
# splits into cells of product graphs.  A weight of the product joins two
# pairs that agree in one factor and carries that factor's weight.


def _descent_mask(t: StandardTableau) -> int:
    return sum(1 << i for i in t.descents)


def _restriction_fault(g: wg.SColoredGraph, k: int, factor):
    """None if the restriction of g to J = {1..n-1} - {k} satisfies the
    identity of restriction_failures, else what first fails; factor(shape)
    is the built graph of shape."""
    r = wg.restrict(g, set(range(1, g.n)) - {k})
    pairs = []
    for _, t in g.labels:
        rect = rsk.rectify(tb.restrict_gt(t, k))
        pairs.append((tb.restrict_leq(t, k), StandardTableau(rect.shape, rect.column_word)))
    shapes = [(p.shape.outer, q.shape.outer) for p, q in pairs]
    cells = wg.cells(r)
    inside = [{} for _ in cells.blocks]
    for (u, v), w in r.mu.items():
        if cells.block_of[u] == cells.block_of[v]:
            inside[cells.block_of[u]][u, v] = w
    found = Counter()
    for block, weights in zip(cells.blocks, inside):
        if len({shapes[v] for v in block}) != 1:
            return ("shapes", sorted(block))
        mu, nu = shapes[min(block)]
        hm, hn = factor(mu), factor(nu)
        where = {pairs[v]: v for v in block}
        if not len(where) == len(block) == hm.num_vertices * hn.num_vertices:
            return ("not a bijection", mu, nu, sorted(block))
        bad = [v for v in block if r.masks[v] != _descent_mask(pairs[v][0]) | _descent_mask(pairs[v][1]) << k]
        if bad:
            return ("masks", min(bad))
        product = {}
        for (a, b), w in hm.mu.items():
            for _, q in hn.labels:
                product[where[hm.labels[a][1], q], where[hm.labels[b][1], q]] = w
        for (a, b), w in hn.mu.items():
            for _, p in hm.labels:
                product[where[p, hn.labels[a][1]], where[p, hn.labels[b][1]]] = w
        if weights != product:
            return ("weights", min(weights.items() ^ product.items()))
        found[mu, nu] += 1
    expected = Counter(
        shape for (p, q), shape in zip(pairs, shapes) if p == tb.tau_min(p.shape) and q == tb.tau_min(q.shape)
    )
    if found != expected:
        return ("cell counts", sorted(found.items()), sorted(expected.items()))
    return None


def restriction_failures(n: int, graphs=None) -> list:
    """(lam, k, fault) for each lam of n and k in 1..n-1 at which the Young
    restriction identity fails on build_cell_graph(lam), or on graphs[lam]
    where graphs gives one.

    Restrict to J = {1..n-1} - {k} with wg.restrict and map each vertex t to
    the pair P = restrict_leq(t, k), R = rsk.rectify(restrict_gt(t, k)) with
    its offset dropped.  Each block of wg.cells then maps bijectively onto
    STD(mu) x STD(nu) for one pair of shapes; its colour masks are
    m(P) | m(R) << k, m the descent mask; its weights are those of the
    product of build_cell_graph(mu) and build_cell_graph(nu); and the blocks
    of (mu, nu) number the t with P = tau_min(mu) and R = tau_min(nu), the
    Littlewood-Richardson coefficient (Haiman).  Each factor graph is built
    once, by the builder.
    """
    graphs = graphs or {}
    factor = cache(builder.build_cell_graph)
    failures = []
    for lam in tb.partitions_of(n):
        g = graphs[lam] if lam in graphs else builder.build_cell_graph(lam)
        for k in range(1, n):
            fault = _restriction_fault(g, k, factor)
            if fault is not None:
                failures.append((lam, k, fault))
    return failures
