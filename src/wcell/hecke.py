"""Exact Hecke-algebra arithmetic and the Kazhdan-Lusztig oracle.

The Hecke algebra is taken over Z[q, q^-1] with the quadratic relation
H_s^2 = 1 + (q - q^-1) H_s.  verify_hecke_relations checks that a graph
defines a module of it on integer matrices evaluated at one integer q,
chosen large enough for the test to be exact.  It works with the
generator matrices shifted by -q^2 I, A'_s = d D_s + q W_s with
d = -(q^2 + 1), D_s the diagonal of the vertices s colours and W_s the
weights, filled from one pass over the weights.  Each relation is read one
column v at a time, and each kind of column has a normal form whose zero
test needs no product:

- commuting, only s colours v: the column is q sum mu(u, v)(q W_s u - d u)
  over the u of W_t v that s does not colour (the u it colours give
  d q mu(u, v) u on both sides), so it is zero iff s colours them all.
- commuting, neither colours v: the d q terms cancel, leaving
  q^2 (W_s W_t v - W_t W_s v), whose two-paths v -> u -> x pass only
  through middles u the outer generator does not colour.
- braid (s, t), only s colours v: with beta = W_t v and gamma the part
  of W_s beta on rows t does not colour, the column is
  q^2 [d (gamma - v) - q (W_t gamma - beta)]; its even and odd parts
  vanish separately, so it is zero iff gamma = v.
- both colour v: A'_s v = A'_t v = d v, so the column is 0.
- braid, neither colours v: the full products of that one column.

Only a column found nonzero is evaluated in full, for its witness; no
product matrix is held.

The Kazhdan-Lusztig polynomials P_{y,w} come from the usual recursion
C_{sw} = C_s C_w - sum mu(y, w) C_y, one column P_{.,w} at a time, kept as
coefficient tuples and keyed by the one-line images of the elements.  Each
column is made when first asked for, from the columns it needs, and kept
only as long as the caller holds the store.  kl_left_cell_graph asks only
for the columns of one cell's elements (or of their images under
w -> w w0, when those are shorter), in a store of its own or in one the
caller passes; the recursion takes every cell of S_n down through the same
short elements, so a store shared by the shapes of one n makes each of
those columns once.  kl_table asks for every column of S_n, for
kl_regular_graph.  Both stop at the one bound WCELL_ORACLE_MAX on n.
None of this is consulted by the cell builder; it exists to validate
builder output on small ranks.

Graphs produced here store only weights that define arcs (the weight is
dropped when tau(u) is contained in tau(v)), since other entries do not
affect the module structure; this makes exact graph comparison against the
builder meaningful.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from functools import partial
from operator import add

from . import rsk
from . import tableaux as tb
from . import wgraph as wg
from .permutations import (
    all_permutations,
    apply_s_images,
    inversions,
    left_descents,
    length,
)

DEFAULT_ORACLE_MAX = 7


def oracle_bound() -> int:
    raw = os.environ.get("WCELL_ORACLE_MAX", DEFAULT_ORACLE_MAX)
    try:
        return int(raw)
    except ValueError:
        raise OracleBoundError(f"WCELL_ORACLE_MAX must be an integer, got {raw!r}") from None


class OracleBoundError(ValueError):
    pass


def check_oracle_bound(n: int) -> None:
    """Raise OracleBoundError when n exceeds oracle_bound()."""
    bound = oracle_bound()
    if n > bound:
        msg = f"n={n} exceeds the oracle bound {bound}; raise WCELL_ORACLE_MAX to override"
        raise OracleBoundError(msg)


# ---------------------------------------------------------------------------
# Hecke relations on shifted module matrices


def verify_hecke_relations(g: wg.SColoredGraph) -> wg.CheckReport:
    """Commuting and braid identities, checked exactly at one integer q.

    With A_s = q T_s the relations read A_s A_t = A_t A_s and
    A_s A_t A_s = A_t A_s A_t.  They are evaluated on the shifted matrices
    A'_s = A_s - q^2 I.  The column of v in A'_s is -(q^2 + 1) v when s
    colours v, and otherwise q mu(u, v) u for every u coloured by s (never
    v itself: SColoredGraph rejects self-weights).  So a weight mu(u, v)
    enters A'_s exactly for the s in tau(u) but not in tau(v), and one pass
    over the weights fills every column.  With A, B for A_s, A_t and A', B' for
    their shifts, two identities hold in Z[q]:

        AB - BA = A'B' - B'A',
        ABA - BAB = A'B'A' - B'A'B' + q^2 (B' - A').

    The first is immediate.  The second expands A = A' + q^2 I and uses the
    quadratic relation, which reads A'^2 = -(q^2 + 1) A'.  So the shift
    leaves every entry of LHS - RHS the same polynomial in Z[q], and the
    bound on q stays exact.  Measure a column by the sum of the absolute
    coefficients of its entries; this norm is submultiplicative.  Every
    entry of A_s is a monomial, so the column norm of A_s at v is 1 when s
    colours v and 1 + sum |mu(u, v)| over u coloured by s otherwise.  Every
    column norm of every A_s is therefore at most
    L = 1 + max over v of sum |mu(u, v)| over all u, which one pass over
    the weights gives before any matrix is filled, so that the weights are
    stored already multiplied by q.  Each entry of LHS - RHS has absolute
    coefficient sum at most B = 2 L^3.  A nonzero integer polynomial of
    degree d with coefficient sum at most B cannot vanish at an integer
    q > B: its lower terms sum to at most (B - 1) q^(d-1) < q^d in absolute
    value.  So evaluating at q = B + 1 is an exact test.

    Each pair is read one column v at a time, in increasing v, and stops
    at its first nonzero column.  Write A' = d D + q W and B' = d E + q V
    with d = -(q^2 + 1): D and E are the 0/1 diagonals of the vertices
    that s and t colour, W and V hold the integer weights (W u = 0 when s
    colours u, and W u lies on vertices s colours; likewise V for t).
    Each column reduces to a normal form whose zero test needs no product:

    - commuting, s and t colour v: d^2 v - d^2 v = 0, skipped.
    - commuting, only s colours v: the column is q sum mu(u, v)(q W u - d u)
      over u in V v with s not in tau(u), since the u that s colours give
      d q mu(u, v) u on both sides.  W u lies on vertices s colours and
      u does not, so the terms cannot cancel: the column is zero iff s
      colours every u in V v.  Likewise with s, t swapped.
    - commuting, neither colours v: the d q mu(u, v) u terms of the u
      coloured by both cancel, leaving q^2 (W (1 - D) V v - V (1 - E) W v),
      an integer two-path sum over middle vertices u not coloured by the
      other generator.
    - braid, only s colours v: with beta = V v and
      gamma = (1 - E) W beta (two-paths v -> u -> x with t, not s, in tau(u)
      and s, not t, in tau(x)), the column is q^2 [d (gamma - v)
      - q (V gamma - beta)], since V D beta = 0 and V W beta = V gamma.  Its
      even and odd parts in q vanish separately, and gamma = v gives
      V gamma = beta: the column is zero iff gamma = v.  Likewise with s, t
      swapped, which negates the column.
    - braid, s and t colour v: d^3 - d^3 + q^2 (d - d) = 0, skipped.
    - braid, neither colours v: the full two products of the column.

    Only a column found nonzero is evaluated in full, once, for the
    witness (u, v): u is its smallest nonzero row.  No product matrix is
    held, and a diagonal column is made only when such an evaluation
    reads it.

    The quadratic relation A_s^2 = q^2 I + (q^2 - 1) A_s holds on every
    S-coloured graph (see the comment below), so it is not checked.  A_s
    depends only on the vertices s colours, so two generators that colour
    the same vertices have equal matrices, which commute; a generator that
    colours nothing has A'_s = 0.  The braid relations are checked for
    every bonded pair with at least one generator colouring some vertex:
    when t colours nothing the braid difference is -q^2 A'_s, which is
    nonzero.  So only generators within distance 1 of a colour get a
    matrix, and the cost does not grow with n beyond the colours in use.
    """
    # Quadratic relation: if s is in tau(v) then A_s v = -v.  Otherwise
    # A_s v = q^2 v + q sum mu(u, v) u over u coloured by s, each with
    # A_s u = -u (u != v: SColoredGraph rejects self-weights), so
    # A_s^2 v = q^4 v + (q^3 - q) sum mu(u, v) u = (q^2 I + (q^2 - 1) A_s) v.
    q2, mats = _shifted_matrices(g)
    bad = []
    coloured = [s for s in mats if mats[s].support]  # mats is in increasing s
    braids = sorted({(t, t + 1) for s in coloured for t in (s - 1, s) if 1 <= t <= g.n - 2})
    # A weight mu(u, x) enters A'_s only when s is in tau(u) \ tau(x); outside
    # the generators with weights every A'_s is diagonal, and diagonal
    # matrices commute, so a commuting pair can fail only if s or t has
    # weights and A'_s != A'_t.  Both generators then colour some vertex.
    from heapq import merge  # here, so that importing the CLI stays light

    def commuting():
        """The pairs s < t - 1 that can fail, in increasing order, made only
        as far as the check reads them."""
        for k, s in enumerate(coloured):
            for t in coloured[bisect_left(coloured, s + 2, k):]:
                if (mats[s] or mats[t]) and mats[s].support != mats[t].support:
                    yield s, t

    for s, t in merge(braids, commuting()):
        a, b = mats[s], mats[t]
        # the columns where A' or B' holds weights; every other column is
        # 0 or d v in each, which commute, and a braid pair adds those where
        # only one generator colours v, since d v and 0 fail the braid
        columns = a.keys() | b.keys()
        if t - s >= 2:
            kind = "commuting"
            v = _first_commuting_column(a, b, sorted(columns))
            witness = v is not None and _commuting_witness(a, b, (v,))
        else:
            kind = "braid"
            columns |= a.support ^ b.support
            v = _first_braid_column(a, b, sorted(columns), q2)
            witness = v is not None and _braid_witness(a, b, (v,), q2)
        if witness:
            bad.append((kind, s, t, *witness))
            if len(bad) == 10:
                break
    return wg.CheckReport("hecke-relations", not bad, tuple(bad))


_ZERO: dict = {}  # the column of every vertex without weights; never written


class _Shifted(dict):
    """The columns of one A'_s = A_s - q^2 I, by vertex.

    The stored columns are {u: q mu(u, v)}, at the v that s does not
    colour.  Reading any other column v gives {v: diagonal}, made afresh,
    when v is in support (the vertices s colours), and 0 otherwise.
    """

    __slots__ = ("support", "diagonal")

    def __missing__(self, v):
        return {v: self.diagonal} if v in self.support else _ZERO


def _shifted_matrices(g: wg.SColoredGraph):
    """q^2 and {s: A'_s as a _Shifted} for every generator within distance 1
    of a colour, at the q of verify_hecke_relations."""
    tau = g.tau
    norms = [1] * len(tau)  # 1 + sum |mu(u, v)| over all u, by v
    for (u, v), w in g.mu.items():
        norms[v] += abs(w)
    q = 2 * max(norms, default=1) ** 3 + 1
    q2 = q * q
    gens = sorted({t for s in set().union(*tau) for t in (s - 1, s, s + 1) if 1 <= t <= g.n - 1})
    mats = {s: _Shifted() for s in gens}
    for cols in mats.values():
        cols.support = set()
        cols.diagonal = -q2 - 1
    for v, colours in enumerate(tau):
        for s in colours:
            mats[s].support.add(v)
    # mats[s][v][u] = q mu(u, v) for s in tau(u) \ tau(v)
    for (u, v), w in g.mu.items():
        for s in tau[u] - tau[v]:
            cols = mats[s]
            col = cols.get(v)
            if col is None:
                cols[v] = {u: q * w}
            else:
                col[u] = q * w
    return q2, mats


def _first_commuting_column(a, b, columns):
    """The first of the given columns v where A'B' - B'A' is nonzero, by
    the normal forms of verify_hecke_relations; None if there is none.

    a and b are _Shifted.  Their stored columns sit only at the vertices
    their generator does not colour, so the two-path sums read through
    them skip the middle vertices that generator colours.
    """
    sa, sb, aget, bget = a.support, b.support, a.get, b.get
    for v in columns:
        if v in sa:
            if v not in sb and not sa.issuperset(bget(v, _ZERO)):
                return v
        elif v in sb:
            if not sb.issuperset(aget(v, _ZERO)):
                return v
        else:
            # q^2 (W V v - V W v); the middles coloured by both, whose
            # d q terms cancel, have no stored column in either
            acc: dict[int, int] = {}
            get = acc.get
            for u, c in bget(v, _ZERO).items():
                for x, e in aget(u, _ZERO).items():
                    acc[x] = get(x, 0) + e * c
            for u, c in aget(v, _ZERO).items():
                for x, e in bget(u, _ZERO).items():
                    acc[x] = get(x, 0) - e * c
            if any(acc.values()):
                return v
    return None


def _first_braid_column(a, b, columns, q2):
    """The first of the given columns v where
    A'B'A' - B'A'B' + q^2 (B' - A') is nonzero, by the normal forms of
    verify_hecke_relations; None if there is none.  a and b are _Shifted,
    read as in _first_commuting_column."""
    sa, sb = a.support, b.support
    for v in columns:
        if v in sa:
            if v in sb:
                continue
            x, y, sy = a, b, sb
        elif v in sb:
            x, y, sy = b, a, sa
        else:
            if _braid_witness(a, b, (v,), q2):
                return v
            continue
        # only x's generator colours v: q^2 gamma, the rows y's colours dropped
        acc: dict[int, int] = {}
        get = acc.get
        xget = x.get
        for u, c in y.get(v, _ZERO).items():
            for r, e in xget(u, _ZERO).items():
                if r not in sy:
                    acc[r] = get(r, 0) + e * c
        if acc.pop(v, 0) != q2 or any(acc.values()):
            return v
    return None


def _commuting_witness(a, b, columns):
    """(u, v) for the first of the given columns v where A'B' - B'A' is
    nonzero, and its smallest nonzero row u; None if there is none."""
    for v in columns:
        acc: dict[int, int] = {}
        get = acc.get
        for u, c in b[v].items():
            for x, e in a[u].items():
                acc[x] = get(x, 0) + e * c
        for u, c in a[v].items():
            for x, e in b[u].items():
                acc[x] = get(x, 0) - e * c
        if any(acc.values()):
            return min(x for x, e in acc.items() if e), v
    return None


def _braid_witness(a, b, columns, q2):
    """(u, v) for the first of the given columns v where
    A'B'A' - B'A'B' + q^2 (B' - A') is nonzero, and its smallest nonzero
    row u; None if there is none."""
    for v in columns:
        av, bv = a[v], b[v]
        acc = {u: q2 * c for u, c in bv.items()}
        get = acc.get
        for u, c in av.items():
            acc[u] = get(u, 0) - q2 * c
        for x, y, col, sign in ((a, b, av, 1), (b, a, bv, -1)):
            # acc += sign X Y X v, through mid = Y X v
            mid: dict[int, int] = {}
            mget = mid.get
            for u, c in col.items():
                for r, e in y[u].items():
                    mid[r] = mget(r, 0) + e * c
            for u, c in mid.items():
                c *= sign
                for r, e in x[u].items():
                    acc[r] = get(r, 0) + e * c
        if any(acc.values()):
            return min(u for u, c in acc.items() if c), v
    return None


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig table


def _add(a: tuple, b: tuple) -> tuple:
    """The coefficient tuple of a + b, without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = [*map(add, a, b), *a[len(b):]]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mu(p: tuple, d: int) -> int:
    """mu(y, w) from p = P_{y,w} and d = l(w) - l(y) > 0: the coefficient of
    p at degree (d - 1)/2, or 0 when d is even."""
    return p[d >> 1] if d & 1 and len(p) > d >> 1 else 0


class _Memo(dict):
    """A dict that fills a missing key k with fill(k) and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Columns(dict):
    """The KL columns {y: P_{y,w}} of S_n by w, each made when it is first read.

    Elements are one-line image tuples.  ``left[s - 1][y]`` is s y and
    ``lengths[y]`` is l(y), each made when first read; s y < y
    lexicographically exactly when s + 1 comes before s in y, that is when
    s is a left descent of y.  Reading a column makes the columns it is
    built from first, and the columns live as long as the dict.
    """

    def __init__(self, n: int):
        identity = tuple(range(1, n + 1))
        super().__init__({identity: {identity: (1,)}})
        self.n = n
        self.left = [_Memo(partial(apply_s_images, s)) for s in range(1, n)]
        self.lengths = _Memo(inversions)

    def __missing__(self, w):
        """P_{., w} via C_w = C_s C_v - sum mu(y, v) C_y over s y < y.

        Here v = s w for the smallest left descent s of w.  Each y below v
        adds P_{y,v}, times q when s y < y, to the entries of s y and of y;
        each such y with d = l(v) - l(y) odd and mu(y, v) = m != 0
        subtracts m q^((d + 1)/2) P_{z,y} from the entry of every z below
        y.  That shift is at least 1, so each entry keeps the constant term
        1 of P_{min(y, sy),v} and none empties.
        """
        s_times = next(row for row in self.left if row[w] < w)
        v = s_times[w]
        cv = self[v]
        lengths = self.lengths
        acc: dict = {}
        for y, p in cv.items():
            sy = s_times[y]
            if sy < y:
                acc[sy] = acc[y] = _add(cv[sy], (0,) + p)
            elif sy not in cv:
                acc[sy] = acc[y] = p
        lv = lengths[v]
        for y, p in cv.items():
            # mu(y, v) read inline: a _mu call per entry costs time here
            d = lv - lengths[y]
            if d & 1 and len(p) > d >> 1 and s_times[y] < y:
                shift = (0,) * ((d + 1) >> 1)
                times_minus_mu = (-p[d >> 1]).__mul__
                for z, pz in self[y].items():
                    acc[z] = _add(acc[z], shift + tuple(map(times_minus_mu, pz)))
        if acc.get(w) != (1,):
            raise AssertionError("canonical recursion lost unitriangularity")
        self[w] = acc
        return acc


def kl_columns(n: int, wanted) -> _Columns:
    """P_{y,w} as columns[w][y] for each w in wanted, on one-line image tuples.

    Each P_{y,w} is a tuple of coefficients from the constant term up to the
    last nonzero one, for each y below w in the Bruhat order.  Only the
    columns the recursion reaches from wanted are made, and the result
    holds each of them.  Every call starts afresh, from the identity alone;
    the result is the one store that keeps them, and later reads of it make
    and keep whatever else they reach.  kl_columns(n, ()) is an empty store
    for kl_left_cell_graph to share.
    """
    columns = _Columns(n)
    for w in wanted:
        columns[w]  # made on first read
    return columns


def kl_table(n: int) -> _Columns:
    """Every P_{y,w} of S_n: kl_columns over all of S_n, within the oracle bound."""
    check_oracle_bound(n)
    return kl_columns(n, itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# oracle graphs


def _oracle_graph(n, elements, labels, keys, columns) -> wg.SColoredGraph:
    """The W-graph on the given elements: left descent sets as colours and
    mu values as weights, stored only where they define arcs.

    keys[a] stands for elements[a] in columns, a _Columns that makes the
    column of a key when it is first read.  It is the element itself, or
    its image x w0 for every element, since mu(x, y) = mu(y w0, x w0)
    (Kazhdan-Lusztig 1979, Corollary 3.2); either way the mu of two
    vertices is read off the column of the longer key.
    """
    tau = [left_descents(w) for w in elements]
    lengths = columns.lengths
    mu: dict[tuple[int, int], int] = {}
    for b, kb in enumerate(keys):
        for a in range(b):
            if tau[a] != tau[b]:
                ka = keys[a]
                d = lengths[kb] - lengths[ka]
                m = _mu(columns[kb].get(ka, ()), d) if d > 0 else _mu(columns[ka].get(kb, ()), -d)
                if m:
                    if not tau[a] <= tau[b]:
                        mu[(a, b)] = m
                    if not tau[b] <= tau[a]:
                        mu[(b, a)] = m
    # n = 1 for S_0 as in build_cell_graph(()): a graph document needs n >= 1
    return wg.SColoredGraph(max(n, 1), tau, mu, labels)


def kl_left_cell_graph(lam, columns=None) -> wg.SColoredGraph:
    """The left-cell graph on the reading words of STD(lam), labelled by tableaux.

    Vertices follow the lexicographic order of the tableaux.  Only the KL
    columns that the cell's elements reach are computed.  When the words
    are longer than half of l(w0) on average, the columns of the shorter
    elements w w0 (one-line images reversed) are used instead.

    columns, when given, is a store for S_n made by kl_columns(n, ()): the
    columns are read from it, and whatever the recursion makes is added to
    it, so the shapes of one n that share it make each column once.  None
    gives the call a fresh store of its own.  A store for another n raises
    ValueError.
    """
    lam = tb.check_partition(lam)
    n = sum(lam)
    check_oracle_bound(n)
    if columns is not None and columns.n != n:
        raise ValueError(f"a KL column store for S_{columns.n} cannot serve the shape {lam} of {n}")
    tabs = tb.enumerate_std(lam)
    words = [tb.word(t) for t in tabs]
    flip = 2 * sum(map(length, words)) > len(words) * (n * (n - 1) // 2)
    return _left_cell_graph(n, words, tuple((0, t) for t in tabs), flip, columns)


def _left_cell_graph(n: int, words, labels, flip: bool, columns=None) -> wg.SColoredGraph:
    """The W-graph on words, with mu read from the columns of the words, or
    of their images w w0 when flip, made in columns or in a fresh store."""
    keys = [w.images[::-1] if flip else w.images for w in words]
    if columns is None:
        columns = kl_columns(n, ())
    return _oracle_graph(n, words, labels, keys, columns)


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
    return _oracle_graph(n, elements, labels, [w.images for w in elements], kl_table(n))


def graphs_equal_under(g1: wg.SColoredGraph, g2: wg.SColoredGraph, bijection) -> bool:
    """Exact equality of colours and weights under a vertex bijection g1 -> g2."""
    if g1.num_vertices != g2.num_vertices:
        return False
    image = [bijection[v] for v in g1.vertices()]
    if sorted(image) != list(g2.vertices()):
        raise ValueError("not a bijection onto the second vertex set")
    if g1.n != g2.n or any(g1.tau[v] != g2.tau[image[v]] for v in g1.vertices()):
        return False
    mapped = {(image[u], image[v]): w for (u, v), w in g1.mu.items()}
    return mapped == g2.mu
