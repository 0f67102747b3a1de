"""Exact Hecke-algebra arithmetic and the Kazhdan-Lusztig oracle.

The Hecke algebra is taken over Z[q, q^-1] with the quadratic relation
H_s^2 = 1 + (q - q^-1) H_s.  verify_hecke_relations checks that a graph
defines a module of it, exactly and without giving q a value: each column
of each relation is a few integer vectors of path sums over the weights,
one per power of q, which its docstring derives.  No product matrix is
held.

The Kazhdan-Lusztig polynomials P_{y,w} come from the usual recursion
C_{sw} = C_s C_w - sum mu(y, w) C_y, one column P_{.,w} at a time, kept as
ints (see _Columns) and keyed by the one-line images of the elements.  Each
column is made when first asked for, from the columns it needs, and kept
only as long as the caller holds the store.  kl_columns makes the store,
and is the one place that checks the bound WCELL_ORACLE_MAX on n.
kl_left_cell_graph asks only for the columns of one cell's elements (or of
their images under w -> w w0, when those are shorter), in the store the
caller passes; the recursion takes every cell of S_n down through the same
short elements, so a store shared by the shapes of one n makes each of
those columns once.  kl_table asks for every column of S_n; only tests
and benchmarks call it.
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
from functools import partial, reduce
from operator import or_

from . import tableaux as tb
from . import wgraph as wg
from .permutations import apply_s_images, inversions, left_descents_images

DEFAULT_ORACLE_MAX = 7


def oracle_bound() -> int:
    raw = os.environ.get("WCELL_ORACLE_MAX", DEFAULT_ORACLE_MAX)
    try:
        return int(raw)
    except ValueError:
        raise OracleBoundError(f"WCELL_ORACLE_MAX must be an integer, got {raw!r}") from None


class OracleBoundError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Hecke relations as integer path sums


def verify_hecke_relations(g: wg.SColoredGraph) -> wg.CheckReport:
    """Commuting and braid identities, checked exactly in Z[q].

    With A_s = q T_s the relations read A_s A_t = A_t A_s and
    A_s A_t A_s = A_t A_s A_t.  The column of v in A_s is -v when s colours
    v, and otherwise q^2 v plus q mu(u, v) u for every u coloured by s
    (never v itself: SColoredGraph rejects self-weights).  Shift by -q^2 I:
    for a pair s, t write A' = A_s - q^2 I = d D + q W and
    B' = A_t - q^2 I = d E + q V, with d = -(q^2 + 1), D and E the 0/1
    diagonals of the vertices s and t colour, and W and V the integer
    weights.  W v = 0 when s colours v, and W v lies on vertices s colours,
    so W D = 0 and D W = W; likewise V for t.  Two identities hold in Z[q]:

        A_s A_t - A_t A_s = A'B' - B'A',
        A_s A_t A_s - A_t A_s A_t = A'B'A' - B'A'B' + q^2 (B' - A').

    The first is immediate.  The second expands A_s = A' + q^2 I and uses
    the quadratic relation, which reads A'^2 = d A'.  Each pair is read one
    column v at a time, in increasing v, and stops at its first nonzero
    column.  Write beta = V v, R for the part of beta on the vertices s
    does not colour, gamma for the part of W beta on the vertices t does
    not colour, m1 = V W v and m2 = W V v.  Each column is a sum of integer
    vectors, each times a polynomial in q:

    - s and t colour v: A'v = B'v = d v, so both columns are 0.
    - commuting, only s colours v: A'B'v - B'A'v = q A'beta - d q beta
      = q^2 W R + (q^3 + q) R, since W beta = W R and
      d (D beta - beta) = -d R.  R and W R lie on disjoint rows, so the
      column is zero iff R is, that is iff s colours every vertex of V v.
    - commuting, neither colours v: A'B'v - B'A'v
      = d q (D V v - E W v) + q^2 (m2 - m1).  D V v and E W v are both the
      sum of mu(u, v) u over the u coloured by s and t, so the column is
      q^2 (m2 - m1).
    - braid, only s colours v: A'B'A'v = d q A'beta
      = d q (d D beta + q W beta), and B'A'B'v = q B'(d D beta + q W beta)
      = q (d^2 D beta + d q E W beta + q^2 V W beta), since beta and so
      D beta lie on vertices t colours.  With V W beta = V gamma and
      beta = V v the column is -(q^4 + q^2)(gamma - v) - q^3 V (gamma - v),
      zero iff gamma = v.
    - braid, neither colours v: A'v = q W v lies on vertices s colours, so
      E W v = D E W v and W E W v = 0, and
      A'B'A'v = q A'(d E W v + q m1) = d^2 q E W v + d q^2 D m1 + q^3 W m1.
      Likewise B'A'B'v = d^2 q D V v + d q^2 E m2 + q^3 V m2, and
      E W v = D V v as above, so the column is -(q^4 + q^2) P + q^3 Q with
      P = D m1 - E m2 and Q = W m1 - V m2 + V v - W v.  Neither generator
      colours v, so with n1 = m1 - v and n2 = m2 - v these are
      P = D n1 - E n2 and Q = W n1 - V n2.

    Swapping s and t negates each column, so the cases where only t
    colours v read the same with the roles swapped.  Within a column the
    polynomials that multiply the vectors differ in parity, so a row is
    zero as a polynomial iff every vector is zero there.  The witness of a
    failing pair is (u, v), with v its first nonzero column and u the
    smallest row where one of its vectors is nonzero.  No product matrix
    is held and q is never given a value.

    The quadratic relation A_s^2 = q^2 I + (q^2 - 1) A_s holds on every
    S-coloured graph (see the comment below), so it is not checked.  A_s
    depends only on the vertices s colours, so two generators that colour
    the same vertices have equal matrices, which commute; a generator that
    colours nothing has A'_s = 0.  The braid relations are checked for
    every bonded pair with at least one generator colouring some vertex:
    when t colours nothing the braid difference is -q^2 A'_s, which is
    nonzero.  So only generators within distance 1 of a colour get
    weights, and the cost does not grow with n beyond the colours in use.
    """
    # Quadratic relation: if s is in tau(v) then A_s v = -v.  Otherwise
    # A_s v = q^2 v + q sum mu(u, v) u over u coloured by s, each with
    # A_s u = -u (u != v: SColoredGraph rejects self-weights), so
    # A_s^2 v = q^4 v + (q^3 - q) sum mu(u, v) u = (q^2 I + (q^2 - 1) A_s) v.
    gens = _generator_weights(g)
    bad = []
    coloured = [s for s in gens if gens[s][1]]  # gens is in increasing s
    braids = [(i, i + 1) for i in wg.bonds(g)]
    # A weight mu(u, x) enters W_s only when s is in tau(u) \ tau(x); outside
    # the generators with weights every A'_s is diagonal, and diagonal
    # matrices commute, so a commuting pair can fail only if s or t has
    # weights and their supports differ.  Both generators then colour some
    # vertex.
    from heapq import merge  # here, so that importing the CLI stays light

    def commuting():
        """The pairs s < t - 1 that can fail, in increasing order, made only
        as far as the check reads them."""
        for k, s in enumerate(coloured):
            for t in coloured[bisect_left(coloured, s + 2, k):]:
                if (gens[s][0] or gens[t][0]) and gens[s][1] != gens[t][1]:
                    yield s, t

    for s, t in merge(braids, commuting()):
        a, b = gens[s], gens[t]
        # the columns where W or V holds weights; every other column is 0
        # or d v in each, which commute, and a braid pair adds those where
        # only one generator colours v, since d v and 0 fail the braid
        columns = a[0].keys() | b[0].keys()
        if t - s >= 2:
            kind, witness = "commuting", _first_commuting_failure(a, b, sorted(columns))
        else:
            kind = "braid"
            witness = _first_braid_failure(a, b, sorted(columns | (a[1] ^ b[1])))
        if witness:
            bad.append((kind, s, t, *witness))
            if len(bad) == 10:
                break
    return wg.CheckReport("hecke-relations", not bad, tuple(bad))


_ZERO: dict = {}  # the column of every vertex without weights; never written


def _generator_weights(g: wg.SColoredGraph) -> dict:
    """{s: (weights, support)} for every generator s within distance 1 of a
    colour, in increasing s: support is the set of vertices s colours, and
    weights[v] = {u: mu(u, v)} over the u that s colours, stored only at
    the v that s does not colour and that have such a u."""
    masks = g.masks
    used = reduce(or_, set(masks), 0)
    gens = [t for t in wg._bits((used | used << 1 | used >> 1) & ~1) if t <= g.n - 1]
    table = {s: ({}, set()) for s in gens}
    for v, m in enumerate(masks):
        for s in wg._bits(m):
            table[s][1].add(v)
    for (u, v), w in g.mu.items():
        for s in wg._bits(masks[u] & ~masks[v]):
            cols = table[s][0]
            col = cols.get(v)
            if col is None:
                cols[v] = {u: w}
            else:
                col[u] = w
    return table


def _paths(w: dict, col: dict, acc: dict, sign: int = 1) -> dict:
    """acc + sign W col, in place, for W a weights table of
    _generator_weights: each entry c at u of col adds c mu(x, u) at every x
    of the column W stores at u."""
    get, wget = acc.get, w.get
    for u, c in col.items():
        c *= sign
        for x, e in wget(u, _ZERO).items():
            acc[x] = get(x, 0) + e * c
    return acc


def _first_row(*vectors) -> int:
    """The smallest row where one of the vectors is nonzero; one must be."""
    return min(u for vec in vectors for u, c in vec.items() if c)


def _first_commuting_failure(a, b, columns):
    """(u, v) for the first of the given columns v where A_s A_t - A_t A_s
    is nonzero and its smallest nonzero row u, by the normal forms of
    verify_hecke_relations; None if there is none.  a and b are the
    (weights, support) of s and t."""
    (wa, sa), (wb, sb) = a, b
    for v in columns:
        if v in sa:
            if v in sb or sa.issuperset(wb.get(v, _ZERO)):
                continue
            w, r = wa, {u: c for u, c in wb[v].items() if u not in sa}
        elif v in sb:
            if sb.issuperset(wa.get(v, _ZERO)):
                continue
            w, r = wb, {u: c for u, c in wa[v].items() if u not in sb}
        else:
            # q^2 (m2 - m1), the most common column: _paths inline.  The
            # middles coloured by both have no stored column
            m = {}
            get = m.get
            for u, c in wb.get(v, _ZERO).items():
                for x, e in wa.get(u, _ZERO).items():
                    m[x] = get(x, 0) + e * c
            for u, c in wa.get(v, _ZERO).items():
                for x, e in wb.get(u, _ZERO).items():
                    m[x] = get(x, 0) - e * c
            if any(m.values()):
                return _first_row(m), v
            continue
        # (q^3 + q) R + q^2 W R, and R is not zero
        return _first_row(r, _paths(w, r, {})), v
    return None


def _first_braid_failure(a, b, columns):
    """(u, v) for the first of the given columns v where
    A_s A_t A_s - A_t A_s A_t is nonzero and its smallest nonzero row u, by
    the normal forms of verify_hecke_relations; None if there is none.  a
    and b are the (weights, support) of s and t."""
    (wa, sa), (wb, sb) = a, b
    for v in columns:
        if v in sa:
            if v in sb:
                continue
            x, y, sy = wa, wb, sb
        elif v in sb:
            x, y, sy = wb, wa, sa
        else:
            # -(q^4 + q^2) P + q^3 Q, through n1 = m1 - v and n2 = m2 - v
            n1, n2 = _paths(wb, wa.get(v, _ZERO), {}), _paths(wa, wb.get(v, _ZERO), {})
            n1[v] = n1.get(v, 0) - 1
            n2[v] = n2.get(v, 0) - 1
            even = {u: c for u, c in n1.items() if u in sa}
            for u, c in n2.items():
                if u in sb:
                    even[u] = even.get(u, 0) - c
            odd = _paths(wa, n1, _paths(wb, n2, {}, -1))
            if any(even.values()) or any(odd.values()):
                return _first_row(even, odd), v
            continue
        # only x's generator colours v: -(q^4 + q^2) gv - q^3 Y gv with
        # gv = gamma - v, gamma the rows of X Y v that y's generator does
        # not colour
        gv = {}
        get = gv.get
        for u, c in y.get(v, _ZERO).items():
            for r, e in x.get(u, _ZERO).items():
                if r not in sy:
                    gv[r] = get(r, 0) + e * c
        gv[v] = get(v, 0) - 1
        if any(gv.values()):
            return _first_row(gv, _paths(y, gv, {})), v
    return None


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig table


_W = 64  # P is kept as P(2^_W): the coefficient of q^k is the field of bits [k _W, (k + 1) _W)
_FIELD = (1 << _W) - 1
_GUARDS = (1 << _W * _W // 2) // _FIELD << _W - 1  # the top bit of the lowest _W/2 fields


def _mu(p: int, d: int) -> int:
    """mu(y, w) from p = P_{y,w}, packed as in _Columns, and d = l(w) - l(y) > 0:
    the coefficient at degree (d - 1)/2, or 0 for even d; AssertionError on a guard bit."""
    if d & 1 and p & _GUARDS:
        raise AssertionError("a KL coefficient left its field")
    return p >> (d >> 1) * _W & _FIELD if d & 1 else 0


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

    Each P_{y,w} = sum c_k q^k is the int P(2^_W), exact under int sums and
    shifts.  ``bounds[w]`` bounds every |c_k| in column w: 1 at the identity,
    and 2 bounds[v] + sum m bounds[y] over the terms of __missing__, which
    raises AssertionError once it reaches 2^(_W - 2).  As it at least doubles
    per step, a stored column has l(w) < _W - 2 and mu reads degrees below
    _W/2.  In two's complement field k holds c_k + b_k mod 2^_W, its top bit
    set iff c_k + b_k < 0, which is when the borrow b_{k+1} is -1, else 0
    (b_0 = 0).  So clear top bits in the fields up to k prove c_0, ..., c_k
    nonnegative and equal to their fields: each read first checks _GUARDS,
    the top bits of the lowest _W/2 fields.
    """

    def __init__(self, n: int):
        identity = tuple(range(1, n + 1))
        super().__init__({identity: {identity: 1}})
        self.n = n
        self.left = [_Memo(partial(apply_s_images, s)) for s in range(1, n)]
        self.lengths = _Memo(inversions)
        self.bounds = {identity: 1}

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
        lengths, bounds, width = self.lengths, self.bounds, _W
        acc: dict = {}
        for y, p in cv.items():
            sy = s_times[y]
            if sy < y:
                acc[sy] = acc[y] = cv[sy] + (p << width)
            elif sy not in cv:
                acc[sy] = acc[y] = p
        lv, bound = lengths[v], 2 * bounds[v]
        for y, p in cv.items():
            if s_times[y] < y:
                d = lv - lengths[y]
                m = _mu(p, d)
                if m:
                    shift = (d + 1) // 2 * width
                    for z, pz in self[y].items():
                        acc[z] -= m * pz << shift
                    bound += m * bounds[y]
        if acc.get(w) != 1:
            raise AssertionError("canonical recursion lost unitriangularity")
        if bound >> width - 2:
            raise AssertionError("a KL coefficient may outgrow its field")
        bounds[w] = bound
        self[w] = acc
        return acc


def kl_columns(n: int, wanted) -> _Columns:
    """P_{y,w} as columns[w][y] for each w in wanted, on one-line image tuples.

    Each P_{y,w}, for each y below w in the Bruhat order, is one int packed
    as in _Columns; _mu reads mu off it.  Only the columns the recursion
    reaches from wanted are made, and the result holds each of them.  Every
    call starts afresh, from the identity alone; the result is the one store
    that keeps them, and later reads of it make and keep whatever else they
    reach.  kl_columns(n, ()) is an empty store for kl_left_cell_graph.
    Raises OracleBoundError, before any work, when n exceeds oracle_bound().
    """
    bound = oracle_bound()
    if n > bound:
        msg = f"n={n} exceeds the oracle bound {bound}; raise WCELL_ORACLE_MAX to override"
        raise OracleBoundError(msg)
    columns = _Columns(n)
    for w in wanted:
        columns[w]  # made on first read
    return columns


def kl_table(n: int) -> _Columns:
    """Every P_{y,w} of S_n: kl_columns over all of S_n, within the oracle bound."""
    return kl_columns(n, itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# oracle graphs


def _oracle_graph(words, labels, columns, flip: bool) -> wg.SColoredGraph:
    """The W-graph on the one-line images words of elements of S_n: left
    descent sets as colours and mu values as weights, stored only where
    they define arcs.

    mu is read off the column of the longer of two keys in columns, a
    _Columns for S_n.  The keys are the words, or when flip their images
    w w0, since mu(x, y) = mu(y w0, x w0) (Kazhdan-Lusztig 1979,
    Corollary 3.2).
    """
    tau = [left_descents_images(w) for w in words]
    keys = [w[::-1] for w in words] if flip else words
    lengths = columns.lengths
    mu: dict[tuple[int, int], int] = {}
    for b, kb in enumerate(keys):
        for a in range(b):
            if tau[a] != tau[b]:
                ka = keys[a]
                d = lengths[kb] - lengths[ka]
                m = _mu(columns[kb].get(ka, 0), d) if d > 0 else _mu(columns[ka].get(kb, 0), -d)
                if m:
                    if not tau[a] <= tau[b]:
                        mu[(a, b)] = m
                    if not tau[b] <= tau[a]:
                        mu[(b, a)] = m
    # n = 1 for S_0 as in build_cell_graph(()): a graph document needs n >= 1
    return wg.SColoredGraph(max(columns.n, 1), tau, mu, labels)


def kl_left_cell_graph(lam, columns) -> wg.SColoredGraph:
    """The left-cell graph on the reading words of STD(lam), labelled by tableaux.

    Vertices follow the lexicographic order of the tableaux.  Only the KL
    columns that the cell's elements reach are computed.  When the words
    are longer than half of l(w0) on average, the columns of the shorter
    elements w w0 (one-line images reversed) are used instead.

    columns is a store for S_n made by kl_columns(n, ()): the columns are
    read from it, and whatever the recursion makes is added to it, so the
    shapes of one n that share it make each column once.  A store for
    another n raises ValueError.
    """
    lam = tb.check_partition(lam)
    n = sum(lam)
    if columns.n != n:
        raise ValueError(f"a KL column store for S_{columns.n} cannot serve the shape {lam} of {n}")
    tabs = tb.enumerate_std(lam)
    words = [tb.word_images(t) for t in tabs]
    flip = 2 * sum(map(columns.lengths.__getitem__, words)) > len(words) * (n * (n - 1) // 2)
    return _oracle_graph(words, tuple((0, t) for t in tabs), columns, flip)


def graphs_equal_under(g1: wg.SColoredGraph, g2: wg.SColoredGraph, bijection) -> bool:
    """Exact equality of colours and weights under a vertex bijection g1 -> g2."""
    if g1.num_vertices != g2.num_vertices:
        return False
    image = [bijection[v] for v in g1.vertices()]
    if sorted(image) != list(g2.vertices()):
        raise ValueError("not a bijection onto the second vertex set")
    if g1.n != g2.n or any(g1.masks[v] != g2.masks[image[v]] for v in g1.vertices()):
        return False
    mapped = {(image[u], image[v]): w for (u, v), w in g1.mu.items()}
    return mapped == g2.mu
