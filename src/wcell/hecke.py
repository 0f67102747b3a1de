"""Exact Hecke-algebra arithmetic and the Kazhdan-Lusztig oracle.

The Hecke algebra is taken over Z[q, q^-1] with the quadratic relation
H_s^2 = 1 + (q - q^-1) H_s.  verify_hecke_relations checks that a graph
defines a module of it on integer matrices evaluated at one integer q,
chosen large enough for the test to be exact.  The canonical basis
elements C_w are computed by the usual recursion
C_{sw} = C_s C_w - sum mu(y, w) C_y, which yields the coefficient
polynomials h_{y,w} in q^-1 Z[q^-1], the mu values as their q^-1
coefficients, and the classical polynomials P_{y,w} after a change of
variable, as coefficient tuples on integer positions of the elements, for
n up to the one bound WCELL_ORACLE_MAX.  None of this is consulted by the
cell builder; it exists to validate builder output on small ranks.

Graphs produced here store only weights that define arcs (the weight is
dropped when tau(u) is contained in tau(v)), since other entries do not
affect the module structure; this makes exact graph comparison against the
builder meaningful.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from . import rsk
from . import tableaux as tb
from . import wgraph as wg
from .permutations import all_permutations, apply_s, left_descents, length

DEFAULT_ORACLE_MAX = 6


def oracle_bound() -> int:
    raw = os.environ.get("WCELL_ORACLE_MAX", DEFAULT_ORACLE_MAX)
    try:
        return int(raw)
    except ValueError:
        raise OracleBoundError(f"WCELL_ORACLE_MAX must be an integer, got {raw!r}") from None


class OracleBoundError(ValueError):
    pass


# ---------------------------------------------------------------------------
# W-graph module matrices and relation checking


def module_matrices(g: wg.SColoredGraph, q: int, gens):
    """One sparse integer matrix A_s = q T_s per generator s in gens, evaluated at q.

    The column of v holds -v when s colours v, and otherwise
    q^2 v plus q mu(u, v) u for every u coloured by s.
    """
    mats = []
    for s in gens:
        cols = []
        for v in g.vertices():
            if s in g.tau[v]:
                cols.append({v: -1})
            else:
                col = {u: q * w for u, w in g.column(v).items() if s in g.tau[u]}
                col[v] = q * q
                cols.append(col)
        mats.append(cols)
    return mats


def _compose(mat_a, mat_b):
    """Columns of A applied to each column of B."""
    out = []
    for col in mat_b:
        acc: dict[int, int] = {}
        for u, c in col.items():
            for x, e in mat_a[u].items():
                acc[x] = acc.get(x, 0) + e * c
        out.append(acc)
    return out


def _first_difference(mat_a, mat_b):
    """(u, v) for the first column v where A and B differ and its smallest row u."""
    for v, (ca, cb) in enumerate(zip(mat_a, mat_b)):
        if ca != cb:
            rows = [u for u in ca.keys() | cb.keys() if ca.get(u, 0) != cb.get(u, 0)]
            if rows:
                return (min(rows), v)
    return None


def verify_hecke_relations(g: wg.SColoredGraph) -> wg.CheckReport:
    """Quadratic, commuting and braid identities, checked exactly at one integer q.

    With A_s = q T_s the relations read A_s^2 = q^2 I + (q^2 - 1) A_s,
    A_s A_t = A_t A_s and A_s A_t A_s = A_t A_s A_t, and every entry of
    LHS - RHS is a polynomial in Z[q].  Measure a column by the sum of the
    absolute coefficients of its entries; this norm is submultiplicative.
    Every entry of A_s is a monomial, so the largest column norm L of all
    A_s at q = 1 is 1 + sum |mu(u, v)| over u coloured by s, for s not in
    tau(v), or 1 if there is no such v; and each entry of LHS - RHS has
    absolute coefficient sum at most B = 2 L^3 + 2 L + 1.  A nonzero integer
    polynomial of degree d with coefficient sum at most B cannot vanish at
    an integer q > B: its lower terms sum to at most (B - 1) q^(d-1) < q^d
    in absolute value.  So evaluating at q = B + 1 is an exact test.

    A generator s that colours no vertex has A_s = q^2 I exactly, which
    satisfies the quadratic relation and commutes with every A_t, so those
    checks are skipped for it.  The braid relations are checked for every
    bonded pair with at least one generator colouring some vertex: there
    A_s A_t A_s = q^4 A_t must still equal A_t A_s A_t = q^2 A_t^2.  So only
    generators within distance 1 of a colour get a matrix, and the cost
    does not grow with n beyond the colours in use.
    """
    coloured = sorted(set().union(*g.tau))
    gens = sorted({t for s in coloured for t in (s - 1, s, s + 1) if 1 <= t <= g.n - 1})
    norm = max(
        (1 + sum(abs(w) for u, w in g.column(v).items() if s in g.tau[u])
         for s in gens for v in g.vertices() if s not in g.tau[v]),
        default=1,
    )
    q = 2 * norm**3 + 2 * norm + 2
    mats = dict(zip(gens, module_matrices(g, q, gens)))
    bad = []
    for s in coloured:
        mat = mats[s]
        expect = [{u: (q * q - 1) * e for u, e in col.items()} for col in mat]
        for v, col in enumerate(expect):
            col[v] += q * q
        witness = _first_difference(_compose(mat, mat), expect)
        if witness:
            bad.append(("quadratic", s, *witness))
    braids = {(t, t + 1) for s in coloured for t in (s - 1, s) if 1 <= t <= g.n - 2}
    # A weight mu(u, x) enters A_s only when s is in tau(u) \ tau(x); outside
    # their union R every A_s is diagonal, and diagonal matrices commute, so a
    # commuting pair can fail only if s or t lies in R.
    reach = set().union(*(g.tau[u] - g.tau[x] for u, x in g.mu))
    commuting = {(min(s, t), max(s, t)) for s in reach for t in coloured if abs(s - t) >= 2}
    for s, t in sorted(braids | commuting):
        a, b = mats[s], mats[t]
        if t - s >= 2:
            kind, lhs, rhs = "commuting", _compose(a, b), _compose(b, a)
        else:
            kind, lhs, rhs = "braid", _compose(a, _compose(b, a)), _compose(b, _compose(a, b))
        witness = _first_difference(lhs, rhs)
        if witness:
            bad.append((kind, s, t, *witness))
    return wg.CheckReport("hecke-relations", not bad, tuple(bad[:10]))


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig table


@dataclass(frozen=True)
class KLTable:
    """Canonical-basis coefficients for S_n on one integer element index.

    ``perms`` lists the elements of S_n by length, lexicographically within
    a length, and ``index`` maps each element to its position there; the
    other fields are keyed by these positions.  ``h[w][y]`` is the
    coefficient of the standard basis element H_y in the canonical basis
    element C_w, stored as a raw exponent -> coefficient dict.
    ``mu_pairs[(y, w)]`` holds the nonzero mu values for y < w, and
    ``lengths[w]`` is the length of ``perms[w]``.  ``kl_polynomial`` takes
    positions and returns a coefficient tuple; n is at most ``oracle_bound()``.
    """

    n: int
    perms: list
    index: dict
    h: dict
    mu_pairs: dict
    lengths: list

    def kl_polynomial(self, y: int, w: int) -> tuple[int, ...]:
        """Classical P_{y,w} for positions y and w, constant term first.

        () when y is not below w in the Bruhat order; P_{w,w} = (1,).
        """
        hy = self.h[w].get(y)
        if hy is None:
            return ()
        delta = self.lengths[w] - self.lengths[y]
        coeffs = {}
        for e, c in hy.items():
            k2 = e + delta
            if k2 < 0 or k2 % 2:
                raise AssertionError("canonical coefficient fails the parity bound")
            coeffs[k2 // 2] = c
        return tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


def _shift_add(acc: dict, key, h: dict, k: int, scale: int = 1) -> None:
    """acc[key] += scale q^k h, dropping zero terms and an emptied entry."""
    dst = acc.setdefault(key, {})
    for e, c in h.items():
        e2 = e + k
        s = dst.get(e2, 0) + scale * c
        if s:
            dst[e2] = s
        else:
            del dst[e2]
    if not dst:
        del acc[key]


@lru_cache(maxsize=None)
def kl_table(n: int) -> KLTable:
    """Full canonical-basis table for S_n via the C_s C_w recursion."""
    bound = oracle_bound()
    if n > bound:
        raise OracleBoundError(
            f"n={n} exceeds the oracle bound {bound}; raise WCELL_ORACLE_MAX to override"
        )
    perms = sorted(all_permutations(n), key=length)
    index = {w: k for k, w in enumerate(perms)}
    # left[s - 1][w] is the index of s w.  Index order refines length and
    # l(sw) = l(w) +- 1, so s is a left descent of w exactly when
    # left[s - 1][w] < w.
    left = [[index[apply_s(s, w)] for w in perms] for s in range(1, n)]
    h: dict[int, dict[int, dict[int, int]]] = {0: {0: {0: 1}}}
    mu_pairs: dict[tuple[int, int], int] = {}
    for w in range(1, len(perms)):
        # multiplication by the smallest left descent s of w
        s_times = next(row for row in left if row[w] < w)
        cv = h[s_times[w]]
        acc: dict[int, dict[int, int]] = {}
        for y, hy in cv.items():
            sy = s_times[y]
            _shift_add(acc, sy, hy, 0)
            _shift_add(acc, y, hy, -1 if sy > y else 1)
        for y, hy in cv.items():
            m = hy.get(-1, 0)
            if m and s_times[y] < y:
                for z, hz in h[y].items():
                    _shift_add(acc, z, hz, 0, -m)
        if acc.get(w) != {0: 1}:
            raise AssertionError("canonical recursion lost unitriangularity")
        h[w] = acc
        for y, hy in acc.items():
            m = hy.get(-1, 0)
            if m and y != w:
                mu_pairs[(y, w)] = m
    return KLTable(n, perms, index, h, mu_pairs, [length(w) for w in perms])


# ---------------------------------------------------------------------------
# oracle graphs


def _oracle_graph(table: KLTable, elements, labels) -> wg.SColoredGraph:
    """The W-graph on the given elements: left descent sets as colours and
    mu values as weights, stored only where they define arcs."""
    tau = [left_descents(w) for w in elements]
    ids = [table.index[w] for w in elements]
    mu: dict[tuple[int, int], int] = {}
    for a, ia in enumerate(ids):
        for b, ib in enumerate(ids):
            if not tau[a] <= tau[b]:
                m = table.mu_pairs.get((ia, ib) if ia < ib else (ib, ia))
                if m:
                    mu[(a, b)] = m
    return wg.SColoredGraph(table.n, tau, mu, labels)


def kl_left_cell_graph(lam) -> wg.SColoredGraph:
    """The left-cell graph on the reading words of STD(lam), labelled by tableaux.

    Vertices follow the lexicographic order of the tableaux.
    """
    lam = tb.check_partition(lam)
    table = kl_table(sum(lam))
    tabs = tb.enumerate_std(lam)
    return _oracle_graph(table, [tb.word(t) for t in tabs], tuple((0, t) for t in tabs))


def kl_regular_graph(n: int) -> wg.SColoredGraph:
    """The full left W-graph of S_n, labelled by Robinson-Schensted pairs.

    Vertices follow the one-line order; a vertex label is (recording-class
    index, insertion tableau).
    """
    table = kl_table(n)
    elements = sorted(table.perms, key=lambda w: w.images)
    pairs = [rsk.rs(w) for w in elements]
    q_index: dict = {}
    for _p, qtab in pairs:
        q_index.setdefault(qtab, len(q_index))
    return _oracle_graph(table, elements, tuple((q_index[qtab], p) for p, qtab in pairs))


def graphs_equal_under(g1: wg.SColoredGraph, g2: wg.SColoredGraph, bijection) -> bool:
    """Exact equality of colours and weights under a vertex bijection g1 -> g2."""
    if g1.num_vertices != g2.num_vertices:
        return False
    image = [bijection[v] for v in g1.vertices()]
    if sorted(image) != list(g2.vertices()):
        raise ValueError("not a bijection onto the second vertex set")
    if g1.n != g2.n:
        return False
    for v in g1.vertices():
        if g1.tau[v] != g2.tau[image[v]]:
            return False
    mapped = {(image[u], image[v]): w for (u, v), w in g1.mu.items()}
    return mapped == g2.mu
